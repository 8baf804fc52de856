//! Output checks. They run outside the timed region; a failed check counts
//! the request as failed.

use parallax_circuit::{Circuit, CircuitTemplate, DependencyDag};
use parallax_core::{discretize, select_aod_qubits, CompilationResult, CompilerConfig};
use parallax_graphine::GraphineLayout;
use parallax_hardware::{AodMove, Point};
use parallax_sim::{parallax_schedule_fidelity, EQUIV_TOL, MAX_SIM_QUBITS};

/// Zero SWAPs, gate counts equal to the input's, and a gate order that
/// respects the dependency DAG.
pub fn check_counts_and_order(circuit: &Circuit, r: &CompilationResult) -> Result<(), String> {
    let s = &r.schedule.stats;
    if s.swap_count != 0 {
        return Err(format!("{} SWAPs inserted", s.swap_count));
    }
    if s.cz_count != circuit.cz_count() || s.u3_count != circuit.u3_count() {
        return Err(format!(
            "gate counts cz {}/u3 {} differ from the input's cz {}/u3 {}",
            s.cz_count,
            s.u3_count,
            circuit.cz_count(),
            circuit.u3_count()
        ));
    }
    if !DependencyDag::build(circuit).respects_order(&r.schedule.gate_order()) {
        return Err("gate order breaks a dependency".into());
    }
    Ok(())
}

/// Replay every layer's moves and home returns through the hardware
/// constraint checker, starting from a freshly discretized layout with the
/// same AOD selection step the compiler ran.
pub fn check_replay(
    circuit: &Circuit,
    layout: &GraphineLayout,
    config: &CompilerConfig,
    r: &CompilationResult,
) -> Result<(), String> {
    let mut replay = discretize(circuit, layout, r.machine);
    let selection = select_aod_qubits(circuit, &mut replay, config);
    if selection.selected != r.aod_selection.selected {
        return Err("AOD selection differs from a fresh discretization's".into());
    }
    let homes_now: Vec<Point> =
        (0..circuit.num_qubits() as u32).map(|q| replay.array.position(q)).collect();
    if homes_now != r.home_positions {
        return Err("home positions differ from a fresh discretization's".into());
    }
    let mut homes: Vec<Option<Point>> = vec![None; replay.array.spec().num_sites()];
    for (i, layer) in r.schedule.layers.iter().enumerate() {
        if !replay.array.check_aod_moves(&layer.moves).is_empty() {
            return Err(format!("layer {i}: move batch violates hardware constraints"));
        }
        for m in &layer.moves {
            homes[m.q as usize].get_or_insert(replay.array.position(m.q));
        }
        replay.array.apply_aod_moves(&layer.moves).map_err(|v| format!("layer {i}: {v:?}"))?;
        if !config.return_home {
            continue;
        }
        let returns: Vec<AodMove> = layer
            .moves
            .iter()
            .filter_map(|m| {
                let home = homes[m.q as usize].expect("moved atoms have a recorded home");
                (replay.array.position(m.q).distance(&home) > 1e-9).then_some(AodMove {
                    q: m.q,
                    x: home.x,
                    y: home.y,
                })
            })
            .collect();
        if !replay.array.check_aod_moves(&returns).is_empty() {
            return Err(format!("layer {i}: home return violates hardware constraints"));
        }
        replay.array.apply_aod_moves(&returns).map_err(|v| format!("layer {i}: {v:?}"))?;
    }
    Ok(())
}

/// Statevector equivalence of the scheduled gate order with the input,
/// for circuits the dense simulator can hold (larger ones pass unchecked).
pub fn check_statevector(
    circuit: &Circuit,
    r: &CompilationResult,
    seed: u64,
) -> Result<(), String> {
    if circuit.num_qubits() > MAX_SIM_QUBITS {
        return Ok(());
    }
    let fidelity = parallax_schedule_fidelity(circuit, r, seed);
    if (fidelity - 1.0).abs() >= EQUIV_TOL {
        return Err(format!("statevector fidelity {fidelity} != 1"));
    }
    Ok(())
}

/// The bit-exact hash a sweep point's bound circuit must have.
pub fn expected_bound_hash(circuit: &Circuit, params: &[f64]) -> Result<String, String> {
    let bound = CircuitTemplate::from_circuit(circuit).bind(params).map_err(|e| e.to_string())?;
    Ok(format!("{:016x}", parallax_circuit::circuit_bits_hash(&bound)))
}
