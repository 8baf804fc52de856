//! The three workloads and the code that sets them up and measures them.
//!
//! * `cold-table3`: in-process paper-fidelity compiles of the 18 Table III
//!   circuits on QuEra-256, every compile on a fresh seed, so every layout,
//!   plan and template cache key misses. Placement annealing and
//!   Algorithm 1 do the work; the caches only pay probe and insert cost.
//! * `service-mix`: the compile service in-process with 2 workers and 2
//!   closed-loop TCP clients replaying a seeded mix of QASM-text requests:
//!   cold submits, exact repeats, near-misses and parameter sweeps. The
//!   only workload that exercises wire decode, QASM parsing, the service
//!   caches and the queue.
//! * `scale-atoms`: in-process compiles of ring-plus-chords circuits on
//!   fresh jittered-grid layouts at 1,000, 2,000 and 4,000 qubits. No
//!   placement; discretization, AOD selection and the scheduler do the
//!   work at the sizes the scalability claim is about.

mod cold_table3;
mod scale_atoms;
mod service_mix;

use crate::counters::Counters;
use crate::spans::Recorder;
use parallax_core::{
    discretize, schedule_gates, select_aod_qubits, CompilationResult, CompilerConfig,
};
use parallax_graphine::GraphineLayout;
use parallax_hardware::{MachineSpec, Point};
use parallax_sim::{parallax_fidelity_inputs, parallax_runtime_us, success_probability};
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAMES: [&str; 3] = ["cold-table3", "service-mix", "scale-atoms"];

/// Set-ups per run; `setup_s` is their median. Each repeat warms up on
/// its own seed ([`warm_up_seed`]), so every set-up is cold; only the
/// first is timed from process start.
const SETUP_REPEATS: usize = 5;

/// What one measured phase produced.
pub struct Phase {
    /// One entry per attempted request, ms; a failed request is +inf so it
    /// misses every latency limit.
    pub latencies_ms: Vec<f64>,
    /// Length of the measured window, s (throughput's denominator).
    pub window_s: f64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    pub counters: Counters,
    pub spans: Recorder,
    /// Workload-specific per-layer values, already per request.
    pub extra: BTreeMap<&'static str, f64>,
    /// Workload-specific lines for the report.
    pub notes: Vec<String>,
}

impl Phase {
    fn new(traced: bool, epoch: Instant) -> Self {
        Self {
            latencies_ms: Vec::new(),
            window_s: 0.0,
            failed: 0,
            first_failure: None,
            counters: Counters::default(),
            spans: Recorder::new(traced, epoch),
            extra: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record one request's latency, or its failure.
    fn finish_request(&mut self, ms: f64, check: Result<(), String>) {
        match check {
            Ok(()) => self.latencies_ms.push(ms),
            Err(e) => {
                self.latencies_ms.push(f64::INFINITY);
                self.failed += 1;
                self.first_failure.get_or_insert(e);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// Quality of the compiled output over a fixed reference set of compiles
/// that does not depend on the run's seed, so it repeats exactly on every
/// run and moves only when the compiler's output changes. (Over the run's
/// own seeds it would not be steady: the modeled runtime of one small
/// circuit varies tenfold between seeds, and the success probability of a
/// 2,000-qubit compile by fifty orders of magnitude.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    pub runtime_us: Vec<f64>,
    pub success: Vec<f64>,
    pub trap_changes: u64,
    pub cz: u64,
    /// Schedule digests of the same compiles.
    pub digests: Vec<u64>,
}

/// Seeds of the reference set the quality metrics are computed over.
pub const REFERENCE_SEEDS: std::ops::Range<u64> = 0..3;

impl Quality {
    pub fn add(&mut self, r: &CompilationResult) {
        let inputs = parallax_fidelity_inputs(r);
        self.runtime_us.push(parallax_runtime_us(r));
        self.success.push(success_probability(&inputs, &r.machine.params));
        self.trap_changes += r.schedule.stats.trap_changes as u64;
        self.cz += r.schedule.stats.cz_count as u64;
        self.digests.push(parallax_service::schedule_digest(r));
    }
}

/// A workload after set-up.
trait Workload {
    /// Run closed-loop requests for `seconds` of measured time.
    fn measure(&mut self, seconds: f64, traced: bool, epoch: Instant) -> Phase;
    /// Quality over the workload's reference set (computed after the
    /// measured phases).
    fn quality(&self) -> Quality;
    /// Schedule digests of the run's first pass of compiles, in pass order.
    fn first_pass_digests(&self) -> &[u64];
}

pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub untraced: Phase,
    pub traced: Option<Phase>,
    pub quality: Quality,
    pub first_pass_digests: Vec<u64>,
}

/// Set up `name` several times, then measure it: untraced for the whole
/// time, or untraced then traced for half the time each.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let setup = |rep| -> Result<Box<dyn Workload>, String> {
        Ok(match name {
            "cold-table3" => Box::new(cold_table3::ColdTable3::setup(seed, rep)),
            "service-mix" => Box::new(service_mix::ServiceMix::setup(seed, rep)?),
            "scale-atoms" => Box::new(scale_atoms::ScaleAtoms::setup(seed, rep)),
            other => return Err(format!("unknown workload '{other}' ({})", NAMES.join("|"))),
        })
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for rep in 0..SETUP_REPEATS {
        // The first set-up is timed from process start, the others from
        // their own start; dropping the previous instance (and its server)
        // happens before the clock.
        drop(workload.take());
        let t0 = if rep == 0 { process_start } else { Instant::now() };
        workload = Some(setup(rep)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let epoch = Instant::now();
    let (untraced, traced) = if trace {
        let untraced = w.measure(seconds / 2.0, false, epoch);
        (untraced, Some(w.measure(seconds / 2.0, true, epoch)))
    } else {
        (w.measure(seconds, false, epoch), None)
    };
    let quality = w.quality();
    let first_pass_digests = w.first_pass_digests().to_vec();
    drop(w);
    Ok(Outcome { setup_s, untraced, traced, quality, first_pass_digests })
}

/// `ParallaxCompiler::compile_with_layout` through the public stage
/// functions it calls, one span per stage.
fn compile_with_layout_traced(
    rec: &mut Recorder,
    id: u64,
    machine: MachineSpec,
    config: &CompilerConfig,
    circuit: &parallax_circuit::Circuit,
    layout: &GraphineLayout,
) -> CompilationResult {
    let mut disc = rec.time("core.discretize", id, || discretize(circuit, layout, machine));
    let selection =
        rec.time("core.aod_select", id, || select_aod_qubits(circuit, &mut disc, config));
    let home_positions: Vec<Point> =
        (0..circuit.num_qubits() as u32).map(|q| disc.array.position(q)).collect();
    let schedule =
        rec.time("core.schedule", id, || schedule_gates(circuit, &mut disc, &selection, config));
    CompilationResult {
        machine,
        interaction_radius_um: disc.interaction_radius_um,
        schedule,
        aod_selection: selection,
        home_positions,
        num_qubits: circuit.num_qubits(),
    }
}

/// The seed of set-up `rep`'s warm-up compiles: another one for every
/// repeat, so no set-up finds a layout, plan or template an earlier one
/// cached, and from another stream than the measured compiles' seeds.
pub fn warm_up_seed(seed: u64, rep: usize) -> u64 {
    let mut s = seed ^ 0x3a11_5eed_0000_0000 ^ rep as u64;
    splitmix(&mut s)
}

/// A SplitMix64 step: the benchmark's deterministic stream of seeds.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_set_up_repeat_warms_up_on_its_own_seed() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..SETUP_REPEATS).map(|rep| warm_up_seed(7, rep)).collect();
        assert_eq!(seeds.len(), SETUP_REPEATS);
        assert_eq!(warm_up_seed(7, 2), warm_up_seed(7, 2));
        assert_ne!(warm_up_seed(7, 0), warm_up_seed(8, 0));
    }
}
