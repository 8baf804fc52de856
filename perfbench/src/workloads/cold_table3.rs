//! `cold-table3`: paper-fidelity compiles of all 18 Table III circuits on
//! QuEra-256, one closed-loop thread, every compile on a fresh seed.

use super::{
    compile_with_layout_traced, splitmix, warm_up_seed, Phase, Quality, Workload, REFERENCE_SEEDS,
};
use crate::checks;
use crate::counters::Counters;
use crate::spans::Recorder;
use parallax_circuit::Circuit;
use parallax_core::layout_cache::{cached_layout, lookup_or_generate};
use parallax_core::{CompilationResult, CompilerConfig, ParallaxCompiler};
use parallax_graphine::{GraphineLayout, InteractionGraph};
use parallax_hardware::MachineSpec;
use parallax_service::{SubmitRequest, SubmitSource};
use std::time::Instant;

/// Circuit instances generated per benchmark; pass `k` compiles instance
/// `k % INSTANCES` on a fresh compile seed.
const INSTANCES: usize = 4;

pub struct ColdTable3 {
    machine: MachineSpec,
    circuits: Vec<Vec<Circuit>>,
    seeds: u64,
    passes: usize,
    next_request: u64,
    first_pass_digests: Vec<u64>,
}

/// The compile service's paper-fidelity configuration for `seed`.
fn paper_config(seed: u64) -> CompilerConfig {
    SubmitRequest { source: SubmitSource::Workload(String::new()), seed, ..Default::default() }
        .compiler_config()
}

impl ColdTable3 {
    pub fn setup(seed: u64, rep: usize) -> Self {
        let mut seeds = seed ^ 0xc01d_7ab1e3;
        let circuits: Vec<Vec<Circuit>> = parallax_workloads::all_benchmarks()
            .iter()
            .map(|b| (0..INSTANCES).map(|_| b.circuit(splitmix(&mut seeds))).collect())
            .collect();
        let machine = MachineSpec::quera_aquila_256();
        // Warm-up: one compile of the smallest circuit on a seed the
        // measured phases never use.
        let smallest = circuits.iter().map(|c| &c[0]).min_by_key(|c| c.len()).expect("18 circuits");
        let warm = ParallaxCompiler::new(machine, paper_config(warm_up_seed(seed, rep)));
        std::hint::black_box(warm.compile(smallest));
        Self {
            machine,
            circuits,
            seeds,
            passes: 0,
            next_request: 0,
            first_pass_digests: Vec::new(),
        }
    }
}

/// `ParallaxCompiler::compile` through the public functions it calls, one
/// span per layer.
fn compile_traced(
    rec: &mut Recorder,
    id: u64,
    machine: MachineSpec,
    config: &CompilerConfig,
    circuit: &Circuit,
    anneal_evals: &mut u64,
) -> (CompilationResult, GraphineLayout) {
    let graph =
        rec.time("graphine.interaction_graph", id, || InteractionGraph::from_circuit(circuit));
    let (layout, hit) = rec
        .time("graphine.placement", id, || lookup_or_generate(&graph, &machine, &config.placement));
    if !hit {
        *anneal_evals += layout.anneal_evals as u64;
    }
    (compile_with_layout_traced(rec, id, machine, config, circuit, &layout), layout)
}

/// Quality of paper-fidelity compiles of the 18 Table III circuits on
/// QuEra-256 at the reference seeds (circuit instance and compile seed).
pub fn table3_reference_quality() -> Quality {
    let mut q = Quality::default();
    for seed in REFERENCE_SEEDS {
        for b in parallax_workloads::all_benchmarks() {
            let compiler =
                ParallaxCompiler::new(MachineSpec::quera_aquila_256(), paper_config(seed));
            q.add(&compiler.compile(&b.circuit(seed)));
        }
    }
    q
}

impl Workload for ColdTable3 {
    fn measure(&mut self, seconds: f64, traced: bool, epoch: Instant) -> Phase {
        let mut phase = Phase::new(traced, epoch);
        let (mut anneal_evals, mut memo_hits) = (0u64, 0u64);
        while phase.window_s < seconds {
            let first_pass = self.passes == 0;
            for (i, instances) in self.circuits.iter().enumerate() {
                let circuit = &instances[self.passes % INSTANCES];
                let config = paper_config(splitmix(&mut self.seeds));
                let compiler = ParallaxCompiler::new(self.machine, config.clone());
                let id = self.next_request;
                self.next_request += 1;

                let before = Counters::snapshot(None);
                let t0 = Instant::now();
                let rec = &mut phase.spans;
                rec.enter("request", id);
                let (result, layout) = if traced {
                    let (r, l) =
                        compile_traced(rec, id, self.machine, &config, circuit, &mut anneal_evals);
                    (r, Some(l))
                } else {
                    (compiler.compile(circuit), None)
                };
                rec.exit();
                let secs = t0.elapsed().as_secs_f64();
                phase.counters.add_delta(&Counters::snapshot(None), &before);
                phase.window_s += secs;

                // Checks, outside the timed region and the counter window.
                let layout = layout
                    .unwrap_or_else(|| cached_layout(circuit, &self.machine, &config.placement));
                let check = checks::check_counts_and_order(circuit, &result)
                    .and_then(|()| checks::check_replay(circuit, &layout, &config, &result))
                    .and_then(|()| {
                        if first_pass {
                            checks::check_statevector(circuit, &result, id)
                        } else {
                            Ok(())
                        }
                    })
                    .map_err(|e| format!("cold-table3 (circuit {i}): {e}"));
                memo_hits += result.schedule.stats.failed_move_memo_hits as u64;
                if first_pass {
                    self.first_pass_digests.push(parallax_service::schedule_digest(&result));
                }
                phase.finish_request(secs * 1e3, check);
            }
            self.passes += 1;
        }
        phase.counters.compile.failed_move_memo_hits = Some((memo_hits, phase.attempted()));
        let n = phase.attempted().max(1) as f64;
        phase.extra.insert("graphine.anneal_evals", anneal_evals as f64 / n);
        phase
    }

    fn quality(&self) -> Quality {
        table3_reference_quality()
    }

    fn first_pass_digests(&self) -> &[u64] {
        &self.first_pass_digests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_pass(seed: u64) -> Vec<u64> {
        let mut w = ColdTable3::setup(seed, 0);
        let phase = w.measure(1e-9, false, Instant::now());
        assert_eq!(phase.failed, 0, "{:?}", phase.first_failure);
        assert_eq!(phase.attempted(), 18);
        w.first_pass_digests().to_vec()
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "paper-fidelity compiles: run with --release")]
    fn same_seed_repeats_schedules_and_quality() {
        assert_eq!(first_pass(5), first_pass(5));
        assert_ne!(first_pass(5), first_pass(6));
        let q = table3_reference_quality();
        assert_eq!(q, table3_reference_quality());
        assert_eq!(q.runtime_us.len(), 18 * REFERENCE_SEEDS.count());
    }
}
