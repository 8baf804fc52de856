//! `scale-atoms`: post-placement compiles of ring-plus-chords circuits at
//! 1,000 qubits on Atom-1225, 2,000 on Synthetic-2048 and 4,000 on
//! Synthetic-4096, one closed-loop thread. Each compile gets a fresh
//! jittered-grid layout, so its discretized array, and every cache key
//! derived from it, is new.

use super::{
    compile_with_layout_traced, splitmix, warm_up_seed, Phase, Quality, Workload, REFERENCE_SEEDS,
};
use crate::checks;
use crate::counters::Counters;
use parallax_bench::scale::{scale_arms, scale_circuit, scale_layout};
use parallax_circuit::Circuit;
use parallax_core::{CompilerConfig, ParallaxCompiler};
use parallax_graphine::PlacementConfig;
use parallax_hardware::MachineSpec;
use std::time::Instant;

pub struct ScaleAtoms {
    arms: Vec<(MachineSpec, Circuit)>,
    seeds: u64,
    passes: usize,
    next_request: u64,
    first_pass_digests: Vec<u64>,
}

fn config(seed: u64) -> CompilerConfig {
    CompilerConfig { seed, placement: PlacementConfig::quick(seed), ..Default::default() }
}

impl ScaleAtoms {
    pub fn setup(seed: u64, rep: usize) -> Self {
        let arms: Vec<(MachineSpec, Circuit)> =
            scale_arms().into_iter().map(|(m, q)| (m, scale_circuit(q))).collect();
        // Warm-up: one compile per arm on seeds the measured phases never
        // use. It also makes set-up long enough to time steadily.
        let mut warm_seeds = warm_up_seed(seed, rep);
        for (machine, circuit) in &arms {
            let s = splitmix(&mut warm_seeds);
            let warm = ParallaxCompiler::new(*machine, config(s));
            std::hint::black_box(
                warm.compile_with_layout(circuit, &scale_layout(circuit.num_qubits(), s)),
            );
        }
        Self {
            arms,
            seeds: seed ^ 0x5ca1_e470,
            passes: 0,
            next_request: 0,
            first_pass_digests: Vec::new(),
        }
    }
}

impl Workload for ScaleAtoms {
    fn measure(&mut self, seconds: f64, traced: bool, epoch: Instant) -> Phase {
        let mut phase = Phase::new(traced, epoch);
        let mut memo_hits = 0u64;
        while phase.window_s < seconds {
            for (machine, circuit) in &self.arms {
                let machine = *machine;
                let seed = splitmix(&mut self.seeds);
                let config = config(seed);
                let layout = scale_layout(circuit.num_qubits(), seed);
                let compiler = ParallaxCompiler::new(machine, config.clone());
                let id = self.next_request;
                self.next_request += 1;

                let before = Counters::snapshot(None);
                let t0 = Instant::now();
                let rec = &mut phase.spans;
                rec.enter("request", id);
                let result = if traced {
                    compile_with_layout_traced(rec, id, machine, &config, circuit, &layout)
                } else {
                    compiler.compile_with_layout(circuit, &layout)
                };
                rec.exit();
                let secs = t0.elapsed().as_secs_f64();
                phase.counters.add_delta(&Counters::snapshot(None), &before);
                phase.window_s += secs;

                let check = checks::check_counts_and_order(circuit, &result)
                    .and_then(|()| checks::check_replay(circuit, &layout, &config, &result))
                    .map_err(|e| format!("scale-atoms ({}): {e}", machine.name));
                memo_hits += result.schedule.stats.failed_move_memo_hits as u64;
                if self.passes == 0 {
                    self.first_pass_digests.push(parallax_service::schedule_digest(&result));
                }
                phase.finish_request(secs * 1e3, check);
            }
            self.passes += 1;
        }
        phase.counters.compile.failed_move_memo_hits = Some((memo_hits, phase.attempted()));
        phase
    }

    /// Every arm at the reference jitter seeds.
    fn quality(&self) -> Quality {
        let mut q = Quality::default();
        for seed in REFERENCE_SEEDS {
            for (machine, circuit) in &self.arms {
                let compiler = ParallaxCompiler::new(*machine, config(seed));
                q.add(
                    &compiler
                        .compile_with_layout(circuit, &scale_layout(circuit.num_qubits(), seed)),
                );
            }
        }
        q
    }

    fn first_pass_digests(&self) -> &[u64] {
        &self.first_pass_digests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::validate_nesting;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "4,000-qubit compiles: run with --release")]
    fn same_seed_repeats_schedules_and_quality() {
        let first_pass = |seed| {
            let mut w = ScaleAtoms::setup(seed, 0);
            let phase = w.measure(1e-9, true, Instant::now());
            assert_eq!(phase.failed, 0, "{:?}", phase.first_failure);
            validate_nesting(phase.spans.spans()).unwrap();
            (w.first_pass_digests().to_vec(), w.quality())
        };
        let (a, qa) = first_pass(9);
        let (b, qb) = first_pass(9);
        assert_eq!((a.len(), &a), (3, &b));
        assert_eq!(qa, qb);
        assert_ne!(a, first_pass(10).0);
    }
}
