//! Bounded derivative-free local search used for the "dual" (refinement)
//! phase of dual annealing.
//!
//! SciPy refines with L-BFGS-B; the placement objectives in this suite are
//! non-smooth (distance terms with clamps), so a compass/pattern search is
//! both simpler and more robust. The search contracts a per-dimension step
//! until it stalls or the evaluation budget is exhausted.
//!
//! The probe loop is **allocation-free**: a single candidate buffer mirrors
//! the incumbent and only the probed coordinate is toggled, so every
//! objective evaluation costs zero heap traffic (the annealer performs tens
//! of thousands of probes per placement). The four setup allocations per
//! call are counted in [`LocalResult::allocs`] so the placement stage's
//! allocation counter can attest the inner loop stays allocation-free.

/// Result of a local search.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub energy: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
    /// Heap allocations performed (setup only; the probe loop makes none).
    pub allocs: usize,
}

/// Compass (coordinate pattern) search within `bounds`, starting from `x0`
/// with objective `f`, spending at most `max_evals` evaluations.
pub fn pattern_search<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    bounds: &[(f64, f64)],
    max_evals: usize,
) -> LocalResult {
    assert_eq!(x0.len(), bounds.len(), "dimension mismatch");
    let dim = x0.len();
    let mut x = x0.to_vec();
    let mut energy = f(&x);
    let mut evals = 1usize;
    // Initial step: 10% of each dimension's range.
    let mut steps: Vec<f64> = bounds.iter().map(|(lo, hi)| 0.1 * (hi - lo).max(1e-12)).collect();
    let min_step: Vec<f64> = bounds.iter().map(|(lo, hi)| 1e-6 * (hi - lo).max(1e-12)).collect();
    // `cand` mirrors `x` between probes; a probe toggles one coordinate and
    // either commits it into `x` or restores it — no per-probe clone.
    let mut cand = x.clone();
    let allocs = 4; // x, steps, min_step, cand

    while evals < max_evals {
        let mut improved = false;
        for d in 0..dim {
            if evals + 2 > max_evals {
                break;
            }
            for dir in [1.0f64, -1.0] {
                let probe = (x[d] + dir * steps[d]).clamp(bounds[d].0, bounds[d].1);
                if probe == x[d] {
                    continue;
                }
                cand[d] = probe;
                let e = f(&cand);
                evals += 1;
                if e < energy {
                    // Commit: `cand` already equals the improved point.
                    x[d] = probe;
                    energy = e;
                    improved = true;
                    break;
                }
                cand[d] = x[d];
            }
        }
        if !improved {
            let mut all_min = true;
            for d in 0..dim {
                steps[d] *= 0.5;
                if steps[d] > min_step[d] {
                    all_min = false;
                } else {
                    steps[d] = min_step[d];
                }
            }
            if all_min {
                break;
            }
        }
    }
    LocalResult { x, energy, evals, allocs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] + 0.2).powi(2);
        let r = pattern_search(f, &[0.9, 0.9], &[(-1.0, 1.0), (-1.0, 1.0)], 5_000);
        assert!((r.x[0] - 0.3).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] + 0.2).abs() < 1e-3, "{:?}", r.x);
        assert!(r.energy < 1e-5);
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained optimum at (2, 2), outside the box.
        let f = |x: &[f64]| (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2);
        let r = pattern_search(f, &[0.0, 0.0], &[(0.0, 1.0), (0.0, 1.0)], 5_000);
        assert!(r.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((r.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn honors_eval_budget() {
        let mut count = 0usize;
        {
            let f = |x: &[f64]| {
                count += 1;
                x[0] * x[0]
            };
            let _ = pattern_search(f, &[0.5], &[(-1.0, 1.0)], 37);
        }
        assert!(count <= 37);
    }

    #[test]
    fn handles_nonsmooth_objective() {
        let f = |x: &[f64]| (x[0] - 0.25).abs() + (x[1] - 0.75).abs();
        let r = pattern_search(f, &[0.0, 0.0], &[(0.0, 1.0), (0.0, 1.0)], 10_000);
        assert!(r.energy < 1e-3, "energy = {}", r.energy);
    }

    #[test]
    fn allocation_count_is_constant() {
        // The probe loop must not allocate: the reported count is the fixed
        // setup cost regardless of how many evaluations run.
        let short = pattern_search(|x| x[0] * x[0], &[0.9], &[(-1.0, 1.0)], 8);
        let long = pattern_search(|x| x[0] * x[0], &[0.9], &[(-1.0, 1.0)], 8_000);
        assert_eq!(short.allocs, long.allocs);
        assert!(long.evals > short.evals);
    }

    #[test]
    fn probes_stay_local_to_the_incumbent() {
        // The incremental energy table is fast only when consecutive probe
        // vectors differ in few coordinates. Each probe differs from the
        // incumbent in exactly one, so consecutive evaluations differ in at
        // most two (the restored coordinate plus the newly probed one).
        let mut last: Option<Vec<f64>> = None;
        let f = |x: &[f64]| {
            if let Some(prev) = &last {
                let changed = prev.iter().zip(x).filter(|(a, b)| a != b).count();
                assert!(changed <= 2, "{changed} coordinates changed in one probe");
            }
            last = Some(x.to_vec());
            (x[0] - 0.2).powi(2) + (x[1] - 0.6).powi(2) + (x[2] + 0.1).powi(2)
        };
        let _ = pattern_search(f, &[0.9, -0.9, 0.5], &[(-1.0, 1.0); 3], 500);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = pattern_search(|_| 0.0, &[0.0], &[(0.0, 1.0), (0.0, 1.0)], 10);
    }
}
