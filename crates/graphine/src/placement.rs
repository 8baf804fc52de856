//! Dual-annealed 2D qubit placement.
//!
//! Section II-A: the circuit graph is embedded in the `[0,1]^2` plane with
//! dual annealing, "optimized to place pairs of qubits with high-weight
//! edges closer together". The objective combines weighted attraction along
//! circuit edges with a short-range repulsion that keeps atoms from
//! stacking (the separation constraint is enforced later by
//! discretization; repulsion merely keeps the annealer's output usable).

use crate::graph::{CsrAdjacency, InteractionGraph};
use crate::stable::WordHasher;
use parallax_anneal::{dual_annealing, AnnealParams};

/// Configuration for the placement annealer.
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// RNG seed (deterministic placement for equal seeds).
    pub seed: u64,
    /// Outer annealing iterations.
    pub max_iter: usize,
    /// Evaluation budget per local refinement.
    pub local_search_evals: usize,
    /// Repulsion strength relative to total edge weight.
    pub repulsion_scale: f64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self { seed: 0, max_iter: 400, local_search_evals: 1500, repulsion_scale: 1.0 }
    }
}

impl PlacementConfig {
    /// Cheap preset for unit tests and debug builds.
    pub fn quick(seed: u64) -> Self {
        Self { seed, max_iter: 80, local_search_evals: 400, ..Default::default() }
    }

    /// Stable fingerprint over every knob that steers the annealed result
    /// (floats by bit pattern).
    pub fn fingerprint(&self) -> u64 {
        let mut h = WordHasher::new();
        // The trailing `1` is the annealing-stream count, which is always
        // one. It stays in the hash so the layout-cache, result-cache and
        // on-disk keys match those written when the count was a knob.
        h.word(self.seed)
            .word(self.max_iter as u64)
            .word(self.local_search_evals as u64)
            .word(self.repulsion_scale.to_bits())
            .word(1);
        h.finish()
    }
}

/// Annealed positions in the normalized `[0,1]^2` plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-qubit `(x, y)` in `[0,1]`.
    pub positions: Vec<(f64, f64)>,
    /// Final objective value.
    pub energy: f64,
    /// Objective evaluations spent.
    pub evals: usize,
    /// Heap allocations the annealer performed; stays tiny because the
    /// inner loops are allocation-free.
    pub allocs: usize,
}

/// The placement objective: weighted squared edge lengths plus soft-core
/// repulsion below the target spacing `r0 ~ 1/sqrt(q)`.
///
/// This is the reference (always-recompute) form, O(E + q²) including the
/// per-pair `sqrt`. The annealer's hot loop uses [`EnergyTable`], which
/// produces bit-identical values while recomputing only the terms a move
/// actually changed.
pub fn placement_energy(
    positions: &[(f64, f64)],
    graph: &InteractionGraph,
    repulsion_scale: f64,
) -> f64 {
    let q = graph.num_qubits.max(1);
    let r0 = 0.8 / (q as f64).sqrt();
    let mut e = 0.0;
    for &(a, b, w) in &graph.edges {
        let (pa, pb) = (positions[a as usize], positions[b as usize]);
        let dx = pa.0 - pb.0;
        let dy = pa.1 - pb.1;
        e += w * (dx * dx + dy * dy);
    }
    // Repulsion competes with the attraction on equal footing: scale by the
    // mean edge weight so dense circuits do not collapse.
    let lambda = repulsion_lambda(graph, repulsion_scale);
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            let dx = positions[i].0 - positions[j].0;
            let dy = positions[i].1 - positions[j].1;
            let d = (dx * dx + dy * dy).sqrt();
            if d < r0 {
                let overlap = (r0 - d) / r0;
                e += lambda * overlap * overlap;
            }
        }
    }
    e
}

fn repulsion_lambda(graph: &InteractionGraph, repulsion_scale: f64) -> f64 {
    repulsion_scale * (graph.total_weight() / graph.edges.len().max(1) as f64).max(1.0) * 4.0
}

/// Incrementally-updated term table for [`placement_energy`].
///
/// The annealer evaluates the objective tens of thousands of times, and
/// most evaluations (every pattern-search probe, every odd annealing step)
/// move a *single coordinate* — yet the naive objective recomputes all
/// O(q²) pairwise distances each call, the dominant placement cost flagged
/// on the ROADMAP. The table caches every edge and pair term and, when a
/// new candidate differs from the previous one in only a few qubits,
/// recomputes just the terms touching those qubits (O(changed · q) square
/// roots instead of O(q²)).
///
/// The total is then re-summed from the cached terms **in the exact
/// accumulation order of [`placement_energy`]** — edge terms in edge order,
/// then pair terms in `(i, j), i < j` lexicographic order, with out-of-range
/// pairs contributing a literal `+0.0` (bitwise identity on the
/// non-negative totals that arise here) — so the result is bit-identical to
/// the reference form and seeded annealing trajectories are unchanged.
#[derive(Debug, Clone)]
pub struct EnergyTable<'g> {
    graph: &'g InteractionGraph,
    r0: f64,
    lambda: f64,
    /// Positions of the previous evaluation (term cache validity).
    cached: Vec<(f64, f64)>,
    /// Per-edge attraction terms, in `graph.edges` order.
    edge_terms: Vec<f64>,
    /// Per-pair repulsion terms, upper triangle in row-major `(i, j)` order.
    pair_terms: Vec<f64>,
    /// CSR adjacency (per-qubit incident-edge ids in ascending edge order —
    /// the same iteration order the nested `qubit_edges: Vec<Vec<usize>>`
    /// it replaced produced, so updates touch terms identically).
    adj: CsrAdjacency,
    /// Scratch: indices of qubits that moved since the previous evaluation.
    changed: Vec<usize>,
    primed: bool,
}

impl<'g> EnergyTable<'g> {
    /// Build an empty table for `graph`; the first [`Self::eval`] primes it
    /// with a full recomputation.
    pub fn new(graph: &'g InteractionGraph, repulsion_scale: f64) -> Self {
        let q = graph.num_qubits;
        Self {
            graph,
            r0: 0.8 / (q.max(1) as f64).sqrt(),
            lambda: repulsion_lambda(graph, repulsion_scale),
            cached: Vec::new(),
            edge_terms: vec![0.0; graph.edges.len()],
            pair_terms: vec![0.0; q * q.saturating_sub(1) / 2],
            adj: graph.csr(),
            changed: Vec::new(),
            primed: false,
        }
    }

    /// Index of pair `(i, j)` with `i < j` in the row-major upper triangle.
    #[inline]
    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        let q = self.graph.num_qubits;
        i * (2 * q - i - 1) / 2 + (j - i - 1)
    }

    #[inline]
    fn edge_term(&self, e: usize, positions: &[(f64, f64)]) -> f64 {
        let (a, b, w) = self.graph.edges[e];
        let (pa, pb) = (positions[a as usize], positions[b as usize]);
        let dx = pa.0 - pb.0;
        let dy = pa.1 - pb.1;
        w * (dx * dx + dy * dy)
    }

    #[inline]
    fn pair_term(&self, i: usize, j: usize, positions: &[(f64, f64)]) -> f64 {
        let dx = positions[i].0 - positions[j].0;
        let dy = positions[i].1 - positions[j].1;
        let d = (dx * dx + dy * dy).sqrt();
        if d < self.r0 {
            let overlap = (self.r0 - d) / self.r0;
            self.lambda * overlap * overlap
        } else {
            0.0
        }
    }

    fn recompute_all(&mut self, positions: &[(f64, f64)]) {
        for e in 0..self.graph.edges.len() {
            self.edge_terms[e] = self.edge_term(e, positions);
        }
        let q = positions.len();
        let mut k = 0;
        for i in 0..q {
            for j in (i + 1)..q {
                self.pair_terms[k] = self.pair_term(i, j, positions);
                k += 1;
            }
        }
        self.cached.clear();
        self.cached.extend_from_slice(positions);
        self.primed = true;
    }

    fn update_changed(&mut self, positions: &[(f64, f64)]) {
        // Borrow-splitting dance: walk the CSR row per changed qubit
        // through an index loop (the adjacency is disjoint from the term
        // tables, but the borrow checker can't see that through &mut self).
        for c in 0..self.changed.len() {
            let qubit = self.changed[c];
            for k in 0..self.adj.edge_ids(qubit).len() {
                let e = self.adj.edge_ids(qubit)[k] as usize;
                self.edge_terms[e] = self.edge_term(e, positions);
            }
            for other in 0..positions.len() {
                if other == qubit {
                    continue;
                }
                let (i, j) = (qubit.min(other), qubit.max(other));
                let idx = self.pair_index(i, j);
                self.pair_terms[idx] = self.pair_term(i, j, positions);
            }
            self.cached[qubit] = positions[qubit];
        }
    }

    /// Evaluate the placement energy at `positions`, reusing every cached
    /// term that no moved qubit touches. Bit-identical to
    /// [`placement_energy`] on the same inputs.
    pub fn eval(&mut self, positions: &[(f64, f64)]) -> f64 {
        let q = self.graph.num_qubits;
        debug_assert_eq!(positions.len(), q);
        if !self.primed || positions.len() != self.cached.len() {
            self.recompute_all(positions);
        } else {
            self.changed.clear();
            for (i, (new, old)) in positions.iter().zip(&self.cached).enumerate() {
                // Bitwise comparison: a NaN (which `!=` would call unequal
                // even when unchanged) still lands in the safe "recompute"
                // branch.
                if new.0.to_bits() != old.0.to_bits() || new.1.to_bits() != old.1.to_bits() {
                    self.changed.push(i);
                }
            }
            // A full-dimensional move touches every term; recomputing the
            // whole table in one pass is cheaper than q rows of updates.
            if 2 * self.changed.len() > q {
                self.recompute_all(positions);
            } else if !self.changed.is_empty() {
                self.update_changed(positions);
            }
        }
        let mut e = 0.0;
        for &t in &self.edge_terms {
            e += t;
        }
        for &t in &self.pair_terms {
            e += t;
        }
        e
    }
}

/// Run the annealed placement for `graph`: one dual-annealing stream
/// seeded with `config.seed`.
pub fn place(graph: &InteractionGraph, config: &PlacementConfig) -> Placement {
    let q = graph.num_qubits;
    if q == 0 {
        return Placement { positions: Vec::new(), energy: 0.0, evals: 0, allocs: 0 };
    }
    if q == 1 {
        return Placement { positions: vec![(0.5, 0.5)], energy: 0.0, evals: 0, allocs: 1 };
    }
    let bounds = vec![(0.0, 1.0); 2 * q];
    let params = AnnealParams {
        seed: config.seed,
        max_iter: config.max_iter,
        local_search_evals: config.local_search_evals,
        ..Default::default()
    };
    // The table keeps the annealer's single-coordinate probes O(q) instead
    // of O(q²) while returning bit-identical energies (see
    // [`EnergyTable`]); the scratch buffer keeps the hot loop allocation-free.
    let mut scratch = vec![(0.0f64, 0.0f64); q];
    let mut table = EnergyTable::new(graph, config.repulsion_scale);
    let objective = move |x: &[f64]| {
        for (i, s) in scratch.iter_mut().enumerate() {
            *s = (x[2 * i], x[2 * i + 1]);
        }
        table.eval(&scratch)
    };
    let result = dual_annealing(objective, &bounds, &params);
    let positions = (0..q).map(|i| (result.x[2 * i], result.x[2 * i + 1])).collect::<Vec<_>>();
    Placement { positions, energy: result.energy, evals: result.evals, allocs: result.allocs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_circuit::CircuitBuilder;

    fn line_graph(weights: &[f64]) -> InteractionGraph {
        InteractionGraph {
            num_qubits: weights.len() + 1,
            edges: weights.iter().enumerate().map(|(i, &w)| (i as u32, i as u32 + 1, w)).collect(),
        }
    }

    fn dist(p: &[(f64, f64)], a: usize, b: usize) -> f64 {
        let dx = p[a].0 - p[b].0;
        let dy = p[a].1 - p[b].1;
        (dx * dx + dy * dy).sqrt()
    }

    #[test]
    fn heavy_edges_end_up_shorter() {
        // Chain 0-1-2 with weight 50 on (0,1) and 1 on (1,2).
        let g = line_graph(&[50.0, 1.0]);
        let p = place(&g, &PlacementConfig::quick(7));
        assert!(
            dist(&p.positions, 0, 1) < dist(&p.positions, 1, 2),
            "heavy edge should be shorter: {:?}",
            p.positions
        );
    }

    #[test]
    fn repulsion_prevents_collapse() {
        let mut b = CircuitBuilder::new(4);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.cz(i, j);
            }
        }
        let g = InteractionGraph::from_circuit(&b.build());
        let p = place(&g, &PlacementConfig::quick(3));
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    dist(&p.positions, i, j) > 0.02,
                    "atoms {i},{j} collapsed: {:?}",
                    p.positions
                );
            }
        }
    }

    #[test]
    fn positions_stay_in_unit_square() {
        let g = line_graph(&[1.0, 2.0, 3.0, 4.0]);
        let p = place(&g, &PlacementConfig::quick(11));
        for &(x, y) in &p.positions {
            assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = line_graph(&[3.0, 1.0, 2.0]);
        let a = place(&g, &PlacementConfig::quick(5));
        let b = place(&g, &PlacementConfig::quick(5));
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_tracks_result_steering_knobs_only() {
        let base = PlacementConfig::quick(1);
        assert_eq!(base.fingerprint(), PlacementConfig::quick(1).fingerprint());
        assert_ne!(base.fingerprint(), PlacementConfig::quick(2).fingerprint());
        assert_ne!(base.fingerprint(), PlacementConfig::default().fingerprint());
        let mut scaled = base.clone();
        scaled.repulsion_scale = 2.0;
        assert_ne!(base.fingerprint(), scaled.fingerprint());
    }

    #[test]
    fn degenerate_sizes() {
        let g0 = InteractionGraph { num_qubits: 0, edges: vec![] };
        assert!(place(&g0, &PlacementConfig::quick(0)).positions.is_empty());
        let g1 = InteractionGraph { num_qubits: 1, edges: vec![] };
        assert_eq!(place(&g1, &PlacementConfig::quick(0)).positions, vec![(0.5, 0.5)]);
    }

    #[test]
    fn energy_decreases_with_shorter_heavy_edges() {
        let g = line_graph(&[10.0]);
        let near = placement_energy(&[(0.4, 0.5), (0.6, 0.5)], &g, 1.0);
        let far = placement_energy(&[(0.0, 0.0), (1.0, 1.0)], &g, 1.0);
        assert!(near < far);
    }

    /// Deterministic pseudo-random stream (no RNG needed for coverage).
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn energy_table_is_bit_identical_to_reference() {
        // A denser graph than a line: ring + chords, 12 qubits.
        let mut edges = Vec::new();
        for i in 0..12u32 {
            edges.push((i, (i + 1) % 12, 1.0 + i as f64));
            if i % 3 == 0 {
                edges.push((i, (i + 5) % 12, 2.5));
            }
        }
        let g = InteractionGraph { num_qubits: 12, edges };
        let mut table = EnergyTable::new(&g, 1.0);
        let mut state = 42u64;
        let mut pos: Vec<(f64, f64)> =
            (0..12).map(|_| (lcg(&mut state), lcg(&mut state))).collect();
        // Interleave single-qubit nudges (the pattern-search shape), a
        // multi-qubit move, and full re-randomizations (the visiting shape).
        for step in 0..200 {
            match step % 5 {
                0 => {
                    // Full move: every coordinate changes.
                    for p in pos.iter_mut() {
                        *p = (lcg(&mut state), lcg(&mut state));
                    }
                }
                4 => {
                    // Three-qubit move.
                    for k in 0..3 {
                        let i = ((step + k) * 7) % 12;
                        pos[i].0 = lcg(&mut state);
                    }
                }
                _ => {
                    // Single-coordinate nudge.
                    let i = (step * 11) % 12;
                    if step % 2 == 0 {
                        pos[i].0 = lcg(&mut state);
                    } else {
                        pos[i].1 = lcg(&mut state);
                    }
                }
            }
            let incremental = table.eval(&pos);
            let reference = placement_energy(&pos, &g, 1.0);
            assert_eq!(
                incremental.to_bits(),
                reference.to_bits(),
                "step {step}: {incremental} != {reference}"
            );
        }
    }

    /// Manual perf check for the ROADMAP's "placement is O(iters x n^2)"
    /// item (run with `cargo test -p parallax-graphine --release -- --ignored`):
    /// on a 128-qubit TFIM-shaped ring, single-coordinate probes through the
    /// term table must beat the full recompute by a wide margin.
    #[test]
    #[ignore = "timing-sensitive; run manually in release mode"]
    fn tfim128_single_coordinate_probes_are_much_faster() {
        let n = 128;
        let g = InteractionGraph {
            num_qubits: n,
            edges: (0..n as u32).map(|i| (i, (i + 1) % n as u32, 10.0)).collect(),
        };
        let mut state = 7u64;
        let mut pos: Vec<(f64, f64)> = (0..n).map(|_| (lcg(&mut state), lcg(&mut state))).collect();
        let probes = 4000;

        let mut table = EnergyTable::new(&g, 1.0);
        let _ = table.eval(&pos); // prime
        let t0 = std::time::Instant::now();
        let mut acc = 0.0;
        for k in 0..probes {
            pos[k % n].0 = lcg(&mut state);
            acc += table.eval(&pos);
        }
        let incremental = t0.elapsed();

        let t0 = std::time::Instant::now();
        let mut acc2 = 0.0;
        for k in 0..probes {
            pos[k % n].1 = lcg(&mut state);
            acc2 += placement_energy(&pos, &g, 1.0);
        }
        let naive = t0.elapsed();
        assert!(acc.is_finite() && acc2.is_finite());
        let speedup = naive.as_secs_f64() / incremental.as_secs_f64();
        println!("naive {naive:?} / incremental {incremental:?} = {speedup:.1}x");
        assert!(speedup > 1.5, "expected a measurable speedup, got {speedup:.2}x");
    }

    #[test]
    fn energy_table_handles_repeated_and_degenerate_inputs() {
        let g = line_graph(&[1.0, 2.0]);
        let mut table = EnergyTable::new(&g, 1.0);
        let pos = vec![(0.1, 0.2), (0.5, 0.5), (0.9, 0.8)];
        let a = table.eval(&pos);
        let b = table.eval(&pos); // zero qubits changed
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), placement_energy(&pos, &g, 1.0).to_bits());

        let g1 = InteractionGraph { num_qubits: 1, edges: vec![] };
        let mut t1 = EnergyTable::new(&g1, 1.0);
        assert_eq!(t1.eval(&[(0.5, 0.5)]), 0.0);
    }
}
