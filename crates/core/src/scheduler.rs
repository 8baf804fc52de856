//! Step 4: gate and movement scheduling (Algorithm 1 of the paper).
//!
//! Layers are built greedily from the dependency frontier; out-of-range CZ
//! gates trigger at most one recursive AOD move per layer (others defer);
//! gates whose operands are both static and out of range fall back to a
//! trap change (release/retrap, 100 µs); the layer is shuffled before the
//! Rydberg-blockade interference pass ejects conflicting gates back to the
//! unexecuted list; and moved AOD atoms return to their pre-layer homes
//! after execution (the Fig. 12 ablation toggles this off).
//!
//! One layer loop, [`schedule_gates`], serves both scheduling modes. The
//! multi-mover ablation ([`crate::multi_mover`]) swaps in a different
//! commit rule — several corridor-disjoint moves per layer, taken in ALAP
//! deadline order, with no shuffle — at the four decision points listed on
//! [`schedule_gates`]; everything below is shared by both modes.
//!
//! # The hot path
//!
//! On large circuits the scheduler dominates warm-cache compiles, so its
//! per-layer loop is engineered around five structures, each bit-identical
//! to the straightforward implementation it replaces (`schedule_gates_naive`
//! is kept under `#[cfg(any(test, debug_assertions))]` as the oracle, and
//! proptests diff the two on random circuits):
//!
//! * an **incremental dependency frontier** — the ready set is updated from
//!   the qubits whose gate pointer advanced in the previous layer instead
//!   of rescanning every qubit, and emits gates in the same
//!   ascending-qubit order by construction;
//! * a **bucketed blockade pass** — accepted CZ endpoints go into a
//!   uniform grid with blockade-diameter cells, so each candidate gate is
//!   tested only against endpoints in the neighbouring cells instead of
//!   all accepted gates (the conflict predicate is unchanged, so the
//!   accept/eject decisions are identical);
//! * **failed-move memoization** — a gate whose endpoint probes all failed
//!   is not re-probed in later layers while the AOD configuration is
//!   unchanged (position-epoch fast path, exact position comparison
//!   fallback), because the planner is a pure function of the array state;
//! * **successful-plan caching** — the dual of the failed-move memo plus a
//!   process-wide cross-compile layer ([`crate::layout_cache::PlanCache`]):
//!   a gate whose move was planned before against the exact current AOD
//!   configuration (the home-return steady state, within a compile or
//!   across repeat compiles of the same layout) reuses the recorded plan
//!   instead of re-running the endpoint cascade, with
//!   [`CompileStats::plan_cache_hits`]/[`CompileStats::plan_cache_cross_hits`]
//!   counting the savings;
//! * a reusable [`SchedulerScratch`] so the per-layer loop performs no
//!   allocations beyond the `ScheduledLayer` outputs themselves.
//!
//! Each sub-stage (frontier / movement / blockade / return-home) runs
//! inside a [`crate::profile`] stage span; with tracing on, every executed
//! layer adds one call per sub-stage (two for the frontier) to the stage
//! counters.

use crate::aod_select::AodSelection;
use crate::config::{CompilerConfig, SchedulingMode};
use crate::discretize::DiscretizedLayout;
#[cfg(any(test, debug_assertions))]
use crate::movement::plan_return_home;
use crate::movement::{plan_move_into_range, MovePlan};
use crate::multi_mover::MultiMoverRule;
use crate::profile::{self, Stage};
use parallax_circuit::{Circuit, DependencyDag, Gate, QubitGatesCsr};
use parallax_hardware::{within_blockade, AodMove, AtomArray, CellGeometry, Point};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// One executed layer of the compiled schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLayer {
    /// Indices (into the input circuit's gate list) executed in this layer.
    pub gate_indices: Vec<usize>,
    /// AOD moves committed before the layer's gates fire.
    pub moves: Vec<AodMove>,
    /// Longest single-atom displacement of the move batch, µm (atoms move
    /// in parallel, so this bounds the movement time).
    pub move_distance_um: f64,
    /// Longest displacement of the home-return batch, µm.
    pub return_distance_um: f64,
    /// Trap changes (release/retrap) performed for this layer's gates.
    pub trap_changes: usize,
    /// Whether any U3 gate executes in this layer.
    pub has_u3: bool,
    /// Whether any CZ gate executes in this layer.
    pub has_cz: bool,
    /// How many of [`ScheduledLayer::moves`] each committed move plan
    /// contributed, in commit order. The default scheduler emits at most
    /// one plan per layer; the multi-mover ablation emits several, and the
    /// differential suite uses these boundaries to re-check pairwise
    /// corridor disjointness between concurrent plans.
    pub mover_plans: Vec<u32>,
}

/// Aggregate statistics of a compilation (the paper's evaluation metrics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Two-qubit CZ gates executed — identical to the input circuit's count
    /// because Parallax introduces zero SWAPs.
    pub cz_count: usize,
    /// One-qubit U3 gates executed.
    pub u3_count: usize,
    /// SWAP gates inserted (always 0 for Parallax; baselines differ).
    pub swap_count: usize,
    /// Number of executed layers.
    pub layer_count: usize,
    /// Total trap-change operations (the paper observes ~1.3% of CZ gates).
    pub trap_changes: usize,
    /// Successfully planned into-range AOD moves.
    pub moves_planned: usize,
    /// Moves that failed (recursion limit / no endpoint) and fell back to a
    /// trap change.
    pub failed_moves: usize,
    /// Sum of per-layer maximum move distances, µm.
    pub total_move_distance_um: f64,
    /// Gates deferred to a later layer: AOD-operand gates turned away
    /// because the layer's single move was already spent (default mode) or
    /// because their plan conflicted with the layer's committed plans in
    /// both directions (multi-mover mode), plus kept gates whose operands
    /// a committed move displaced out of range.
    pub deferred_gates: usize,
    /// Gates ejected by the Rydberg blockade interference check.
    pub blockade_ejections: usize,
    /// [`CompileStats::failed_moves`] answered by the failed-move memo
    /// table instead of a fresh probe cascade (a scheduling-cost counter;
    /// the compiled schedule is identical with the memo off).
    pub failed_move_memo_hits: usize,
    /// Successful move plans answered by the **per-compile** plan memo
    /// (the home-return steady state: the same gate re-planned against an
    /// AOD configuration that returned to a recorded one). Like the memo
    /// hits, a scheduling-cost counter — reused plans are bit-identical
    /// to fresh cascades by planner purity, so the schedule is unchanged.
    pub plan_cache_hits: usize,
    /// Successful move plans answered by the **process-wide** plan cache
    /// ([`crate::layout_cache::PlanCache`]) — repeat traffic across
    /// compiles of the same layout skips the probe cascade entirely.
    pub plan_cache_cross_hits: usize,
    /// Heap allocations performed by the scheduler's bucketed blockade
    /// scratch over the whole compile: the bucket grid itself plus every
    /// capacity growth of a bucket or the occupied-cell list. The scratch
    /// is cleared (not freed) between layers, so in the steady state this
    /// stays at its warm-up value no matter how many layers run — a
    /// scheduling-cost counter like the memo hits; the naive twin has no
    /// buckets and reports 0.
    pub bucket_scratch_allocs: usize,
    /// Home-return entries skipped because the atom's position epoch is
    /// unchanged since the layer that last moved it — it is already parked
    /// at home, so the batched return pass drops it without a distance
    /// re-check. A scheduling-cost counter: the emitted return moves are
    /// identical with the skip off, and the naive twin (which rebuilds its
    /// per-layer home list from scratch) reports 0.
    pub home_return_skips: usize,
    /// Multi-mover ablation counters (all zero on the default path).
    pub multi_mover: MultiMoverStats,
}

/// Counters specific to the [`SchedulingMode::MultiMover`] ablation path.
///
/// [`SchedulingMode::MultiMover`]: crate::config::SchedulingMode::MultiMover
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiMoverStats {
    /// Whether this compile ran the multi-mover path at all.
    pub enabled: bool,
    /// Movers-per-layer histogram: `movers_per_layer[k-1]` counts layers
    /// that committed exactly `k` move plans (the last bucket absorbs 8+).
    pub movers_per_layer: [usize; 8],
    /// Extra move plans committed beyond the first of each layer — each
    /// one is a layer the single-mover rule would have needed on its own,
    /// so this is the layers-saved estimate the `METRICS` exposition
    /// reports.
    pub layers_saved: usize,
    /// Movement candidates rejected because their corridor came within the
    /// blockade radius of an already-committed plan's corridor.
    pub conflict_rejections: usize,
}

impl CompileStats {
    /// Accumulate this compile's statistics into the process-wide metrics
    /// registry (`parallax_compile_stat_total{stat=...}`), so fleet-level
    /// gate/move/trap-change totals show up in the `METRICS` exposition
    /// alongside the stage timers. Registry handles resolve once per
    /// process; afterwards this is a dozen relaxed adds per compile —
    /// noise next to the compile itself. Distances are rounded to whole
    /// µm (counters are integral).
    pub fn publish_metrics(&self) {
        type StatRow = (parallax_trace::Counter, fn(&CompileStats) -> u64);
        struct Handles {
            table: [StatRow; 18],
        }
        static HANDLES: std::sync::OnceLock<Handles> = std::sync::OnceLock::new();
        let h = HANDLES.get_or_init(|| {
            let c = |stat: &str| {
                parallax_trace::counter("parallax_compile_stat_total", &[("stat", stat)])
            };
            Handles {
                table: [
                    (c("compiles"), |_| 1),
                    (c("cz_gates"), |s| s.cz_count as u64),
                    (c("u3_gates"), |s| s.u3_count as u64),
                    (c("layers"), |s| s.layer_count as u64),
                    (c("trap_changes"), |s| s.trap_changes as u64),
                    (c("moves_planned"), |s| s.moves_planned as u64),
                    (c("failed_moves"), |s| s.failed_moves as u64),
                    (c("move_distance_um"), |s| s.total_move_distance_um.round() as u64),
                    (c("deferred_gates"), |s| s.deferred_gates as u64),
                    (c("blockade_ejections"), |s| s.blockade_ejections as u64),
                    (c("plan_memo_hits"), |s| s.plan_cache_hits as u64),
                    (c("plan_cross_hits"), |s| s.plan_cache_cross_hits as u64),
                    (c("bucket_scratch_allocs"), |s| s.bucket_scratch_allocs as u64),
                    (c("home_return_skips"), |s| s.home_return_skips as u64),
                    (c("multi_mover_compiles"), |s| u64::from(s.multi_mover.enabled)),
                    (c("multi_mover_layers_saved"), |s| s.multi_mover.layers_saved as u64),
                    (c("multi_mover_conflicts"), |s| s.multi_mover.conflict_rejections as u64),
                    (c("multi_mover_multi_layers"), |s| {
                        s.multi_mover.movers_per_layer[1..].iter().sum::<usize>() as u64
                    }),
                ],
            }
        });
        for (counter, extract) in &h.table {
            counter.add(extract(self));
        }
        if self.multi_mover.enabled {
            // Movers-per-layer histogram (bucket k holds layers that
            // committed k move plans; 8+ overflows).
            static MOVERS: std::sync::OnceLock<parallax_trace::Histogram> =
                std::sync::OnceLock::new();
            let h = MOVERS.get_or_init(|| {
                parallax_trace::histogram(
                    "parallax_multi_mover_movers_per_layer",
                    &[],
                    &[1, 2, 3, 4, 5, 6, 7],
                )
            });
            for (i, &count) in self.multi_mover.movers_per_layer.iter().enumerate() {
                for _ in 0..count {
                    h.record(i as u64 + 1);
                }
            }
        }
    }
}

/// A compiled schedule: executable layers plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Executed layers in order.
    pub layers: Vec<ScheduledLayer>,
    /// Aggregate statistics.
    pub stats: CompileStats,
}

impl Schedule {
    /// Flattened gate execution order (indices into the input circuit).
    pub fn gate_order(&self) -> Vec<usize> {
        self.layers.iter().flat_map(|l| l.gate_indices.iter().copied()).collect()
    }
}

/// Safety factor on scheduling iterations before declaring livelock.
fn iteration_cap(num_gates: usize) -> usize {
    10 * num_gates + 1000
}

// ---------------------------------------------------------------------------
// Incremental dependency frontier
// ---------------------------------------------------------------------------

/// The ready set of Algorithm 1's lines 7-11, maintained incrementally.
///
/// A qubit *emits* its head gate (`qubit_gates[q][ptr[q]]`) into the layer
/// when the gate is a U3, or a CZ that is at the head of **both** operands
/// with `q` the smaller one (the dedupe rule of the naive scan). Emission
/// can only change for a qubit whose pointer advanced, or for the operands
/// of such a qubit's new head gate — a CZ waiting on its partner becomes
/// ready exactly when the partner's pointer reaches it. Rebuilding `curr`
/// from the sorted emitter list therefore reproduces the naive full scan's
/// gate order at every layer by construction.
struct Frontier {
    emits: Vec<bool>,
    /// Emitting qubits, ascending (the naive scan's visit order).
    emitters: Vec<u32>,
}

impl Frontier {
    fn new(num_qubits: usize) -> Self {
        Self { emits: vec![false; num_qubits], emitters: Vec::with_capacity(num_qubits) }
    }

    fn emission(q: usize, gates: &[Gate], qubit_gates: &QubitGatesCsr, ptr: &[usize]) -> bool {
        let Some(g) = qubit_gates.gate_at(q, ptr[q]) else { return false };
        match gates[g] {
            Gate::U3 { .. } => true,
            Gate::Cz { a, b } => {
                let (ai, bi) = (a as usize, b as usize);
                q == ai.min(bi)
                    && qubit_gates.gate_at(ai, ptr[ai]) == Some(g)
                    && qubit_gates.gate_at(bi, ptr[bi]) == Some(g)
            }
        }
    }

    fn refresh(&mut self, q: usize, gates: &[Gate], qubit_gates: &QubitGatesCsr, ptr: &[usize]) {
        let e = Self::emission(q, gates, qubit_gates, ptr);
        if e != self.emits[q] {
            self.emits[q] = e;
            match self.emitters.binary_search(&(q as u32)) {
                Ok(i) if !e => {
                    self.emitters.remove(i);
                }
                Err(i) if e => self.emitters.insert(i, q as u32),
                _ => {}
            }
        }
    }

    /// Initial population: one full scan, identical to the naive rebuild.
    fn seed(&mut self, gates: &[Gate], qubit_gates: &QubitGatesCsr, ptr: &[usize]) {
        for q in 0..self.emits.len() {
            self.refresh(q, gates, qubit_gates, ptr);
        }
    }

    /// Update after a layer advanced the pointers of `advanced` qubits.
    fn advance(
        &mut self,
        advanced: &[u32],
        gates: &[Gate],
        qubit_gates: &QubitGatesCsr,
        ptr: &[usize],
    ) {
        for &q in advanced {
            let q = q as usize;
            self.refresh(q, gates, qubit_gates, ptr);
            if let Some(g) = qubit_gates.gate_at(q, ptr[q]) {
                if let Gate::Cz { a, b } = gates[g] {
                    self.refresh(a as usize, gates, qubit_gates, ptr);
                    self.refresh(b as usize, gates, qubit_gates, ptr);
                }
            }
        }
    }

    /// Write the current layer's gate list into `curr` (ascending emitter
    /// order, one gate per emitter — a gate's emitter is unique).
    fn collect(&self, qubit_gates: &QubitGatesCsr, ptr: &[usize], curr: &mut Vec<usize>) {
        curr.clear();
        for &q in &self.emitters {
            curr.push(qubit_gates.row(q as usize)[ptr[q as usize]] as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Bucketed blockade-interference index
// ---------------------------------------------------------------------------

/// Uniform grid over the *effective* endpoints of the layer's accepted CZ
/// gates, with cells the size of the blockade radius: any endpoint within
/// blockade range of a query point lies in one of the 3×3 neighbouring
/// cells, so the interference test probes a local neighbourhood instead
/// of every accepted gate. The cell math is the hardware crate's
/// [`CellGeometry`] — the same clamped-superset guarantees as the atom
/// occupancy index. Cleared per layer via the occupied-cell list.
struct BlockadeIndex {
    cells: CellGeometry,
    /// Query reach, µm: the blockade radius plus slack covering
    /// [`within_blockade`]'s `+1e-9` squared-distance epsilon — the
    /// predicate accepts pairs up to `sqrt(br² + 1e-9)`, a hair beyond
    /// `br`, and the cell sweep must remain a strict superset of its
    /// acceptance region or a boundary pair could slip between cells.
    reach_um: f64,
    buckets: Vec<Vec<Point>>,
    occupied: Vec<usize>,
    /// Heap allocations this scratch has performed: the bucket grid plus
    /// every capacity growth of a bucket or the occupied list. Feeds
    /// [`CompileStats::bucket_scratch_allocs`] — `clear` keeps capacity,
    /// so a compile's count plateaus once the per-layer working set fits.
    allocs: usize,
}

impl BlockadeIndex {
    fn new(extent_um: f64, margin_um: f64, blockade_um: f64) -> Self {
        let cells = CellGeometry::new(extent_um, margin_um, blockade_um);
        Self {
            buckets: vec![Vec::new(); cells.num_cells()],
            cells,
            reach_um: blockade_um + 1e-3,
            occupied: Vec::new(),
            allocs: 1,
        }
    }

    fn clear(&mut self) {
        for &b in &self.occupied {
            self.buckets[b].clear();
        }
        self.occupied.clear();
    }

    fn insert(&mut self, p: Point) {
        let b = self.cells.cell_of(p);
        if self.buckets[b].is_empty() {
            if self.occupied.len() == self.occupied.capacity() {
                self.allocs += 1;
            }
            self.occupied.push(b);
        }
        if self.buckets[b].len() == self.buckets[b].capacity() {
            self.allocs += 1;
        }
        self.buckets[b].push(p);
    }

    /// Whether any stored endpoint blockades `p` (exactly the naive
    /// all-pairs predicate, restricted to the cells that can contain hits).
    fn conflicts(&self, p: Point, r: f64, factor: f64) -> bool {
        let mut hit = false;
        self.cells.for_each_cell_within(p, self.reach_um, |cell| {
            if !hit {
                hit = self.buckets[cell].iter().any(|q| within_blockade(&p, q, r, factor));
            }
        });
        hit
    }
}

// ---------------------------------------------------------------------------
// Failed-move memoization
// ---------------------------------------------------------------------------

/// Per-compile memo of failed movement plans.
///
/// [`plan_move_into_range`] is a pure function of the array state and its
/// `(mover, target)` arguments, and the only array mutations during
/// scheduling are AOD move batches — SLM atoms never move (trap changes
/// are virtual). A failed probe cascade therefore stays failed for as long
/// as no AOD atom has a different position than when it failed. Each entry
/// snapshots every AOD atom's position at failure time; a later query hits
/// when the array's position epoch is unchanged (nothing at all moved) or,
/// after the epoch moved on, when an exact comparison shows the AOD
/// configuration returned to the recorded one (the common case under
/// home-return, where every layer's moves are undone).
struct FailedMoveMemo {
    entries: HashMap<(u32, u32), MemoEntry>,
    hits: usize,
}

struct MemoEntry {
    epoch: u64,
    aod_snapshot: Vec<(u32, Point)>,
}

impl FailedMoveMemo {
    fn new() -> Self {
        Self { entries: HashMap::new(), hits: 0 }
    }

    /// Whether a recorded failure for `(mover, target)` is still valid.
    /// Re-arms the epoch fast path when the configuration matches under a
    /// newer epoch.
    fn still_failed(&mut self, array: &AtomArray, mover: u32, target: u32) -> bool {
        let Some(entry) = self.entries.get_mut(&(mover, target)) else {
            return false;
        };
        if entry.epoch == array.positions_epoch() {
            self.hits += 1;
            return true;
        }
        if array.aod_config_matches(&entry.aod_snapshot) {
            entry.epoch = array.positions_epoch();
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Record that `(mover, target)` failed against the current state.
    fn record(&mut self, array: &AtomArray, mover: u32, target: u32) {
        let mut aod_snapshot = Vec::new();
        array.aod_snapshot(&mut aod_snapshot);
        self.entries
            .insert((mover, target), MemoEntry { epoch: array.positions_epoch(), aod_snapshot });
    }
}

// ---------------------------------------------------------------------------
// Successful-plan caching (per-compile memo + cross-compile layer)
// ---------------------------------------------------------------------------

/// Per-compile memo of **successful** movement plans, the dual of
/// [`FailedMoveMemo`] with the same validity argument: the planner is a
/// pure function of the array state and its arguments, and only AOD move
/// batches mutate the array during scheduling, so a plan recorded against
/// an AOD configuration is exactly what a fresh cascade would produce
/// whenever that configuration recurs. Under home-return the configuration
/// recurs every layer (atoms move out and back), which makes the epoch
/// re-arm path the steady state on repetitive circuits.
struct PlanMemo {
    entries: HashMap<(u32, u32), PlanMemoEntry>,
    hits: usize,
}

struct PlanMemoEntry {
    epoch: u64,
    aod_snapshot: Vec<(u32, Point)>,
    plan: MovePlan,
}

impl PlanMemo {
    fn new() -> Self {
        Self { entries: HashMap::new(), hits: 0 }
    }

    /// The recorded plan for `(mover, target)` if the AOD configuration is
    /// exactly the one it was planned against (epoch fast path, exact
    /// snapshot fallback that re-arms the epoch).
    fn lookup(&mut self, array: &AtomArray, mover: u32, target: u32) -> Option<MovePlan> {
        let entry = self.entries.get_mut(&(mover, target))?;
        if entry.epoch == array.positions_epoch() {
            self.hits += 1;
            return Some(entry.plan.clone());
        }
        if array.aod_config_matches(&entry.aod_snapshot) {
            entry.epoch = array.positions_epoch();
            self.hits += 1;
            Some(entry.plan.clone())
        } else {
            None
        }
    }

    /// Record a fresh success against the current state.
    fn record(&mut self, array: &AtomArray, mover: u32, target: u32, plan: MovePlan) {
        let mut aod_snapshot = Vec::new();
        array.aod_snapshot(&mut aod_snapshot);
        self.entries.insert(
            (mover, target),
            PlanMemoEntry { epoch: array.positions_epoch(), aod_snapshot, plan },
        );
    }
}

/// The scheduler's two-level plan-reuse state: the per-compile [`PlanMemo`]
/// plus the content address into the process-wide
/// [`crate::layout_cache::PlanCache`]. The static half of the key is
/// computed once per compile (SLM atoms never move while scheduling runs);
/// the AOD half is re-fingerprinted at most once per position epoch.
struct PlanCaches {
    memo: PlanMemo,
    static_fp: u64,
    aod_fp: u64,
    aod_fp_epoch: u64,
    aod_fp_valid: bool,
    cross_hits: usize,
}

impl PlanCaches {
    fn new(array: &AtomArray) -> Self {
        Self {
            memo: PlanMemo::new(),
            static_fp: array.static_fingerprint(),
            aod_fp: 0,
            aod_fp_epoch: 0,
            aod_fp_valid: false,
            cross_hits: 0,
        }
    }

    fn aod_fp(&mut self, array: &AtomArray) -> u64 {
        if !self.aod_fp_valid || self.aod_fp_epoch != array.positions_epoch() {
            self.aod_fp = array.aod_fingerprint();
            self.aod_fp_epoch = array.positions_epoch();
            self.aod_fp_valid = true;
        }
        self.aod_fp
    }

    /// [`plan_move_into_range`] behind both cache levels: the per-compile
    /// memo first, then the cross-compile cache (exact-state verified),
    /// then the real probe cascade — recording a success in both layers.
    /// Bit-identical to calling the planner directly, by purity plus the
    /// exact-configuration checks on every reuse.
    fn plan(
        &mut self,
        array: &AtomArray,
        mover: u32,
        target: u32,
        r_um: f64,
        max_recursion: usize,
    ) -> Result<MovePlan, crate::movement::MoveFailure> {
        if let Some(plan) = self.memo.lookup(array, mover, target) {
            return Ok(plan);
        }
        let _probe = parallax_trace::span!("cache.plan.probe");
        let key = crate::layout_cache::PlanKey {
            layout: self.static_fp,
            aod_config: self.aod_fp(array),
            mover,
            target,
        };
        if let Some(plan) = crate::layout_cache::lookup_plan(&key, array, r_um, max_recursion) {
            self.cross_hits += 1;
            self.memo.record(array, mover, target, plan.clone());
            return Ok(plan);
        }
        let plan = plan_move_into_range(array, mover, target, r_um, max_recursion)?;
        self.memo.record(array, mover, target, plan.clone());
        crate::layout_cache::record_plan(key, array, r_um, max_recursion, &plan);
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Layer scratch
// ---------------------------------------------------------------------------

/// Reusable per-compile scratch for the scheduling loop: every vector the
/// naive implementation allocated per layer lives here and is cleared (not
/// freed) between layers, and the per-layer `effective`-position map is an
/// index-keyed stamped array instead of a `HashMap`.
struct SchedulerScratch {
    frontier: Frontier,
    curr: Vec<usize>,
    kept: Vec<usize>,
    accepted: Vec<usize>,
    trap_changed: Vec<(usize, u32)>,
    advanced: Vec<u32>,
    /// Effective operand positions keyed by gate index, valid when the
    /// stamp matches the current layer.
    eff_pos: Vec<[Point; 2]>,
    eff_stamp: Vec<u64>,
    blockade: BlockadeIndex,
    memo: FailedMoveMemo,
    plans: PlanCaches,
    /// Per-compile home-return bookkeeping: each AOD atom's home is
    /// recorded once, the first layer that ever moves it (under
    /// home-return it is back at that exact position at every layer
    /// boundary, so the record never goes stale), and `moved_stamp` marks
    /// the layer that last displaced it. The return pass walks the
    /// ever-moved list instead of rebuilding a per-layer home list per
    /// mover — the batching that used to pay one `Vec` push per plan move
    /// per layer.
    home_pos: Vec<Point>,
    moved_list: Vec<u32>,
    moved_stamp: Vec<u64>,
    return_moves: Vec<AodMove>,
    /// Ever-moved atoms the return pass skipped because their position
    /// epoch is unchanged since the layer that last moved them (they are
    /// already home). Feeds [`CompileStats::home_return_skips`].
    return_skips: usize,
}

impl SchedulerScratch {
    fn new(num_qubits: usize, num_gates: usize, array: &AtomArray, blockade_um: f64) -> Self {
        let margin = array.grid().pitch_um();
        Self {
            frontier: Frontier::new(num_qubits),
            curr: Vec::new(),
            kept: Vec::new(),
            accepted: Vec::new(),
            trap_changed: Vec::new(),
            advanced: Vec::new(),
            eff_pos: vec![[Point::default(); 2]; num_gates],
            eff_stamp: vec![0; num_gates],
            blockade: BlockadeIndex::new(array.spec().extent_um(), margin, blockade_um),
            memo: FailedMoveMemo::new(),
            plans: PlanCaches::new(array),
            home_pos: vec![Point::default(); num_qubits],
            moved_list: Vec::new(),
            moved_stamp: vec![0; num_qubits],
            return_moves: Vec::new(),
            return_skips: 0,
        }
    }
}

/// Run Algorithm 1. Mutates `layout.array` (atom motion and trap state).
///
/// One layer loop serves both [`CompilerConfig::scheduling`] modes. The
/// mode is read once, to build the multi-mover rule's state
/// (`MultiMoverRule`, `None` under the default [`SchedulingMode::Single`]),
/// and the loop consults that state at exactly four decision points:
///
/// 1. **Order** — the multi-mover rule sorts the frontier by ALAP deadline;
///    the default keeps ascending-qubit frontier order.
/// 2. **Admission** — the default rule defers every further AOD-operand
///    gate once a plan has committed (paper lines 16-17), before the
///    failed-move memo is consulted.
/// 3. **Commit test** — the multi-mover rule admits a plan only if its
///    corridors and final gate pair clear the layer's committed plans,
///    retrying the reverse mover on a conflict.
/// 4. **Shuffle** — the default rule shuffles the kept gates with the
///    seeded RNG before blockade ejection; the multi-mover rule keeps
///    deadline order and never touches the RNG.
///
/// Everything else — frontier, trap-change fallback, blockade ejection,
/// home return — is shared, so the default path stays byte-identical to
/// every pre-ablation build.
///
/// [`SchedulingMode::Single`]: crate::config::SchedulingMode::Single
pub fn schedule_gates(
    circuit: &Circuit,
    layout: &mut DiscretizedLayout,
    _selection: &AodSelection,
    config: &CompilerConfig,
) -> Schedule {
    let gates = circuit.gates();
    let num_gates = gates.len();
    let qubit_gates = circuit.qubit_gates_csr();
    let mut ptr = vec![0usize; circuit.num_qubits()];
    let mut executed = vec![false; num_gates];
    let mut executed_count = 0usize;
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5eed);
    let r = layout.interaction_radius_um;
    let blockade_factor = layout.array.spec().blockade_factor;
    let mut multi = (config.scheduling == SchedulingMode::MultiMover)
        .then(|| MultiMoverRule::new(circuit, &layout.array, r));

    let mut layers = Vec::new();
    let mut stats = CompileStats {
        cz_count: circuit.cz_count(),
        u3_count: circuit.u3_count(),
        ..Default::default()
    };

    let mut scratch =
        SchedulerScratch::new(circuit.num_qubits(), num_gates, &layout.array, r * blockade_factor);
    scratch.frontier.seed(gates, &qubit_gates, &ptr);

    let mut guard = 0usize;
    let cap = iteration_cap(num_gates);
    while executed_count < num_gates {
        guard += 1;
        assert!(guard <= cap, "scheduler livelock: {executed_count}/{num_gates} gates executed");

        // ---- Lines 7-11: build the dependency frontier layer. ----
        let sp_frontier = profile::stage(Stage::ScheduleFrontier);
        let curr = &mut scratch.curr;
        scratch.frontier.collect(&qubit_gates, &ptr, curr);
        drop(sp_frontier);
        assert!(!curr.is_empty(), "dependency frontier is empty before completion");
        // Decision point 1: order.
        if let Some(rule) = multi.as_mut() {
            rule.begin_layer(curr, gates, &layout.array);
        }

        // ---- Lines 12-19: movement resolution for out-of-range CZs. ----
        let sp_movement = profile::stage(Stage::ScheduleMovement);
        let mut committed_moves: Vec<AodMove> = Vec::new();
        // Moves each committed plan contributed, in commit order.
        let mut mover_plans: Vec<u32> = Vec::new();
        let mut move_distance_um = 0.0f64;
        let mut trap_changes = 0usize;
        // Gates that executed via trap change: (gate, virtually moved qubit).
        let trap_changed = &mut scratch.trap_changed;
        trap_changed.clear();
        let kept = &mut scratch.kept;
        kept.clear();
        let mut deferred = 0usize;

        for &g in curr.iter() {
            let Gate::Cz { a, b } = gates[g] else {
                kept.push(g);
                continue;
            };
            if layout.array.distance(a, b) <= r + 1e-9 {
                kept.push(g);
                continue;
            }
            let aod_operand = if layout.array.is_aod(a) {
                Some(a)
            } else if layout.array.is_aod(b) {
                Some(b)
            } else {
                None
            };
            let Some(mover) = aod_operand else {
                // Lines 18-19: neither operand is mobile — release and
                // retrap one of them (the ~1.3% case).
                trap_changes += 1;
                trap_changed.push((g, a));
                kept.push(g);
                continue;
            };
            // Decision point 2: admission. Lines 16-17: one move per
            // layer; once it is spent, defer this gate.
            if multi.is_none() && !mover_plans.is_empty() {
                deferred += 1;
                continue;
            }
            let target = if mover == a { b } else { a };
            if scratch.memo.still_failed(&layout.array, mover, target) {
                // The probe cascade failed against this exact AOD
                // configuration before; the planner is pure, so it would
                // fail identically — resolve with a trap change straight
                // away.
                stats.failed_moves += 1;
                trap_changes += 1;
                trap_changed.push((g, mover));
                kept.push(g);
                continue;
            }
            // Both cache levels sit in front of the probe cascade; every
            // reuse is exact-configuration verified, so the plan is the one
            // a fresh cascade would produce.
            let plans = &mut scratch.plans;
            let mut attempt =
                plans.plan(&layout.array, mover, target, r, config.max_move_recursion);
            // With both operands mobile, either may be the mover; retry in
            // the other direction before giving up.
            if attempt.is_err() && layout.array.is_aod(target) {
                attempt = plans.plan(&layout.array, target, mover, r, config.max_move_recursion);
            }
            let plan = match attempt {
                Ok(plan) => plan,
                Err(_) => {
                    // Failed move: resolve with a trap change (Section III:
                    // "Failed moves are resolved using trap changes").
                    scratch.memo.record(&layout.array, mover, target);
                    stats.failed_moves += 1;
                    trap_changes += 1;
                    trap_changed.push((g, mover));
                    kept.push(g);
                    continue;
                }
            };
            // Decision point 3: commit test.
            let admitted = match multi.as_mut() {
                None => Some(plan),
                Some(rule) => rule.admit(&layout.array, a, b, plan, || {
                    layout
                        .array
                        .is_aod(target)
                        .then(|| {
                            plans.plan(&layout.array, target, mover, r, config.max_move_recursion)
                        })
                        .and_then(Result::ok)
                }),
            };
            let Some(plan) = admitted else {
                deferred += 1;
                continue;
            };
            // Record the batch for the home-return pass before applying
            // it: first-ever movers get their pre-commit position recorded
            // as home, and every mover is stamped with this layer.
            for m in &plan.moves {
                let q = m.q as usize;
                if scratch.moved_stamp[q] == 0 {
                    scratch.home_pos[q] = layout.array.position(m.q);
                    scratch.moved_list.push(m.q);
                }
                scratch.moved_stamp[q] = guard as u64;
            }
            layout.array.apply_aod_moves(&plan.moves).expect("validated plan must commit");
            mover_plans.push(plan.moves.len() as u32);
            committed_moves.extend_from_slice(&plan.moves);
            move_distance_um = move_distance_um.max(plan.max_distance_um);
            stats.moves_planned += 1;
            stats.total_move_distance_um += plan.max_distance_um;
            kept.push(g);
        }
        stats.deferred_gates += deferred;

        // A committed move may have displaced atoms of *other* kept CZ
        // gates out of range; those defer too (they cannot move again).
        if !mover_plans.is_empty() {
            kept.retain(|&g| match gates[g] {
                Gate::Cz { a, b } => {
                    let in_range = layout.array.distance(a, b) <= r + 1e-9
                        || trap_changed.iter().any(|&(tg, _)| tg == g);
                    if !in_range {
                        stats.deferred_gates += 1;
                    }
                    in_range
                }
                _ => true,
            });
        }

        // ---- Line 20: shuffle to avoid starving any one qubit. ----
        // Decision point 4: the multi-mover rule keeps `kept` in deadline
        // order instead, so critical-path gates win blockade contention.
        // Progress still holds: the first kept gate meets an empty
        // blockade index and can never be ejected.
        if multi.is_none() {
            kept.shuffle(&mut rng);
        }
        drop(sp_movement);

        // ---- Lines 21-22: Rydberg blockade interference ejection. ----
        // A trap-changed atom spends the gate adjacent to its partner, so
        // its effective position is its partner's side. Precompute the
        // effective operand positions of every kept CZ gate (stamped
        // index-keyed scratch; the stamp is this layer's guard count).
        let blockade_allocs_before = scratch.blockade.allocs;
        let sp_blockade = profile::stage(Stage::ScheduleBlockade);
        for &g in kept.iter() {
            if let Gate::Cz { a, b } = gates[g] {
                let mut pa = layout.array.position(a);
                let mut pb = layout.array.position(b);
                if let Some(&(_, moved)) = trap_changed.iter().find(|&&(tg, _)| tg == g) {
                    if moved == a {
                        pa = pb;
                    } else if moved == b {
                        pb = pa;
                    }
                }
                scratch.eff_pos[g] = [pa, pb];
                scratch.eff_stamp[g] = guard as u64;
            }
        }
        let accepted = &mut scratch.accepted;
        accepted.clear();
        scratch.blockade.clear();
        for &g in kept.iter() {
            match gates[g] {
                Gate::U3 { .. } => accepted.push(g),
                Gate::Cz { .. } => {
                    debug_assert_eq!(scratch.eff_stamp[g], guard as u64);
                    let mine = scratch.eff_pos[g];
                    let conflict =
                        mine.iter().any(|p| scratch.blockade.conflicts(*p, r, blockade_factor));
                    if conflict {
                        stats.blockade_ejections += 1;
                        // If this was the trap-changed gate, the trap change
                        // did not happen after all.
                        if let Some(pos) = trap_changed.iter().position(|&(tg, _)| tg == g) {
                            trap_changed.remove(pos);
                            trap_changes -= 1;
                        }
                    } else {
                        accepted.push(g);
                        scratch.blockade.insert(mine[0]);
                        scratch.blockade.insert(mine[1]);
                    }
                }
            }
        }
        sp_blockade.finish((scratch.blockade.allocs - blockade_allocs_before) as u64);
        assert!(
            !accepted.is_empty(),
            "blockade pass emptied a layer: curr={curr:?} kept={kept:?} movers={} trap_changed={trap_changed:?}",
            mover_plans.len()
        );

        // ---- Line 23: execute. ----
        let mut has_u3 = false;
        let mut has_cz = false;
        let advanced = &mut scratch.advanced;
        advanced.clear();
        for &g in accepted.iter() {
            executed[g] = true;
            executed_count += 1;
            match gates[g] {
                Gate::U3 { q, .. } => {
                    has_u3 = true;
                    ptr[q as usize] += 1;
                    advanced.push(q);
                }
                Gate::Cz { a, b } => {
                    has_cz = true;
                    ptr[a as usize] += 1;
                    ptr[b as usize] += 1;
                    advanced.push(a);
                    advanced.push(b);
                }
            }
        }
        let sp_frontier = profile::stage(Stage::ScheduleFrontier);
        scratch.frontier.advance(advanced, gates, &qubit_gates, &ptr);
        drop(sp_frontier);

        // ---- Line 24: return moved atoms home. ----
        // One return move per atom moved this layer; every other ever-moved
        // atom's position epoch is unchanged since the layer that last
        // moved it, so it is parked at home and is skipped (and counted)
        // without a distance re-check.
        let sp_return = profile::stage(Stage::ScheduleReturn);
        let mut return_distance_um = 0.0f64;
        if config.return_home {
            let return_moves = &mut scratch.return_moves;
            return_moves.clear();
            for &q in &scratch.moved_list {
                if scratch.moved_stamp[q as usize] != guard as u64 {
                    scratch.return_skips += 1;
                    continue;
                }
                let home = scratch.home_pos[q as usize];
                let distance = layout.array.position(q).distance(&home);
                // Same sub-nanometre filter as `plan_return_home`, so the
                // emitted moves (and the serialized max distance) stay
                // byte-identical to the per-layer oracle path.
                if distance <= 1e-9 {
                    continue;
                }
                return_distance_um = return_distance_um.max(distance);
                return_moves.push(AodMove { q, x: home.x, y: home.y });
            }
            if !return_moves.is_empty() {
                layout
                    .array
                    .apply_aod_moves(return_moves)
                    .expect("home configuration is always valid");
            }
        }
        drop(sp_return);

        stats.layer_count += 1;
        stats.trap_changes += trap_changes;
        layers.push(ScheduledLayer {
            gate_indices: accepted.clone(),
            moves: committed_moves,
            mover_plans,
            move_distance_um,
            return_distance_um,
            trap_changes,
            has_u3,
            has_cz,
        });
    }
    stats.failed_move_memo_hits = scratch.memo.hits;
    stats.plan_cache_hits = scratch.plans.memo.hits;
    stats.plan_cache_cross_hits = scratch.plans.cross_hits;
    stats.bucket_scratch_allocs = scratch.blockade.allocs;
    stats.home_return_skips = scratch.return_skips;
    if let Some(rule) = &multi {
        stats.multi_mover = rule.stats(&layers);
    }
    stats.publish_metrics();

    let schedule = Schedule { layers, stats };
    debug_assert!(
        DependencyDag::build(circuit).respects_order(&schedule.gate_order()),
        "schedule violates gate dependencies"
    );
    schedule
}

/// The pre-optimization Algorithm 1 implementation, verbatim: full frontier
/// rescan per layer, `HashMap` effective positions, all-pairs blockade
/// pass, no memoization, no plan caching. Kept as the test oracle — the
/// proptests (in-crate and in the umbrella differential suite, which is
/// why this is `pub` in debug builds) assert [`schedule_gates`] produces
/// bit-identical layers, moves, and stats (modulo the memo/plan-cache hit
/// counters, which the naive path cannot have) on random circuits.
#[cfg(any(test, debug_assertions))]
pub fn schedule_gates_naive(
    circuit: &Circuit,
    layout: &mut DiscretizedLayout,
    _selection: &AodSelection,
    config: &CompilerConfig,
) -> Schedule {
    let gates = circuit.gates();
    let num_gates = gates.len();
    let qubit_gates = circuit.qubit_gate_indices();
    let mut ptr = vec![0usize; circuit.num_qubits()];
    let mut executed = vec![false; num_gates];
    let mut executed_count = 0usize;
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5eed);
    let r = layout.interaction_radius_um;
    let blockade_factor = layout.array.spec().blockade_factor;

    let mut layers = Vec::new();
    let mut stats = CompileStats {
        cz_count: circuit.cz_count(),
        u3_count: circuit.u3_count(),
        ..Default::default()
    };

    let mut guard = 0usize;
    let cap = iteration_cap(num_gates);
    while executed_count < num_gates {
        guard += 1;
        assert!(guard <= cap, "scheduler livelock: {executed_count}/{num_gates} gates executed");

        let mut curr: Vec<usize> = Vec::new();
        for q in 0..circuit.num_qubits() {
            let Some(&g) = qubit_gates[q].get(ptr[q]) else { continue };
            match gates[g] {
                Gate::U3 { .. } => curr.push(g),
                Gate::Cz { a, b } => {
                    let (ai, bi) = (a as usize, b as usize);
                    let ready = qubit_gates[ai].get(ptr[ai]) == Some(&g)
                        && qubit_gates[bi].get(ptr[bi]) == Some(&g);
                    if ready && q == ai.min(bi) {
                        curr.push(g);
                    }
                }
            }
        }
        assert!(!curr.is_empty(), "dependency frontier is empty before completion");

        let mut moved_this_layer = false;
        let mut committed_moves: Vec<AodMove> = Vec::new();
        let mut move_distance_um = 0.0f64;
        let mut moved_homes: Vec<(u32, Point)> = Vec::new();
        let mut trap_changes = 0usize;
        let mut trap_changed: Vec<(usize, u32)> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        let mut deferred = 0usize;

        for &g in &curr {
            let Gate::Cz { a, b } = gates[g] else {
                kept.push(g);
                continue;
            };
            if layout.array.distance(a, b) <= r + 1e-9 {
                kept.push(g);
                continue;
            }
            let aod_operand = if layout.array.is_aod(a) {
                Some(a)
            } else if layout.array.is_aod(b) {
                Some(b)
            } else {
                None
            };
            match aod_operand {
                Some(mover) if !moved_this_layer => {
                    let target = if mover == a { b } else { a };
                    let mut attempt = plan_move_into_range(
                        &layout.array,
                        mover,
                        target,
                        r,
                        config.max_move_recursion,
                    );
                    if attempt.is_err() && layout.array.is_aod(target) {
                        attempt = plan_move_into_range(
                            &layout.array,
                            target,
                            mover,
                            r,
                            config.max_move_recursion,
                        );
                    }
                    match attempt {
                        Ok(plan) => {
                            for m in &plan.moves {
                                moved_homes.push((m.q, layout.array.position(m.q)));
                            }
                            layout
                                .array
                                .apply_aod_moves(&plan.moves)
                                .expect("validated plan must commit");
                            committed_moves = plan.moves;
                            move_distance_um = plan.max_distance_um;
                            moved_this_layer = true;
                            stats.moves_planned += 1;
                            stats.total_move_distance_um += plan.max_distance_um;
                            kept.push(g);
                        }
                        Err(_) => {
                            stats.failed_moves += 1;
                            trap_changes += 1;
                            trap_changed.push((g, mover));
                            kept.push(g);
                        }
                    }
                }
                Some(_) => {
                    deferred += 1;
                    continue;
                }
                None => {
                    trap_changes += 1;
                    trap_changed.push((g, a));
                    kept.push(g);
                }
            }
        }
        stats.deferred_gates += deferred;

        if moved_this_layer {
            kept.retain(|&g| match gates[g] {
                Gate::Cz { a, b } => {
                    let in_range = layout.array.distance(a, b) <= r + 1e-9
                        || trap_changed.iter().any(|&(tg, _)| tg == g);
                    if !in_range {
                        stats.deferred_gates += 1;
                    }
                    in_range
                }
                _ => true,
            });
        }

        kept.shuffle(&mut rng);

        let mut effective: HashMap<usize, [Point; 2]> = HashMap::new();
        for &g in &kept {
            if let Gate::Cz { a, b } = gates[g] {
                let mut pa = layout.array.position(a);
                let mut pb = layout.array.position(b);
                if let Some(&(_, moved)) = trap_changed.iter().find(|&&(tg, _)| tg == g) {
                    if moved == a {
                        pa = pb;
                    } else if moved == b {
                        pb = pa;
                    }
                }
                effective.insert(g, [pa, pb]);
            }
        }
        let mut accepted: Vec<usize> = Vec::new();
        let mut accepted_cz: Vec<usize> = Vec::new();
        for &g in &kept {
            match gates[g] {
                Gate::U3 { .. } => accepted.push(g),
                Gate::Cz { .. } => {
                    let mine = effective[&g];
                    let conflict = accepted_cz.iter().any(|&other| {
                        let theirs = effective[&other];
                        mine.iter().any(|p| {
                            theirs.iter().any(|q| within_blockade(p, q, r, blockade_factor))
                        })
                    });
                    if conflict {
                        stats.blockade_ejections += 1;
                        if let Some(pos) = trap_changed.iter().position(|&(tg, _)| tg == g) {
                            trap_changed.remove(pos);
                            trap_changes -= 1;
                        }
                    } else {
                        accepted.push(g);
                        accepted_cz.push(g);
                    }
                }
            }
        }
        assert!(
            !accepted.is_empty(),
            "blockade pass emptied a layer: curr={curr:?} kept={kept:?} moved={moved_this_layer} trap_changed={trap_changed:?}"
        );

        let mut has_u3 = false;
        let mut has_cz = false;
        for &g in &accepted {
            executed[g] = true;
            executed_count += 1;
            match gates[g] {
                Gate::U3 { q, .. } => {
                    has_u3 = true;
                    ptr[q as usize] += 1;
                }
                Gate::Cz { a, b } => {
                    has_cz = true;
                    ptr[a as usize] += 1;
                    ptr[b as usize] += 1;
                }
            }
        }

        let mut return_distance_um = 0.0;
        if config.return_home && !moved_homes.is_empty() {
            let plan = plan_return_home(&layout.array, &moved_homes);
            return_distance_um = plan.max_distance_um;
            if !plan.moves.is_empty() {
                layout
                    .array
                    .apply_aod_moves(&plan.moves)
                    .expect("home configuration is always valid");
            }
        }

        stats.layer_count += 1;
        stats.trap_changes += trap_changes;
        let mover_plans =
            if moved_this_layer { vec![committed_moves.len() as u32] } else { Vec::new() };
        layers.push(ScheduledLayer {
            gate_indices: accepted,
            moves: committed_moves,
            mover_plans,
            move_distance_um,
            return_distance_um,
            trap_changes,
            has_u3,
            has_cz,
        });
    }

    Schedule { layers, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aod_select::select_aod_qubits;
    use crate::discretize::discretize;
    use parallax_circuit::CircuitBuilder;
    use parallax_graphine::GraphineLayout;
    use parallax_hardware::MachineSpec;

    fn compile_with(
        n: usize,
        build: impl Fn(&mut CircuitBuilder),
        cfg: &CompilerConfig,
    ) -> (Circuit, Schedule) {
        let mut b = CircuitBuilder::new(n);
        build(&mut b);
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut d, cfg);
        let s = schedule_gates(&c, &mut d, &sel, cfg);
        (c, s)
    }

    #[test]
    fn all_gates_execute_exactly_once() {
        let cfg = CompilerConfig::quick(1);
        let (c, s) = compile_with(
            4,
            |b| {
                b.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3).h(3);
            },
            &cfg,
        );
        let order = s.gate_order();
        assert_eq!(order.len(), c.len());
        let mut seen = vec![false; c.len()];
        for g in order {
            assert!(!seen[g], "gate {g} executed twice");
            seen[g] = true;
        }
    }

    #[test]
    fn schedule_respects_dependencies() {
        let cfg = CompilerConfig::quick(2);
        let (c, s) = compile_with(
            5,
            |b| {
                b.h(0).cx(0, 1).cx(1, 2).rz(0.4, 2).cx(2, 3).cx(3, 4).cx(0, 4);
            },
            &cfg,
        );
        let dag = DependencyDag::build(&c);
        assert!(dag.respects_order(&s.gate_order()));
    }

    #[test]
    fn zero_swaps_always() {
        let cfg = CompilerConfig::quick(3);
        let (c, s) = compile_with(
            6,
            |b| {
                for i in 0..6u32 {
                    for j in (i + 1)..6 {
                        b.cx(i, j);
                    }
                }
            },
            &cfg,
        );
        assert_eq!(s.stats.swap_count, 0);
        assert_eq!(s.stats.cz_count, c.cz_count());
    }

    #[test]
    fn stats_account_for_every_gate() {
        let cfg = CompilerConfig::quick(4);
        let (c, s) = compile_with(
            3,
            |b| {
                b.h(0).h(1).h(2).cx(0, 1).cx(1, 2).ccx(0, 1, 2);
            },
            &cfg,
        );
        assert_eq!(s.stats.cz_count + s.stats.u3_count, c.len());
        assert_eq!(s.stats.layer_count, s.layers.len());
        let executed: usize = s.layers.iter().map(|l| l.gate_indices.len()).sum();
        assert_eq!(executed, c.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |b: &mut CircuitBuilder| {
            b.h(0).cx(0, 3).cx(1, 2).cx(0, 2).cx(1, 3).ccx(0, 1, 2);
        };
        let cfg = CompilerConfig::quick(7);
        let (_, s1) = compile_with(4, build, &cfg);
        let (_, s2) = compile_with(4, build, &cfg);
        assert_eq!(s1.gate_order(), s2.gate_order());
        assert_eq!(s1.stats.trap_changes, s2.stats.trap_changes);
    }

    #[test]
    fn array_state_stays_valid_throughout() {
        let cfg = CompilerConfig::quick(5);
        let mut b = CircuitBuilder::new(8);
        for i in 0..8u32 {
            b.h(i);
        }
        for i in 0..8u32 {
            b.cx(i, (i + 3) % 8);
        }
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut d, &cfg);
        let _ = schedule_gates(&c, &mut d, &sel, &cfg);
        assert!(d.array.validate().is_empty());
    }

    #[test]
    fn home_return_restores_aod_positions() {
        let cfg = CompilerConfig::quick(6);
        let mut b = CircuitBuilder::new(6);
        for i in 0..6u32 {
            b.cx(i, (i + 2) % 6);
        }
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut d = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut d, &cfg);
        let homes: Vec<(u32, Point)> =
            sel.selected.iter().map(|&q| (q, d.array.position(q))).collect();
        let _ = schedule_gates(&c, &mut d, &sel, &cfg);
        for (q, home) in homes {
            assert!(d.array.position(q).distance(&home) < 1e-6, "q{q} did not return home");
        }
    }

    #[test]
    fn without_home_return_atoms_may_stay_displaced() {
        // Same circuit twice; the no-return variant accumulates movement
        // savings (Fig. 12 shows lower *total* distance is NOT guaranteed,
        // only that the toggle changes behaviour).
        let cfg_home = CompilerConfig::quick(8);
        let cfg_stay = CompilerConfig::quick(8).without_home_return();
        let build = |b: &mut CircuitBuilder| {
            for i in 0..6u32 {
                b.cx(i, (i + 2) % 6);
            }
            for i in 0..6u32 {
                b.cx(i, (i + 3) % 6);
            }
        };
        let (_, s_home) = compile_with(6, build, &cfg_home);
        let (_, s_stay) = compile_with(6, build, &cfg_stay);
        let return_home_total: f64 = s_home.layers.iter().map(|l| l.return_distance_um).sum();
        let return_stay_total: f64 = s_stay.layers.iter().map(|l| l.return_distance_um).sum();
        assert!(return_stay_total <= return_home_total);
        assert_eq!(s_stay.stats.cz_count, s_home.stats.cz_count);
    }

    #[test]
    fn single_qubit_circuit_schedules() {
        let cfg = CompilerConfig::quick(9);
        let (c, s) = compile_with(
            1,
            |b| {
                b.h(0).rz(0.5, 0).h(0);
            },
            &cfg,
        );
        assert_eq!(s.gate_order().len(), c.len());
        assert_eq!(s.stats.trap_changes, 0);
        assert_eq!(s.stats.moves_planned, 0);
    }

    #[test]
    fn parallel_u3_gates_share_a_layer() {
        let cfg = CompilerConfig::quick(10);
        let (_, s) = compile_with(
            4,
            |b| {
                b.h(0).h(1).h(2).h(3);
            },
            &cfg,
        );
        assert_eq!(s.layers.len(), 1);
        assert_eq!(s.layers[0].gate_indices.len(), 4);
    }

    // -- Oracle comparisons: fast scheduler vs the naive implementation --

    /// Run both schedulers from identical starting states and assert the
    /// results are bit-identical (layers, moves, distances, stats — the
    /// memo-hit counter excluded, since the naive path has no memo) and
    /// that both leave the array in the same final state.
    fn assert_matches_naive(n: usize, build: impl Fn(&mut CircuitBuilder), cfg: &CompilerConfig) {
        let mut b = CircuitBuilder::new(n);
        build(&mut b);
        let c = b.build();
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut fast = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut fast, cfg);
        let mut naive = fast.clone();
        let s_fast = schedule_gates(&c, &mut fast, &sel, cfg);
        let s_naive = schedule_gates_naive(&c, &mut naive, &sel, cfg);
        assert_eq!(s_fast.layers, s_naive.layers);
        let mut stats = s_fast.stats.clone();
        stats.failed_move_memo_hits = 0;
        stats.plan_cache_hits = 0;
        stats.plan_cache_cross_hits = 0;
        stats.bucket_scratch_allocs = 0;
        stats.home_return_skips = 0;
        assert_eq!(stats, s_naive.stats);
        for q in 0..n as u32 {
            assert_eq!(fast.array.position(q), naive.array.position(q), "q{q} position");
            assert_eq!(fast.array.trap(q), naive.array.trap(q), "q{q} trap");
        }
    }

    #[test]
    fn matches_naive_on_dense_all_to_all() {
        let cfg = CompilerConfig::quick(11);
        assert_matches_naive(
            8,
            |b| {
                for i in 0..8u32 {
                    for j in (i + 1)..8 {
                        b.cx(i, j);
                    }
                }
            },
            &cfg,
        );
    }

    #[test]
    fn matches_naive_with_tight_recursion_budget() {
        // A tiny recursion budget forces failed moves, exercising the memo
        // path against the naive re-probing path.
        let mut cfg = CompilerConfig::quick(12);
        cfg.max_move_recursion = 1;
        assert_matches_naive(
            10,
            |b| {
                for i in 0..10u32 {
                    b.cx(i, (i + 4) % 10);
                }
                for i in 0..10u32 {
                    b.cx(i, (i + 5) % 10);
                }
            },
            &cfg,
        );
    }

    #[test]
    fn matches_naive_without_home_return() {
        // With home-return off the AOD configuration drifts layer to
        // layer, exercising the memo's exact-position staleness check.
        let cfg = CompilerConfig::quick(13).without_home_return();
        assert_matches_naive(
            9,
            |b| {
                for i in 0..9u32 {
                    b.h(i).cx(i, (i + 3) % 9);
                }
                for i in 0..9u32 {
                    b.cx(i, (i + 4) % 9);
                }
            },
            &cfg,
        );
    }

    // -- Failed-move memoization unit tests --

    fn memo_array() -> AtomArray {
        // Same shape as movement.rs's zero-budget test: q0 is the mover,
        // q1 the target, q2 an AOD blocker parked next to the target.
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 3);
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (12, 3));
        a.place_in_slm(2, (11, 3));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a.transfer_to_aod(2, 1, 1).unwrap();
        a
    }

    #[test]
    fn memo_hits_while_nothing_moved_and_goes_stale_when_blocker_moves() {
        let mut a = memo_array();
        let r = 7.5;
        // With zero recursion budget the blocked approach cannot resolve.
        assert!(plan_move_into_range(&a, 0, 1, r, 0).is_err());
        let mut memo = FailedMoveMemo::new();
        memo.record(&a, 0, 1);
        assert!(memo.still_failed(&a, 0, 1), "identical state must hit");
        assert_eq!(memo.hits, 1);

        // The blocker moves well clear of the target (its column stays
        // right of any approach endpoint): the memo entry must go stale,
        // and the re-probe now succeeds — the gate became plannable.
        a.apply_aod_moves(&[AodMove { q: 2, x: 98.0, y: 70.0 }]).unwrap();
        assert!(!memo.still_failed(&a, 0, 1), "stale entry must force a re-probe");
        assert!(plan_move_into_range(&a, 0, 1, r, 0).is_ok());
    }

    #[test]
    fn memo_rearms_epoch_when_configuration_returns() {
        let mut a = memo_array();
        let mut memo = FailedMoveMemo::new();
        memo.record(&a, 0, 1);
        // Move the blocker away and back: the epoch moved on, but the
        // exact-position comparison recognises the configuration.
        let home = a.position(2);
        a.apply_aod_moves(&[AodMove { q: 2, x: 77.0, y: 70.0 }]).unwrap();
        a.apply_aod_moves(&[AodMove { q: 2, x: home.x, y: home.y }]).unwrap();
        assert!(memo.still_failed(&a, 0, 1), "returned configuration must hit");
        // The second query takes the re-armed epoch fast path.
        assert!(memo.still_failed(&a, 0, 1));
        assert_eq!(memo.hits, 2);
    }

    #[test]
    fn memo_misses_for_unknown_pair() {
        let a = memo_array();
        let mut memo = FailedMoveMemo::new();
        assert!(!memo.still_failed(&a, 0, 1));
        assert_eq!(memo.hits, 0);
    }

    // -- Successful-plan caching unit tests --

    /// An array where the q0 -> q1 move plans successfully.
    fn plannable_array() -> AtomArray {
        let mut a = AtomArray::new(MachineSpec::quera_aquila_256(), 2);
        a.place_in_slm(0, (2, 2));
        a.place_in_slm(1, (12, 12));
        a.transfer_to_aod(0, 0, 0).unwrap();
        a
    }

    #[test]
    fn plan_memo_reuses_only_the_exact_configuration() {
        let mut a = plannable_array();
        let plan = plan_move_into_range(&a, 0, 1, 7.0, 80).unwrap();
        let mut memo = PlanMemo::new();
        memo.record(&a, 0, 1, plan.clone());

        // Identical state: epoch fast path.
        let hit = memo.lookup(&a, 0, 1).expect("identical state must hit");
        assert_eq!(hit.moves, plan.moves);
        assert_eq!(memo.hits, 1);

        // Commit the plan: the configuration changed, the memo must not
        // serve the stale plan.
        let home = a.position(0);
        a.apply_aod_moves(&plan.moves).unwrap();
        assert!(memo.lookup(&a, 0, 1).is_none(), "moved state must miss");

        // Home return restores the recorded configuration: exact-snapshot
        // fallback hits and re-arms the epoch for the next query.
        a.apply_aod_moves(&[AodMove { q: 0, x: home.x, y: home.y }]).unwrap();
        let back = memo.lookup(&a, 0, 1).expect("returned configuration must hit");
        assert_eq!(back.moves, plan.moves);
        assert!(memo.lookup(&a, 0, 1).is_some(), "re-armed epoch fast path");
        assert_eq!(memo.hits, 3);
    }

    #[test]
    fn plan_caches_serve_bit_identical_plans_end_to_end() {
        // The two-level wrapper must hand back exactly what the planner
        // would produce, from either level.
        let a = plannable_array();
        let direct = plan_move_into_range(&a, 0, 1, 7.0, 80).unwrap();
        let mut caches = PlanCaches::new(&a);
        let cold = caches.plan(&a, 0, 1, 7.0, 80).unwrap();
        assert_eq!(cold.moves, direct.moves);
        let warm = caches.plan(&a, 0, 1, 7.0, 80).unwrap();
        assert_eq!(warm.moves, direct.moves);
        assert_eq!(warm.max_distance_um.to_bits(), direct.max_distance_um.to_bits());
        assert_eq!(caches.memo.hits, 1, "second query answers from the per-compile memo");

        // A fresh compile's caches (new memo, same process): the global
        // layer answers with the identical plan.
        let mut fresh = PlanCaches::new(&a);
        let cross = fresh.plan(&a, 0, 1, 7.0, 80).unwrap();
        assert_eq!(cross.moves, direct.moves);
        assert_eq!(fresh.cross_hits, 1, "fresh compile must hit the cross-compile layer");

        // Different knobs bypass both levels (and re-plan).
        let other = fresh.plan(&a, 0, 1, 7.5, 80).unwrap();
        assert_eq!(fresh.cross_hits, 1);
        assert_eq!(other.moves, plan_move_into_range(&a, 0, 1, 7.5, 80).unwrap().moves);
    }

    #[test]
    fn repetitive_circuit_reuses_plans_within_and_across_compiles() {
        // A Trotter-style circuit: the same long-range interactions repeat
        // step after step, so under home-return the scheduler re-plans the
        // same (mover, target) against the same configuration every step.
        let mut b = CircuitBuilder::new(10);
        for _step in 0..4 {
            for i in 0..10u32 {
                b.cx(i, (i + 5) % 10);
            }
        }
        let c = b.build();
        let cfg = CompilerConfig::quick(0xCAFE01);
        let layout = GraphineLayout::generate(&c, &cfg.placement);
        let mut first = discretize(&c, &layout, MachineSpec::quera_aquila_256());
        let sel = select_aod_qubits(&c, &mut first, &cfg);
        let mut second = first.clone();

        let s1 = schedule_gates(&c, &mut first, &sel, &cfg);
        assert!(s1.stats.moves_planned > 0, "circuit must exercise the movement planner");
        assert!(
            s1.stats.plan_cache_hits > 0,
            "repeating steps must reuse plans within the compile: {:?}",
            s1.stats
        );

        // The identical schedule again (same process): the cross-compile
        // layer now answers first-time probes, and the schedule is
        // bit-identical.
        let s2 = schedule_gates(&c, &mut second, &sel, &cfg);
        assert_eq!(s1.layers, s2.layers);
        assert!(
            s2.stats.plan_cache_cross_hits > 0,
            "repeat compile must hit the cross-compile plan cache: {:?}",
            s2.stats
        );
        let global = crate::layout_cache::plan_cache_stats();
        assert!(global.hits >= u64::try_from(s2.stats.plan_cache_cross_hits).unwrap());
    }

    mod matches_naive_on_random_circuits {
        use super::*;
        use parallax_testkit::arb_hcz_circuit;
        use proptest::prelude::*;

        /// A random circuit interleaving H and CZ over `n` qubits (the
        /// workspace-shared generator).
        fn random_circuit(n: u32) -> impl Strategy<Value = Circuit> {
            arb_hcz_circuit(n, 4, 40)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// The incremental-frontier + bucketed-blockade + memoized
            /// scheduler must be bit-identical to the naive Algorithm 1
            /// on random circuits: same layers, same moves, same stats,
            /// same final array state.
            #[test]
            fn full_schedules_are_bit_identical(
                circuit in random_circuit(10),
                seed in 0u64..32,
            ) {
                let cfg = CompilerConfig::quick(seed);
                let layout = GraphineLayout::generate(&circuit, &cfg.placement);
                let mut fast = discretize(&circuit, &layout, MachineSpec::quera_aquila_256());
                let sel = select_aod_qubits(&circuit, &mut fast, &cfg);
                let mut naive = fast.clone();
                let s_fast = schedule_gates(&circuit, &mut fast, &sel, &cfg);
                let s_naive = schedule_gates_naive(&circuit, &mut naive, &sel, &cfg);
                prop_assert_eq!(&s_fast.layers, &s_naive.layers);
                let mut stats = s_fast.stats.clone();
                stats.failed_move_memo_hits = 0;
                stats.plan_cache_hits = 0;
                stats.plan_cache_cross_hits = 0;
                stats.bucket_scratch_allocs = 0;
                stats.home_return_skips = 0;
                prop_assert_eq!(&stats, &s_naive.stats);
                for q in 0..10u32 {
                    prop_assert_eq!(fast.array.position(q), naive.array.position(q));
                    prop_assert_eq!(fast.array.trap(q), naive.array.trap(q));
                }
            }

            /// Same property under a starved move budget (forces the
            /// failed-move memo) and with home-return disabled (forces the
            /// memo's exact-position staleness checks as the AOD drifts).
            #[test]
            fn bit_identical_under_failure_heavy_configs(
                circuit in random_circuit(8),
                seed in 0u64..16,
                recursion in 0usize..3,
                return_home in (0u8..2).prop_map(|b| b == 1),
            ) {
                let mut cfg = CompilerConfig::quick(seed);
                cfg.max_move_recursion = recursion;
                cfg.return_home = return_home;
                let layout = GraphineLayout::generate(&circuit, &cfg.placement);
                let mut fast = discretize(&circuit, &layout, MachineSpec::quera_aquila_256());
                let sel = select_aod_qubits(&circuit, &mut fast, &cfg);
                let mut naive = fast.clone();
                let s_fast = schedule_gates(&circuit, &mut fast, &sel, &cfg);
                let s_naive = schedule_gates_naive(&circuit, &mut naive, &sel, &cfg);
                prop_assert_eq!(&s_fast.layers, &s_naive.layers);
                let mut stats = s_fast.stats.clone();
                stats.failed_move_memo_hits = 0;
                stats.plan_cache_hits = 0;
                stats.plan_cache_cross_hits = 0;
                stats.bucket_scratch_allocs = 0;
                stats.home_return_skips = 0;
                prop_assert_eq!(&stats, &s_naive.stats);
            }
        }
    }
}
