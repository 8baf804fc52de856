//! Pipeline stage counters, fed by the stage spans.
//!
//! Each stage site opens one [`StageSpan`] with [`stage`]. The guard opens
//! the stage's trace span (`stage.*` or `schedule.*`); when the span closes,
//! the duration it measured, one call, and any allocations the site reports
//! are added to the stage's counters. Tracing (`PARALLAX_TRACE=1`, or
//! `parallax_trace::set_enabled`) is therefore the only switch: with it off
//! the guard is inert, the counters stay unchanged, and the compile hot path
//! pays the one relaxed atomic load of any disabled `span!`.
//!
//! Counters live in the process-wide `parallax-trace` metrics registry
//! (families `parallax_stage_calls_total`, `parallax_stage_time_ns_total`,
//! `parallax_stage_allocs_total`, one series per `stage` label), which lets
//! every surface report them: the compile service embeds [`snapshot`] in
//! its `STATS` response (rendered by `parallax-client stats`), the same
//! numbers appear in the `METRICS` Prometheus exposition, and the
//! `experiments` binary prints the table to stderr after a traced run.

use parallax_trace::{Counter, Span};
use std::sync::OnceLock;

/// The profiled pipeline stages, in pipeline order. The `Schedule*`
/// entries are sub-stages of `Schedule`: they partition the scheduler's
/// per-layer loop (frontier build / movement resolution / blockade pass /
/// home return), so the scheduler's own bottleneck is visible without a
/// sampling profiler. Sub-stage times nest inside the `schedule` total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// GRAPHINE annealed placement (or a layout-cache lookup).
    Placement,
    /// Grid discretization.
    Discretize,
    /// AOD qubit selection.
    AodSelect,
    /// Gate/movement scheduling.
    Schedule,
    /// Scheduler sub-stage: dependency-frontier maintenance.
    ScheduleFrontier,
    /// Scheduler sub-stage: AOD movement planning and commits.
    ScheduleMovement,
    /// Scheduler sub-stage: Rydberg-blockade interference pass.
    ScheduleBlockade,
    /// Scheduler sub-stage: returning moved atoms home.
    ScheduleReturn,
}

/// Display names, indexed by `Stage as usize`.
pub const STAGE_NAMES: [&str; 8] = [
    "placement",
    "discretize",
    "aod_select",
    "schedule",
    "  frontier",
    "  movement",
    "  blockade",
    "  return",
];

/// Trace span names, indexed by `Stage as usize`.
const SPAN_NAMES: [&str; 8] = [
    "stage.placement",
    "stage.discretize",
    "stage.aod_select",
    "stage.schedule",
    "schedule.frontier",
    "schedule.movement",
    "schedule.blockade",
    "schedule.return",
];

struct StageCounters {
    calls: Counter,
    time_ns: Counter,
    allocs: Counter,
}

// Registry handles resolve once; afterwards a stage record is three
// relaxed fetch_adds. Sub-stage display names carry a two-space
// indent for the text table; the metric label is the trimmed name.
fn table() -> &'static [StageCounters; 8] {
    static TABLE: OnceLock<[StageCounters; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|i| {
            let labels = [("stage", STAGE_NAMES[i].trim_start())];
            StageCounters {
                calls: parallax_trace::counter("parallax_stage_calls_total", &labels),
                time_ns: parallax_trace::counter("parallax_stage_time_ns_total", &labels),
                allocs: parallax_trace::counter("parallax_stage_allocs_total", &labels),
            }
        })
    })
}

/// Open `stage`'s span. Inert when tracing is disabled: one relaxed load,
/// like any disabled `span!`.
#[inline]
pub fn stage(stage: Stage) -> StageSpan {
    // One interning cache per stage, as `span!` keeps one per call site.
    static SPAN_IDS: [OnceLock<u32>; 8] = [const { OnceLock::new() }; 8];
    let i = stage as usize;
    StageSpan { span: Span::enter_interned(&SPAN_IDS[i], SPAN_NAMES[i]), stage }
}

/// An open stage span (see [`stage`]). Closing it, by drop or by
/// [`StageSpan::finish`], records the span and adds its measured duration
/// and one call to the stage's counters.
#[must_use = "the stage is timed until the guard drops"]
pub struct StageSpan {
    span: Span,
    stage: Stage,
}

impl StageSpan {
    /// Close the span now, charging `allocs` heap allocations to the stage.
    pub fn finish(mut self, allocs: u64) {
        self.close(allocs);
    }

    fn close(&mut self, allocs: u64) {
        if let Some(time_ns) = self.span.close() {
            record(self.stage, time_ns, allocs);
        }
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        self.close(0);
    }
}

fn record(stage: Stage, time_ns: u64, allocs: u64) {
    let c = &table()[stage as usize];
    c.calls.inc();
    c.time_ns.add(time_ns);
    c.allocs.add(allocs);
}

/// One stage's accumulated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage display name.
    pub stage: &'static str,
    /// Completed calls.
    pub calls: u64,
    /// Cumulative wall-clock time, µs.
    pub total_us: u64,
    /// Cumulative heap allocations (placement: annealer; blockade: index).
    pub allocs: u64,
}

/// Snapshot every stage (zeros when tracing never ran).
pub fn snapshot() -> Vec<StageSnapshot> {
    table()
        .iter()
        .zip(STAGE_NAMES)
        .map(|(c, stage)| StageSnapshot {
            stage,
            calls: c.calls.get(),
            total_us: c.time_ns.get() / 1_000,
            allocs: c.allocs.get(),
        })
        .collect()
}

/// Render the snapshot as an aligned text table (the `experiments` binary
/// prints this to stderr after a traced run).
pub fn render() -> String {
    let snap = snapshot();
    let mut out = String::from("stage        calls     total_ms      allocs\n");
    for s in &snap {
        out.push_str(&format!(
            "{:<12} {:>6} {:>12.3} {:>11}\n",
            s.stage,
            s.calls,
            s.total_us as f64 / 1e3,
            s.allocs
        ));
    }
    out
}

// The guard's compile-level behaviour is tested in `tests/stage_spans.rs`:
// it needs a process where no other test compiles while tracing is on.
#[cfg(test)]
mod tests {
    use super::*;

    // Touches the shared global table; keep every assertion delta-based so
    // concurrently running compiles can only add.
    #[test]
    fn records_accumulate_and_render() {
        let before = snapshot();
        record(Stage::Placement, 2_500, 7);
        record(Stage::Placement, 1_500, 3);
        record(Stage::Schedule, 9_000, 0);
        let after = snapshot();
        let d = |i: usize| {
            (
                after[i].calls - before[i].calls,
                after[i].total_us - before[i].total_us,
                after[i].allocs - before[i].allocs,
            )
        };
        let (calls, us, allocs) = d(Stage::Placement as usize);
        assert!(calls >= 2 && us >= 4 && allocs >= 10, "{calls} {us} {allocs}");
        let (calls, us, _) = d(Stage::Schedule as usize);
        assert!(calls >= 1 && us >= 9);
        let table = render();
        assert!(table.contains("placement") && table.contains("schedule"));
    }
}
