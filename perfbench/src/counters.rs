//! Counter snapshots taken before and after each measured window, reported
//! as deltas: the compiler's `CompileStats` totals (through the metrics
//! registry every schedule publishes to), the layout, plan and template
//! cache stats, and the compile service's `STATS` counters.

use parallax_core::{layout_cache_stats, plan_cache_stats, template_cache_stats};
use parallax_service::Metrics;
use std::sync::OnceLock;

/// `CompileStats` fields the benchmark reports, summed over compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileTotals {
    pub compiles: u64,
    pub layers: u64,
    pub moves_planned: u64,
    pub failed_moves: u64,
    pub plan_memo_hits: u64,
    pub blockade_ejections: u64,
    pub deferred_gates: u64,
    /// Not exported through the registry, so summed over the compiles
    /// whose `CompileStats` the benchmark holds: (hits, those compiles).
    pub failed_move_memo_hits: Option<(u64, u64)>,
}

const STAT_NAMES: [&str; 7] = [
    "compiles",
    "layers",
    "moves_planned",
    "failed_moves",
    "plan_memo_hits",
    "blockade_ejections",
    "deferred_gates",
];

fn registry_handles() -> &'static [parallax_trace::Counter; 7] {
    static HANDLES: OnceLock<[parallax_trace::Counter; 7]> = OnceLock::new();
    HANDLES.get_or_init(|| {
        STAT_NAMES.map(|s| parallax_trace::counter("parallax_compile_stat_total", &[("stat", s)]))
    })
}

/// Hits and misses of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitMiss {
    pub hits: u64,
    pub misses: u64,
}

impl HitMiss {
    fn delta(self, before: Self) -> Self {
        Self { hits: self.hits - before.hits, misses: self.misses - before.misses }
    }

    fn add(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// The service's `STATS` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    pub result_cache: HitMiss,
    pub template_hits: u64,
    pub rebind_ns: u64,
}

/// One snapshot, or the sum of deltas between snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub compile: CompileTotals,
    pub layout: HitMiss,
    pub plan: HitMiss,
    pub template: HitMiss,
    pub service: ServiceCounters,
}

impl Counters {
    /// Read every counter now; `service` is the in-process server's
    /// metrics, when one runs.
    pub fn snapshot(service: Option<&Metrics>) -> Self {
        let h = registry_handles();
        let l = layout_cache_stats();
        let p = plan_cache_stats();
        let t = template_cache_stats();
        Self {
            compile: CompileTotals {
                compiles: h[0].get(),
                layers: h[1].get(),
                moves_planned: h[2].get(),
                failed_moves: h[3].get(),
                plan_memo_hits: h[4].get(),
                blockade_ejections: h[5].get(),
                deferred_gates: h[6].get(),
                failed_move_memo_hits: None,
            },
            layout: HitMiss { hits: l.hits, misses: l.misses },
            plan: HitMiss { hits: p.hits, misses: p.misses },
            template: HitMiss { hits: t.hits, misses: t.misses },
            service: service.map_or_else(ServiceCounters::default, |m| ServiceCounters {
                result_cache: HitMiss { hits: m.cache_hits.get(), misses: m.cache_misses.get() },
                template_hits: m.template_cache_hits.get(),
                rebind_ns: m.rebind_ns.get(),
            }),
        }
    }

    /// Add `after - before` to these totals.
    pub fn add_delta(&mut self, after: &Self, before: &Self) {
        let (a, b) = (&after.compile, &before.compile);
        let c = &mut self.compile;
        c.compiles += a.compiles - b.compiles;
        c.layers += a.layers - b.layers;
        c.moves_planned += a.moves_planned - b.moves_planned;
        c.failed_moves += a.failed_moves - b.failed_moves;
        c.plan_memo_hits += a.plan_memo_hits - b.plan_memo_hits;
        c.blockade_ejections += a.blockade_ejections - b.blockade_ejections;
        c.deferred_gates += a.deferred_gates - b.deferred_gates;
        self.layout.add(after.layout.delta(before.layout));
        self.plan.add(after.plan.delta(before.plan));
        self.template.add(after.template.delta(before.template));
        let (a, b) = (&after.service, &before.service);
        let s = &mut self.service;
        s.result_cache.add(a.result_cache.delta(b.result_cache));
        s.template_hits += a.template_hits - b.template_hits;
        s.rebind_ns += a.rebind_ns - b.rebind_ns;
    }
}
