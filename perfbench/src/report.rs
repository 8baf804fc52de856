//! Turn a run's outcome into metrics: a human-readable report, the
//! self-time table of the traced phase, and the final JSON line.

use crate::spans::{self_times, validate_nesting, write_jsonl};
use crate::stats::{geomean, median, ratio, tail};
use crate::workloads::{Outcome, Phase};
use std::fmt::Write as _;

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Layers timed by spans: span name, metric name.
const LAYER_SPANS: [(&str, &str); 11] = [
    ("service.request_decode", "service.request_decode_ms"),
    ("qasm.parse", "qasm.parse_ms"),
    ("circuit.lower", "circuit.lower_ms"),
    ("circuit.optimize", "circuit.optimize_ms"),
    ("service.content_hash", "service.content_hash_ms"),
    ("service.payload_encode", "service.payload_encode_ms"),
    ("graphine.interaction_graph", "graphine.interaction_graph_ms"),
    ("graphine.placement", "graphine.placement_ms"),
    ("core.discretize", "core.discretize_ms"),
    ("core.aod_select", "core.aod_select_ms"),
    ("core.schedule", "core.schedule_ms"),
];

/// Workload-supplied per-request values, with their units.
const EXTRA: [(&str, &str); 4] = [
    ("service.server_ms", "ms"),
    ("service.client_overhead_ms", "ms"),
    ("circuit.gates_after_optimize", "count"),
    ("graphine.anneal_evals", "count"),
];

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One digest standing for a list of schedule digests.
fn fold_digests(digests: &[u64]) -> u64 {
    let mut h = parallax_hardware::StableHasher::new();
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

fn p50(phase: &Phase) -> f64 {
    median(&phase.latencies_ms).unwrap_or(f64::INFINITY)
}

fn end_to_end(outcome: &Outcome, out: &mut String) -> Vec<Metric> {
    let phase = &outcome.untraced;
    let (tail_ms, tail_pct) = tail(&phase.latencies_ms).unwrap_or((f64::INFINITY, 0.0));
    let completed = phase.attempted() - phase.failed;
    let q = &outcome.quality;
    let _ = writeln!(
        out,
        "untraced: {} requests in {:.3} s, latency p50 {:.4} ms, tail p{tail_pct:.2} {tail_ms:.4} ms \
         ({} samples beyond it)",
        phase.attempted(),
        phase.window_s,
        p50(phase),
        crate::stats::TAIL_EXCESS
    );
    let _ = writeln!(
        out,
        "error_rate {:.6} ({} failed of {} attempted); quality over {} reference compiles; \
         first-pass schedule digest {:016x} over {} compiles",
        ratio(phase.failed, phase.attempted()).value,
        phase.failed,
        phase.attempted(),
        q.runtime_us.len(),
        fold_digests(&outcome.first_pass_digests),
        outcome.first_pass_digests.len()
    );
    for note in &phase.notes {
        let _ = writeln!(out, "untraced: {note}");
    }
    vec![
        Metric { name: "setup_s", unit: "s", value: median(&outcome.setup_s).unwrap_or(0.0) },
        Metric { name: "latency_p50_ms", unit: "ms", value: p50(phase) },
        Metric { name: "latency_tail_ms", unit: "ms", value: tail_ms },
        Metric {
            name: "throughput_per_s",
            unit: "1/s",
            value: completed as f64 / phase.window_s.max(1e-9),
        },
        Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb() },
        Metric {
            name: "circuit_runtime_us_geomean",
            unit: "us-modeled",
            value: geomean(&q.runtime_us).unwrap_or(0.0),
        },
        Metric {
            name: "success_prob_geomean",
            unit: "probability",
            value: geomean(&q.success).unwrap_or(0.0),
        },
        Metric {
            name: "trap_change_rate",
            unit: "ratio",
            value: ratio(q.trap_changes, q.cz).value,
        },
    ]
}

fn per_layer(outcome: &Outcome, traced: &Phase, out: &mut String) -> Vec<Metric> {
    let requests = traced.attempted().max(1) as f64;
    let selfs = self_times(traced.spans.spans());
    let self_ms = |span: &str| selfs.get(span).map_or(0.0, |&(ns, _)| ns as f64 / 1e6 / requests);
    let mut m = Vec::new();
    for (span, name) in LAYER_SPANS {
        m.push(Metric { name, unit: "ms", value: self_ms(span) });
    }
    for (name, unit) in EXTRA {
        m.push(Metric { name, unit, value: traced.extra.get(name).copied().unwrap_or(0.0) });
    }
    let c = &traced.counters;
    for (name, base, hm) in [
        ("service.result_cache_hit_ratio", "service.result_cache_lookups", c.service.result_cache),
        ("core.layout_cache_hit_ratio", "core.layout_cache_lookups", c.layout),
        ("core.plan_cache_hit_ratio", "core.plan_cache_lookups", c.plan),
        ("core.template_cache_hit_ratio", "core.template_cache_lookups", c.template),
    ] {
        let r = ratio(hm.hits, hm.hits + hm.misses);
        m.push(Metric { name, unit: "ratio", value: r.value });
        m.push(Metric { name: base, unit: "count", value: r.base as f64 });
    }
    let s = &c.compile;
    let per_compile = |v: u64| ratio(v, s.compiles).value;
    let moves = ratio(s.moves_planned, s.moves_planned + s.failed_moves);
    m.extend([
        Metric { name: "core.schedule.compiles", unit: "count", value: s.compiles as f64 },
        Metric { name: "core.schedule.layers", unit: "count", value: per_compile(s.layers) },
        Metric {
            name: "core.schedule.moves_planned",
            unit: "count",
            value: per_compile(s.moves_planned),
        },
        Metric { name: "core.schedule.move_success_ratio", unit: "ratio", value: moves.value },
        Metric { name: "core.schedule.move_attempts", unit: "count", value: moves.base as f64 },
        Metric {
            name: "core.schedule.failed_move_memo_hits",
            unit: "count",
            value: s.failed_move_memo_hits.map_or(0.0, |(hits, n)| ratio(hits, n).value),
        },
        Metric {
            name: "core.schedule.plan_memo_hits",
            unit: "count",
            value: per_compile(s.plan_memo_hits),
        },
        Metric {
            name: "core.schedule.blockade_ejections",
            unit: "count",
            value: per_compile(s.blockade_ejections),
        },
        Metric {
            name: "core.schedule.deferred_gates",
            unit: "count",
            value: per_compile(s.deferred_gates),
        },
        Metric {
            name: "core.rebind_us",
            unit: "us",
            value: ratio(c.service.rebind_ns, c.service.template_hits).value / 1e3,
        },
        Metric { name: "unattributed_ms", unit: "ms", value: self_ms("request") },
        Metric {
            name: "tracing_overhead_ms",
            unit: "ms",
            value: p50(traced) - p50(&outcome.untraced),
        },
    ]);
    if let Some((_, n)) = s.failed_move_memo_hits {
        let _ = writeln!(
            out,
            "core.schedule.failed_move_memo_hits is a mean over {n} compiles the benchmark holds"
        );
    }

    // The self-time table: every span name, with the request root's self
    // time as the unattributed row.
    let total: u64 = selfs.values().map(|v| v.0).sum();
    let _ = writeln!(
        out,
        "traced: {} requests, latency p50 {:.4} ms (untraced {:.4} ms)",
        traced.attempted(),
        p50(traced),
        p50(&outcome.untraced)
    );
    for note in &traced.notes {
        let _ = writeln!(out, "traced: {note}");
    }
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>8} {:>14} {:>7}",
        "layer", "self ms", "spans", "ms/request", "share"
    );
    for (name, &(ns, count)) in &selfs {
        let row = if *name == "request" { "unattributed" } else { name };
        let _ = writeln!(
            out,
            "{row:<28} {:>12.3} {count:>8} {:>14.5} {:>6.2}%",
            ns as f64 / 1e6,
            ns as f64 / 1e6 / requests,
            100.0 * ratio(ns, total).value
        );
    }
    m
}

/// Print the report and return the final JSON line.
pub fn print(workload: &str, seed: u64, outcome: &Outcome) -> String {
    let mut out = String::new();
    let mut failures: Vec<String> = Vec::new();
    let _ = writeln!(
        out,
        "workload {workload} seed {seed}: set-ups {:?} s",
        outcome.setup_s.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
    );
    let e2e = end_to_end(outcome, &mut out);
    let mut phases = vec![&outcome.untraced];
    let metrics = match &outcome.traced {
        Some(traced) => {
            phases.push(traced);
            if let Err(e) = validate_nesting(traced.spans.spans()) {
                failures.push(format!("span nesting: {e}"));
            }
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{workload}-seed{seed}.jsonl"));
            match write_jsonl(&path, traced.spans.spans()) {
                Ok(()) => {
                    let _ = writeln!(out, "spans written to {}", path.display());
                }
                Err(e) => failures.push(format!("writing spans: {e}")),
            }
            per_layer(outcome, traced, &mut out)
        }
        None => e2e,
    };
    let attempted: u64 = phases.iter().map(|p| p.attempted()).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    failures.extend(phases.iter().filter_map(|p| p.first_failure.clone()));
    for f in &failures {
        let _ = writeln!(out, "FAILED: {f}");
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failures.is_empty() && failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(out, "{:<40} {:>24} {}", m.name, m.value, m.unit);
        // JSON has no infinity; a failed run's latency reads as 1e300.
        let v = if m.value.is_finite() { m.value } else { 1e300 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit);
    }
    json.push_str("}}");
    print!("{out}");
    json
}
