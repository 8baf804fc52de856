//! The stage spans are the only timer: one guard per stage site opens the
//! trace span and, when it closes, feeds the `parallax_stage_*` counters.
//!
//! This lives in its own test binary because the trace flag and the stage
//! counters are process-global: a compile on another test thread while
//! tracing is on would add calls. The tests below also hold a module
//! mutex around the flag, so they never overlap each other.

use parallax_circuit::CircuitBuilder;
use parallax_core::profile::{snapshot, Stage};
use parallax_core::{CompilationResult, CompilerConfig, ParallaxCompiler};
use parallax_hardware::MachineSpec;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests that flip the process-global trace flag.
static TRACE_FLAG: Mutex<()> = Mutex::new(());

fn lock_trace_flag() -> MutexGuard<'static, ()> {
    TRACE_FLAG.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ghz_compile() -> CompilationResult {
    let mut b = CircuitBuilder::new(6);
    b.h(0);
    for q in 1..6 {
        b.cx(0, q);
    }
    let compiler = ParallaxCompiler::new(MachineSpec::quera_aquila_256(), CompilerConfig::quick(3));
    compiler.compile(&b.build())
}

fn calls() -> Vec<u64> {
    snapshot().iter().map(|s| s.calls).collect()
}

#[test]
fn stage_spans_feed_the_counters_only_when_tracing() {
    let _flag = lock_trace_flag();

    parallax_trace::set_enabled(true);
    let before = calls();
    let result = ghz_compile();
    let after = calls();
    parallax_trace::set_enabled(false);
    for stage in [Stage::Discretize, Stage::AodSelect, Stage::Schedule] {
        let i = stage as usize;
        assert_eq!(after[i] - before[i], 1, "{stage:?}: {before:?} -> {after:?}");
    }
    let layers = result.schedule.stats.layer_count as u64;
    assert!(layers > 0);
    for stage in [
        Stage::ScheduleFrontier,
        Stage::ScheduleMovement,
        Stage::ScheduleBlockade,
        Stage::ScheduleReturn,
    ] {
        let i = stage as usize;
        assert!(after[i] - before[i] >= layers, "{stage:?}: {before:?} -> {after:?}");
    }

    let before = snapshot();
    ghz_compile();
    assert_eq!(snapshot(), before, "an untraced compile moved a stage counter");
}
