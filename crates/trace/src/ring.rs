//! Lock-free span tracing into a fixed-size ring buffer.
//!
//! A [`Span`] (usually opened with the [`span!`](crate::span) macro) records
//! one *complete* event — name, thread, nesting depth, start timestamp,
//! duration, and the trace id of the enclosing request — into a process-wide
//! ring of seqlock-protected slots. Writers never block and never allocate:
//! a global ticket counter assigns each event a slot + generation, a single
//! CAS claims the slot, and a writer that catches a still-publishing
//! predecessor *drops its event* (bumping [`dropped_events`]) instead of
//! waiting, so memory stays bounded and the hot path stays wait-free.
//!
//! Readers ([`snapshot_events`]) validate each slot's sequence word before
//! and after copying, so a torn (mid-write) slot is skipped, never surfaced.
//!
//! The ring is bounded: once it is full, each new event overwrites the
//! oldest published slot without counting anything. [`dropped_events`]
//! counts only events whose writer lapped a predecessor still publishing.
//!
//! [`enabled`] is one relaxed atomic load, and a disabled process pays
//! nothing beyond that load per `span!` site. The first read latches
//! `PARALLAX_TRACE=1`; [`set_enabled`] flips the state at runtime, so
//! in-process tests can byte-diff traced vs untraced compiles.
//! `parallax_core::profile` opens its stage spans through [`Span::close`],
//! which hands the measured duration to the stage counters, so one flag
//! and one clock read serve both.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable flag

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is span tracing enabled? One relaxed load on the hot path; the first
/// call latches `PARALLAX_TRACE=1` from the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_state(),
    }
}

#[cold]
fn init_state() -> bool {
    let on = std::env::var("PARALLAX_TRACE").map(|v| v == "1").unwrap_or(false);
    let new = if on { STATE_ON } else { STATE_OFF };
    // Racing initializers compute the same value; last store wins harmlessly.
    let _ = STATE.compare_exchange(STATE_UNINIT, new, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Enable or disable span tracing at runtime (overrides the env latch).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock, thread ids, trace ids

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static TID: Cell<u16> = const { Cell::new(u16::MAX) };
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

fn thread_tid() -> u16 {
    TID.with(|t| {
        let v = t.get();
        if v != u16::MAX {
            return v;
        }
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let v = (NEXT.fetch_add(1, Ordering::Relaxed) % u64::from(u16::MAX)) as u16;
        t.set(v);
        v
    })
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh nonzero trace id (process-unique).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The trace id events on this thread are tagged with (0 = untagged).
pub fn current_trace_id() -> u64 {
    TRACE_ID.with(Cell::get)
}

/// Tag this thread's events with `id` until the returned guard drops,
/// then restore the previous id. Used by service workers to scope a
/// compile's spans to its request.
pub fn trace_id_scope(id: u64) -> TraceIdScope {
    let prev = TRACE_ID.with(|t| t.replace(id));
    TraceIdScope { prev }
}

/// RAII guard restoring the previous thread trace id. See [`trace_id_scope`].
pub struct TraceIdScope {
    prev: u64,
}

impl Drop for TraceIdScope {
    fn drop(&mut self) {
        TRACE_ID.with(|t| t.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Name interning

fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Intern a span name, returning its stable index. `span!` caches the
/// result in a per-call-site static so interning happens once per site.
pub fn intern(name: &'static str) -> u32 {
    let mut table = names().lock().expect("trace name table lock");
    if let Some(i) = table.iter().position(|n| *n == name) {
        return i as u32;
    }
    table.push(name);
    (table.len() - 1) as u32
}

fn name_for(idx: u32) -> &'static str {
    names().lock().expect("trace name table lock").get(idx as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// The ring

struct Slot {
    /// Seqlock word, generation-encoded: `2*gen` = slot free for generation
    /// `gen`, `2*gen + 1` = writer of generation `gen` mid-publish,
    /// `2*(gen+1)` = generation `gen` published.
    seq: AtomicU64,
    /// `name_idx << 32 | tid << 16 | depth`.
    meta: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    trace_id: AtomicU64,
}

struct Ring {
    slots: Vec<Slot>,
    mask: u64,
    shift: u32,
    tickets: AtomicU64,
    dropped: AtomicU64,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| {
        let requested = std::env::var("PARALLAX_TRACE_EVENTS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(65_536);
        let cap = requested.clamp(1_024, 1 << 22).next_power_of_two();
        Ring {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    ts_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                    trace_id: AtomicU64::new(0),
                })
                .collect(),
            mask: cap - 1,
            shift: cap.trailing_zeros(),
            tickets: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    })
}

/// Events dropped because a writer lapped a still-publishing predecessor.
pub fn dropped_events() -> u64 {
    ring().dropped.load(Ordering::Relaxed)
}

fn record_event(name_idx: u32, tid: u16, depth: u16, ts_ns: u64, dur_ns: u64, trace_id: u64) {
    let r = ring();
    let ticket = r.tickets.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(ticket & r.mask) as usize];
    let gen = ticket >> r.shift;
    // The ticket gives this writer exclusive right to generation `gen` of
    // the slot, but the writer of generation `gen - 1` may still be
    // publishing. Rather than spin, drop the event: memory stays bounded
    // and the path stays wait-free.
    if slot
        .seq
        .compare_exchange(2 * gen, 2 * gen + 1, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        r.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let meta = (u64::from(name_idx) << 32) | (u64::from(tid) << 16) | u64::from(depth);
    slot.meta.store(meta, Ordering::Relaxed);
    slot.ts_ns.store(ts_ns, Ordering::Relaxed);
    slot.dur_ns.store(dur_ns, Ordering::Relaxed);
    slot.trace_id.store(trace_id, Ordering::Relaxed);
    slot.seq.store(2 * (gen + 1), Ordering::Release);
}

/// One completed span copied out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned span name.
    pub name: &'static str,
    /// Process-local thread id of the recording thread.
    pub tid: u16,
    /// Span nesting depth on that thread when the span opened (0 = root).
    pub depth: u16,
    /// Start time, ns since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Trace id the thread was tagged with (0 = untagged).
    pub trace_id: u64,
    /// Global completion order (ring ticket).
    pub order: u64,
}

/// Copy every published, untorn event out of the ring, ordered by start
/// timestamp (ties by completion order).
pub fn snapshot_events() -> Vec<TraceEvent> {
    let r = ring();
    let mut out = Vec::new();
    for (idx, slot) in r.slots.iter().enumerate() {
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == 0 || seq % 2 == 1 {
            continue; // never written, or mid-publish
        }
        let meta = slot.meta.load(Ordering::Relaxed);
        let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
        let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
        let trace_id = slot.trace_id.load(Ordering::Relaxed);
        if slot.seq.load(Ordering::Acquire) != seq {
            continue; // torn: a writer republished while we copied
        }
        let gen = seq / 2 - 1;
        out.push(TraceEvent {
            name: name_for((meta >> 32) as u32),
            tid: ((meta >> 16) & 0xffff) as u16,
            depth: (meta & 0xffff) as u16,
            ts_ns,
            dur_ns,
            trace_id,
            order: (gen << r.shift) | idx as u64,
        });
    }
    out.sort_by_key(|e| (e.ts_ns, e.order));
    out
}

/// The events of one request, grouped by trace id.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id shared by all events below.
    pub trace_id: u64,
    /// The trace's events, ordered by start timestamp.
    pub events: Vec<TraceEvent>,
}

/// The last `n` distinct traces still resident in the ring (most recent
/// first, judged by each trace's latest event). Untagged events
/// (`trace_id == 0`) are excluded.
pub fn recent_traces(n: usize) -> Vec<TraceTree> {
    let events = snapshot_events();
    let mut by_id: std::collections::BTreeMap<u64, Vec<TraceEvent>> = Default::default();
    for e in events {
        if e.trace_id != 0 {
            by_id.entry(e.trace_id).or_default().push(e);
        }
    }
    let mut trees: Vec<TraceTree> =
        by_id.into_iter().map(|(trace_id, events)| TraceTree { trace_id, events }).collect();
    trees.sort_by_key(|t| std::cmp::Reverse(t.events.iter().map(|e| e.ts_ns).max().unwrap_or(0)));
    trees.truncate(n);
    trees
}

// ---------------------------------------------------------------------------
// Spans

/// An open span; records a complete event into the ring when dropped.
/// Inert (zero further cost) when tracing was disabled at open.
pub struct Span {
    start_ns: u64,
    name_idx: u32,
    depth: u16,
    active: bool,
}

impl Span {
    /// Open a span through a per-call-site interning cache; used by the
    /// [`span!`](crate::span) macro.
    #[inline]
    pub fn enter_interned(cache: &'static OnceLock<u32>, name: &'static str) -> Span {
        if !enabled() {
            return Span { start_ns: 0, name_idx: 0, depth: 0, active: false };
        }
        Self::enter_idx(*cache.get_or_init(|| intern(name)))
    }

    /// Open a span with an already-interned name index.
    pub fn enter_idx(name_idx: u32) -> Span {
        if !enabled() {
            return Span { start_ns: 0, name_idx: 0, depth: 0, active: false };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        Span { start_ns: now_ns(), name_idx, depth, active: true }
    }
}

impl Span {
    /// Close the span now: record its event and return the duration it
    /// measured, in ns. `None` when the span is inert (tracing was disabled
    /// at open) or already closed, so a second call, and the drop that
    /// follows, record nothing.
    #[inline]
    pub fn close(&mut self) -> Option<u64> {
        if !std::mem::replace(&mut self.active, false) {
            return None;
        }
        Some(self.record())
    }

    /// Record the event of an active span that is closing; returns its
    /// duration in ns. Kept out of line so the inert path stays one branch.
    fn record(&self) -> u64 {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur = now_ns().saturating_sub(self.start_ns);
        record_event(
            self.name_idx,
            thread_tid(),
            self.depth,
            self.start_ns,
            dur,
            current_trace_id(),
        );
        dur
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.close();
    }
}

/// Open a named span that lasts until the returned guard drops.
///
/// ```
/// let _s = parallax_trace::span!("schedule.movement");
/// // ... traced work ...
/// ```
///
/// The name is interned once per call site; when tracing is disabled the
/// whole expression is one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __PARALLAX_SPAN_NAME: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
        $crate::Span::enter_interned(&__PARALLAX_SPAN_NAME, $name)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises the tests that flip the process-global enable flag: the
    /// test harness runs them on parallel threads, and one test enabling
    /// tracing would otherwise record spans inside another's window.
    static ENABLE_FLAG: Mutex<()> = Mutex::new(());

    fn lock_enable_flag() -> MutexGuard<'static, ()> {
        ENABLE_FLAG.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn spans_record_nesting_and_trace_ids() {
        let _flag = lock_enable_flag();
        set_enabled(true);
        let id = next_trace_id();
        {
            let _scope = trace_id_scope(id);
            let _outer = crate::span!("ringtest.outer");
            let _inner = crate::span!("ringtest.inner");
        }
        set_enabled(false);
        let events: Vec<_> = snapshot_events().into_iter().filter(|e| e.trace_id == id).collect();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "ringtest.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "ringtest.inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        assert_eq!(outer.tid, inner.tid);
    }

    #[test]
    fn trace_id_scope_restores_previous() {
        let before = current_trace_id();
        {
            let _a = trace_id_scope(77);
            assert_eq!(current_trace_id(), 77);
            {
                let _b = trace_id_scope(88);
                assert_eq!(current_trace_id(), 88);
            }
            assert_eq!(current_trace_id(), 77);
        }
        assert_eq!(current_trace_id(), before);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _flag = lock_enable_flag();
        set_enabled(false);
        let count = || snapshot_events().iter().filter(|e| e.name == "ringtest.disabled").count();
        let before = count();
        {
            let _s = crate::span!("ringtest.disabled");
        }
        assert_eq!(count(), before);
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("ringtest.stable");
        let b = intern("ringtest.stable");
        assert_eq!(a, b);
        assert_eq!(name_for(a), "ringtest.stable");
    }
}
