//! The benchmark's own span recorder: spans are kept in memory, one
//! recorder per load-generating thread, and written out when the run ends.
//!
//! A span has a name, a start and end (nanoseconds since the run's epoch),
//! the span that caused it, and the id of the request it belongs to. A
//! layer's self time is its duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When disabled every call is a pass-through,
/// so the untraced run executes the same code path without recording.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index
    /// (meaningless when disabled).
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// The `(start_ns, end_ns)` of a closed span.
    pub fn bounds(&self, idx: usize) -> (u64, u64) {
        (self.spans[idx].start_ns, self.spans[idx].end_ns)
    }

    /// Record a span of `dur_ns` starting at `start_ns` under the closed
    /// span `parent`, clamped into the parent's interval; returns its
    /// index. Used for time measured elsewhere: the duration a server
    /// reports, or a layer the benchmark re-runs after the request, placed
    /// where that layer runs inside the request.
    pub fn record_within(
        &mut self,
        parent: usize,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let (lo, hi) = self.bounds(parent);
        let start_ns = start_ns.clamp(lo, hi);
        let end_ns = start_ns.saturating_add(dur_ns).min(hi);
        let request = self.spans[parent].request;
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), request });
        self.spans.len() - 1
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "absorbing a recorder with open spans");
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Every child lies inside its parent's interval and belongs to the same
/// request, and every parent index points at an earlier span.
pub fn validate_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans.get(p).filter(|_| p < i).ok_or(format!("span {i}: bad parent {p}"))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!("span {i} ({}) escapes its parent {}", s.name, parent.name));
        }
        if s.request != parent.request {
            return Err(format!("span {i} ({}) changes request id under {}", s.name, parent.name));
        }
    }
    Ok(())
}

/// Per span name: total self time (ns) and the number of spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = union_len(kids);
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns().saturating_sub(covered);
        e.1 += 1;
    }
    out
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        current = match current {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Write the spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 1 }
    }

    #[test]
    fn recorded_spans_nest_under_their_parent() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch);
        let root = rec.enter("request", 7);
        rec.time("layer.a", 7, || std::thread::sleep(Duration::from_millis(1)));
        rec.time("layer.b", 7, || ());
        rec.exit();
        let (start, end) = rec.bounds(root);
        // A remote interval longer than the request is clamped into it.
        let remote = rec.record_within(root, "layer.remote", start + 10, end - start);
        let inner = rec.record_within(remote, "layer.inner", 0, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..4].iter().all(|s| s.parent == Some(root) && s.request == 7));
        assert_eq!((spans[remote].start_ns, spans[remote].end_ns), (start + 10, end));
        assert_eq!((spans[inner].start_ns, spans[inner].end_ns), (start + 10, start + 15));
        validate_nesting(spans).unwrap();
        assert!(spans[1].duration_ns() >= 1_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_work() {
        let mut rec = Recorder::new(false, Instant::now());
        rec.enter("request", 1);
        assert_eq!(rec.time("layer", 1, || 41 + 1), 42);
        rec.exit();
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nesting_violations_are_reported() {
        let escapes = [span("root", 10, 20, None), span("child", 15, 25, Some(0))];
        assert!(validate_nesting(&escapes).is_err());
        let mut other_request = [span("root", 10, 20, None), span("child", 12, 14, Some(0))];
        other_request[1].request = 2;
        assert!(validate_nesting(&other_request).is_err());
        let forward = [span("child", 12, 14, Some(1)), span("root", 10, 20, None)];
        assert!(validate_nesting(&forward).is_err());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("a", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (100 - 40 - 10, 1));
        assert_eq!(t["a"], (30 - 8 + 8, 2));
        assert_eq!(t["b"], (20, 1));
        assert_eq!(t["c"], (10, 1));
        // Without overlapping siblings, self times partition the root.
        let flat =
            [span("root", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 30, 50, Some(0))];
        let total: u64 = self_times(&flat).values().map(|v| v.0).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        a.time("x", 1, || ());
        let mut b = Recorder::new(true, epoch);
        b.enter("root", 2);
        b.time("child", 2, || ());
        b.exit();
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        validate_nesting(a.spans()).unwrap();
    }
}
