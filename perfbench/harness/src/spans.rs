//! In-memory spans and the ledger built from them.
//!
//! A span records one call into a layer: its name, start, end, the span
//! that was open when it started (its parent) and the run it belongs to.
//! Spans are held in memory and written out once, when the traced run
//! ends. A span's self time is its duration minus the part of its interval
//! that its children cover; a layer's time is the self time of its spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Spans whose name starts with this are passes: the root of one mirrored
/// command, not a layer. Their self time is what no layer span covers.
pub const PASS_PREFIX: &str = "pass.";

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or pass) name, e.g. `core.stats`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run every span of one traced invocation shares.
    pub run: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one run.
pub struct Recorder {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder for run `run`.
    pub fn new(run: u64) -> Recorder {
        Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock every span is measured against.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.push(name, start_ns, start_ns);
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span measured elsewhere (for example a worker process, from
    /// the supervisor's events) under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.push(name, start_ns, end_ns)
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        let selfs = self_times(&self.spans);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}, \"self_ns\": {self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.run
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children that overlap each other count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Whether `id` lies in the subtree rooted at `root` (itself included).
fn within(spans: &[Span], mut id: usize, root: usize) -> bool {
    loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// Per-name self time over the subtree of `root`.
pub fn layer_totals(spans: &[Span], root: usize) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut totals = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if within(spans, id, root) {
            *totals.entry(span.name).or_insert(0) += selfs[id];
        }
    }
    totals
}

/// The ledger residual of one pass: the share of `root`'s wall time that
/// no layer span covers, i.e. the self time of the pass spans in its
/// subtree over its duration.
pub fn unattributed_share(spans: &[Span], root: usize) -> f64 {
    let duration = spans[root].duration_ns();
    if duration == 0 {
        return 0.0;
    }
    let residual: u64 = layer_totals(spans, root)
        .iter()
        .filter(|(name, _)| name.starts_with(PASS_PREFIX))
        .map(|(_, ns)| ns)
        .sum();
    residual as f64 / duration as f64
}

/// Total duration of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass.infer", 0, 100, None),
            span("core.stats", 10, 40, Some(0)),
            span("core.classify", 50, 70, Some(0)),
            span("core.cluster", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("pass.shard", 100, 200, None),
            span("shard.worker", 110, 160, Some(0)),
            span("shard.worker", 140, 190, Some(0)),
            span("core.supervisor.validate", 195, 230, Some(0)),
        ];
        // Workers cover 110..190 together; validation is clipped at 200.
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn ledger_residual_is_pass_self_time_over_pass_duration() {
        let spans = vec![
            span("pass.infer", 0, 1_000, None),
            span("mrt.ingest", 0, 600, Some(0)),
            span("core.stats", 600, 900, Some(0)),
            span("pass.watch", 1_000, 2_000, None),
            span("core.watch.fold", 1_000, 1_500, Some(3)),
        ];
        let totals = layer_totals(&spans, 0);
        assert_eq!(totals["mrt.ingest"], 600);
        assert_eq!(totals["core.stats"], 300);
        assert_eq!(totals["pass.infer"], 100);
        assert!(!totals.contains_key("core.watch.fold"));
        assert!((unattributed_share(&spans, 0) - 0.1).abs() < 1e-12);
        assert!((unattributed_share(&spans, 3) - 0.5).abs() < 1e-12);
        // Layer self times plus the residual add up to the pass exactly.
        let sum: u64 = totals.values().sum();
        assert_eq!(sum, spans[0].duration_ns());
    }

    #[test]
    fn recorder_nests_spans_and_shares_the_run_id() {
        let mut rec = Recorder::new(42);
        let root = rec.open("pass.infer");
        let inner = rec.span("core.stats", || rec_free_work(1_000));
        assert_eq!(inner, 1_000);
        let worker = rec.record("shard.worker", 5, 6);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[worker].parent, Some(root));
        assert!(spans.iter().all(|s| s.run == 42));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(total(spans, "core.stats"), spans[1].duration_ns());
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
    }

    fn rec_free_work(n: u64) -> u64 {
        (0..n).map(|_| 1).sum()
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::new(1);
        let outer = rec.open("pass.infer");
        let _inner = rec.open("core.stats");
        rec.close(outer);
    }
}
