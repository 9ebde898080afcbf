//! In-tree observability: a lock-cheap metrics registry and a structured
//! span/tracing API, shared by every pipeline stage.
//!
//! The design mirrors the rest of the workspace:
//!
//! * **Zero dependencies.** Counters and gauges are plain atomics, the
//!   tracing sink is a two-method trait, and snapshots serialize through the
//!   same `serde` the data types already use — nothing new is vendored.
//! * **Deterministic where it must be.** A [`MetricsSnapshot`] splits into a
//!   deterministic section (counters, gauges, histograms — pure functions of
//!   the input data, identical at any thread count) and a wall-clock
//!   `timings` section. Golden tests compare [`MetricsSnapshot::deterministic`]
//!   byte-for-byte across thread counts; humans read the timings.
//! * **Free when disabled.** [`Telemetry::disabled`] carries no registry and
//!   no sink; every instrumentation helper starts with one branch on
//!   [`Telemetry::enabled`] and the instrumented callers fall back to the
//!   uninstrumented code path (`bench_compare` gates the residual overhead
//!   on `pipeline/end_to_end` at <1%).
//!
//! Spans form a per-thread hierarchy: [`Tracer::span`] pushes onto a
//! thread-local stack, so a span opened while another is live records it as
//! its parent. Sinks receive completed spans ([`SpanRecord`]) — children
//! therefore arrive before their parents, like most trace collectors.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonic counter handle. Cloning shares the underlying cell; updates
/// are relaxed atomic adds (order-independent, hence deterministic sums).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n` (saturating at `u64::MAX`).
    pub fn add(&self, n: u64) {
        // fetch_update never fails with a total closure; saturating keeps
        // the counter monotonic even in pathological overflow.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a point-in-time value (occupancy, configured size).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Replace the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `d`.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared fixed-bucket histogram handle: atomic buckets defined by
/// strictly increasing inclusive upper bounds, plus one implicit overflow
/// bucket above the last bound. Counts and the running `count`/`sum`
/// totals saturate instead of wrapping.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    bounds: Arc<[u64]>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

impl Histogram {
    /// A zeroed histogram with the given inclusive upper bounds plus an
    /// implicit overflow bucket.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            inner: Arc::new(HistogramCore {
                bounds: bounds.into(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation of `value` in the first bucket whose bound
    /// is `>= value`, or in the overflow bucket.
    pub fn observe(&self, value: u64) {
        let i = self.inner.bounds.partition_point(|&b| b < value);
        saturating_fetch_add(&self.inner.counts[i], 1);
        saturating_fetch_add(&self.inner.count, 1);
        saturating_fetch_add(&self.inner.sum, value);
    }

    /// A point-in-time copy of the bucket counts and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.to_vec(),
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// Serialized form of one histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
}

/// The process-wide metric store: named counters, gauges, histograms, and
/// wall-clock timing accumulators.
///
/// Registration (name → handle) takes a mutex; the handles themselves are
/// lock-free atomics, so the hot path never contends. Stages register their
/// handles once and update them freely from any thread.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Counter>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or register the histogram `name` over `bounds`. A histogram
    /// keeps the bounds it was first registered with; later calls return
    /// the existing handle regardless of the `bounds` argument.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Get or register the wall-clock accumulator `name` (total
    /// nanoseconds). Timings land in the snapshot's nondeterministic
    /// section; see [`MetricsSnapshot::deterministic`].
    pub fn timing(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.timings.entry(name.to_string()).or_default().clone()
    }

    /// Add `d` to the wall-clock accumulator `name`.
    pub fn record_duration(&self, name: &str, d: Duration) {
        self.timing(name)
            .add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of every registered metric, with stable
    /// (sorted) key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            timings: inner
                .timings
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
///
/// Serialization order is stable: every section is a `BTreeMap`, so the
/// JSON rendering of two equal snapshots is byte-identical. `counters`,
/// `gauges`, and `histograms` are deterministic functions of the input data
/// (identical at any thread count); `timings` holds wall-clock totals in
/// nanoseconds and is inherently run-dependent.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock totals (ns). Excluded from golden comparisons.
    pub timings: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// This snapshot with the wall-clock `timings` section cleared — the
    /// part that is bit-identical across runs and thread counts.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            timings: BTreeMap::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// A completed span, as delivered to a [`TraceSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (monotonic per tracer).
    pub id: u64,
    /// The span that was live on this thread when this one opened.
    pub parent: Option<u64>,
    /// Nesting depth on the opening thread (0 = root).
    pub depth: usize,
    /// Span name, e.g. `"ingest/file"`.
    pub name: String,
    /// Key/value attributes, in the order they were set.
    pub fields: Vec<(String, String)>,
    /// Microseconds since the tracer was created when the span opened.
    pub start_us: u64,
    /// Wall-clock duration.
    pub elapsed_ns: u64,
}

/// Receives completed spans. Implementations must be cheap and
/// thread-safe; they are called from worker threads.
pub trait TraceSink: Send + Sync {
    /// Deliver one completed span.
    fn record(&self, span: &SpanRecord);
}

/// Human-oriented sink: one line per completed span on stderr, indented by
/// nesting depth.
#[derive(Debug, Default)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn record(&self, span: &SpanRecord) {
        let mut line = String::new();
        for _ in 0..span.depth {
            line.push_str("  ");
        }
        line.push_str(&span.name);
        for (k, v) in &span.fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(v);
        }
        eprintln!(
            "[trace] {line} ({:.3} ms)",
            span.elapsed_ns as f64 / 1_000_000.0
        );
    }
}

/// Escape `s` as the body of a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Machine-oriented sink: one JSON object per completed span, one per
/// line (JSON-lines), flushed per record so `tail -f` and crash triage see
/// every completed span.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, span: &SpanRecord) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"span\":\"");
        json_escape(&span.name, &mut line);
        line.push_str(&format!("\",\"id\":{}", span.id));
        if let Some(parent) = span.parent {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        line.push_str(&format!(
            ",\"depth\":{},\"start_us\":{},\"elapsed_ns\":{}",
            span.depth, span.start_us, span.elapsed_ns
        ));
        if !span.fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in span.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                json_escape(k, &mut line);
                line.push_str("\":\"");
                json_escape(v, &mut line);
                line.push('"');
            }
            line.push('}');
        }
        line.push('}');
        let mut out = self.out.lock().expect("trace sink poisoned");
        // Trace output is advisory; a broken pipe must not take the
        // pipeline down with it.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Test sink: captures every completed span in memory.
#[derive(Debug, Default)]
pub struct CaptureSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl CaptureSink {
    /// An empty capture sink.
    pub fn new() -> CaptureSink {
        CaptureSink::default()
    }

    /// Copy of everything captured so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("capture sink poisoned").clone()
    }

    /// Drain the captured spans.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("capture sink poisoned"))
    }
}

impl TraceSink for CaptureSink {
    fn record(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .expect("capture sink poisoned")
            .push(span.clone());
    }
}

thread_local! {
    /// Stack of live span ids on this thread, for parent attribution.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct TracerInner {
    sink: Arc<dyn TraceSink>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

/// Hands out [`Span`] guards and routes completed spans to the sink.
/// `Tracer::default()` is disabled: no sink, no clock reads, spans are
/// no-ops.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per span.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer delivering completed spans to `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                next_id: AtomicU64::new(1),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. The guard records its wall-clock duration and delivers
    /// the completed span to the sink when dropped. Prefer the
    /// [`span!`](crate::span) macro, which attaches fields inline.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            let depth = stack.len();
            stack.push(id);
            (parent, depth)
        });
        let start = Instant::now();
        Span {
            state: Some(SpanState {
                tracer: Arc::clone(inner),
                start,
                record: SpanRecord {
                    id,
                    parent,
                    depth,
                    name: name.to_string(),
                    fields: Vec::new(),
                    start_us: u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
                    elapsed_ns: 0,
                },
            }),
        }
    }
}

#[derive(Debug)]
struct SpanState {
    tracer: Arc<TracerInner>,
    start: Instant,
    record: SpanRecord,
}

/// A live span guard: attach fields with [`Span::set`], and drop it to
/// stamp the duration and deliver the record. Must be dropped on the
/// thread that opened it (guards enforce this naturally).
#[derive(Debug)]
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Attach (or overwrite) the field `key`. No-op on a disabled span —
    /// callers can format values unconditionally only via the
    /// [`span!`](crate::span) macro, which skips evaluation when disabled.
    pub fn set(&mut self, key: &str, value: &dyn std::fmt::Display) {
        if let Some(state) = &mut self.state {
            let rendered = value.to_string();
            if let Some(slot) = state.record.fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = rendered;
            } else {
                state.record.fields.push((key.to_string(), rendered));
            }
        }
    }

    /// Whether this span is actually recording.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut state) = self.state.take() else {
            return;
        };
        state.record.elapsed_ns =
            u64::try_from(state.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // The guard discipline makes this a strict stack; `retain`
            // keeps us correct even if a caller leaks a span.
            if stack.last() == Some(&state.record.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != state.record.id);
            }
        });
        state.tracer.sink.record(&state.record);
    }
}

/// Open a span with inline fields: `span!(tracer, "ingest/file", file = path,
/// bytes = n)`. Field values are formatted with `Display` — and only
/// evaluated into strings when the tracer is enabled.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __span = $tracer.span($name);
        if __span.enabled() {
            $(__span.set(stringify!($key), &$value);)*
        }
        __span
    }};
}

// ---------------------------------------------------------------------------
// Telemetry bundle
// ---------------------------------------------------------------------------

/// Everything a pipeline stage needs to observe itself: a tracer and an
/// optional metrics registry. Cloning is cheap (two `Arc`s); the disabled
/// bundle is the default and costs one branch at every instrumentation
/// point.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Span recording; [`Tracer::disabled`] by default.
    pub tracer: Tracer,
    /// Metric recording; `None` by default.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Telemetry {
    /// No tracing, no metrics: every helper short-circuits.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Metrics only (a fresh registry), no tracing — what `--metrics-out`
    /// uses.
    pub fn with_metrics() -> Telemetry {
        Telemetry {
            tracer: Tracer::disabled(),
            metrics: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// Whether any instrumentation is active.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled() || self.metrics.is_some()
    }

    /// The registry, if metrics are enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    /// Run `f` as the pipeline stage `name`: wraps it in a span and adds
    /// its wall-clock duration to the timing accumulator `time/<name>_ns`.
    /// When disabled this is exactly one branch plus the call.
    pub fn stage<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = {
            let _span = self.tracer.span(name);
            f()
        };
        if let Some(metrics) = &self.metrics {
            metrics.record_duration(&format!("time/{name}_ns"), start.elapsed());
        }
        out
    }

    /// Snapshot the registry, if metrics are enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(3);
        registry.counter("a").inc();
        registry.gauge("g").set(-7);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["a"], 4);
        assert_eq!(snap.gauges["g"], -7);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let h = Histogram::new(&[10, 20]);
        h.observe(0);
        h.observe(10); // lands in the <=10 bucket
        h.observe(11); // lands in the <=20 bucket
        h.observe(21); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts, [2, 1, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 42);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::new(&[10]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.sum, u64::MAX);
        assert_eq!(snap.counts, [0, 2]);
    }

    #[test]
    fn snapshot_deterministic_strips_timings() {
        let registry = MetricsRegistry::new();
        registry.counter("kept").inc();
        registry.record_duration("stripped", Duration::from_millis(5));
        let snap = registry.snapshot();
        assert_eq!(snap.timings.len(), 1);
        let det = snap.deterministic();
        assert!(det.timings.is_empty());
        assert_eq!(det.counters["kept"], 1);
    }

    #[test]
    fn spans_nest_and_capture_fields() {
        let sink = Arc::new(CaptureSink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _outer = span!(tracer, "outer", stage = "test");
            let _inner = span!(tracer, "inner", n = 3);
        }
        let spans = sink.take();
        // Children complete first.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].fields, vec![("n".to_string(), "3".to_string())]);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn disabled_telemetry_does_not_evaluate_fields() {
        let tracer = Tracer::disabled();
        let mut evaluated = false;
        {
            let _s = span!(
                tracer,
                "noop",
                x = {
                    evaluated = true;
                    1
                }
            );
        }
        assert!(!evaluated, "disabled span must skip field evaluation");
        assert!(!Telemetry::disabled().enabled());
    }

    #[test]
    fn json_lines_sink_emits_one_valid_object_per_span() {
        let buf: Vec<u8> = Vec::new();
        let sink = Arc::new(JsonLinesSink::new(buf));
        let tracer = Tracer::new(sink.clone());
        {
            let _s = span!(tracer, "ingest/file", file = "a \"b\".mrt", bytes = 17);
        }
        drop(tracer);
        let sink = Arc::into_inner(sink).expect("sole owner");
        let out = String::from_utf8(sink.out.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1);
        let v: serde_json::Value = serde_json::from_str(lines[0]).expect("valid JSON line");
        assert_eq!(v["span"].as_str(), Some("ingest/file"));
        assert_eq!(v["fields"]["file"].as_str(), Some("a \"b\".mrt"));
        assert_eq!(v["fields"]["bytes"].as_str(), Some("17"));
    }

    #[test]
    fn stage_helper_records_span_and_timing() {
        let sink = Arc::new(CaptureSink::new());
        let tel = Telemetry {
            tracer: Tracer::new(sink.clone()),
            metrics: Some(Arc::new(MetricsRegistry::new())),
        };
        let out = tel.stage("stats", || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(sink.spans().len(), 1);
        let snap = tel.snapshot().unwrap();
        assert!(snap.timings.contains_key("time/stats_ns"));
    }
}
