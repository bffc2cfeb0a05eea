//! Structured spans: RAII guards that record wall-time plus user fields
//! into a bounded in-memory ring buffer, with JSONL and collapsed-stack
//! (flamegraph) exports.
//!
//! Each thread keeps a span stack, so a finished span knows its full
//! ancestry (`engine.solve;backend.solve;dp.kernel`) and its **self time**
//! (wall time minus time attributed to child spans) — exactly what the
//! collapsed-stack export needs for `flamegraph.pl` / `inferno`. Every
//! finished span also feeds the owning registry's `span.<name>` latency
//! histogram, so span durations show up in [`crate::MetricsSnapshot`] with
//! p50/p99 like any other metric.
//!
//! # Overhead contract
//!
//! Opening a span checks [`crate::Registry::enabled`] and the recorder's
//! own switch ([`SpanRecorder::set_enabled`]) — two relaxed atomic loads —
//! and, when either is off (or without the `obs` feature), returns an
//! inert guard whose drop is a no-op: no allocation, no clock read, no
//! lock. Field construction in the [`crate::span!`] macro is lazy and is
//! skipped entirely on the disabled path. An enabled span allocates
//! nothing beyond its own fields: its path is interned per thread when it
//! opens, its `span.<name>` histogram is resolved once per thread, and the
//! ring keeps a compact record that becomes a [`SpanRecord`] only on
//! export. Enabled spans take the ring mutex once, at drop.

use crate::registry::{Histogram, MetricsSnapshot, Registry};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring-buffer capacity of the global recorder (spans, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A typed user field attached to a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A floating-point field.
    F64(f64),
    /// A boolean field.
    Bool(bool),
    /// A string field.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One finished span, as stored in the ring buffer and emitted to JSONL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (the `span!` literal).
    pub name: String,
    /// Full ancestry at open time, `;`-joined, innermost last
    /// (collapsed-stack convention).
    pub path: String,
    /// Small per-process thread ordinal (not the OS thread id).
    pub thread: u64,
    /// Open time, nanoseconds since the recorder's epoch.
    pub start_nanos: u64,
    /// Wall-clock duration, nanoseconds.
    pub duration_nanos: u64,
    /// Duration minus time spent in child spans on the same thread.
    pub self_nanos: u64,
    /// User fields, in attachment order.
    pub fields: Vec<(String, FieldValue)>,
}

struct Frame {
    name: &'static str,
    /// The span's interned ancestry, its own name last.
    path: Arc<str>,
    /// Nanoseconds attributed to already-finished child spans.
    child_nanos: u64,
}

/// Identifies a `&'static str` span name by address and length.
type NameKey = (usize, usize);

fn name_key(name: &'static str) -> NameKey {
    (name.as_ptr() as usize, name.len())
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
    /// Interned span paths, keyed by the parent path's address (0 for a
    /// root span) and the span name. The table keeps every path alive, so
    /// an address names one path for the life of the thread.
    static PATHS: RefCell<HashMap<(usize, NameKey), Arc<str>>> = RefCell::new(HashMap::new());
    /// `span.<name>` histogram handles, keyed by recorder id and span name.
    static SPAN_HISTOGRAMS: RefCell<HashMap<(u64, NameKey), Histogram>> =
        RefCell::new(HashMap::new());
}

/// The interned path of a span named `name` opened under `parent`.
fn interned_path(parent: Option<&Arc<str>>, name: &'static str) -> Arc<str> {
    let parent_key = parent.map_or(0, |path| Arc::as_ptr(path) as *const u8 as usize);
    PATHS.with(|paths| {
        Arc::clone(
            paths
                .borrow_mut()
                .entry((parent_key, name_key(name)))
                .or_insert_with(|| match parent {
                    Some(parent) => format!("{parent};{name}").into(),
                    None => name.into(),
                }),
        )
    })
}

/// A finished span as the ring holds it; [`SpanRecorder::records`] and the
/// exports turn it into a [`SpanRecord`].
struct RingRecord {
    name: &'static str,
    path: Arc<str>,
    thread: u64,
    start_nanos: u64,
    duration_nanos: u64,
    self_nanos: u64,
    fields: Vec<(String, FieldValue)>,
}

impl RingRecord {
    fn to_record(&self) -> SpanRecord {
        SpanRecord {
            name: self.name.to_string(),
            path: self.path.to_string(),
            thread: self.thread,
            start_nanos: self.start_nanos,
            duration_nanos: self.duration_nanos,
            self_nanos: self.self_nanos,
            fields: self.fields.clone(),
        }
    }
}

struct RecorderInner {
    ring: VecDeque<RingRecord>,
    dropped: u64,
}

struct RecorderCore {
    /// Process-unique id keying the thread-local histogram handles.
    id: u64,
    registry: Registry,
    /// This recorder's own switch, on top of the registry's toggle.
    spans: AtomicBool,
    capacity: usize,
    epoch: Instant,
    inner: Mutex<RecorderInner>,
}

/// Collects finished spans into a bounded ring buffer. Cloning is cheap;
/// clones share the buffer. Most code uses [`SpanRecorder::global`]
/// through the [`crate::span!`] macro.
#[derive(Clone)]
pub struct SpanRecorder {
    core: Arc<RecorderCore>,
}

impl SpanRecorder {
    /// A recorder feeding `registry` (spans obey its enabled toggle and
    /// fill its `span.<name>` histograms), keeping at most `capacity`
    /// finished spans — older spans are dropped, counted by
    /// [`SpanRecorder::dropped`].
    pub fn new(registry: Registry, capacity: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        SpanRecorder {
            core: Arc::new(RecorderCore {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                registry,
                spans: AtomicBool::new(true),
                capacity: capacity.max(1),
                epoch: Instant::now(),
                inner: Mutex::new(RecorderInner {
                    ring: VecDeque::new(),
                    dropped: 0,
                }),
            }),
        }
    }

    /// The process-wide recorder, bound to [`Registry::global`].
    pub fn global() -> &'static SpanRecorder {
        static GLOBAL: OnceLock<SpanRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| SpanRecorder::new(Registry::global().clone(), DEFAULT_RING_CAPACITY))
    }

    /// Whether spans are live: the registry's feature and runtime toggle,
    /// and this recorder's own switch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.registry.enabled() && self.core.spans.load(Ordering::Relaxed)
    }

    /// Switches span recording on or off for this recorder only. The
    /// registry's counters, gauges and histograms keep recording; switched
    /// off, spans record nothing, not even their `span.<name>` samples.
    pub fn set_enabled(&self, on: bool) {
        self.core.spans.store(on, Ordering::Relaxed);
    }

    /// Opens a span. When disabled this returns an inert guard: no clock
    /// read, no allocation, and a no-op drop.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_fields(name, Vec::new)
    }

    /// Opens a span with lazily-built fields — `fields` runs only when the
    /// recorder is enabled.
    pub fn span_fields(
        &self,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(String, FieldValue)>,
    ) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard { live: None };
        }
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = interned_path(stack.last().map(|frame| &frame.path), name);
            stack.push(Frame {
                name,
                path,
                child_nanos: 0,
            });
        });
        SpanGuard {
            live: Some(LiveSpan {
                recorder: self.clone(),
                name,
                start: Instant::now(),
                fields: fields(),
            }),
        }
    }

    fn finish(&self, name: &'static str, start: Instant, fields: Vec<(String, FieldValue)>) {
        let duration = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let (path, self_nanos) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // The guard's own frame is on top unless the guard migrated
            // threads; in that case fall back to flat attribution under
            // whatever this thread has open.
            let (path, child_nanos) = match stack.last() {
                Some(frame) if std::ptr::eq(frame.name, name) => {
                    let frame = stack.pop().expect("top");
                    (frame.path, frame.child_nanos)
                }
                top => (interned_path(top.map(|frame| &frame.path), name), 0),
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(duration);
            }
            (path, duration.saturating_sub(child_nanos))
        });
        let record = RingRecord {
            name,
            path,
            thread: THREAD_ORDINAL.with(|t| *t),
            start_nanos: start
                .saturating_duration_since(self.core.epoch)
                .as_nanos()
                .min(u64::MAX as u128) as u64,
            duration_nanos: duration,
            self_nanos,
            fields,
        };
        SPAN_HISTOGRAMS.with(|histograms| {
            histograms
                .borrow_mut()
                .entry((self.core.id, name_key(name)))
                .or_insert_with(|| self.core.registry.histogram(&format!("span.{name}")))
                .record_nanos(duration);
        });
        let mut inner = self.core.inner.lock().expect("span ring lock poisoned");
        if inner.ring.len() == self.core.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(record);
    }

    /// A copy of the buffered spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        let inner = self.core.inner.lock().expect("span ring lock poisoned");
        inner.ring.iter().map(RingRecord::to_record).collect()
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.core
            .inner
            .lock()
            .expect("span ring lock poisoned")
            .dropped
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.core
            .inner
            .lock()
            .expect("span ring lock poisoned")
            .ring
            .len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the ring and resets the dropped count.
    pub fn clear(&self) {
        let mut inner = self.core.inner.lock().expect("span ring lock poisoned");
        inner.ring.clear();
        inner.dropped = 0;
    }

    /// Writes the buffered spans as JSON Lines (one `SpanRecord` object
    /// per line, oldest first).
    pub fn write_jsonl(&self, sink: &mut impl Write) -> io::Result<()> {
        for record in self.records() {
            let line = serde_json::to_string(&record).expect("span records serialize");
            writeln!(sink, "{line}")?;
        }
        Ok(())
    }

    /// Writes the JSONL trace to `path`.
    pub fn write_jsonl_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.write_jsonl(&mut file)
    }

    /// Collapsed-stack export: one `path self_nanos` line per distinct
    /// span path (self time summed), sorted by path — the input format of
    /// `flamegraph.pl` and `inferno-flamegraph`.
    pub fn collapsed_stacks(&self) -> String {
        let inner = self.core.inner.lock().expect("span ring lock poisoned");
        let mut by_path: BTreeMap<&str, u64> = BTreeMap::new();
        for record in &inner.ring {
            *by_path.entry(&record.path).or_insert(0) += record.self_nanos;
        }
        let mut out = String::new();
        for (path, nanos) in by_path {
            out.push_str(path);
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// Writes the collapsed-stack export to `path`.
    pub fn write_collapsed_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.collapsed_stacks())
    }

    /// Snapshot of the recorder's registry (convenience for frontends that
    /// hold only a recorder).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.registry.snapshot()
    }
}

struct LiveSpan {
    recorder: SpanRecorder,
    name: &'static str,
    start: Instant,
    fields: Vec<(String, FieldValue)>,
}

/// RAII span guard returned by [`crate::span!`] /
/// [`SpanRecorder::span`]. Records the span when dropped; inert when
/// observability is disabled.
#[must_use = "a span measures until dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Attaches a field to a live span (no-op on the disabled path).
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(live) = &mut self.live {
            live.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.recorder.finish(live.name, live.start, live.fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize) -> SpanRecorder {
        SpanRecorder::new(Registry::new(), capacity)
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let recorder = recorder(64);
        {
            let mut outer = recorder.span("outer");
            outer.field("items", 3u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = recorder.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let records = recorder.records();
        assert_eq!(records.len(), 2);
        let inner = &records[0];
        let outer = &records[1];
        assert_eq!(inner.path, "outer;inner");
        assert_eq!(outer.path, "outer");
        assert_eq!(
            outer.fields,
            vec![("items".to_string(), FieldValue::U64(3))]
        );
        assert!(outer.duration_nanos >= inner.duration_nanos);
        // Outer self time excludes the inner span.
        assert_eq!(
            outer.self_nanos,
            outer.duration_nanos - inner.duration_nanos
        );
        // Span durations also land in the registry histograms.
        let metrics = recorder.metrics();
        assert_eq!(metrics.histogram("span.inner").unwrap().count, 1);
        assert_eq!(metrics.histogram("span.outer").unwrap().count, 1);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let recorder = recorder(4);
        for i in 0..10u64 {
            let mut span = recorder.span("step");
            span.field("i", i);
        }
        assert_eq!(recorder.len(), 4);
        assert_eq!(recorder.dropped(), 6);
        let records = recorder.records();
        // The survivors are the newest four, oldest first.
        let kept: Vec<u64> = records
            .iter()
            .map(|r| match r.fields[0].1 {
                FieldValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        recorder.clear();
        assert!(recorder.is_empty());
        assert_eq!(recorder.dropped(), 0);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let registry = Registry::new();
        let recorder = SpanRecorder::new(registry.clone(), 16);
        registry.set_enabled(false);
        let mut fields_built = false;
        {
            let _span = recorder.span_fields("quiet", || {
                fields_built = true;
                vec![("k".to_string(), FieldValue::Bool(true))]
            });
        }
        assert!(!fields_built, "fields must not be built when disabled");
        assert!(recorder.is_empty());
        assert!(recorder.metrics().histogram("span.quiet").is_none());
        // The thread-local span stack must stay balanced for later spans.
        registry.set_enabled(true);
        {
            let _span = recorder.span("loud");
        }
        assert_eq!(recorder.records()[0].path, "loud");
    }

    #[test]
    fn switched_off_spans_record_nothing_while_metrics_count() {
        let registry = Registry::new();
        let recorder = SpanRecorder::new(registry.clone(), 16);
        recorder.set_enabled(false);
        assert!(!recorder.enabled());
        assert!(registry.enabled(), "the registry keeps recording");
        let mut fields_built = false;
        {
            let _span = recorder.span_fields("quiet", || {
                fields_built = true;
                vec![("k".to_string(), FieldValue::Bool(true))]
            });
            registry.counter("work.done").add(2);
        }
        assert!(!fields_built, "fields must not be built when switched off");
        assert!(recorder.is_empty());
        let metrics = recorder.metrics();
        assert!(metrics.histogram("span.quiet").is_none());
        assert_eq!(metrics.counter_value("work.done"), Some(2));
        // Switched back on, spans record from a balanced stack.
        recorder.set_enabled(true);
        {
            let _span = recorder.span("loud");
        }
        assert_eq!(recorder.records()[0].path, "loud");
        assert_eq!(recorder.metrics().histogram("span.loud").unwrap().count, 1);
    }

    #[test]
    fn paths_and_histograms_are_per_recorder_and_per_parent() {
        let (first, second) = (recorder(16), recorder(16));
        for recorder in [&first, &second] {
            let _outer = recorder.span("outer");
            {
                let _inner = recorder.span("inner");
            }
            let _again = recorder.span("inner");
        }
        {
            let _inner = first.span("inner");
        }
        let paths: Vec<String> = first.records().into_iter().map(|r| r.path).collect();
        assert_eq!(paths, ["outer;inner", "outer;inner", "outer", "inner"]);
        assert_eq!(first.metrics().histogram("span.inner").unwrap().count, 3);
        assert_eq!(second.metrics().histogram("span.inner").unwrap().count, 2);
        assert_eq!(second.metrics().histogram("span.outer").unwrap().count, 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let recorder = recorder(16);
        {
            let mut span = recorder.span("solve");
            span.field("backend", "Het-Dp-Lat");
            span.field("feasible", true);
            span.field("gain", 1.25f64);
        }
        let mut buffer = Vec::new();
        recorder.write_jsonl(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let parsed: SpanRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(parsed, recorder.records()[0]);
    }

    #[test]
    fn collapsed_stacks_aggregate_self_time_per_path() {
        let recorder = recorder(64);
        for _ in 0..3 {
            let _outer = recorder.span("a");
            let _inner = recorder.span("b");
        }
        let collapsed = recorder.collapsed_stacks();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("a;b "));
        // Each line is "path nanos".
        for line in lines {
            let (_, nanos) = line.rsplit_once(' ').unwrap();
            nanos.parse::<u64>().unwrap();
        }
    }
}
