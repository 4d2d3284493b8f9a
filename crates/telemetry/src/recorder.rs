//! Span/event recorder for tracing a solve end to end.
//!
//! The recorder is a deliberately small substitute for the `tracing`
//! ecosystem (unavailable offline): spans are named intervals measured
//! with [`Instant`], events are point-in-time annotations, and both land
//! in one flat chronological log that can be printed (`--trace`) or
//! embedded in a JSON report.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One closed span or event in the trace log.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span or event name, e.g. `"compile"` or `"sample"`.
    pub name: String,
    /// Microseconds from recorder creation to span start.
    pub start_us: u64,
    /// Span duration in microseconds. Zero for point events.
    pub dur_us: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: usize,
    /// Optional free-form annotation (events carry their message here).
    pub detail: Option<String>,
}

impl SpanRecord {
    /// Serializes this record as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::from(self.name.as_str())),
            ("start_us", Json::from(self.start_us)),
            ("dur_us", Json::from(self.dur_us)),
            ("depth", Json::from(self.depth)),
        ];
        if let Some(d) = &self.detail {
            pairs.push(("detail", Json::from(d.as_str())));
        }
        Json::obj(pairs)
    }
}

thread_local! {
    /// This thread's open-span depth in each recorder it has spans open
    /// on, keyed by the recorder's address. Guards borrow their recorder
    /// and an entry goes when its depth returns to zero, so no entry
    /// outlives its recorder.
    static THREAD_DEPTHS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Collects [`SpanRecord`]s for one solve.
///
/// Interior-mutable and cheap to share by reference; spans are recorded
/// when their [`SpanGuard`] drops, so panics still close open spans.
/// Nesting depth is tracked per thread: spans opened on other threads
/// never shift this thread's depths.
///
/// ```
/// use qsmt_telemetry::Recorder;
///
/// let rec = Recorder::new();
/// {
///     let _outer = rec.span("solve");
///     let _inner = rec.span("compile");
///     rec.event("compiled", "3 constraints");
/// } // guards drop here, closing both spans
/// let log = rec.finish();
/// assert_eq!(log.len(), 3);
/// let event = log.iter().find(|r| r.name == "compiled").unwrap();
/// assert_eq!(event.dur_us, 0); // events are instantaneous
/// ```
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    records: Mutex<Vec<SpanRecord>>,
    /// Spans open across all threads; zero once every guard has dropped.
    depth: AtomicUsize,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            records: Mutex::new(Vec::new()),
            depth: AtomicUsize::new(0),
        }
    }

    /// Microseconds elapsed since the recorder was created.
    pub fn elapsed_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn key(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// This thread's current nesting depth on this recorder.
    fn thread_depth(&self) -> usize {
        let key = self.key();
        THREAD_DEPTHS.with_borrow(|d| d.iter().find(|e| e.0 == key).map_or(0, |e| e.1))
    }

    /// Adds `delta` (±1) to this thread's depth, returning the old depth.
    fn shift_thread_depth(&self, delta: isize) -> usize {
        let key = self.key();
        THREAD_DEPTHS.with_borrow_mut(|d| {
            let i = d.iter().position(|e| e.0 == key).unwrap_or_else(|| {
                d.push((key, 0));
                d.len() - 1
            });
            let old = d[i].1;
            d[i].1 = old.wrapping_add_signed(delta);
            if d[i].1 == 0 {
                d.swap_remove(i);
            }
            old
        })
    }

    /// Opens a span; it closes (and is recorded) when the guard drops.
    /// Its depth is the number of spans this thread has open on the
    /// recorder.
    pub fn span<'r>(&'r self, name: &str) -> SpanGuard<'r> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let depth = self.shift_thread_depth(1);
        SpanGuard {
            recorder: self,
            name: name.to_string(),
            start_us: self.elapsed_us(),
            depth,
            _same_thread: PhantomData,
        }
    }

    /// Records a point-in-time event with a detail message.
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        let now = self.elapsed_us();
        let depth = self.thread_depth();
        self.push(SpanRecord {
            name: name.to_string(),
            start_us: now,
            dur_us: 0,
            depth,
            detail: Some(detail.into()),
        });
    }

    fn push(&self, record: SpanRecord) {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
    }

    /// Consumes the recorder, returning all records sorted by start time.
    pub fn finish(self) -> Vec<SpanRecord> {
        let mut records = self
            .records
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        records.sort_by_key(|r| r.start_us);
        records
    }

    /// Snapshot of the records collected so far, sorted by start time.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut records = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        records.sort_by_key(|r| r.start_us);
        records
    }
}

/// RAII guard that records its span on drop. It closes on the thread
/// that opened it (not `Send`), where its depth was counted.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    name: String,
    start_us: u64,
    depth: usize,
    _same_thread: PhantomData<*const ()>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_us = self.recorder.elapsed_us().saturating_sub(self.start_us);
        self.recorder.depth.fetch_sub(1, Ordering::Relaxed);
        self.recorder.shift_thread_depth(-1);
        self.recorder.push(SpanRecord {
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us,
            depth: self.depth,
            detail: None,
        });
    }
}

/// Human-readable rendering of a trace log, one line per record,
/// indented by depth — what `qsmt solve --trace` prints.
pub struct TraceDisplay<'a>(pub &'a [SpanRecord]);

impl fmt::Display for TraceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.0 {
            let indent = "  ".repeat(r.depth);
            if r.dur_us == 0 && r.detail.is_some() {
                writeln!(
                    f,
                    "[{:>9.3} ms] {indent}* {} — {}",
                    r.start_us as f64 / 1000.0,
                    r.name,
                    r.detail.as_deref().unwrap_or(""),
                )?;
            } else {
                writeln!(
                    f,
                    "[{:>9.3} ms] {indent}{} ({:.3} ms)",
                    r.start_us as f64 / 1000.0,
                    r.name,
                    r.dur_us as f64 / 1000.0,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let rec = Recorder::new();
        {
            let _a = rec.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = rec.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let log = rec.finish();
        assert_eq!(log.len(), 2);
        let outer = log.iter().find(|r| r.name == "outer").unwrap();
        let inner = log.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.start_us <= inner.start_us);
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn events_record_detail_at_current_depth() {
        let rec = Recorder::new();
        let _s = rec.span("stage");
        rec.event("milestone", "42 vars");
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 1); // span still open
        assert_eq!(snap[0].detail.as_deref(), Some("42 vars"));
        assert_eq!(snap[0].depth, 1);
        assert_eq!(snap[0].dur_us, 0);
    }

    #[test]
    fn trace_display_renders_lines() {
        let rec = Recorder::new();
        {
            let _s = rec.span("compile");
            rec.event("note", "hello");
        }
        let log = rec.finish();
        let text = TraceDisplay(&log).to_string();
        assert!(text.contains("compile"));
        assert!(text.contains("note — hello"));
    }

    #[test]
    fn concurrent_spans_all_recorded_with_balanced_depth() {
        // Many threads opening/closing nested spans against one shared
        // recorder: every span must land in the log exactly once and the
        // depth counter must return to zero (no lost updates).
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..25 {
                        let _outer = rec.span(&format!("outer-{t}-{i}"));
                        let _inner = rec.span(&format!("inner-{t}-{i}"));
                    }
                });
            }
        });
        assert_eq!(rec.depth.load(Ordering::Relaxed), 0);
        let log = rec.finish();
        assert_eq!(log.len(), 8 * 25 * 2);
        // Each thread's own nesting holds: its inner span opened after
        // (or with) its outer span and at a strictly greater depth.
        for t in 0..8 {
            for i in 0..25 {
                let outer = log
                    .iter()
                    .find(|r| r.name == format!("outer-{t}-{i}"))
                    .expect("outer span recorded");
                let inner = log
                    .iter()
                    .find(|r| r.name == format!("inner-{t}-{i}"))
                    .expect("inner span recorded");
                assert!(outer.start_us <= inner.start_us);
                assert!(inner.depth > outer.depth, "{t}/{i}");
            }
        }
    }

    #[test]
    fn trace_display_orders_concurrent_spans_by_start_time() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..10 {
                        let _span = rec.span(&format!("s-{t}-{i}"));
                        std::thread::yield_now();
                    }
                });
            }
        });
        let log = rec.finish();
        // finish() sorts by start time; TraceDisplay renders in that
        // order, so the rendered line order must be non-decreasing in
        // start_us regardless of which thread closed its span first.
        assert!(log.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        let text = TraceDisplay(&log).to_string();
        assert_eq!(text.lines().count(), log.len());
        let mut rendered: Vec<&str> = text.lines().collect();
        // Every record appears on its own line, in log order.
        for (line, record) in rendered.iter_mut().zip(&log) {
            assert!(
                line.contains(record.name.as_str()),
                "line {line:?} missing {}",
                record.name
            );
        }
    }

    #[test]
    fn records_serialize_to_json() {
        let r = SpanRecord {
            name: "sample".into(),
            start_us: 10,
            dur_us: 25,
            depth: 1,
            detail: None,
        };
        let j = r.to_json();
        assert_eq!(j.get("name").and_then(Json::as_str), Some("sample"));
        assert_eq!(j.get("dur_us").and_then(Json::as_u64), Some(25));
        assert!(j.get("detail").is_none());
    }
}
