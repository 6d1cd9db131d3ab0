//! In-memory span recorder for the traced run.
//!
//! The benchmark puts a span around each call it makes into a layer's
//! public function. A span's name is the per-layer metric it feeds
//! (`core.run_us`), its label the metric's suffix (`4096`), so the
//! per-layer metrics are the median span durations grouped by name and
//! label. Spans nest through a per-thread stack of open span ids, which
//! gives every span its parent. Everything stays in memory until
//! [`Tracer::write_jsonl`] at exit; each name and label keeps at most
//! [`SPANS_PER_KEY`] spans, thinned evenly over the run.
//!
//! A disabled tracer (the end-to-end run) returns inert guards that
//! read no clock, so untraced timings carry none of the tracing cost.

use crate::check::Thinned;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u32,
    /// Id of the span open on the same thread when this one started;
    /// 0 for a root span.
    pub parent: u32,
    /// The per-layer metric this span feeds.
    pub name: &'static str,
    /// The metric suffix (an app name or a stream length); may be empty.
    pub label: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread tracing state: the open-span stack and whether the
/// current iteration is traced.
struct Local {
    stack: Vec<u32>,
    active: bool,
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local { stack: Vec::new(), active: true }) };
}

/// Spans kept per name and label.
pub const SPANS_PER_KEY: usize = 2048;

type Sink = BTreeMap<(&'static str, &'static str), Thinned<Span>>;

/// The span sink, shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Sink>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this run records spans at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the calling thread only — the
    /// traced run alternates traced and untraced iterations to measure
    /// the tracing overhead.
    pub fn set_thread_active(active: bool) {
        LOCAL.with(|l| l.borrow_mut().active = active);
    }

    /// Whether the calling thread records spans (see
    /// [`set_thread_active`](Self::set_thread_active)).
    pub fn thread_active() -> bool {
        LOCAL.with(|l| l.borrow().active)
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, label: &'static str) -> SpanGuard<'_> {
        if !self.enabled || !Self::thread_active() {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let parent = l.stack.last().copied().unwrap_or(0);
            l.stack.push(id);
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                name,
                label,
                start: Instant::now(),
            }),
        }
    }

    /// Every span kept, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let sink = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking thread");
        let mut all: Vec<Span> = sink.values().flat_map(|t| t.values().iter().copied()).collect();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    /// Kept span durations in ns, grouped by `(name, label)`.
    pub fn durations(&self) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
        let sink = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking thread");
        sink.iter()
            .map(|(k, t)| (*k, t.values().iter().map(|s| s.ns() as f64).collect()))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.label, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    label: &'static str,
    start: Instant,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<Open<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last() == Some(&o.id) {
                l.stack.pop();
            }
        });
        let ns = |t: Instant| t.duration_since(o.tracer.origin).as_nanos() as u64;
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            label: o.label,
            start_ns: ns(o.start),
            end_ns: ns(end),
        };
        // A poisoned sink only loses this span; never panic in drop.
        if let Ok(mut sink) = o.tracer.spans.lock() {
            sink.entry((span.name, span.label))
                .or_insert_with(|| Thinned::new(SPANS_PER_KEY))
                .push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer_us", "");
            let _inner = t.span("inner_us", "7");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner_us").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer_us").expect("outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("write");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 2);
    }

    #[test]
    fn disabled_or_inactive_tracers_record_nothing() {
        let off = Tracer::new(false);
        drop(off.span("x_us", ""));
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        Tracer::set_thread_active(false);
        drop(on.span("x_us", ""));
        Tracer::set_thread_active(true);
        assert!(on.spans().is_empty());
        drop(on.span("x_us", ""));
        assert_eq!(on.durations()[&("x_us", "")].len(), 1);
    }
}
