//! Benchmark-side spans: one interval per call into a layer, kept in a
//! pre-sized buffer and written out as a Chrome `trace_event` file when the
//! run ends.
//!
//! The same code runs with spans on and off: a disabled [`Spans`] makes
//! [`SpanCtx::scope`] a plain call with no clock read, which is what the
//! end-to-end numbers are measured with.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// `k` of `job[k]` / `parse[k]` / `step_batch[k]`; `None` for singletons.
    pub index: Option<u32>,
    pub workload: &'static str,
    pub rep: u32,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Small dense thread ids for the trace (the OS ids are opaque).
fn tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The span buffer. Shared by reference with fan-out jobs, so spans ending
/// on worker threads land in the same buffer as the main thread's.
pub struct Spans {
    /// `None` when spans are off.
    buf: Option<Mutex<Vec<Span>>>,
    epoch: Instant,
    next_id: AtomicU32,
}

impl Spans {
    /// Spans off: nothing is timed or stored.
    pub fn disabled() -> Spans {
        Spans { buf: None, epoch: Instant::now(), next_id: AtomicU32::new(1) }
    }

    /// Spans on, with room for `capacity` spans before the buffer grows.
    pub fn enabled(capacity: usize) -> Spans {
        Spans {
            buf: Some(Mutex::new(Vec::with_capacity(capacity))),
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
        }
    }

    /// A root context for one repetition of one workload.
    pub fn root(&self, workload: &'static str, rep: u32) -> SpanCtx<'_> {
        SpanCtx { spans: self, workload, rep, parent: 0 }
    }

    /// Everything recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        match &self.buf {
            Some(buf) => buf.lock().expect("span buffer poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Where a new span hangs: the buffer plus the enclosing span.
#[derive(Clone, Copy)]
pub struct SpanCtx<'a> {
    spans: &'a Spans,
    workload: &'static str,
    rep: u32,
    parent: u32,
}

impl SpanCtx<'_> {
    /// Run `f` inside a span named `name` (`name[index]` when indexed); `f`
    /// receives the context its own child spans hang from.
    pub fn scope<R>(
        &self,
        name: &'static str,
        index: Option<u32>,
        f: impl FnOnce(&SpanCtx<'_>) -> R,
    ) -> R {
        let Some(buf) = &self.spans.buf else {
            return f(self);
        };
        let id = self.spans.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.spans.epoch.elapsed().as_nanos() as u64;
        let out = f(&SpanCtx { parent: id, ..*self });
        let end_ns = self.spans.epoch.elapsed().as_nanos() as u64;
        buf.lock().expect("span buffer poisoned").push(Span {
            id,
            parent: self.parent,
            name,
            index,
            workload: self.workload,
            rep: self.rep,
            tid: tid(),
            start_ns,
            end_ns,
        });
        out
    }
}

/// Self time of `span`: its duration minus the union of its children's
/// intervals, each clipped to the span (a child on another thread may
/// outlive the parent's interval or overlap a sibling).
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns() - covered
}

/// Chrome `trace_event` JSON (complete events, microseconds) of the spans.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let index = s.index.map_or(String::new(), |i| format!("[{i}]"));
        // Span names are identifiers from this crate, so they need no escaping.
        write!(
            out,
            "\n{{\"name\":\"{}{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"rep\":{}}}}}",
            s.name,
            index,
            s.workload,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.rep,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, tid: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", index: None, workload: "w", rep: 0, tid, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // parent 0..100; children 10..30 and 50..70; a grandchild inside
        // the first child must not be subtracted from the parent again.
        let all = [
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 30),
            span(3, 1, 1, 50, 70),
            span(4, 2, 1, 12, 20),
        ];
        assert_eq!(self_time_ns(&all[0], &all), 60);
        assert_eq!(self_time_ns(&all[1], &all), 12);
        assert_eq!(self_time_ns(&all[3], &all), 8);
    }

    #[test]
    fn self_time_unions_overlapping_cross_thread_children_and_clips_them() {
        // Two workers overlap (20..60 and 40..90) and a third child starts
        // before and ends after the parent (clipped to 100..120 of 100..200).
        let all = [span(1, 0, 1, 0, 100), span(2, 1, 2, 20, 60), span(3, 1, 3, 40, 90)];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 70);
        let all = [span(1, 0, 1, 100, 200), span(2, 1, 2, 50, 120), span(3, 1, 3, 190, 400)];
        assert_eq!(self_time_ns(&all[0], &all), 100 - 20 - 10);
    }

    #[test]
    fn scopes_nest_and_disabled_spans_record_nothing() {
        let spans = Spans::enabled(8);
        let got =
            spans.root("w", 3).scope("rep", None, |rep| rep.scope("job", Some(7), |_| 41) + 1);
        assert_eq!(got, 42);
        let all = spans.snapshot();
        assert_eq!(all.len(), 2);
        let (job, rep) = (&all[0], &all[1]);
        assert_eq!((job.name, job.index, job.parent, job.rep), ("job", Some(7), rep.id, 3));
        assert_eq!((rep.name, rep.parent, rep.workload), ("rep", 0, "w"));
        assert!(rep.start_ns <= job.start_ns && job.end_ns <= rep.end_ns);

        let off = Spans::disabled();
        assert_eq!(off.root("w", 0).scope("rep", None, |c| c.scope("x", None, |_| 5)), 5);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn spans_from_worker_threads_land_in_the_shared_buffer() {
        let spans = Spans::enabled(8);
        let root = spans.root("w", 0);
        root.scope("run", None, |run| {
            std::thread::scope(|s| {
                for k in 0..2 {
                    s.spawn(move || run.scope("job", Some(k), |_| ()));
                }
            });
        });
        let all = spans.snapshot();
        let run = all.iter().find(|s| s.name == "run").unwrap();
        let jobs: Vec<_> = all.iter().filter(|s| s.name == "job").collect();
        assert_eq!(jobs.len(), 2);
        assert!(jobs.iter().all(|j| j.parent == run.id && j.tid != run.tid));
    }
}
