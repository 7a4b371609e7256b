//! Spans around the benchmark's calls into each layer.
//!
//! A span records its name, its parent, wall time, CPU time of the calling
//! thread and of the whole process, allocations and allocated bytes, and
//! the change in resident memory. Spans stay in memory and are written out
//! with the run's record once the run ends. A disabled tracer only calls
//! the closure, so untraced jobs run the same code with no recording.

use crate::sys;
use serde::Serialize;
use std::cell::RefCell;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same job's span list.
    pub parent: Option<usize>,
    pub wall_s: f64,
    pub thread_cpu_s: f64,
    pub process_cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub rss_delta_bytes: i64,
}

/// Every reading a span takes at its start and end.
struct Mark {
    wall: Instant,
    thread_cpu_s: f64,
    process_cpu_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    rss: u64,
}

impl Mark {
    /// Read the slow `/proc` value first and the wall clock last, so the
    /// reading's own cost stays outside the span it opens.
    fn start() -> Mark {
        let rss = sys::rss_bytes();
        let (allocs, alloc_bytes) = sys::allocations();
        let process_cpu_s = sys::process_cpu_s();
        let thread_cpu_s = sys::thread_cpu_s();
        Mark {
            wall: Instant::now(),
            thread_cpu_s,
            process_cpu_s,
            allocs,
            alloc_bytes,
            rss,
        }
    }

    /// The mirror of [`Mark::start`]: wall clock first.
    fn end() -> Mark {
        let wall = Instant::now();
        let thread_cpu_s = sys::thread_cpu_s();
        let process_cpu_s = sys::process_cpu_s();
        let (allocs, alloc_bytes) = sys::allocations();
        Mark {
            wall,
            thread_cpu_s,
            process_cpu_s,
            allocs,
            alloc_bytes,
            rss: sys::rss_bytes(),
        }
    }
}

/// Records spans for one job, or nothing when disabled.
pub struct Tracer {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent,
                wall_s: 0.0,
                thread_cpu_s: 0.0,
                process_cpu_s: 0.0,
                allocs: 0,
                alloc_bytes: 0,
                rss_delta_bytes: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = Mark::start();
        let out = f();
        let end = Mark::end();
        self.open.borrow_mut().pop();
        let span = &mut self.spans.borrow_mut()[id];
        span.wall_s = (end.wall - start.wall).as_secs_f64();
        span.thread_cpu_s = end.thread_cpu_s - start.thread_cpu_s;
        span.process_cpu_s = end.process_cpu_s - start.process_cpu_s;
        span.allocs = end.allocs - start.allocs;
        span.alloc_bytes = end.alloc_bytes - start.alloc_bytes;
        span.rss_delta_bytes = end.rss as i64 - start.rss as i64;
        out
    }

    /// The finished spans, in opening order.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// The first span named `name`.
pub fn find<'a>(spans: &'a [Span], name: &str) -> Option<&'a Span> {
    spans.iter().find(|s| s.name == name)
}

/// Share of the span named `root` that none of its direct children cover.
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let Some(id) = spans.iter().position(|s| s.name == root) else {
        return 1.0;
    };
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.wall_s)
        .sum();
    let total = spans[id].wall_s;
    if total > 0.0 {
        (total - covered) / total
    } else {
        0.0
    }
}
