//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request id, count, busy)`. Spans
//! are opened only from the benchmark's own code, around calls into the
//! program's public seams; the parent is whatever span is open on the same
//! thread, so an oracle call made inside a replayed engine call nests under
//! it. Calls too frequent for a span each (one trusted-machine evaluation
//! per tuple) are coalesced: all such calls of one name under one parent
//! become a single span from the first call's start to the last call's
//! end, whose `busy` time is the sum of the calls. Nothing is recorded
//! while tracing is off: [`span`] then costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    /// Coalesced calls not yet folded into their parent's close.
    static PENDING: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Request the span belongs to (0 = not attributable).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at the boundary (QPF uses, bytes, …).
    pub count: u64,
    /// Time spent inside the span's calls: its duration, or for a
    /// coalesced span the sum of the coalesced calls.
    pub busy_ns: u64,
}

fn record(span: Span) {
    // A poisoned collector only means another thread panicked while
    // pushing; the vector itself is still a valid list of spans.
    match SPANS.lock() {
        Ok(mut v) => v.push(span),
        Err(p) => p.into_inner().push(span),
    }
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags spans opened on this thread with `request` until reset to 0.
pub fn set_request(request: u64) {
    REQUEST.with(|r| r.set(request));
}

/// An open span; recorded when dropped.
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    start_ns: u64,
    count: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let children: Vec<Span> = PENDING.with(|p| {
            let mut p = p.borrow_mut();
            let (mine, rest) = p.drain(..).partition(|c| c.parent == self.id);
            *p = rest;
            mine
        });
        for child in children {
            record(child);
        }
        record(Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            request: self.request,
            start_ns: self.start_ns,
            end_ns,
            count: self.count,
            busy_ns: end_ns.saturating_sub(self.start_ns),
        });
    }
}

/// One call being folded into a coalesced span; see [`coalesced`].
pub struct CallGuard {
    name: &'static str,
    count: u64,
    start_ns: u64,
}

impl Drop for CallGuard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        PENDING.with(|p| {
            let mut p = p.borrow_mut();
            if let Some(c) = p
                .iter_mut()
                .find(|c| c.parent == parent && c.name == self.name)
            {
                c.end_ns = end_ns;
                c.count += self.count;
                c.busy_ns += end_ns.saturating_sub(self.start_ns);
            } else {
                p.push(Span {
                    name: self.name,
                    id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                    parent,
                    request: REQUEST.with(Cell::get),
                    start_ns: self.start_ns,
                    end_ns,
                    count: self.count,
                    busy_ns: end_ns.saturating_sub(self.start_ns),
                });
            }
        });
    }
}

/// Times one call of a high-frequency kind inside an open span of the
/// current request; the calls are recorded when that span closes. Nothing
/// is recorded when tracing is off or the thread serves no known request.
pub fn coalesced(name: &'static str, count: u64) -> Option<CallGuard> {
    if !enabled() || REQUEST.with(Cell::get) == 0 {
        return None;
    }
    Some(CallGuard {
        name,
        count,
        start_ns: now_ns(),
    })
}

/// [`span`], but only on a thread serving a known request.
pub fn request_span(name: &'static str, count: u64) -> Option<Guard> {
    if REQUEST.with(Cell::get) == 0 {
        return None;
    }
    span(name, count)
}

/// Opens a span named `name` carrying `count`, or nothing when tracing is
/// off.
pub fn span(name: &'static str, count: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Guard {
        name,
        id,
        parent,
        request: REQUEST.with(Cell::get),
        start_ns: now_ns(),
        count,
    })
}

/// Takes every span recorded so far, leaving the collector empty.
pub fn take() -> Vec<Span> {
    match SPANS.lock() {
        Ok(mut v) => std::mem::take(&mut *v),
        Err(p) => std::mem::take(&mut *p.into_inner()),
    }
}

/// Writes spans as tab-separated lines:
/// `name id parent request start_ns end_ns count busy_ns`.
pub fn dump(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "name\tid\tparent\trequest\tstart_ns\tend_ns\tcount\tbusy_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns, s.count, s.busy_ns
        )?;
    }
    out.flush()
}

/// Measured recording costs, in nanoseconds: one span opened and closed,
/// and one coalesced call. Call only while no other thread records spans.
pub fn calibrate(n: u64) -> (f64, f64) {
    let keep = take();
    let was = enabled();
    set_enabled(true);
    let start = Instant::now();
    for _ in 0..n {
        drop(span("trace.calibrate", 0));
    }
    let span_ns = start.elapsed().as_nanos() as f64 / n as f64;
    set_request(u64::MAX);
    let parent = span("trace.calibrate", 0);
    let start = Instant::now();
    for _ in 0..n {
        drop(coalesced("trace.calibrate.call", 1));
    }
    let call_ns = start.elapsed().as_nanos() as f64 / n as f64;
    drop(parent);
    set_request(0);
    set_enabled(was);
    match SPANS.lock() {
        Ok(mut v) => *v = keep,
        Err(p) => *p.into_inner() = keep,
    }
    (span_ns, call_ns)
}
