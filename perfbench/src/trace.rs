//! In-memory spans recorded around calls into the program's layers.
//!
//! Tracing is off unless [`enable`] turned it on; a disabled [`span`]
//! costs one atomic load. Records stay in memory (one per span: name,
//! start, end, parent, request id) and are written out once, when the
//! run ends.

use crate::stats;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One finished (or still open, `end == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer call this span covers.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    /// Nanoseconds since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// The request (case, session) the span belongs to.
    pub request: u64,
}

impl SpanRec {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    // A panicking recorder thread leaves the vector valid (every update
    // is a single push or field store).
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns span recording on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Tags this thread's subsequent spans with a request id.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` under this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let request = REQUEST.with(Cell::get);
    let idx = {
        let mut all = spans();
        all.push(SpanRec {
            name,
            start: now_ns(),
            end: 0,
            parent,
            request,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            spans()[idx].end = end;
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Number of spans recorded so far (a marker for [`since`]).
pub fn mark() -> usize {
    spans().len()
}

/// A copy of every span recorded since `mark`.
pub fn since(mark: usize) -> Vec<SpanRec> {
    spans()[mark..].to_vec()
}

/// Durations (µs) of the spans named `name`.
pub fn durations(all: &[SpanRec], name: &str) -> Vec<f64> {
    all.iter()
        .filter(|s| s.name == name)
        .map(SpanRec::us)
        .collect()
}

/// Self times (µs) of the spans named `name`: each span's duration
/// minus the part its direct children cover. `all` must be a slice
/// starting at index `offset` of the global record (parents are global
/// indices).
pub fn self_times(all: &[SpanRec], offset: usize, name: &str) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); all.len()];
    for s in all {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(offset)) {
            if p < all.len() {
                children[p].push((s.start, s.end));
            }
        }
    }
    all.iter()
        .zip(&children)
        .filter(|(s, _)| s.name == name)
        .map(|(s, kids)| stats::self_time((s.start, s.end), kids) as f64 / 1e3)
        .collect()
}

/// Writes every recorded span as JSON lines to `path`.
pub fn write_all(path: &Path) -> std::io::Result<()> {
    let all = spans();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in all.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        // The recorder is process-global; this is the only test that
        // turns it on.
        enable(true);
        let m = mark();
        set_request(7);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        enable(false);
        drop(span("ignored"));
        // Tests on other threads may record spans meanwhile; look only
        // at this test's names.
        let got = since(m);
        let outer = got.iter().position(|s| s.name == "outer").unwrap();
        let inner = got.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(m + outer));
        assert!(got.iter().all(|s| s.name != "ignored"));
        assert_eq!((got[outer].request, inner.request), (7, 7));
        let outer_self = self_times(&got, m, "outer")[0];
        assert!(inner.us() >= 2000.0);
        assert!((outer_self + inner.us() - got[outer].us()).abs() < 1e-6);
    }
}
