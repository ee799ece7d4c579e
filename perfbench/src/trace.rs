//! In-memory span recorder for the traced run.
//!
//! Spans are opened only by the benchmark's own code, around its calls
//! into the workspace crates. Each span records a name, start and end
//! (nanoseconds since the recorder's epoch), its parent span on the same
//! thread, and the request id that was current on the thread when it
//! opened, so every span of one request shares that id. Recording is off
//! unless [`set_enabled`] turned it on: an untraced run pays one relaxed atomic
//! load per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Start, in ns since the recorder epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request id current when the span opened (0 = none).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` on this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let request = REQUEST.with(Cell::get);
    let idx = {
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
            spans[idx].end_ns = end;
        }
    }
}

/// Starts a new request on this thread: spans opened until the next
/// call share the returned id.
pub fn begin_request() -> u64 {
    let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    REQUEST.with(|r| r.set(id));
    id
}

/// Runs `f` inside a span and returns its result with its wall time in
/// seconds. The timing is taken whether or not recording is on, so the
/// traced and untraced runs measure the same interval.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _g = span(name);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Takes every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Whether a span wraps a composite call: one whose insides belong to
/// several layers but carry no spans of their own (a `run_source`, a
/// set-up compile-and-plan, a `handle_line`, an engine request).
pub fn is_composite(name: &str) -> bool {
    matches!(
        name,
        "driver.run_source" | "workloads.compile_plan" | "serve.handle_line"
    ) || name.starts_with("serve.engine.")
}

/// Self time (duration minus the durations of kept direct children)
/// summed per layer over the spans `keep` selects, in ns, plus the summed
/// duration of the kept spans without a kept parent.
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> (BTreeMap<&'static str, u64>, u64) {
    let kept: Vec<bool> = spans.iter().map(&keep).collect();
    let mut child_ns = vec![0u64; spans.len()];
    let mut root_ns = 0u64;
    for (s, _) in spans.iter().zip(&kept).filter(|(_, &k)| k) {
        match s.parent.filter(|&p| kept[p]) {
            Some(p) => child_ns[p] += s.dur_ns(),
            None => root_ns += s.dur_ns(),
        }
    }
    let mut by_layer = BTreeMap::new();
    for ((s, child), _) in spans.iter().zip(&child_ns).zip(&kept).filter(|(_, &k)| k) {
        *by_layer.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(*child);
    }
    (by_layer, root_ns)
}

/// Renders spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
/// `parent`, `request`).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}
