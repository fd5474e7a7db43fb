//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a
//! layer's public functions. A span records its name (`layer.call`),
//! start, end, the span that caused it and the request it served;
//! spans stay in memory until [`Tracer::write_jsonl`] writes them out
//! when the run ends. A layer's *self time* is its spans' duration
//! minus the part of that interval their child spans cover.
//!
//! A disabled tracer hands out inert guards and never reads the
//! clock, so the untraced run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: usize,
    /// `layer.call`, e.g. `store.cone` or `serve.rtt.small_cone`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (0 = none).
    pub request: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The run's span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    closed: Mutex<Vec<Span>>,
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    live: Option<Open>,
}

/// The fields of a span that is still open.
#[derive(Clone, Copy)]
struct Open {
    id: usize,
    name: &'static str,
    start_ns: u64,
    parent: Option<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicUsize::new(1),
            closed: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span whose parent is the innermost span open on this
    /// thread.
    pub fn span(&self, name: &'static str, request: u64) -> Guard<'_> {
        let parent = if self.enabled {
            OPEN.with(|open| open.borrow().last().copied())
        } else {
            None
        };
        self.span_under(name, request, parent)
    }

    /// Open a span under an explicit parent (a span opened on another
    /// thread, e.g. the phase a generator worker serves).
    pub fn span_under(&self, name: &'static str, request: u64, parent: Option<usize>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                live: None,
            };
        }
        self.open(name, request, parent)
    }

    fn open(&self, name: &'static str, request: u64, parent: Option<usize>) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        Guard {
            tracer: self,
            live: Some(Open {
                id,
                name,
                start_ns: self.now_ns(),
                parent,
                request,
            }),
        }
    }

    /// Every span closed so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.closed.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write `header` (one JSON line), then every span as one JSON
    /// object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (s, self_ns) in spans.iter().zip(&selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request, self_ns
            )?;
        }
        out.flush()
    }
}

impl Guard<'_> {
    /// This span's id (`None` when tracing is off), for children
    /// opened on other threads.
    pub fn id(&self) -> Option<usize> {
        self.live.map(|l| l.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(Open {
            id,
            name,
            start_ns,
            parent,
            request,
        }) = self.live.take()
        else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.remove(pos);
            }
        });
        if let Ok(mut closed) = self.tracer.closed.lock() {
            closed.push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span (aligned with `spans`): its duration minus
/// the part of its interval covered by its children. Overlapping
/// children (concurrent workers under one phase) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Total self time per layer, seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}
