//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the process's first span
//! call), the id of the span open around it on the same thread, and the
//! request id it serves. Spans are kept in memory while the run is timed and
//! written out as JSON lines when it ends. A layer's self time is its span's
//! duration minus the part of it that child spans cover.
//!
//! Recording is off unless [`enable`] is called, so the untraced run pays one
//! relaxed load per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: RefCell<u64> = const { RefCell::new(0) };
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The request this span serves (0 outside any request).
    pub request: u64,
    /// Layer-qualified name, e.g. `plan.prepare`.
    pub name: String,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turn span recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` with `request` as this thread's current request id.
pub fn with_request<T>(request: u64, f: impl FnOnce() -> T) -> T {
    let prev = REQUEST.with(|r| std::mem::replace(&mut *r.borrow_mut(), request));
    let out = f();
    REQUEST.with(|r| *r.borrow_mut() = prev);
    out
}

/// Time `f`; when tracing is on, also record it as span `name` under the
/// span open on this thread. Returns `f`'s output and its duration.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    if !enabled() {
        let t0 = Instant::now();
        let out = f();
        return (out, t0.elapsed());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied();
        o.push(id);
        parent
    });
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    OPEN.with(|o| o.borrow_mut().pop());
    let request = REQUEST.with(|r| *r.borrow());
    let s = Span {
        id,
        parent,
        request,
        name: name.to_owned(),
        start_ns: since_epoch(t0),
        end_ns: since_epoch(t1),
    };
    SPANS.lock().expect("span log lock is never held across a panic").push(s);
    (out, t1 - t0)
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log lock is never held across a panic"))
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Per span name: count, total ms and self ms.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
        e.2 += selfs[&s.id] as f64 / 1e6;
    }
    out
}

/// Write `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: format!("s{id}"), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            mk(1, None, 0, 100),
            mk(2, Some(1), 10, 30),
            mk(3, Some(1), 50, 60),
            // A grandchild is charged to its own parent, not to the root.
            mk(4, Some(2), 12, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 10);
        assert_eq!(st[&2], 20 - 8);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 8);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        let spans = vec![
            mk(1, None, 100, 200),
            mk(2, Some(1), 90, 130),
            mk(3, Some(1), 120, 150),
            mk(4, Some(1), 190, 250),
        ];
        // Covered: [100,150) ∪ [190,200) = 60 ns.
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn nested_calls_record_parent_and_request() {
        enable();
        with_request(7, || {
            span("outer", || {
                span("inner", || std::hint::black_box(3));
            })
        });
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.request == 7).collect();
        let outer = mine.iter().find(|s| s.name == "outer").expect("outer span");
        let inner = mine.iter().find(|s| s.name == "inner").expect("inner span");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let sum = summarize(&mine);
        assert_eq!(sum["outer"].0, 1);
        assert!(sum["outer"].2 <= sum["outer"].1);
    }
}
