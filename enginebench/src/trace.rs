//! Benchmark-side spans around public calls into each layer.
//!
//! Spans live in memory (name, start, end, parent, op id) and are
//! written out once the run ends. With tracing off, [`span`] is a plain
//! call: one relaxed atomic load and no clock read.
//!
//! The serving loop, the replica factory and the benchmark's own loops
//! all run on one thread; the fan-out inside models opens no spans. A
//! single global stack therefore gives every span its parent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dgnn_bench::harness::walltime;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

// Relaxed: the flag publishes no data; the recorder itself sits
// behind the mutex.
static ON: AtomicBool = AtomicBool::new(false);
static REC: Mutex<Option<Recorder>> = Mutex::new(None);

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn with_rec<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    let mut guard = REC.lock().expect("span recorder poisoned by a panic");
    f(guard.as_mut().expect("span recorder started"))
}

/// Starts recording spans; every later [`span`] is kept.
pub fn start() {
    *REC.lock().expect("span recorder poisoned by a panic") = Some(Recorder {
        t0: walltime(),
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
    });
    ON.store(true, Ordering::Relaxed);
}

/// Stops recording and returns every span, in open order.
pub fn finish() -> Vec<Span> {
    ON.store(false, Ordering::Relaxed);
    REC.lock()
        .expect("span recorder poisoned by a panic")
        .take()
        .map(|r| r.spans)
        .unwrap_or_default()
}

/// Whether spans are being recorded.
fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the op id that spans opened from now on carry.
pub fn set_op(op: u64) {
    if on() {
        with_rec(|r| r.op = op);
    }
}

/// Runs `f` inside a span called `name` (`<layer>.<call>`).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let idx = with_rec(|r| {
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns: ns_since(r.t0),
            end_ns: 0,
            parent: r.stack.last().copied(),
            op: r.op,
        });
        r.stack.push(idx);
        idx
    });
    let out = f();
    with_rec(|r| {
        r.spans[idx].end_ns = ns_since(r.t0);
        r.stack.pop();
    });
    out
}

/// Per-span self time: its duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread), so their
/// durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Totals by span name: (calls, total ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    out
}

/// Self time summed by layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_times_subtract_direct_children_only() {
        let spans = vec![
            sp("bench.run", 0, 100, None),
            sp("serve.fleet", 10, 90, Some(0)),
            sp("models.infer", 20, 50, Some(1)),
            sp("device.host", 25, 35, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
        let total: u64 = self_by_layer(&spans).values().sum();
        assert_eq!(total, 100, "self times tile the root span");
    }
}
