//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer,
//! never inside the program. They are kept in memory and written out as
//! newline JSON when the run ends. A layer's self time is the span's
//! duration minus the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    /// The op the span belongs to (the id of the outermost span).
    pub op: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: (id, op).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span when `on`; spans nest per thread.
    pub fn span<R>(&self, on: bool, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !(self.enabled && on) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = STACK.with(|s| {
            let s = s.borrow();
            match s.last() {
                Some(&(p, op)) => (Some(p), op),
                None => (None, id),
            }
        });
        STACK.with(|s| s.borrow_mut().push((id, op)));
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(SpanRecord {
                id,
                parent,
                op,
                layer,
                name: name.to_owned(),
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Every closed span, in id order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of each layer within each op (outermost span), in
/// nanoseconds: per layer, one entry per op that reaches it, in op order.
pub fn self_time_per_op(spans: &[SpanRecord]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *by_op.entry((s.layer, s.op)).or_default() += own;
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ((layer, _), ns) in by_op {
        out.entry(layer).or_default().push(ns);
    }
    out
}

/// Newline JSON, one span per line.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span(true, "bench", "op", || {
            t.span(true, "api", "engine.run", || {
                t.span(true, "store", "open", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == spans[0].op));
        let per_op = self_time_per_op(&spans);
        assert!(per_op.values().all(|v| v.len() == 1));
        let total: u64 = per_op.values().map(|v| v[0]).sum();
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(total, root.end_ns - root.start_ns);
        assert!(per_op["store"][0] >= 2_000_000);
    }

    #[test]
    fn self_time_is_kept_per_op() {
        let t = Tracer::new(true);
        for _ in 0..3 {
            t.span(true, "bench", "op", || t.span(true, "api", "run", || ()));
        }
        t.span(true, "api", "probe", || ());
        let per_op = self_time_per_op(&t.spans());
        assert_eq!(per_op["bench"].len(), 3);
        assert_eq!(per_op["api"].len(), 4);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(true, "bench", "op", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
