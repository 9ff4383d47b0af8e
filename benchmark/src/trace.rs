//! Spans recorded by the benchmark's own code around each call it makes
//! into a layer. Each generator thread fills its own buffer, so recording
//! is a branch and a `Vec` push; buffers are merged when the workload
//! ends and nothing is written before that.

use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u64,
    /// Spans of one operation (a journey, a round, a request) share it.
    pub op: u64,
}

/// One thread's span buffer. With tracing off every call is a no-op, so
/// the untraced run that yields the end-to-end metrics pays one branch.
pub struct SpanBuf {
    on: bool,
    thread: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// `thread` (1-based) keeps ids of different buffers apart.
    pub fn new(on: bool, thread: u64, origin: Instant) -> SpanBuf {
        SpanBuf { on, thread, origin, spans: Vec::new() }
    }

    /// Switch recording on or off; a traced run alternates, interval by
    /// interval, so that traced and untraced throughput are measured side
    /// by side. A span is kept whole: `close` follows what `open` did.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn leaf(&mut self, name: &'static str, op: u64, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.thread << 40 | (self.spans.len() as u64 + 1);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, name, start_ns, end_ns, parent, op });
        id
    }

    /// Start a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, op: u64, parent: u64, start: Instant) -> u64 {
        self.leaf(name, op, parent, start, start)
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        if id != NO_PARENT {
            let end_ns = self.ns(end);
            self.spans[(id & ((1 << 40) - 1)) as usize - 1].end_ns = end_ns;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Seconds it takes to record `n` spans, measured now on a scratch
/// buffer: the tracing cost that does not depend on run-to-run noise.
pub fn span_cost_s(n: usize) -> f64 {
    const SAMPLE: usize = 200_000;
    let start = Instant::now();
    let mut buf = SpanBuf::new(true, 1, start);
    for i in 0..SAMPLE {
        let now = Instant::now();
        std::hint::black_box(buf.leaf("calibrate", i as u64, NO_PARENT, now, now));
    }
    let spent = start.elapsed().as_secs_f64();
    std::hint::black_box(buf.into_spans().len());
    spent / SAMPLE as f64 * n as f64
}

/// Per span name: how many, their summed duration, and their summed self
/// time (duration minus the part of the interval child spans cover).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            // Union of child intervals clipped to the parent: overlapping
            // children (pipelined requests) are not counted twice.
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let duration = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    out
}

/// The trace file: every span by id with its parent and operation id, so
/// one operation can be followed through the layers (README, "How to read
/// a trace file"). At most `cap` spans are written; `recorded` says how
/// many there were.
pub fn to_json(workload: &str, spans: &[Span], cap: usize) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = spans
        .iter()
        .take(cap)
        .map(|s| {
            serde_json::json!({
                "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                "start_us": s.start_ns as f64 / 1e3, "end_us": s.end_ns as f64 / 1e3,
            })
        })
        .collect();
    let summary: Vec<serde_json::Value> = totals(spans)
        .iter()
        .map(|(name, t)| {
            serde_json::json!({
                "name": name, "count": t.count,
                "total_ms": t.total_ns as f64 / 1e6, "self_ms": t.self_ns as f64 / 1e6,
            })
        })
        .collect();
    serde_json::json!({
        "workload": workload, "recorded": spans.len(), "written": rows.len(), "by_name": summary, "spans": rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut buf = SpanBuf::new(true, 1, t0);
        let parent = buf.open("journey", 9, NO_PARENT, at(0));
        buf.leaf("http.submit", 9, parent, at(0), at(10));
        // two overlapping polls cover 20..50 once
        buf.leaf("http.poll", 9, parent, at(20), at(40));
        buf.leaf("http.poll", 9, parent, at(30), at(50));
        buf.close(parent, at(100));
        let t = totals(&buf.into_spans());
        assert_eq!(t["journey"].total_ns, 100_000_000);
        assert_eq!(t["journey"].self_ns, 60_000_000);
        assert_eq!(t["http.poll"], NameTotals { count: 2, total_ns: 40_000_000, self_ns: 40_000_000 });
    }

    #[test]
    fn a_buffer_that_is_off_records_nothing() {
        let t0 = Instant::now();
        let mut buf = SpanBuf::new(false, 1, t0);
        let id = buf.open("x", 1, NO_PARENT, t0);
        buf.close(id, t0);
        assert!(buf.into_spans().is_empty());
    }
}
