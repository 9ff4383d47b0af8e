//! Lock-free metric primitives and the registry that names them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s over plain
//! atomics: clone them out of the registry once (call sites cache them in
//! `OnceLock` statics) and every subsequent observation is a relaxed
//! atomic op — no lock, no allocation, no syscall. The registry itself is
//! an `RwLock<BTreeMap>` touched only at registration and render time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// What a histogram's raw `u64` observations mean — controls how bucket
/// bounds and sums are rendered in the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Observations are nanoseconds; rendered as fractional seconds.
    Seconds,
    /// Observations are plain counts (batch sizes, queue lengths).
    Count,
}

/// Default latency buckets: 1 µs to 10 s, roughly 1-2.5-5 per decade
/// (values in nanoseconds).
pub fn latency_buckets() -> Vec<u64> {
    let mut out = Vec::with_capacity(22);
    let mut decade: u64 = 1_000;
    while decade <= 1_000_000_000 {
        out.push(decade);
        out.push(decade.saturating_mul(25) / 10);
        out.push(decade * 5);
        decade *= 10;
    }
    out.push(10_000_000_000);
    out
}

/// Default count buckets: powers of two from 1 to 4096.
pub fn count_buckets() -> Vec<u64> {
    (0..13).map(|i| 1u64 << i).collect()
}

struct HistogramCore {
    unit: Unit,
    /// Upper bounds (inclusive) of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// One slot per finite bound plus a final overflow (+Inf) slot.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// A fixed-bucket histogram. Observation is lock-free: a binary search
/// over the (immutable) bounds plus two relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    pub fn new(unit: Unit, bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let buckets = (0..bounds.len() + 1)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            core: Arc::new(HistogramCore {
                unit,
                bounds,
                buckets,
                sum: AtomicU64::new(0),
            }),
        }
    }

    pub fn unit(&self) -> Unit {
        self.core.unit
    }

    /// Record one observation (nanoseconds for [`Unit::Seconds`]).
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.core.bounds.partition_point(|&b| b < v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration (stored as nanoseconds).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record the time since `since` and move `since` to now: one call per
    /// stage times contiguous stages whose sums add up to the whole.
    pub fn lap(&self, since: &mut Instant) {
        let now = Instant::now();
        self.observe_duration(now - *since);
        *since = now;
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            unit: self.core.unit,
            bounds: self.core.bounds.clone(),
            sum: self.core.sum.load(Ordering::Relaxed),
            count: counts.iter().sum(),
            counts,
        }
    }

    pub fn count(&self) -> u64 {
        self.snapshot().count
    }

    /// Approximate quantile (same units as observations).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Point-in-time histogram state with quantile extraction.
pub struct HistogramSnapshot {
    pub unit: Unit,
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile by linear interpolation inside the bucket
    /// holding the target rank. Observations above the last finite bound
    /// saturate to that bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum += c;
            if cum >= target {
                let upper = match self.bounds.get(i) {
                    Some(&b) => b,
                    None => return *self.bounds.last().expect("non-empty bounds"),
                };
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let frac = (target - prev) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * frac) as u64;
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Keys may carry Prometheus-style labels
/// (`name{k="v"}`, see [`crate::labeled`]); everything before the first
/// `{` is the metric family used for `# TYPE` lines.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter registered under `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// (a programming error, not a runtime condition).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(Metric::Counter(c)) = self.lookup(name) {
            return c;
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(Metric::Gauge(g)) = self.lookup(name) {
            return g;
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get or create a histogram with the default buckets for `unit`.
    pub fn histogram(&self, name: &str, unit: Unit) -> Histogram {
        let bounds = match unit {
            Unit::Seconds => latency_buckets(),
            Unit::Count => count_buckets(),
        };
        self.histogram_with(name, unit, bounds)
    }

    /// Get or create a histogram with explicit bucket bounds. If `name`
    /// already exists, the existing histogram wins (its bounds are fixed
    /// at first registration).
    pub fn histogram_with(&self, name: &str, unit: Unit, bounds: Vec<u64>) -> Histogram {
        if let Some(Metric::Histogram(h)) = self.lookup(name) {
            return h;
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(unit, bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    fn lookup(&self, name: &str) -> Option<Metric> {
        let metrics = self.metrics.read().expect("registry lock");
        metrics.get(name).map(|m| match m {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(h.clone()),
        })
    }

    /// Number of registered metrics (labelled series count separately).
    pub fn len(&self) -> usize {
        self.metrics.read().expect("registry lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` per family, counters/gauges as single
    /// samples, histograms as cumulative `_bucket`/`_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read().expect("registry lock");
        let mut out = String::with_capacity(64 * metrics.len().max(1));
        let mut last_family = String::new();
        for (key, metric) in metrics.iter() {
            let (family, labels) = split_key(key);
            if family != last_family {
                out.push_str("# TYPE ");
                out.push_str(family);
                out.push(' ');
                out.push_str(metric.kind());
                out.push('\n');
                last_family = family.to_string();
            }
            match metric {
                Metric::Counter(c) => {
                    render_sample(&mut out, family, labels, None, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    render_sample(&mut out, family, labels, None, &g.get().to_string());
                }
                Metric::Histogram(h) => render_histogram(&mut out, family, labels, &h.snapshot()),
            }
        }
        out
    }
}

/// Split `name{labels}` into (`name`, `Some("labels")`).
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((family, rest)) => (family, Some(rest.trim_end_matches('}'))),
        None => (key, None),
    }
}

/// Write one sample line, merging base labels with an optional `le`.
fn render_sample(
    out: &mut String,
    name: &str,
    labels: Option<&str>,
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    match (labels.filter(|l| !l.is_empty()), le) {
        (None, None) => {}
        (Some(l), None) => {
            out.push('{');
            out.push_str(l);
            out.push('}');
        }
        (None, Some(le)) => {
            out.push_str("{le=\"");
            out.push_str(le);
            out.push_str("\"}");
        }
        (Some(l), Some(le)) => {
            out.push('{');
            out.push_str(l);
            out.push_str(",le=\"");
            out.push_str(le);
            out.push_str("\"}");
        }
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn render_histogram(
    out: &mut String,
    family: &str,
    labels: Option<&str>,
    snap: &HistogramSnapshot,
) {
    let bucket = format!("{family}_bucket");
    let mut cum = 0u64;
    for (i, &bound) in snap.bounds.iter().enumerate() {
        cum += snap.counts[i];
        let le = match snap.unit {
            Unit::Seconds => format_seconds(bound),
            Unit::Count => bound.to_string(),
        };
        render_sample(out, &bucket, labels, Some(&le), &cum.to_string());
    }
    cum += snap.counts[snap.bounds.len()];
    render_sample(out, &bucket, labels, Some("+Inf"), &cum.to_string());
    let sum = match snap.unit {
        Unit::Seconds => format_seconds(snap.sum),
        Unit::Count => snap.sum.to_string(),
    };
    render_sample(out, &format!("{family}_sum"), labels, None, &sum);
    render_sample(
        out,
        &format!("{family}_count"),
        labels,
        None,
        &snap.count.to_string(),
    );
}

/// Render a nanosecond value as seconds without trailing zero noise.
fn format_seconds(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    let s = format!("{secs:.9}");
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    if trimmed.is_empty() {
        "0".to_string()
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("c_total").get(), 5);
        let g = r.gauge("g");
        g.set(7);
        g.sub(2);
        g.add(10);
        assert_eq!(r.gauge("g").get(), 15);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(Unit::Count, vec![1, 2, 4, 8, 16]);
        for v in [1, 1, 2, 3, 5, 9, 100] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 121);
        // buckets: le=1 -> 2, le=2 -> 1, le=4 -> 1, le=8 -> 1, le=16 -> 1, +Inf -> 1
        assert_eq!(snap.counts, vec![2, 1, 1, 1, 1, 1]);
        assert!(
            h.p50() <= 4,
            "p50 {} should sit in the le=4 bucket",
            h.p50()
        );
        // p99 lands in the overflow bucket -> saturates to the last bound
        assert_eq!(h.p99(), 16);
        assert_eq!(Histogram::new(Unit::Count, vec![1]).quantile(0.5), 0);
    }

    #[test]
    fn latency_quantiles_are_sane() {
        let h = Histogram::new(Unit::Seconds, latency_buckets());
        for _ in 0..90 {
            h.observe(10_000); // 10 us
        }
        for _ in 0..10 {
            h.observe(5_000_000); // 5 ms
        }
        let p50 = h.p50();
        assert!((2_500..=10_000).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((1_000_000..=5_000_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn concurrent_observation() {
        let r = Registry::new();
        let c = r.counter("threads_total");
        let h = r.histogram_with("lat", Unit::Count, vec![8, 64]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i % 100);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter(&crate::labeled(
            "req_total",
            &[("route", "/stars"), ("status", "200")],
        ))
        .add(3);
        r.counter(&crate::labeled(
            "req_total",
            &[("route", "/"), ("status", "200")],
        ))
        .inc();
        r.gauge("queue_depth").set(2);
        let h = r.histogram_with("lat_seconds", Unit::Seconds, vec![1_000, 1_000_000]);
        h.observe(500);
        h.observe(2_000_000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE req_total counter\n"), "{text}");
        assert!(
            text.contains("req_total{route=\"/stars\",status=\"200\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("req_total{route=\"/\",status=\"200\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE queue_depth gauge\nqueue_depth 2\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE lat_seconds histogram\n"), "{text}");
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.000001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_count 2\n"), "{text}");
        // the TYPE line appears once per family even with two series
        assert_eq!(text.matches("# TYPE req_total").count(), 1);
    }

    #[test]
    fn count_histogram_renders_integer_bounds() {
        let r = Registry::new();
        let h = r.histogram_with("batch", Unit::Count, vec![1, 4]);
        h.observe(3);
        let text = r.render_prometheus();
        assert!(text.contains("batch_bucket{le=\"1\"} 0\n"), "{text}");
        assert!(text.contains("batch_bucket{le=\"4\"} 1\n"), "{text}");
        assert!(text.contains("batch_sum 3\n"), "{text}");
    }
}
