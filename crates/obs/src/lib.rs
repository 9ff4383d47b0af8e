//! The metrics substrate of the AMP stack.
//!
//! Metrics say *how much*: how many requests, transitions, retries and
//! flushes, and how long they took. *What happened* to one simulation is
//! on the §4.4 operations log of the daemon that drove it
//! (`amp_gridamp::OpsLog`), not here. This crate is shaped like a modern
//! serving stack's instrumentation layer:
//!
//! * a [`Registry`] of lock-free metrics — [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s with p50/p99 extraction — where the hot
//!   path is a single relaxed atomic op on a cached handle (registration
//!   takes a lock once; observation never does);
//! * Prometheus text exposition ([`Registry::render_prometheus`]) so the
//!   portal can serve `GET /metrics`.
//!
//! The crate sits at the very bottom of the workspace graph (std only, no
//! dependencies) so every tier — simdb, the gridamp daemon, the GA, the
//! portal — can report into one process-wide registry ([`registry()`]).

mod metrics;

pub use metrics::{
    count_buckets, latency_buckets, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Unit,
};

use std::sync::OnceLock;

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide metrics registry. Instantiated lazily; a process that
/// never records a metric never allocates one.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Register (or look up) a counter in the global registry.
///
/// Counter names are dotted/underscored Prometheus-style strings chosen
/// by the producer. The multi-daemon control plane, for instance, reports
/// its lease protocol through `daemon_lease_claims_total`,
/// `daemon_lease_renewals_total`, `daemon_lease_takeovers_total`,
/// `daemon_lease_losses_total` and `daemon_lease_fences_total` (the last
/// counting submissions refused because the caller's fencing epoch was
/// stale).
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Register (or look up) a gauge in the global registry.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Register (or look up) a latency histogram (nanosecond observations,
/// rendered as seconds) in the global registry.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name, Unit::Seconds)
}

/// Render every global metric in Prometheus text exposition format.
pub fn render_prometheus() -> String {
    registry().render_prometheus()
}

/// Build a `name{k="v",...}` metric key. Label values are escaped per the
/// Prometheus text format (`\\`, `\"`, `\n`).
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_builds_prometheus_keys() {
        assert_eq!(labeled("m", &[]), "m{}");
        assert_eq!(
            labeled(
                "portal_requests_total",
                &[("route", "/stars"), ("status", "200")]
            ),
            "portal_requests_total{route=\"/stars\",status=\"200\"}"
        );
        assert_eq!(
            labeled("m", &[("k", "a\"b\\c\nd")]),
            "m{k=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = counter("obs_test_global_total");
        c.inc();
        let again = counter("obs_test_global_total");
        assert!(again.get() >= 1);
    }
}
