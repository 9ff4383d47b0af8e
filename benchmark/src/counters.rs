//! The program's own counters, read by name from the process-wide
//! `amp_obs` registry and reported as the difference over the timed part
//! of a run. A series the program never registered reads as nothing
//! recorded, not as an error, so renaming a counter turns a metric into
//! "not measured" and does not break the benchmark.

use std::collections::BTreeMap;

use amp_obs::{HistogramSnapshot, Unit};

const APPS: [&str; 2] = ["curvefit", "stellar"];
const PLAN_KINDS: [&str; 6] = ["empty", "unique_probe", "index_probe", "range_scan", "index_ordered_scan", "full_scan"];
const COUNTERS: [&str; 10] = [
    "simdb_wal_fsync_total",
    "portal_cache_hits_total",
    "portal_cache_misses_total",
    "daemon_transient_retries_total",
    "daemon_holds_total",
    "daemon_errors_total",
    "daemon_lease_claims_total",
    "daemon_lease_renewals_total",
    "daemon_lease_takeovers_total",
    "daemon_lease_losses_total",
];
const HISTOGRAMS: [(&str, Unit); 3] = [
    ("simdb_rows_copied_per_write", Unit::Count),
    ("simdb_group_commit_writers", Unit::Count),
    ("portal_conn_queue_wait_seconds", Unit::Seconds),
];

pub struct Reading {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

fn series() -> Vec<String> {
    let mut names: Vec<String> = COUNTERS.iter().map(|s| s.to_string()).collect();
    for app in APPS {
        names.push(amp_obs::labeled("ga_evals_total", &[("app", app)]));
        names.push(amp_obs::labeled("ga_cached_skips_total", &[("app", app)]));
    }
    for kind in PLAN_KINDS {
        names.push(amp_obs::labeled("simdb_plan_total", &[("kind", kind)]));
    }
    names
}

pub fn read() -> Reading {
    Reading {
        counters: series()
            .into_iter()
            .map(|n| {
                let v = amp_obs::counter(&n).get();
                (n, v)
            })
            .collect(),
        histograms: HISTOGRAMS
            .iter()
            .map(|&(name, unit)| (name, amp_obs::registry().histogram(name, unit).snapshot()))
            .collect(),
    }
}

impl Reading {
    /// What was counted between `earlier` and this reading.
    pub fn since(mut self, earlier: &Reading) -> Reading {
        for (name, v) in self.counters.iter_mut() {
            *v -= earlier.counters[name];
        }
        for (name, h) in self.histograms.iter_mut() {
            let before = &earlier.histograms[name];
            for (c, b) in h.counts.iter_mut().zip(&before.counts) {
                *c -= b;
            }
            h.sum -= before.sum;
            h.count -= before.count;
        }
        self
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters[name]
    }

    /// Summed over the label values of a family (`ga_evals_total`, ...).
    pub fn family(&self, family: &str) -> u64 {
        self.prefix_sum(&format!("{family}{{"))
    }

    /// Summed over every counter whose name starts with `prefix`.
    pub fn prefix_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// Share of executed query plans that were full scans.
    pub fn scan_plan_share(&self) -> Option<f64> {
        let full = self.counters[&amp_obs::labeled("simdb_plan_total", &[("kind", "full_scan")])];
        ratio(full, self.family("simdb_plan_total"))
    }

    /// Exact mean of a histogram's observations (its quantiles are
    /// interpolated inside coarse buckets); `None` when it recorded nothing.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let h = &self.histograms[name];
        (h.count > 0).then(|| h.sum as f64 / h.count as f64)
    }

    /// `None` when the histogram recorded nothing in the interval.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let h = &self.histograms[name];
        (h.count > 0).then(|| h.quantile(q) as f64)
    }
}

/// `num / den`, or `None` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}
