//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction and, for per-layer metrics, the end-to-end metric it is
//! expected to move and on which workload. `BENCHMARK.json` lists the
//! same names (a test holds the two together).

use std::collections::BTreeMap;

pub const WORKLOADS: [(&str, &str); 4] = [
    ("browse", "read-only page mix over a finished catalog: the portal does most of the work and its response cache is used; simdb only reads, the daemon is idle"),
    ("submit_journey", "the paper's unit of work: submit through the portal, daemon rounds, results pages; every layer is on the path and session cookies bypass the response cache"),
    ("backlog_drain", "no portal: two daemons drain a queued backlog ~10x the live set of submit_journey; gridamp, grid, ga and stellar do the work and tick cost per live simulation shows"),
    ("store_churn", "simdb only: one writer commits the daemon's shapes beside one reader and inline checkpoints on a 30,000-row job table, then recovery is timed"),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// `selfcheck` holds two sets against each other by their difference
    /// (a share of operations), not by a share of the value.
    pub absolute: bool,
    /// What the name stands for on browse / submit_journey / backlog_drain / store_churn.
    pub per_workload: [&'static str; 4],
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        absolute: false,
        per_workload: [
            "build catalog, drain the finished simulations, start the server",
            "build catalog, start server and daemons, log the users in",
            "build catalog and queue the backlog",
            "build catalog and preload the job table",
        ],
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        absolute: false,
        per_workload: [
            "pages per second",
            "journeys per second",
            "simulations drained per second",
            "commits per second, checkpoints included",
        ],
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        absolute: false,
        per_workload: [
            "page round trip, eight outstanding",
            "direct journey, submit sent to DONE seen",
            "queued direct simulation, drain start to DONE seen",
            "commit",
        ],
    },
    EndToEnd {
        name: "round_peak_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        absolute: false,
        per_workload: [
            "mean of the 5 longest daemon rounds of the set-up drain",
            "mean of the 5 longest daemon rounds of a trial",
            "mean of the 5 longest daemon rounds of a drain",
            "the inline checkpoint, the longest the writer is held between two commits",
        ],
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        absolute: false,
        per_workload: [
            "Db::open on the files the run left, contents compared",
            "Db::open on the files a trial left, contents compared",
            "Db::open on the files a drain left, contents compared",
            "Db::open after a 2,000-commit tail with no checkpoint, contents compared",
        ],
    },
    EndToEnd {
        name: "fsyncs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.02,
        absolute: false,
        per_workload: [
            "flushed commits per simulation drained in set-up (the timed part writes nothing)",
            "flushed commits per simulation submitted",
            "flushed commits per simulation drained",
            "flushed commits per commit",
        ],
    },
    EndToEnd {
        name: "wal_bytes_per_op",
        unit: "B",
        better: "lower",
        bound: 0.02,
        absolute: false,
        per_workload: [
            "log bytes per simulation drained in set-up (the timed part writes nothing)",
            "log bytes per simulation submitted",
            "log bytes per simulation drained",
            "log bytes per commit",
        ],
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        absolute: false,
        per_workload: ["VmHWM of the workload's process"; 4],
    },
    EndToEnd {
        name: "slo_share",
        unit: "ratio",
        better: "higher",
        bound: 0.03,
        absolute: true,
        per_workload: [
            "pages within 4 ms",
            "pages within 4 ms, submits within 5 ms, direct journeys within 250 ms, optimization journeys within 600 ms",
            "rounds within 200 ms",
            "commits within 3.5 ms",
        ],
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this one should move, and where.
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const PAGES: &str = "ops_per_s, op_p50_ms on browse; none on backlog_drain, store_churn";
const HANDLE: &str = "ops_per_s on browse; harness.read_p50_ms on submit_journey";
const READS: &str = "harness.read_p50_ms, simdb.reads_per_s on store_churn; ops_per_s on browse";
const COMMITS: &str =
    "ops_per_s, op_p50_ms on store_churn; portal.submit_p50_us; ops_per_s on backlog_drain only weakly";
const DRAIN: &str = "ops_per_s, op_p50_ms on backlog_drain; op_p50_ms, ops_per_s on submit_journey";
const FLUSHES: &str = "fsyncs_per_op";
const MUST_BE_ZERO: &str = "slo_share; must be 0";
const OPT: &str = "harness.journey_opt_p50_ms; ops_per_s on backlog_drain";

pub const PER_LAYER: [PerLayer; 73] = [
    layer("portal.roundtrip_cached_us", "us", "lower", PAGES),
    layer("portal.roundtrip_render_us", "us", "lower", PAGES),
    layer("portal.roundtrip_p99_us", "us", "lower", "slo_share on browse, submit_journey"),
    layer("portal.transport_us", "us", "lower", PAGES),
    layer("portal.parse_us", "us", "lower", PAGES),
    layer("portal.cache_hit_ratio", "ratio", "higher", PAGES),
    layer("portal.bytes_per_page", "B", "lower", PAGES),
    layer("portal.queue_wait_p99_us", "us", "lower", PAGES),
    layer("portal.handle_cached_us", "us", "lower", HANDLE),
    layer("portal.handle_render_us", "us", "lower", HANDLE),
    layer("portal.handle_results_us", "us", "lower", HANDLE),
    layer("portal.handle_submit_us", "us", "lower", "portal.submit_p50_us"),
    layer("portal.submit_p50_us", "us", "lower", "slo_share, op_p50_ms on submit_journey"),
    layer("simdb.get_us", "us", "lower", READS),
    layer("simdb.index_select_us", "us", "lower", READS),
    layer("simdb.page_scan_us", "us", "lower", READS),
    layer("simdb.search_scan_us", "us", "lower", READS),
    layer("simdb.count_us", "us", "lower", "harness.read_p50_ms on backlog_drain, store_churn"),
    layer("simdb.scan_plan_share", "ratio", "lower", READS),
    layer("simdb.insert_commit_us", "us", "lower", COMMITS),
    layer("simdb.txn64_commit_us", "us", "lower", COMMITS),
    layer("simdb.cas_us", "us", "lower", COMMITS),
    layer("simdb.rows_copied_per_write_mean", "count", "lower", COMMITS),
    layer("simdb.group_commit_writers_mean", "count", "higher", COMMITS),
    layer("simdb.fsyncs", "count", "lower", FLUSHES),
    layer("simdb.wal_bytes", "B", "lower", "wal_bytes_per_op"),
    layer("simdb.snapshot_bytes", "B", "lower", "simdb.write_amp"),
    layer("simdb.write_amp", "ratio", "lower", "wal_bytes_per_op"),
    layer("simdb.compact_ms", "ms", "lower", "round_peak_ms, ops_per_s, harness.read_p50_ms on store_churn"),
    layer("simdb.read_stall_p99_us", "us", "lower", "harness.read_p50_ms, ops_per_s on store_churn"),
    layer("simdb.reads_per_s", "1/s", "higher", "none bounded; the reader beside the writer on store_churn"),
    layer("simdb.recover_ms_per_mb", "ms/MB", "lower", "recover_s"),
    layer("gridamp.tick_p50_ms", "ms", "lower", DRAIN),
    layer("gridamp.tick_p99_ms", "ms", "lower", "round_peak_ms, slo_share on backlog_drain"),
    layer("gridamp.tick_busy_share", "ratio", "lower", DRAIN),
    layer("gridamp.tick_us_per_live_sim", "us", "lower", DRAIN),
    layer("gridamp.commits_per_tick", "count", "lower", FLUSHES),
    layer("gridamp.lease_ops", "count", "lower", FLUSHES),
    layer("gridamp.rounds_per_direct_sim", "count", "lower", "op_p50_ms on submit_journey"),
    layer("gridamp.transitions", "count", "lower", FLUSHES),
    layer("gridamp.transient_retries", "count", "lower", MUST_BE_ZERO),
    layer("gridamp.holds", "count", "lower", MUST_BE_ZERO),
    layer("gridamp.daemon_errors", "count", "lower", MUST_BE_ZERO),
    layer("grid.advance_us_p50", "us", "lower", "ops_per_s on backlog_drain"),
    layer("grid.advance_share", "ratio", "lower", "ops_per_s on backlog_drain"),
    layer("grid.gram_submits_per_sim", "count", "lower", "ops_per_s on backlog_drain"),
    layer("grid.jobs_per_sim", "count", "lower", "ops_per_s on backlog_drain"),
    layer("ga.evals_per_opt_sim", "count", "lower", OPT),
    layer("ga.cached_skip_ratio", "ratio", "higher", OPT),
    layer("ga.run_ms", "ms", "lower", OPT),
    layer("stellar.evolve_us", "us", "lower", OPT),
    layer("core.validate_us", "us", "lower", "portal.submit_p50_us"),
    layer("obs.render_us", "us", "lower", "none today; a guard for the timeline work"),
    layer("obs.series", "count", "lower", "obs.render_us"),
    layer("harness.journey_opt_p50_ms", "ms", "lower", "slo_share on submit_journey"),
    layer("harness.journey_wait_share", "ratio", "lower", "op_p50_ms on submit_journey: the share of a journey spent waiting on daemon rounds"),
    layer("harness.settle_check_share", "ratio", "lower", "ops_per_s on backlog_drain"),
    layer("harness.reconcile_error", "ratio", "lower", "none; ticks + advances + settle checks must sum to the drain wall time"),
    layer("harness.trace_overhead_share", "ratio", "lower", "none; traced against untraced ops_per_s in the same process"),
    layer("harness.span_cost_share", "ratio", "lower", "none; spans recorded times the measured cost of recording one, over the timed seconds"),
    layer("harness.storage_tmpfs", "count", "higher", "none; 1 when the database files were on tmpfs"),
    layer("harness.trials", "count", "higher", "none; timed trials the medians are taken over"),
    layer("harness.op_samples", "count", "higher", "none; operations behind op_p50_ms"),
    layer("harness.slo_share_all", "ratio", "higher", "none; slo_share over every interval, those the hypervisor disturbed included"),
    layer("harness.op_p99_ms", "ms", "lower", "slo_share"),
    layer("harness.read_p50_ms", "ms", "lower", "none bounded; rendered page (browse), poll or result page (submit_journey), settle check (backlog_drain), reader operation (store_churn)"),
    layer("harness.read_p99_ms", "ms", "lower", "slo_share"),
    layer("harness.cpu_ms_per_op", "ms", "lower", "ops_per_s; process CPU per page, journey, simulation or commit"),
    layer("harness.quiet_share", "ratio", "higher", "none; share of slices, cycles or trials in which the hypervisor stole at most 2% of the CPU; the rest are left out of the medians"),
    layer("harness.speed_factor", "ratio", "higher", "none; reference speed over the speed the box ran the speed units at, median over slices, cycles or trials; every reported time is multiplied by it"),
    layer("harness.setup_catalog_ms", "ms", "lower", "setup_s"),
    layer("harness.setup_work_ms", "ms", "lower", "setup_s"),
    layer("harness.cpu_busy_cores", "count", "lower", "harness.cpu_ms_per_op: process CPU seconds per wall second of the timed part"),
];

/// Values a run measured, by catalogue name. A per-layer metric a
/// workload does not exercise is simply absent.
pub type Values = BTreeMap<&'static str, f64>;

pub fn insert(values: &mut Values, name: &'static str, value: Option<f64>) {
    assert!(
        END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
        "{name} is not in the catalogue"
    );
    if let Some(v) = value.filter(|v| v.is_finite()) {
        values.insert(name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// catalogue: same names, units, directions and bounds, same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).unwrap().to_string();
        assert_eq!(doc.get("run_seconds").and_then(|s| s.as_f64()), Some(crate::DEFAULT_SECONDS));
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS.iter().map(|w| (w.0.to_string(), w.1.to_string())).collect();
        assert_eq!(listed, ours);
        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (field(m, "name"), field(m, "unit"), field(m, "better"), m.get("bound").unwrap().as_f64().unwrap())
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), m.bound))
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> =
            PER_LAYER.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string())).collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |s: &str| s.len() <= 64 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(names.iter().all(|n| ok(n)));
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25) && PER_LAYER.len() <= 128);
    }
}
