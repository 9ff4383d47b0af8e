//! simdb's handles into the process-wide metrics registry (`amp-obs`).
//!
//! Engine-wide handles are resolved once per process through `OnceLock`s;
//! per-table handles are resolved once per shard at table creation and
//! cached inside the shard, so the storage engine's hot paths carry no
//! registry lookups — every observation is a relaxed atomic op.

use std::sync::OnceLock;

use amp_obs::{Counter, Gauge, Histogram, Unit};

pub(crate) struct SimdbMetrics {
    /// WAL flushes actually issued (group commit: one per leader drain).
    pub wal_fsyncs: Counter,
    /// Records made durable per group-commit drain.
    pub wal_batch: Histogram,
    /// Distinct writer threads whose commits one leader's fsync made
    /// durable (1 = the leader alone; higher = cross-writer amortization).
    /// A conservative count: followers that enqueue while a flush is in
    /// flight join the *next* window.
    pub group_commit_writers: Histogram,
    /// Rows materialized per committed write transaction — the
    /// write-amplification numerator. With per-row `Arc` storage this
    /// tracks rows *touched*; a regression to chunk-granularity copying
    /// shows up as a ~256x jump on point updates.
    pub rows_copied_per_write: Histogram,
    /// Index entries materialized per committed write transaction: a
    /// re-linked chunk's entries per index whose cell changed, so bounded
    /// by the chunk cap whatever the table's size, and zero for a write
    /// that changes no indexed cell.
    pub index_entries_copied_per_write: Histogram,
}

pub(crate) fn metrics() -> &'static SimdbMetrics {
    static METRICS: OnceLock<SimdbMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SimdbMetrics {
        wal_fsyncs: amp_obs::counter("simdb_wal_fsync_total"),
        wal_batch: amp_obs::registry().histogram("simdb_wal_commit_batch_records", Unit::Count),
        group_commit_writers: amp_obs::registry()
            .histogram("simdb_group_commit_writers", Unit::Count),
        rows_copied_per_write: amp_obs::registry()
            .histogram("simdb_rows_copied_per_write", Unit::Count),
        index_entries_copied_per_write: amp_obs::registry()
            .histogram("simdb_index_entries_copied_per_write", Unit::Count),
    })
}

/// Per-table lock observability. The sharded engine replaced the seed's
/// whole-engine `simdb_write_lock_hold_seconds` histogram: with one lock
/// per table, "who is contended" is a per-table question, so each shard
/// carries `{table}`-labeled wait and hold histograms.
///
/// Since the MVCC read path landed, `lock_wait` and `lock_hold` are
/// **writer-path** metrics only: plain reads pin a published version with
/// two atomic ops and record nothing. `Shard::read` is still exercised by
/// writer-side FK existence locks, so a nonzero `lock_wait` during a
/// pure-read workload would mean a reader took a lock — the invariant the
/// contention bench asserts.
pub(crate) struct ShardMetrics {
    /// Time spent waiting to acquire the table's lock (read or write).
    pub lock_wait: Histogram,
    /// Time the table's *exclusive* lock was held — the window during
    /// which other writers of this table (and only this table) waited.
    pub lock_hold: Histogram,
    /// Published versions of this table still alive: the current one plus
    /// superseded versions kept reachable by long-lived `ReadView`s.
    /// Sustained growth means a reader is pinning history.
    pub live_versions: Gauge,
}

impl ShardMetrics {
    pub fn for_table(table: &str) -> ShardMetrics {
        let registry = amp_obs::registry();
        ShardMetrics {
            lock_wait: registry.histogram(
                &amp_obs::labeled("simdb_table_lock_wait_seconds", &[("table", table)]),
                Unit::Seconds,
            ),
            lock_hold: registry.histogram(
                &amp_obs::labeled("simdb_table_lock_hold_seconds", &[("table", table)]),
                Unit::Seconds,
            ),
            live_versions: registry.gauge(&amp_obs::labeled(
                "simdb_table_live_versions",
                &[("table", table)],
            )),
        }
    }
}
