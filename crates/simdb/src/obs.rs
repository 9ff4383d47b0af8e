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
    /// Bytes those flushes appended to the log file.
    pub wal_bytes: Counter,
    /// Bytes of torn tail recovery cut off the log file.
    pub wal_torn_tail_bytes: Counter,
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
    /// `simdb_checkpoint_seconds{stage=…}`: where `Db::compact` spent its
    /// time. The stages are contiguous, so their sums add up to the wall
    /// time inside it; `Db::snapshot` observes the first two.
    pub checkpoint_pin: Histogram,
    pub checkpoint_encode_write: Histogram,
    pub checkpoint_truncate: Histogram,
    /// Length of the snapshot file the last checkpoint wrote.
    pub snapshot_bytes: Gauge,
}

pub(crate) fn metrics() -> &'static SimdbMetrics {
    static METRICS: OnceLock<SimdbMetrics> = OnceLock::new();
    let stage = |name| {
        let series = amp_obs::labeled("simdb_checkpoint_seconds", &[("stage", name)]);
        amp_obs::registry().histogram(&series, Unit::Seconds)
    };
    METRICS.get_or_init(|| SimdbMetrics {
        wal_fsyncs: amp_obs::counter("simdb_wal_fsync_total"),
        wal_bytes: amp_obs::counter("simdb_wal_bytes_total"),
        wal_torn_tail_bytes: amp_obs::counter("simdb_wal_torn_tail_bytes_total"),
        wal_batch: amp_obs::registry().histogram("simdb_wal_commit_batch_records", Unit::Count),
        group_commit_writers: amp_obs::registry()
            .histogram("simdb_group_commit_writers", Unit::Count),
        rows_copied_per_write: amp_obs::registry()
            .histogram("simdb_rows_copied_per_write", Unit::Count),
        index_entries_copied_per_write: amp_obs::registry()
            .histogram("simdb_index_entries_copied_per_write", Unit::Count),
        checkpoint_pin: stage("pin"),
        checkpoint_encode_write: stage("encode_write"),
        checkpoint_truncate: stage("truncate"),
        snapshot_bytes: amp_obs::registry().gauge("simdb_snapshot_bytes"),
    })
}

/// Per-table lock observability. With one writer mutex per table, "who is
/// contended" is a per-table question, so each shard carries
/// `{table}`-labeled wait and hold histograms.
///
/// Both are **writer-only**: the mutex is taken by writers of the table
/// and by nothing else. Plain reads, and a writer's FK existence checks
/// against a parent table, pin a published version with two atomic ops
/// and record nothing — so any `lock_wait` sample on a table nobody wrote
/// means something took a lock it should not have; the contention bench
/// and `tests/mvcc_props.rs` assert exactly that.
pub(crate) struct ShardMetrics {
    /// Time a writer spent waiting to acquire the table's mutex.
    pub lock_wait: Histogram,
    /// Time the table's mutex was held — the window during which other
    /// writers of this table (and only this table) waited.
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
