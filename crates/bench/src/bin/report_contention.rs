//! Closed-loop read / paced-write contention report for the MVCC engine.
//!
//! Reader threads run a closed loop (each issues its next query the
//! moment the previous one returns) against a durable database while
//! writer threads apply a *paced* background write stream — a fixed
//! ops/sec budget, modeling the portal's actual shape: a handful of
//! daemons writing job and simulation state at their own cadence while
//! many scientists hammer the read path. In the checkpointed phase a
//! checkpointer compacts (snapshot + WAL truncate) whenever the WAL has
//! accumulated a fixed number of new records — the policy a deployment
//! uses to bound replay time, which means frequent compactions of a
//! database dominated by a large, mostly-static `archive` table.
//!
//! Pacing the writers is what makes `reads/s` meaningful on a 1-core
//! host: with writers also closed-loop the machine is work-conserving,
//! so the read-side number mostly measures how much CPU the *write*
//! path consumed (a faster write path depresses the read share), not
//! what readers experience. With an identical write budget applied to
//! both modes, the read-side difference is exactly the thing under
//! test: lock acquisition cost and blocking on the read path.
//!
//! Two modes over the same engine:
//!
//! * `global_lock` — emulates the seed's `RwLock<Database>` with an
//!   external process-wide `RwLock<()>`: writers and the checkpointer
//!   hold it exclusively for their whole operation, readers share it.
//!   This reproduces the seed's worst property: compaction serializes
//!   the entire database under the exclusive lock, stalling every
//!   reader of every table for tens of milliseconds.
//! * `mvcc` — no external lock. Reads pin each table's published MVCC
//!   version with a couple of atomic loads (no lock at all); writers
//!   serialize per table; compaction snapshots pinned versions and
//!   truncates the WAL per table, blocking neither readers nor writers.
//!
//! Four phases:
//!
//! * `steady` — background inserts, no checkpointer. The pre-MVCC
//!   engine sat at 0.88x here (readers paid a mutex+condvar handoff on
//!   every shard acquire); lock-free reads must clear 1x.
//! * `checkpointed` — the same plus the WAL-bounded checkpointer, with
//!   each write batch also point-updating one archive row. Every
//!   compaction of the archive-dominated database stalls every reader
//!   behind the global lock for as long as it runs, and none beside the
//!   MVCC engine. The gate is that absolute: the p99 of the reads issued
//!   while a checkpoint runs. (Until the snapshot became a streamed binary
//!   file the gate was the read-throughput ratio, 7–10x; a checkpoint that
//!   takes a few milliseconds no longer collapses the global lock's reads,
//!   so the ratio now says how fast a checkpoint is, not whether readers
//!   wait for it.)
//! * `read_mostly` — the portal's 95/5 profile: the writer threads
//!   interleave 19 catalog reads per insert (closed-loop — the mix
//!   itself sets the write share), so exclusive acquisitions are rare
//!   and almost every operation is a read.
//! * `archive_update` — copy-on-write's worst case: the paced writers
//!   issue point updates against the 30k-row archive table while
//!   readers scan it. Each update clones one Arc'd row chunk and the
//!   touched index maps, never the whole table; this phase keeps that
//!   property measured.
//!
//! The report also checks the MVCC invariant directly: a pure-read burst
//! must leave the writer-path `simdb_table_lock_wait_seconds` histogram
//! untouched — a reader taking a shard lock is a regression even if the
//! throughput numbers survive.
//!
//! Usage:
//!   cargo run --release -p amp-bench --bin report_contention [-- --smoke]
//!
//! `--smoke` shrinks the run so CI exercises the full binary path in a
//! few seconds, asserting the lock-free-read invariant exactly and the
//! throughput ratios with a noise margin (and skipping the JSON dump);
//! it also asserts its own wall-clock budget (< 120s) so the CI step
//! can never quietly grow past its allowance. The full run writes
//! `BENCH_concurrency.json` to the current directory and exits nonzero
//! unless steady-state reads beat the global lock (> 1.0x), a read beside
//! a checkpoint stays under 1 ms at p99, **and** the write side
//! keeps pace: every durable paced phase (steady, checkpointed,
//! archive_update) must deliver >= 0.9x of the global-lock mode's write
//! throughput — the read wins may not be bought by starving writers.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use amp_simdb::prelude::*;

const READERS: usize = 4;
const WRITERS: usize = 2;
const CATALOG_ROWS: i64 = 500;
/// Checkpoint after this many committed writes — a WAL-replay bound.
/// At the paced write rate this cadence retriggers faster than one
/// archive re-encode completes, so the checkpointed phase measures the
/// steady state it is about — a compaction effectively always in flight —
/// rather than a noisy count of discrete stall windows per run.
const CHECKPOINT_EVERY: u64 = 1000;
/// Reads per write for each writer thread in the read-mostly phase.
const READ_MOSTLY_RATIO: usize = 19;
/// Paced background write budget, summed over all writers (ops/sec):
/// comfortably under either mode's write capacity, so both modes apply
/// the same write workload and differ only in what readers experience.
const WRITE_RATE: f64 = 8_000.0;
/// Archive point updates are heavier (chunk COW + payload rewrite), so
/// that phase paces lower to stay under the global mode's capacity.
const ARCHIVE_WRITE_RATE: f64 = 4_000.0;
/// Paced writers commit each wakeup's work as one transaction of this
/// many ops, the way the gridamp daemons commit a tick's worth of job
/// updates at once (the tick path batches every dirty row into a single
/// transaction per phase) — and so both modes see the same number of
/// writer wakeups per second rather than the global lock accidentally
/// batching writer work by briefly starving it.
const WRITE_BATCH: u32 = 64;

/// What the writer threads do (readers always scan).
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// Writers insert into disjoint `journal_*` tables at `WRITE_RATE`.
    Mixed,
    /// `Mixed`, plus each batch point-updates one `archive` row in the
    /// same transaction — the checkpointed phase's write stream, so the
    /// large table is part of what moves between checkpoints.
    MixedArchiveTouch,
    /// Writers interleave 19 catalog reads per journal insert (95/5),
    /// closed-loop: the mix itself sets the write share.
    ReadMostly,
    /// Writers point-update rows of the large `archive` table at
    /// `ARCHIVE_WRITE_RATE`.
    ArchiveUpdate,
}

impl Workload {
    /// Per-writer pacing interval (None = closed loop).
    fn pace(self) -> Option<Duration> {
        let rate = match self {
            Workload::Mixed | Workload::MixedArchiveTouch => WRITE_RATE,
            Workload::ReadMostly => return None,
            Workload::ArchiveUpdate => ARCHIVE_WRITE_RATE,
        };
        Some(Duration::from_secs_f64(WRITERS as f64 / rate))
    }
}

/// Fresh durable database per phase: a populated read-side table, one
/// disjoint write-side table per writer thread, and a large static
/// archive that dominates snapshot cost (as star catalogs and archived
/// observations dominate a real AMP database).
fn build_db(dir: &Path, archive_rows: i64) -> Db {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("tmpdir");
    let db = Db::open(dir.join("bench.snap"), dir.join("bench.wal")).expect("open");
    db.define_role(Role::superuser("bench"));
    let conn = db.connect("bench").expect("connect");
    let int_table = |name: &str| TableSchema::new(name, vec![Column::new("v", ValueType::Int)]);
    conn.create_table(int_table("catalog")).expect("catalog");
    for w in 0..WRITERS {
        conn.create_table(int_table(&format!("journal_{w}")))
            .expect("journal");
    }
    conn.create_table(TableSchema::new(
        "archive",
        vec![
            Column::new("v", ValueType::Int),
            Column::new("payload", ValueType::Text),
        ],
    ))
    .expect("archive");
    for i in 0..CATALOG_ROWS {
        conn.insert("catalog", &[("v", Value::Int(i))])
            .expect("catalog row");
    }
    let payload = "x".repeat(48);
    for i in 0..archive_rows {
        conn.insert(
            "archive",
            &[
                ("v", Value::Int(i)),
                ("payload", Value::Text(payload.clone())),
            ],
        )
        .expect("archive row");
    }
    // Start each phase from a compacted state so the WAL-growth policy,
    // not setup traffic, decides when the first checkpoint fires. Commits
    // are durable (group-commit fdatasync) during the measured run — the
    // deployment posture — but not during bulk setup.
    db.compact().expect("initial compact");
    db.set_fsync(true);
    db
}

/// The portal-style read: a narrow band scan (a user's slice of the
/// catalog), not a half-table dump — point updates rewrite `payload`,
/// never `v`, so the same shape works against the archive table with a
/// stable expected cardinality.
fn band_query(lo: i64) -> Query {
    Query::new()
        .filter("v", Op::Ge, Value::Int(lo))
        .filter("v", Op::Lt, Value::Int(lo + 25))
}

struct Measurement {
    reads: u64,
    writes: u64,
    checkpoints: u64,
    elapsed: Duration,
    /// p99 of the reads issued while a checkpoint was running or waiting
    /// for the global lock (zero in a phase without a checkpointer).
    read_p99_beside_checkpoint: Duration,
}

impl Measurement {
    fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64()
    }

    fn writes_per_sec(&self) -> f64 {
        self.writes as f64 / self.elapsed.as_secs_f64()
    }
}

/// Drive the workload for `duration`: closed-loop readers, paced writers
/// (per `workload`). When `global` is set, every op first takes the
/// emulated whole-database lock (readers shared; writers and the
/// checkpointer exclusive) — the seed engine's concurrency control.
/// When `checkpoint_every` is set, a dedicated thread compacts each
/// time that many writes have committed.
fn run(
    db: &Db,
    global: Option<Arc<RwLock<()>>>,
    checkpoint_every: Option<u64>,
    workload: Workload,
    archive_rows: i64,
    duration: Duration,
) -> Measurement {
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let checkpointing = Arc::new(AtomicBool::new(false));
    let beside_checkpoint =
        amp_obs::Histogram::new(amp_obs::Unit::Seconds, amp_obs::latency_buckets());

    let mut readers = Vec::new();
    for r in 0..READERS {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        let global = global.clone();
        let (checkpointing, beside_checkpoint) =
            (Arc::clone(&checkpointing), beside_checkpoint.clone());
        let (table, rows) = if workload == Workload::ArchiveUpdate {
            ("archive", archive_rows)
        } else {
            ("catalog", CATALOG_ROWS)
        };
        // Spread the reader bands across the table so they don't all hit
        // the same chunk.
        let query = band_query((rows / 2) + 25 * r as i64);
        readers.push(std::thread::spawn(move || {
            let conn = db.connect("bench").expect("connect");
            let mut done = 0u64;
            // The portal's read mix: mostly point lookups (a session's
            // user row, one job's status) with a periodic band scan (a
            // listing page).
            while !stop.load(Ordering::Relaxed) {
                let beside = checkpointing.load(Ordering::Relaxed).then(Instant::now);
                let _shared = global.as_ref().map(|l| l.read().expect("read lock"));
                if done % 16 == 15 {
                    let out = conn.select(table, &query).expect("select");
                    assert_eq!(out.len(), 25);
                } else {
                    let id = 1 + (done as i64 * 31 + r as i64) % rows;
                    conn.get(table, id).expect("get");
                }
                done += 1;
                if let Some(issued) = beside {
                    beside_checkpoint.observe_duration(issued.elapsed());
                }
            }
            done
        }));
    }

    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        let global = global.clone();
        let committed = Arc::clone(&committed);
        let pace = workload.pace();
        writers.push(std::thread::spawn(move || {
            let conn = db.connect("bench").expect("connect");
            let table = format!("journal_{w}");
            let catalog_query = band_query(CATALOG_ROWS / 2);
            let mut reads = 0u64;
            let mut writes = 0u64;
            let mut i = 0i64;
            let mut next = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                if let Some(interval) = pace {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep(next - now);
                    }
                    // A writer that fell behind (e.g. stalled behind the
                    // global lock during a compaction) catches up at full
                    // speed rather than dropping its budget.
                    next += interval * WRITE_BATCH;
                }
                match workload {
                    // 19 reads per write by op count, with the writes
                    // committed one durable transaction per batch (as in
                    // every other phase) so the mix stays 95/5 instead of
                    // being redefined by per-op fsync latency.
                    Workload::ReadMostly => {
                        for _ in 0..READ_MOSTLY_RATIO * WRITE_BATCH as usize {
                            let _shared = global.as_ref().map(|l| l.read().expect("read lock"));
                            let rows = conn.select("catalog", &catalog_query).expect("select");
                            assert_eq!(rows.len(), 25);
                            reads += 1;
                        }
                        let _excl = global.as_ref().map(|l| l.write().expect("write lock"));
                        let base = i;
                        conn.transaction(&[&table], |tx| {
                            for n in 0..WRITE_BATCH {
                                tx.insert(&table, &[("v", Value::Int(base + n as i64))])?;
                            }
                            Ok(())
                        })
                        .expect("txn");
                        committed.fetch_add(WRITE_BATCH as u64, Ordering::Relaxed);
                        i += WRITE_BATCH as i64;
                        writes += WRITE_BATCH as u64;
                    }
                    // Each paced wakeup commits its batch as one
                    // transaction — a daemon tick's worth of state. The
                    // global lock must hold its exclusive section across
                    // the whole commit (inserts + WAL flush); the MVCC
                    // engine holds only the written tables' writer locks,
                    // so catalog readers never notice.
                    Workload::Mixed | Workload::MixedArchiveTouch => {
                        let touch_archive = workload == Workload::MixedArchiveTouch;
                        let _excl = global.as_ref().map(|l| l.write().expect("write lock"));
                        let base = i;
                        let tables: Vec<&str> = if touch_archive {
                            vec![&table, "archive"]
                        } else {
                            vec![&table]
                        };
                        conn.transaction(&tables, |tx| {
                            for n in 0..WRITE_BATCH {
                                tx.insert(&table, &[("v", Value::Int(base + n as i64))])?;
                            }
                            if touch_archive {
                                let id = 1 + (base / WRITE_BATCH as i64) % archive_rows;
                                tx.update(
                                    "archive",
                                    id,
                                    &[("payload", Value::Text(format!("c{base}")))],
                                )?;
                            }
                            Ok(())
                        })
                        .expect("txn");
                        committed.fetch_add(WRITE_BATCH as u64, Ordering::Relaxed);
                        i += WRITE_BATCH as i64;
                        writes += WRITE_BATCH as u64;
                    }
                    Workload::ArchiveUpdate => {
                        // Round-robin point updates across the big table:
                        // each one must COW a single chunk, not clone the
                        // whole table.
                        let _excl = global.as_ref().map(|l| l.write().expect("write lock"));
                        let base = i;
                        conn.transaction(&["archive"], |tx| {
                            for n in 0..WRITE_BATCH {
                                let k = base + n as i64;
                                let id = 1 + (k % archive_rows);
                                tx.update(
                                    "archive",
                                    id,
                                    &[("payload", Value::Text(format!("u{k}")))],
                                )?;
                            }
                            Ok(())
                        })
                        .expect("txn");
                        committed.fetch_add(WRITE_BATCH as u64, Ordering::Relaxed);
                        i += WRITE_BATCH as i64;
                        writes += WRITE_BATCH as u64;
                    }
                }
            }
            (reads, writes)
        }));
    }

    let checkpointer = checkpoint_every.map(|every| {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        let global = global.clone();
        let committed = Arc::clone(&committed);
        let checkpointing = Arc::clone(&checkpointing);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut done = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = committed.load(Ordering::Relaxed);
                if now - last < every {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                last = now;
                checkpointing.store(true, Ordering::Relaxed);
                let _excl = global.as_ref().map(|l| l.write().expect("write lock"));
                db.compact().expect("compact");
                checkpointing.store(false, Ordering::Relaxed);
                done += 1;
            }
            done
        })
    });

    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut reads: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
    let mut writes = 0u64;
    for h in writers {
        let (r, w) = h.join().expect("writer");
        reads += r;
        writes += w;
    }
    let checkpoints = checkpointer.map_or(0, |h| h.join().expect("checkpointer"));
    Measurement {
        reads,
        writes,
        checkpoints,
        elapsed: start.elapsed(),
        read_p99_beside_checkpoint: Duration::from_nanos(beside_checkpoint.p99()),
    }
}

fn report(name: &str, m: &Measurement) {
    println!(
        "{name:<24} {:>9.0} reads/s   {:>8.0} writes/s   {:>3} checkpoints   ({:.2?})",
        m.reads_per_sec(),
        m.writes_per_sec(),
        m.checkpoints,
        m.elapsed,
    );
    if m.checkpoints > 0 {
        println!(
            "{name:<24} read p99 beside a checkpoint {:.1?}",
            m.read_p99_beside_checkpoint
        );
    }
}

/// The acceptance invariant behind every ratio: plain reads and
/// `read_view` acquire no shard lock, so a pure-read burst leaves the
/// writer-path lock-wait histogram exactly where it was.
fn assert_reads_lock_free(db: &Db) {
    let wait = amp_obs::registry().histogram(
        &amp_obs::labeled("simdb_table_lock_wait_seconds", &[("table", "catalog")]),
        amp_obs::Unit::Seconds,
    );
    let before = wait.count();
    let threads: Vec<_> = (0..READERS)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                let conn = db.connect("bench").expect("connect");
                let query = band_query(CATALOG_ROWS / 2);
                for _ in 0..2_000 {
                    conn.select("catalog", &query).expect("select");
                    conn.read_view(&["catalog"]).expect("view");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("pure reader");
    }
    let after = wait.count();
    assert_eq!(
        before, after,
        "pure-read burst recorded shard lock waits: the read path took a lock"
    );
    println!(
        "pure-read burst: {} reads + views, catalog lock-wait samples {before} -> {after} \
         (read path is lock-free)\n",
        READERS * 2 * 2_000
    );
}

/// Durable paced phases gated on writer-side throughput (the read-mostly
/// phase is closed-loop by design: its write share is set by the mix, so
/// a write ratio there measures the mix, not the engine).
const WRITE_GATED_PHASES: [&str; 3] = ["steady", "checkpointed", "archive_update"];
const WRITE_RATIO_FLOOR: f64 = 0.9;
/// What "a checkpoint blocks no reader" means as a number: the p99 of the
/// reads issued while one runs. Measured ~10 µs on the MVCC engine and the
/// checkpoint's own duration behind the emulated global lock: 25–50 ms in
/// the smoke run, 100 ms in the full one.
const READ_BESIDE_CHECKPOINT_P99: Duration = Duration::from_millis(1);
/// Noise floor for the same gate under sub-second smoke phases.
const SMOKE_WRITE_RATIO_FLOOR: f64 = 0.7;
/// The CI smoke step's wall-clock allowance.
const SMOKE_BUDGET: Duration = Duration::from_secs(120);

/// Writer-side acceptance: the durable paced phases must move >= `floor`
/// of the write budget the global-lock mode moves. Before group commit
/// each writer paid its own fdatasync and the MVCC mode sat at ~0.5x
/// here; the leader/follower WAL flush is what this gate keeps honest.
fn assert_write_ratios(write_ratios: &[(&str, f64)], floor: f64) {
    for &(phase, write_ratio) in write_ratios {
        if WRITE_GATED_PHASES.contains(&phase) {
            assert!(
                write_ratio >= floor,
                "{phase} write-throughput ratio {write_ratio:.2}x below the {floor:.2}x floor: \
                 the MVCC write path is falling behind the paced budget"
            );
        }
    }
}

fn main() {
    let wall = Instant::now();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let duration = Duration::from_millis(if smoke { 400 } else { 3000 });
    let archive_rows = if smoke { 10_000 } else { 30_000 };
    // The smoke run shrinks the phases ~8x, so the checkpoint cadence
    // shrinks with them: the checkpointed phase must still see several
    // compactions or the thing it measures never happens.
    let checkpoint_every = if smoke { 300 } else { CHECKPOINT_EVERY };
    println!(
        "== simdb lock contention ({READERS} closed-loop readers, {WRITERS} paced writers \
         ({WRITE_RATE:.0}/s inserts, {ARCHIVE_WRITE_RATE:.0}/s archive updates),\n   \
         WAL-bounded checkpointer every {checkpoint_every} writes, {archive_rows}-row archive, \
         {duration:?} per phase{}) ==\n",
        if smoke { ", smoke" } else { "" }
    );

    let root = std::env::temp_dir().join(format!("amp_contention_{}", std::process::id()));

    // Warm-up pass so code paths, file pages, and allocator state don't
    // favor whichever mode runs second.
    let warm = build_db(&root.join("warm"), archive_rows / 10);
    run(
        &warm,
        None,
        Some(checkpoint_every),
        Workload::Mixed,
        archive_rows / 10,
        Duration::from_millis(100),
    );

    // The lock-free invariant is exact — assert it in every mode,
    // including smoke, before measuring throughput.
    assert_reads_lock_free(&warm);

    // The checkpointed phase runs against a 4x larger archive: it is
    // about what compacting an archive-dominated database costs readers,
    // so the snapshot needs to be genuinely expensive to encode.
    let phases: [(&str, Workload, bool, i64); 4] = [
        ("steady", Workload::Mixed, false, archive_rows),
        (
            "checkpointed",
            Workload::MixedArchiveTouch,
            true,
            archive_rows * 4,
        ),
        ("read_mostly", Workload::ReadMostly, false, archive_rows),
        (
            "archive_update",
            Workload::ArchiveUpdate,
            false,
            archive_rows,
        ),
    ];
    let mut ratios = Vec::new();
    let mut beside_checkpoint = [Duration::ZERO; 2];
    let mut write_ratios: Vec<(&str, f64)> = Vec::new();
    let mut json_phases = String::new();
    for (phase, workload, checkpoints, archive_rows) in phases {
        let cadence = checkpoints.then_some(checkpoint_every);
        let db = build_db(&root.join(format!("{phase}_global")), archive_rows);
        let global = run(
            &db,
            Some(Arc::new(RwLock::new(()))),
            cadence,
            workload,
            archive_rows,
            duration,
        );
        report(&format!("{phase}/global_lock"), &global);

        let db = build_db(&root.join(format!("{phase}_mvcc")), archive_rows);
        let mvcc = run(&db, None, cadence, workload, archive_rows, duration);
        report(&format!("{phase}/mvcc"), &mvcc);

        let ratio = mvcc.reads_per_sec() / global.reads_per_sec();
        let write_ratio = mvcc.writes_per_sec() / global.writes_per_sec();
        println!("{phase:<24} read throughput {ratio:.2}x, write throughput {write_ratio:.2}x\n");
        ratios.push(ratio);
        write_ratios.push((phase, write_ratio));
        if checkpoints {
            beside_checkpoint = [&global, &mvcc].map(|m| m.read_p99_beside_checkpoint);
        }
        json_phases.push_str(&format!(
            "    \"{phase}\": {{\n      \"global_lock\": {{ \"reads_per_sec\": {:.0}, \
             \"writes_per_sec\": {:.0}, \"checkpoints\": {}, \
             \"read_p99_beside_checkpoint_us\": {:.1} }},\n      \"mvcc\": {{ \
             \"reads_per_sec\": {:.0}, \"writes_per_sec\": {:.0}, \"checkpoints\": {}, \
             \"read_p99_beside_checkpoint_us\": {:.1} }},\n      \
             \"read_throughput_ratio\": {ratio:.2},\n      \
             \"write_throughput_ratio\": {write_ratio:.2}\n    }},\n",
            global.reads_per_sec(),
            global.writes_per_sec(),
            global.checkpoints,
            global.read_p99_beside_checkpoint.as_secs_f64() * 1e6,
            mvcc.reads_per_sec(),
            mvcc.writes_per_sec(),
            mvcc.checkpoints,
            mvcc.read_p99_beside_checkpoint.as_secs_f64() * 1e6,
        ));
    }
    let _ = std::fs::remove_dir_all(&root);

    let (steady_ratio, checkpointed_ratio) = (ratios[0], ratios[1]);
    let [stalled_global, stalled_mvcc] = beside_checkpoint;
    println!(
        "steady read throughput, MVCC vs global lock:       {steady_ratio:.2}x  \
         [acceptance: > 1.0x]\n\
         checkpointed read throughput, MVCC vs global lock: {checkpointed_ratio:.2}x  \
         [reported]\n\
         read p99 beside a checkpoint, MVCC:                {stalled_mvcc:.1?}  \
         [acceptance: <= {READ_BESIDE_CHECKPOINT_P99:?}; global lock: {stalled_global:.1?}]"
    );
    let assert_no_reader_waits = || {
        assert!(
            stalled_mvcc <= READ_BESIDE_CHECKPOINT_P99,
            "read p99 beside a checkpoint {stalled_mvcc:.1?} over {READ_BESIDE_CHECKPOINT_P99:?}: \
             readers are waiting for the checkpoint"
        )
    };
    let write_floor = if smoke {
        SMOKE_WRITE_RATIO_FLOOR
    } else {
        WRITE_RATIO_FLOOR
    };
    for &(phase, write_ratio) in &write_ratios {
        if WRITE_GATED_PHASES.contains(&phase) {
            println!(
                "{phase} write throughput, MVCC vs global lock: {write_ratio:.2}x  \
                 [acceptance: >= {write_floor:.2}x]"
            );
        }
    }

    if smoke {
        // Sub-second phases on a loaded CI box are noisy; gate on the
        // full bars minus a noise margin so a real regression (reads
        // back under the global lock, compaction re-serialized, writers
        // starved behind the fsync leader) still fails the step.
        println!(
            "(smoke run: thresholds relaxed to >0.9x steady reads, \
             >={SMOKE_WRITE_RATIO_FLOOR}x writes; no JSON dump)"
        );
        assert!(
            steady_ratio > 0.9,
            "smoke: steady read ratio {steady_ratio:.2}x below the 0.9x noise floor"
        );
        assert_no_reader_waits();
        assert_write_ratios(&write_ratios, SMOKE_WRITE_RATIO_FLOOR);
        let elapsed = wall.elapsed();
        assert!(
            elapsed < SMOKE_BUDGET,
            "smoke run took {elapsed:.2?}, over its {SMOKE_BUDGET:?} CI budget"
        );
        println!("smoke wall clock {elapsed:.2?} (budget {SMOKE_BUDGET:?})");
        return;
    }

    let json = format!(
        r#"{{
  "bench": "lock_contention",
  "recorded": "2026-10-02",
  "command": "cargo run --release -p amp-bench --bin report_contention",
  "machine": "2-core linux container (CI-class), temp dir for snapshot + WAL files",
  "notes": "Closed-loop readers over a paced background write stream on a durable db: {READERS} reader threads each scan a 25-row band of a {CATALOG_ROWS}-row catalog table as fast as results return, while {WRITERS} writer threads apply a fixed write budget ({WRITE_RATE:.0} inserts/s total; {ARCHIVE_WRITE_RATE:.0}/s for archive point updates) modeling daemon traffic — pacing the writers is what makes reads/s comparable on a 1-core host, since with closed-loop writers the read share just inversely measures write-path speed. global_lock emulates the seed's RwLock<Database> with an external whole-process RwLock: exclusive around every write and around the whole compaction, shared around reads. mvcc is the engine as shipped: reads pin published table versions with atomic loads (no lock), writers serialize per table, and compaction snapshots pinned versions and truncates the WAL per table, blocking neither readers nor writers. Phases: steady (background inserts, no checkpointer), checkpointed (plus a checkpointer compacting every {CHECKPOINT_EVERY} committed writes over a database dominated by a large archive table, with each write batch also point-updating one archive row — where the seed's exclusive compaction stalls every reader for as long as it runs; read_p99_beside_checkpoint_us is the p99 of the reads issued while a checkpoint runs or waits for the global lock), read_mostly (writer threads interleave 19 catalog reads per insert, the portal's 95/5 profile, closed-loop), archive_update (paced point updates against the 30k-row archive — copy-on-write's worst case; each update clones one row chunk, not the table). The run also asserts the invariant behind the ratios directly: a pure-read burst leaves the writer-path lock-wait histogram untouched. The write side is gated, not just reported: each durable paced phase must hold write_throughput_ratio >= 0.9. Three mechanisms carry that bar — per-transaction delta write-buffers (a commit materializes only the rows it touched into per-row Arc'd chunks, so an archive point update copies one row, not a 256-row chunk; simdb_rows_copied_per_write tracks this), cross-writer group commit (a leader thread drains every queued WAL record and issues one fdatasync on behalf of all concurrently committing writers — simdb_group_commit_writers records how many each flush covered), and rollback-by-drop (an aborted transaction discards its buffer; the published spine was never touched). Before these landed the MVCC mode moved ~0.5x of the global mode's durable write budget because every writer paid its own fsync while readers, never blocked, kept the CPU busy.",
  "results": {{
{json_phases}    "acceptance": "steady read_throughput_ratio > 1.0, checkpointed mvcc read_p99_beside_checkpoint_us <= 1000, and write_throughput_ratio >= 0.9 in steady, checkpointed, and archive_update"
  }}
}}
"#
    );
    std::fs::write("BENCH_concurrency.json", json).expect("write BENCH_concurrency.json");
    println!("wrote BENCH_concurrency.json");

    assert!(
        steady_ratio > 1.0,
        "steady read-throughput ratio {steady_ratio:.2}x: lock-free reads must beat the emulated \
         global RwLock"
    );
    assert_no_reader_waits();
    assert_write_ratios(&write_ratios, WRITE_RATIO_FLOOR);
}
