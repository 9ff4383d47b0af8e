//! MVCC read-path properties and regressions.
//!
//! The engine's read side is lock-free: readers pin the published immutable
//! version of the database instead of taking the writer lock. These tests
//! pin down the contract that makes that safe to build on:
//!
//! 1. a pinned `ReadView` is *frozen* — its version stamps never move and
//!    its rows never tear, no matter how many transactions commit while it
//!    is held (property test over arbitrary commit-batch shapes);
//! 2. superseded versions are freed once the last view holding them drops
//!    (no unbounded version retention — watched through the
//!    `simdb_table_live_versions` gauge);
//! 3. `compact()` never blocks writers: it snapshots a pinned cut and
//!    truncates the WAL per table, so it completes even while an open
//!    transaction holds the writer lock — and the in-flight transaction's
//!    records survive the truncation and recover;
//! 4. plain reads never touch the writer lock: its wait histogram records
//!    nothing during a pure-read phase, or beside a checkpoint;
//! 5. the write side's delta buffer is semantically invisible: reads
//!    inside a transaction see buffer-over-base, a commit publishes
//!    exactly the merged state, and a rollback leaves the published spine
//!    untouched — all equal to a naive model (`common::ModelDb`: a map of
//!    rows and a next id per table) applying the same operations (property
//!    test over arbitrary transaction sequences);
//! 6. a single statement takes that same buffered path, so one that fails
//!    part-way leaves nothing behind for the next commit to publish.

mod common;

use amp::simdb::prelude::*;
use common::ModelDb;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// The writer-lock histograms are process-wide, and this file's tests share
/// a process: a test that writes holds a shared turn, and one that counts
/// writer-lock samples holds the turn alone, so no other test's writer can
/// land a sample in its count.
static TURN: RwLock<()> = RwLock::new(());

fn writing_turn() -> RwLockReadGuard<'static, ()> {
    TURN.read().unwrap_or_else(|e| e.into_inner())
}

fn counting_turn() -> RwLockWriteGuard<'static, ()> {
    TURN.write().unwrap_or_else(|e| e.into_inner())
}

/// The `admin` and `app` roles and one `v: Int` table named `table`.
fn define_table(db: &Db, table: &str) {
    db.define_role(Role::superuser("admin"));
    db.define_role(Role::new("app").grant(table, PermSet::ALL));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            table,
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
}

fn fresh_db(table: &str) -> Db {
    let db = Db::in_memory();
    define_table(&db, table);
    db
}

/// A durable database in its own temp directory, `table` holding `rows`
/// rows.
fn durable_db(tag: &str, table: &str, rows: i64) -> (std::path::PathBuf, Db) {
    let dir = common::tmpdir(&format!("mvcc_{tag}"));
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    define_table(&db, table);
    let admin = db.connect("admin").unwrap();
    for i in 0..rows {
        admin.insert(table, &[("v", Value::Int(i))]).unwrap();
    }
    (dir, db)
}

/// Drive a writer committing transactions of the given batch sizes while
/// readers continuously pin views, and assert every view is a frozen,
/// untorn commit-boundary state.
fn check_frozen_views(batches: &[usize]) {
    let _turn = writing_turn();
    let db = fresh_db("mv");
    // Valid observable states: creation only, or any whole-batch prefix.
    let mut prefix_sums = BTreeSet::new();
    let mut sum = 0usize;
    prefix_sums.insert(0);
    for b in batches {
        sum += b;
        prefix_sums.insert(sum);
    }
    let total = sum;

    let writer = {
        let db = db.clone();
        let batches = batches.to_vec();
        std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            for (i, size) in batches.iter().enumerate() {
                c.transaction(&["mv"], |tx| {
                    for _ in 0..*size {
                        tx.insert("mv", &[("v", Value::Int(i as i64))])?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        })
    };

    let c = db.connect("app").unwrap();
    let mut last_count = 0usize;
    loop {
        let view = c.read_view(&["mv"]).unwrap();
        let count = view.count("mv", &Query::new()).unwrap();
        let stamp = view.versions()[0];
        // Only commit-boundary states are observable (transactions publish
        // atomically), and the version counter moves in lockstep with the
        // rows: creation is 1, every insert bumps by exactly 1.
        assert!(
            prefix_sums.contains(&count),
            "torn commit: saw {count} rows, valid states are {prefix_sums:?}"
        );
        assert_eq!(stamp, 1 + count as u64, "stamp out of sync with rows");
        // No batch is ever partially visible.
        let rows = view.select("mv", &Query::new()).unwrap();
        for (i, size) in batches.iter().enumerate() {
            let seen = rows
                .iter()
                .filter(|(_, r)| r[0] == Value::Int(i as i64))
                .count();
            assert!(
                seen == 0 || seen == *size,
                "batch {i} torn: {seen} of {size} rows visible"
            );
        }
        // The view is frozen: re-reading it after more commits may have
        // landed yields byte-identical state.
        std::thread::yield_now();
        assert_eq!(view.count("mv", &Query::new()).unwrap(), count);
        assert_eq!(view.versions()[0], stamp);
        // Successive views are monotone (no time travel).
        assert!(count >= last_count);
        last_count = count;
        if count == total {
            break;
        }
    }
    writer.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: a pinned `ReadView` never observes version counters move
    /// or rows tear while concurrent transactions commit.
    #[test]
    fn pinned_views_are_frozen_and_untorn(batches in proptest::collection::vec(1usize..=5, 1..10)) {
        check_frozen_views(&batches);
    }
}

/// One operation inside a generated transaction. `t` selects one of the
/// two tables; `pick` resolves to a live row id at application time.
#[derive(Debug, Clone)]
enum TxOp {
    Insert { t: bool, v: i16 },
    Update { t: bool, pick: u8, v: i16 },
    Delete { t: bool, pick: u8 },
}

fn arb_tx_op() -> impl Strategy<Value = TxOp> {
    prop_oneof![
        (any::<bool>(), any::<i16>()).prop_map(|(t, v)| TxOp::Insert { t, v }),
        (any::<bool>(), any::<u8>(), any::<i16>()).prop_map(|(t, pick, v)| TxOp::Update {
            t,
            pick,
            v
        }),
        (any::<bool>(), any::<u8>()).prop_map(|(t, pick)| TxOp::Delete { t, pick }),
    ]
}

/// Drive the same transaction sequence through the buffered MVCC engine
/// and the naive [`ModelDb`] oracle, checking three things per
/// transaction:
///
/// 1. *buffer-over-base reads*: mid-transaction, `Txn::select` sees the
///    transaction's own uncommitted ops layered over the published base;
/// 2. *publish merges exactly*: after a commit, the published state equals
///    the oracle having applied the same ops;
/// 3. *rollback is total*: after an aborted transaction, the published
///    state (including id allocation) is exactly what it was before —
///    the write buffer is dropped, the spine untouched.
fn check_buffered_txns_match_oracle(txns: &[(Vec<TxOp>, bool)]) {
    let _turn = writing_turn();
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    let mut oracle = ModelDb::default();
    for t in ["bufa", "bufb"] {
        let schema = TableSchema::new(t, vec![Column::new("v", ValueType::Int)]);
        admin.create_table(schema).unwrap();
        oracle.create_table(t);
    }
    let name = |t: bool| if t { "bufa" } else { "bufb" };
    let all = Query::new();

    for (ops, rollback) in txns {
        // Resolve picks and apply against a tentative oracle as we go, so
        // an op may legitimately target a row inserted (or miss one
        // deleted) earlier in the same transaction.
        let mut tentative = oracle.clone();
        let result: Result<(), DbError> = admin.transaction(&["bufa", "bufb"], |tx| {
            for op in ops {
                match op {
                    TxOp::Insert { t, v } => {
                        let want = tentative.insert(name(*t), vec![Value::Int(*v as i64)]);
                        let got = tx.insert(name(*t), &[("v", Value::Int(*v as i64))])?;
                        assert_eq!(got, want, "id allocation diverged from oracle");
                    }
                    TxOp::Update { t, pick, v } => {
                        let rows = tentative.rows(name(*t));
                        if rows.is_empty() {
                            continue;
                        }
                        let id = rows[*pick as usize % rows.len()].0;
                        tentative.update(name(*t), id, 0, Value::Int(*v as i64));
                        tx.update(name(*t), id, &[("v", Value::Int(*v as i64))])?;
                    }
                    TxOp::Delete { t, pick } => {
                        let rows = tentative.rows(name(*t));
                        if rows.is_empty() {
                            continue;
                        }
                        let id = rows[*pick as usize % rows.len()].0;
                        tentative.delete(name(*t), id);
                        tx.delete(name(*t), id)?;
                    }
                }
            }
            // Buffer-over-base: the transaction's own reads see its
            // uncommitted ops merged over the published base.
            for t in [true, false] {
                assert_eq!(
                    tx.select(name(t), &all).unwrap(),
                    tentative.rows(name(t)),
                    "mid-transaction read diverged from buffered state"
                );
            }
            if *rollback {
                Err(DbError::Io("forced rollback".into()))
            } else {
                Ok(())
            }
        });
        assert_eq!(result.is_err(), *rollback);
        if !rollback {
            oracle = tentative;
        }
        // Published state must equal the oracle's committed state exactly —
        // after a rollback that means exactly the pre-transaction state.
        for t in [true, false] {
            assert_eq!(
                admin.select(name(t), &all).unwrap(),
                oracle.rows(name(t)),
                "published state diverged from the model"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: the per-transaction delta write-buffer is invisible in
    /// the result — buffered reads, committed merges, and rollbacks all
    /// match a naive model applying the same operations.
    #[test]
    fn buffered_transactions_match_single_threaded_oracle(
        txns in proptest::collection::vec(
            (proptest::collection::vec(arb_tx_op(), 0..8), any::<bool>()),
            0..12,
        )
    ) {
        check_buffered_txns_match_oracle(&txns);
    }
}

/// Regression: superseded versions are freed once the last `ReadView`
/// pinning them drops — retention is bounded by live views, observable via
/// the `simdb_table_live_versions{table}` gauge.
#[test]
fn dropping_last_read_view_frees_superseded_versions() {
    let _turn = writing_turn();
    // The metrics registry is process-global and these integration tests
    // share one process, so this table name must be unique to this test.
    let table = "mv_retain";
    let db = fresh_db(table);
    let gauge = amp::obs::registry().gauge(&amp::obs::labeled(
        "simdb_table_live_versions",
        &[("table", table)],
    ));
    let c = db.connect("app").unwrap();
    c.insert(table, &[("v", Value::Int(0))]).unwrap();
    assert_eq!(gauge.get(), 1, "no views held: only the tip is alive");

    let view = c.read_view(&[table]).unwrap();
    for i in 1..=5 {
        c.insert(table, &[("v", Value::Int(i))]).unwrap();
    }
    // The view keeps exactly its pinned version alive alongside the tip;
    // the versions in between were freed as they were superseded.
    assert_eq!(gauge.get(), 2, "pinned version + tip");
    assert_eq!(view.count(table, &Query::new()).unwrap(), 1);

    drop(view);
    // The next publish prunes the version the view was keeping alive.
    c.insert(table, &[("v", Value::Int(6))]).unwrap();
    assert_eq!(gauge.get(), 1, "superseded version leaked past last view");
}

/// Regression: `compact()` never blocks writers (it used to take every
/// table's shared lock across file I/O, queueing all writers). It must
/// complete while an open transaction holds the writer lock, and the
/// in-flight transaction's WAL records must survive the per-table
/// truncation and recover.
#[test]
fn compact_does_not_block_writers() {
    let _turn = writing_turn();
    let (dir, db) = durable_db("compact", "t", 200);
    let admin = db.connect("admin").unwrap();

    // A transaction that holds the writer lock until released.
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let txn = {
        let db = db.clone();
        std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            c.transaction(&["t"], |tx| {
                tx.insert("t", &[("v", Value::Int(1000))])?;
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap(); // hold the writer lock
                Ok(())
            })
            .unwrap();
        })
    };
    started_rx.recv().unwrap();

    // Compaction completes while the writer lock is held: it reads the
    // pinned version, not the transaction's buffer. Run it on a helper thread
    // with a timeout so a regression fails instead of hanging the suite.
    let (done_tx, done_rx) = mpsc::channel();
    let compactor = {
        let db = db.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(db.compact());
        })
    };
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("compact() blocked behind an open write transaction")
        .unwrap();
    compactor.join().unwrap();

    // The uncommitted insert is invisible to the compacted snapshot...
    assert_eq!(
        admin.count("t", &Query::new()).unwrap(),
        200,
        "compaction must not expose uncommitted state"
    );
    release_tx.send(()).unwrap();
    txn.join().unwrap();
    // ...but commits fine afterwards: its WAL record sequences after the
    // snapshot's per-table coverage, so truncation preserved it.
    assert_eq!(admin.count("t", &Query::new()).unwrap(), 201);

    drop(admin);
    drop(db);
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    let c = db.connect("admin").unwrap();
    assert_eq!(c.count("t", &Query::new()).unwrap(), 201);
    assert_eq!(
        c.count("t", &Query::new().eq("v", Value::Int(1000)))
            .unwrap(),
        1,
        "in-flight transaction's record lost by compaction truncate"
    );
}

fn lock_wait_samples() -> u64 {
    amp::obs::registry()
        .histogram("simdb_writer_lock_wait_seconds", amp::obs::Unit::Seconds)
        .count()
}

/// The read path takes no lock at all: a pure-read phase records nothing
/// in the (writer-path-only) writer lock-wait histogram.
#[test]
fn pure_reads_never_touch_the_lock() {
    let _turn = counting_turn();
    let table = "mv_lockfree";
    let db = fresh_db(table);
    let c = db.connect("app").unwrap();
    for i in 0..50 {
        c.insert(table, &[("v", Value::Int(i))]).unwrap();
    }
    let before = lock_wait_samples();
    for _ in 0..500 {
        assert_eq!(c.count(table, &Query::new()).unwrap(), 50);
        let view = c.read_view(&[table]).unwrap();
        assert_eq!(view.versions().len(), 1);
        assert_eq!(db.table_version(table), 51);
    }
    assert_eq!(
        lock_wait_samples(),
        before,
        "a plain read acquired the writer lock"
    );
}

/// Nor does a checkpoint take one, or make a reader take one: with no
/// writer, reads issued while another thread compacts over and over leave
/// the writer lock-wait histogram where it was and all see every row.
/// `Slot::write` records a sample per acquisition, waited or not, so the
/// count is exact. This is "a read beside a checkpoint never waits" as a
/// count instead of a latency (`simdb.read_stall_p99_us` in
/// BENCHMARK.json is the latency).
#[test]
fn reads_beside_a_checkpoint_never_touch_the_lock() {
    const ROWS: i64 = 2_000;
    let _turn = counting_turn();
    let table = "mv_beside_checkpoint";
    let (dir, db) = durable_db("beside_checkpoint", table, ROWS);
    let before = lock_wait_samples();
    let checkpointing = AtomicBool::new(true);
    let start = std::sync::Barrier::new(4);
    let beside: usize = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for _ in 0..20 {
                db.compact().unwrap();
            }
            checkpointing.store(false, Ordering::SeqCst);
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let c = db.connect("app").unwrap();
                    let band = Query::new().filter("v", Op::Lt, Value::Int(25));
                    start.wait();
                    // Passes that began with the checkpointer still at work.
                    let mut beside = 0;
                    loop {
                        let running = checkpointing.load(Ordering::SeqCst);
                        assert_eq!(c.count(table, &Query::new()).unwrap(), ROWS as usize);
                        assert_eq!(c.select(table, &band).unwrap().len(), 25);
                        let view = c.read_view(&[table]).unwrap();
                        assert_eq!(view.count(table, &Query::new()).unwrap(), ROWS as usize);
                        if !running {
                            return beside;
                        }
                        beside += 1;
                    }
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    assert!(beside > 0, "no read ran beside a checkpoint");
    assert_eq!(
        lock_wait_samples(),
        before,
        "a checkpoint, or a read beside one, acquired the writer lock"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// A statement that fails part-way is dropped with its buffer: the next
/// good statement publishes exactly its own row and bumps the table's
/// version by exactly one.
#[test]
fn failed_statements_leave_nothing_for_the_next_commit() {
    let _turn = writing_turn();
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    let c = db.connect("admin").unwrap();
    c.create_table(TableSchema::new(
        "mv_fail_parent",
        vec![Column::new("v", ValueType::Int)],
    ))
    .unwrap();
    c.create_table(TableSchema::new(
        "mv_fail",
        vec![
            Column::new("name", ValueType::Text).not_null().unique(),
            Column::new("p", ValueType::Int).references("mv_fail_parent", OnDelete::Restrict),
        ],
    ))
    .unwrap();
    c.insert("mv_fail", &[("name", "taken".into())]).unwrap();
    let version = db.table_version("mv_fail");

    assert!(matches!(
        c.insert("mv_fail", &[("name", "taken".into())]),
        Err(DbError::UniqueViolation { .. })
    ));
    assert!(matches!(
        c.insert(
            "mv_fail",
            &[("name", "orphan".into()), ("p", Value::Int(99))]
        ),
        Err(DbError::ForeignKeyViolation { .. })
    ));
    assert!(matches!(
        c.update("mv_fail", 1, &[("p", Value::Int(99))]),
        Err(DbError::ForeignKeyViolation { .. })
    ));
    assert_eq!(db.table_version("mv_fail"), version, "a failure published");

    let id = c.insert("mv_fail", &[("name", "good".into())]).unwrap();
    assert_eq!(db.table_version("mv_fail"), version + 1);
    assert_eq!(id, 2, "a failed insert consumed a row id");
    let names: Vec<Value> = c
        .select("mv_fail", &Query::new())
        .unwrap()
        .into_iter()
        .map(|(_, row)| row[0].clone())
        .collect();
    assert_eq!(names, vec!["taken".into(), "good".into()]);
}
