//! Concurrency tests for the storage engine: one published version of the
//! whole database, pinned by readers, and one writer mutex.
//!
//! The engine promises five things the old global `RwLock<Database>`
//! could give only by making readers wait:
//!
//! 1. readers are never blocked by a writer, and writers of different
//!    tables, multi-table transactors and DDL all take turns on the one
//!    writer without losing a row;
//! 2. per-table version counters are linearizable — every committed write
//!    bumps its table's counter exactly once, in the same publish as the
//!    data change, so `versions == creation + commits`;
//! 3. a multi-table `read_view` observes an untearable snapshot — a
//!    transaction writing tables A and B together is one publish, and can
//!    never be seen half-applied across them;
//! 4. referential integrity — a child insert checks its foreign key
//!    against the published parent, and stays correct against racing
//!    parent deletes because the two are serialised by the writer;
//! 5. a table created while others write is there, with its rows, for
//!    every later read, view and reopen;
//!
//! plus (regression for the snapshot/compact fix) that snapshotting never
//! blocks readers. Readers take no lock at all — they pin the published
//! version — so the read-side properties hold by construction; the tests
//! keep them pinned down against regression (see `tests/mvcc_props.rs` for
//! the MVCC-specific properties: frozen views, version retention,
//! non-blocking compact).

mod common;

use amp::simdb::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A three-table fixture: two independent tables (`alpha`, `beta`) for
/// disjoint-writer traffic, plus a `ledger` pair (`ledger_a`, `ledger_b`)
/// mutated only together by multi-table transactions.
fn setup() -> Db {
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    db.define_role(
        Role::new("app")
            .grant("alpha", PermSet::ALL)
            .grant("beta", PermSet::ALL)
            .grant("ledger_a", PermSet::ALL)
            .grant("ledger_b", PermSet::ALL),
    );
    let admin = db.connect("admin").unwrap();
    for t in ["alpha", "beta", "ledger_a", "ledger_b"] {
        admin
            .create_table(TableSchema::new(t, vec![Column::new("v", ValueType::Int)]))
            .unwrap();
    }
    db
}

/// Portal-style readers + two writer threads on different tables + one
/// multi-table transactor, all concurrent and all queueing on the one
/// writer. Afterwards: no lost updates (row counts match what each writer
/// committed) and linearizable per-table versions (creation + exactly one
/// bump per committed write).
///
/// The writers wait at a barrier until every reader has read every table
/// once: in an optimized build their 300 writes can otherwise finish before
/// a reader thread is first scheduled.
#[test]
fn stress_disjoint_writers_readers_and_transactor() {
    const WRITES: i64 = 300;
    const TXNS: i64 = 150;
    const READERS: usize = 4;
    const TABLES: [&str; 4] = ["alpha", "beta", "ledger_a", "ledger_b"];
    let db = setup();
    let stop = Arc::new(AtomicBool::new(false));
    // Two writers, the transactor and the readers.
    let start = Arc::new(Barrier::new(3 + READERS));
    let mut handles = Vec::new();

    // Two writers on different tables.
    for table in ["alpha", "beta"] {
        let db = db.clone();
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            start.wait();
            for i in 0..WRITES {
                c.insert(table, &[("v", Value::Int(i))]).unwrap();
            }
        }));
    }

    // One multi-table transactor over the ledger pair.
    {
        let db = db.clone();
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            start.wait();
            for i in 0..TXNS {
                c.transaction(&["ledger_a", "ledger_b"], |tx| {
                    tx.insert("ledger_a", &[("v", Value::Int(i))])?;
                    tx.insert("ledger_b", &[("v", Value::Int(-i))])?;
                    Ok(())
                })
                .unwrap();
            }
        }));
    }

    // Portal-style readers over everything, until the writers finish.
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        readers.push(std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            let mut reads = 0u64;
            loop {
                for t in TABLES {
                    // Single-table reads and version stamps interleave
                    // with the writers; none of this can error or tear.
                    let n = c.count(t, &Query::new()).unwrap();
                    let view = c.read_view(&[t]).unwrap();
                    assert!(view.count(t, &Query::new()).unwrap() >= n);
                    reads += 1;
                }
                if reads == TABLES.len() as u64 {
                    start.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads
        }));
    }

    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader made no progress");
    }

    let c = db.connect("app").unwrap();
    // No lost updates: every committed insert is present.
    assert_eq!(c.count("alpha", &Query::new()).unwrap(), WRITES as usize);
    assert_eq!(c.count("beta", &Query::new()).unwrap(), WRITES as usize);
    assert_eq!(c.count("ledger_a", &Query::new()).unwrap(), TXNS as usize);
    assert_eq!(c.count("ledger_b", &Query::new()).unwrap(), TXNS as usize);
    // Linearizable versions: creation (1) + one bump per committed write.
    assert_eq!(db.table_version("alpha"), 1 + WRITES as u64);
    assert_eq!(db.table_version("beta"), 1 + WRITES as u64);
    assert_eq!(db.table_version("ledger_a"), 1 + TXNS as u64);
    assert_eq!(db.table_version("ledger_b"), 1 + TXNS as u64);
}

/// Signals the other side when dropped — on the normal path or while
/// unwinding from a failed assertion, so a panic on one side stops the
/// other and surfaces instead of hanging the suite.
struct OnDrop<F: FnMut()>(F);
impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Property: `read_view` never observes torn multi-table state. A
/// transactor keeps `ledger_a` and `ledger_b` in lockstep (always inserts
/// into both); concurrent views must always see equal counts and equal
/// version stamps — a half-applied transaction would break both.
///
/// The transactor keeps committing until every checker has observed it
/// `MIN_OBSERVATIONS` times, so the overlap is forced and does not depend
/// on a fixed batch of transactions outlasting thread start-up.
#[test]
fn read_view_never_observes_torn_transactions() {
    const MIN_TXNS: i64 = 400;
    const MIN_OBSERVATIONS: u64 = 50;
    const CHECKERS: usize = 3;

    let db = setup();
    let served = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _done = OnDrop(|| writer_done.store(true, Ordering::SeqCst));
            let c = db.connect("app").unwrap();
            let mut i = 0;
            while i < MIN_TXNS || served.load(Ordering::SeqCst) < CHECKERS {
                c.transaction(&["ledger_a", "ledger_b"], |tx| {
                    tx.insert("ledger_a", &[("v", Value::Int(i))])?;
                    tx.insert("ledger_b", &[("v", Value::Int(i))])?;
                    Ok(())
                })
                .unwrap();
                i += 1;
            }
        });

        for _ in 0..CHECKERS {
            scope.spawn(|| {
                let c = db.connect("app").unwrap();
                // Served after the quota of observations (or on a panic).
                let mut quota = Some(OnDrop(|| {
                    served.fetch_add(1, Ordering::SeqCst);
                }));
                let mut last_stamp = vec![0u64, 0u64];
                let mut observations = 0u64;
                loop {
                    // Read the flag first: the last view is taken after the
                    // final commit.
                    let last = writer_done.load(Ordering::SeqCst);
                    let view = c.read_view(&["ledger_a", "ledger_b"]).unwrap();
                    let a = view.count("ledger_a", &Query::new()).unwrap();
                    let b = view.count("ledger_b", &Query::new()).unwrap();
                    assert_eq!(a, b, "torn view: ledger_a={a} ledger_b={b}");
                    let stamp = view.versions();
                    assert_eq!(
                        stamp[0], stamp[1],
                        "torn stamp: {stamp:?} (tables move only in lockstep)"
                    );
                    // Stamps from successive views are monotone (no time travel).
                    assert!(stamp[0] >= last_stamp[0] && stamp[1] >= last_stamp[1]);
                    last_stamp = stamp;
                    observations += 1;
                    if observations == MIN_OBSERVATIONS {
                        quota.take();
                    }
                    if last {
                        break;
                    }
                }
                assert!(observations >= MIN_OBSERVATIONS);
            });
        }
    });
}

/// Regression (snapshot/compact held the engine lock across file I/O):
/// a concurrent read completes while a compaction is in flight, and —
/// stronger — compaction completes while a reader *holds a read view
/// open*, which deadlocked under the old exclusive-lock compaction.
#[test]
fn snapshot_and_compact_do_not_block_readers() {
    let dir = common::tmpdir("snap_conc");
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    db.define_role(Role::new("app").grant("t", PermSet::ALL));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            "t",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
    for i in 0..200 {
        admin.insert("t", &[("v", Value::Int(i))]).unwrap();
    }

    // Reads complete while compactions are continuously in flight.
    let snapper = {
        let db = db.clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                db.compact().unwrap();
            }
        })
    };
    let c = db.connect("app").unwrap();
    for _ in 0..500 {
        assert_eq!(c.count("t", &Query::new()).unwrap(), 200);
    }
    snapper.join().unwrap();

    // Compaction (snapshot + WAL truncate) finishes while a read view is
    // held open: it needs only shared locks. Run it on a second thread
    // with a timeout so a regression fails instead of hanging the suite.
    let view = c.read_view(&["t"]).unwrap();
    let (tx, rx) = mpsc::channel();
    let compactor = {
        let db = db.clone();
        std::thread::spawn(move || {
            let res = db.compact();
            let _ = tx.send(res);
        })
    };
    let res = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("compact() blocked behind an open read view");
    res.unwrap();
    // The view still reads consistently after the compaction.
    assert_eq!(view.count("t", &Query::new()).unwrap(), 200);
    drop(view);
    compactor.join().unwrap();

    // And the compacted state recovers.
    drop((c, admin, db));
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    let c = db.connect("admin").unwrap();
    assert_eq!(c.count("t", &Query::new()).unwrap(), 200);
}

/// Transactions that declare the same two tables in opposite orders never
/// deadlock: a transaction takes the one writer mutex, whatever it
/// declares, so the classic AB/BA interleaving has no second lock to wait
/// for.
#[test]
fn opposite_order_transactions_cannot_deadlock() {
    const ROUNDS: i64 = 200;
    let db = setup();
    let ab = {
        let db = db.clone();
        std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            for i in 0..ROUNDS {
                c.transaction(&["alpha", "beta"], |tx| {
                    tx.insert("alpha", &[("v", Value::Int(i))])?;
                    tx.insert("beta", &[("v", Value::Int(i))])?;
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    let ba = {
        let db = db.clone();
        std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            for i in 0..ROUNDS {
                // Declared in the opposite order: there is one lock, so
                // this cannot deadlock against `ab`.
                c.transaction(&["beta", "alpha"], |tx| {
                    tx.insert("beta", &[("v", Value::Int(-i))])?;
                    tx.insert("alpha", &[("v", Value::Int(-i))])?;
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    ab.join().unwrap();
    ba.join().unwrap();
    let c = db.connect("app").unwrap();
    assert_eq!(
        c.count("alpha", &Query::new()).unwrap(),
        2 * ROUNDS as usize
    );
    assert_eq!(c.count("beta", &Query::new()).unwrap(), 2 * ROUNDS as usize);
}

/// Race child inserts against parent deletes. Two inserters keep adding
/// `child` rows under randomly chosen parents while a deleter walks every
/// parent in a shuffled order, its deletes paced by the inserters' attempt
/// count so they spread over the whole insert stream. The insert checks
/// its foreign key against the parent table as the writer found it, and a
/// delete can only land before or after it, never between the check and
/// the publish. Afterwards:
///
/// * no committed child references a missing parent;
/// * an insert that returned `Ok` is still there, unless (Cascade only)
///   its parent's delete took it;
/// * a delete that returned `Ok` left no parent row, and under Restrict
///   never removed a parent that had a child.
fn race_child_inserts_against_parent_deletes(on_delete: OnDelete, seed: u64) {
    const PARENTS: i64 = 48;
    const INSERTERS: usize = 2;
    const ATTEMPTS_PER_DELETE: usize = 8;

    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            "parent",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
    admin
        .create_table(TableSchema::new(
            "child",
            vec![Column::new("p", ValueType::Int)
                .not_null()
                .references("parent", on_delete)],
        ))
        .unwrap();
    for v in 0..PARENTS {
        assert_eq!(
            admin.insert("parent", &[("v", Value::Int(v))]).unwrap(),
            v + 1
        );
    }

    let attempts = AtomicUsize::new(0);
    let inserters_done = AtomicUsize::new(0);
    let deleter_done = AtomicBool::new(false);
    let (accepted, deleted) = std::thread::scope(|scope| {
        let inserters: Vec<_> = (0..INSERTERS)
            .map(|i| {
                let (db, attempts) = (&db, &attempts);
                let (inserters_done, deleter_done) = (&inserters_done, &deleter_done);
                scope.spawn(move || {
                    let _done = OnDrop(|| {
                        inserters_done.fetch_add(1, Ordering::SeqCst);
                    });
                    let c = db.connect("admin").unwrap();
                    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64 + 1));
                    let mut accepted = Vec::new();
                    while !deleter_done.load(Ordering::SeqCst) {
                        let parent = rng.random_range(1..=PARENTS);
                        match c.insert("child", &[("p", Value::Int(parent))]) {
                            Ok(child) => accepted.push((child, parent)),
                            // The parent's delete won the race.
                            Err(DbError::ForeignKeyViolation { .. }) => {}
                            Err(e) => panic!("child insert under parent {parent}: {e}"),
                        }
                        attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::yield_now();
                    }
                    accepted
                })
            })
            .collect();
        let deleter = {
            let (db, attempts) = (&db, &attempts);
            let (inserters_done, deleter_done) = (&inserters_done, &deleter_done);
            scope.spawn(move || {
                let _done = OnDrop(|| deleter_done.store(true, Ordering::SeqCst));
                let c = db.connect("admin").unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut order: Vec<i64> = (1..=PARENTS).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                let mut deleted = Vec::new();
                for (i, parent) in order.into_iter().enumerate() {
                    while attempts.load(Ordering::SeqCst) < (i + 1) * ATTEMPTS_PER_DELETE
                        && inserters_done.load(Ordering::SeqCst) < INSERTERS
                    {
                        std::thread::yield_now();
                    }
                    match c.delete("parent", parent) {
                        Ok(()) => deleted.push(parent),
                        Err(DbError::ForeignKeyViolation { .. })
                            if on_delete == OnDelete::Restrict => {}
                        Err(e) => panic!("delete of parent {parent}: {e}"),
                    }
                }
                deleted
            })
        };
        let accepted: Vec<(i64, i64)> = inserters
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (accepted, deleter.join().unwrap())
    });

    let parent_alive = |id: i64| admin.get("parent", id).is_ok();
    for (child, row) in admin.select("child", &Query::new()).unwrap() {
        let parent = row[0].as_int().unwrap();
        assert!(
            parent_alive(parent),
            "child {child} references missing parent {parent}"
        );
    }
    for parent in &deleted {
        assert!(!parent_alive(*parent), "deleted parent {parent} is back");
    }
    assert!(!accepted.is_empty(), "no insert ever won the race");
    let mut taken_by_cascade = 0;
    for (child, parent) in &accepted {
        if admin.get("child", *child).is_ok() {
            continue;
        }
        assert!(
            on_delete == OnDelete::Cascade && !parent_alive(*parent),
            "insert of child {child} under parent {parent} returned Ok but the row is gone"
        );
        taken_by_cascade += 1;
    }
    match on_delete {
        // Every parent was deleted, and took its children with it.
        OnDelete::Cascade => {
            assert_eq!(deleted.len() as i64, PARENTS);
            assert_eq!(taken_by_cascade, accepted.len());
        }
        // A parent with a child refused its delete and still has the child.
        _ => {
            assert_eq!(taken_by_cascade, 0);
            for (_, parent) in &accepted {
                assert!(
                    !deleted.contains(parent),
                    "parent {parent} deleted over a child"
                );
            }
        }
    }
}

#[test]
fn child_inserts_race_cascading_parent_deletes() {
    for seed in [1, 7919] {
        race_child_inserts_against_parent_deletes(OnDelete::Cascade, seed);
    }
}

#[test]
fn child_inserts_race_restricted_parent_deletes() {
    for seed in [1, 7919] {
        race_child_inserts_against_parent_deletes(OnDelete::Restrict, seed);
    }
}

/// DDL is a writer like any other. Two threads insert into an existing
/// table and readers loop read views while a third thread creates fresh
/// tables and writes one row into each. Afterwards every committed insert
/// is present, every table's version is its creation plus its commits, a
/// view naming a fresh table failed before its `create_table` returned and
/// succeeded after, and a reopen of the durable files recovers every table
/// and row.
#[test]
fn tables_created_beside_writers_and_readers() {
    const WRITES: i64 = 300;
    const FRESH: usize = 24;
    const READERS: usize = 2;
    let dir = common::tmpdir("ddl_traffic");
    let files = (dir.join("db.snap"), dir.join("db.wal"));
    let db = Db::open(&files.0, &files.1).unwrap();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            "alpha",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
    let fresh = |i: usize| format!("fresh_{i}");
    let created = AtomicUsize::new(0);
    let start = Barrier::new(3 + READERS);
    std::thread::scope(|scope| {
        for w in 0..2 {
            let (db, start) = (&db, &start);
            scope.spawn(move || {
                let c = db.connect("admin").unwrap();
                start.wait();
                for i in 0..WRITES {
                    c.insert("alpha", &[("v", Value::Int(w * WRITES + i))])
                        .unwrap();
                }
            });
        }
        scope.spawn(|| {
            let c = db.connect("admin").unwrap();
            start.wait();
            for i in 0..FRESH {
                let name = fresh(i);
                assert!(matches!(
                    c.read_view(&["alpha", &name]),
                    Err(DbError::NoSuchTable(_))
                ));
                c.create_table(TableSchema::new(
                    &name,
                    vec![Column::new("v", ValueType::Int)],
                ))
                .unwrap();
                created.store(i + 1, Ordering::SeqCst);
                let view = c.read_view(&["alpha", &name]).unwrap();
                assert_eq!(view.count(&name, &Query::new()).unwrap(), 0);
                c.insert(&name, &[("v", Value::Int(i as i64))]).unwrap();
            }
        });
        for _ in 0..READERS {
            scope.spawn(|| {
                let c = db.connect("admin").unwrap();
                start.wait();
                let mut last = 0;
                while created.load(Ordering::SeqCst) < FRESH {
                    // A table whose creation has returned is in every later
                    // view; the one after it is there or not, never torn.
                    let known = created.load(Ordering::SeqCst);
                    if known > 0 {
                        c.read_view(&[&fresh(known - 1)]).unwrap();
                    }
                    let view = c.read_view(&["alpha"]).unwrap();
                    let n = view.count("alpha", &Query::new()).unwrap();
                    assert!(n >= last, "alpha went backwards: {last} -> {n}");
                    assert_eq!(view.versions(), vec![1 + n as u64]);
                    last = n;
                    match c.read_view(&[&fresh(known)]) {
                        Ok(view) => assert!(view.count(&fresh(known), &Query::new()).unwrap() <= 1),
                        Err(e) => assert!(matches!(e, DbError::NoSuchTable(_)), "{e}"),
                    }
                }
            });
        }
    });

    let expect = |db: &Db| {
        let c = db.connect("admin").unwrap();
        assert_eq!(
            c.count("alpha", &Query::new()).unwrap(),
            2 * WRITES as usize
        );
        assert_eq!(db.table_version("alpha"), 1 + 2 * WRITES as u64);
        for i in 0..FRESH {
            let rows = c.select(&fresh(i), &Query::new()).unwrap();
            assert_eq!(rows, vec![(1, vec![Value::Int(i as i64)])]);
            assert_eq!(db.table_version(&fresh(i)), 2);
        }
        assert_eq!(db.table_names().len(), 1 + FRESH);
    };
    expect(&db);
    drop((admin, db));
    let db = Db::open(&files.0, &files.1).unwrap();
    db.define_role(Role::superuser("admin"));
    expect(&db);
}
