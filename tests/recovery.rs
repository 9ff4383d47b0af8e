//! Daemon-failure recovery: all workflow state lives in the central
//! database (§5: "we have retained a single application-defined
//! representation of all state"), so a crashed daemon can be replaced and
//! the workflow continues. Also exercises the database's own durability
//! (snapshot + WAL recovery).

mod common;

use amp::prelude::*;
use amp::simdb::prelude::*;
use amp_gridamp::DaemonMonitor;
use common::{tmpdir, truth};

#[test]
fn replacement_daemon_resumes_midflight_simulation() {
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            work_walltime_hours: 6.0,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 1).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = amp::gridamp::small_spec(2);
    let mut sim = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    // run until mid-RUNNING, then "crash" the daemon
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let sims = Manager::<Simulation>::new(admin.clone());
    for _ in 0..500 {
        dep.daemon.tick(&dep.grid);
        if sims.get(sim_id).unwrap().status == SimStatus::Running {
            break;
        }
        dep.grid.advance(SimDuration::from_secs(300));
    }
    assert_eq!(sims.get(sim_id).unwrap().status, SimStatus::Running);
    let monitor = DaemonMonitor {
        max_silence_secs: 3600,
    };
    assert!(monitor.healthy(&dep.daemon, dep.grid.now().as_secs() as i64));

    // the crash: drop the daemon entirely; grid time passes unattended
    drop(std::mem::replace(
        &mut dep.daemon,
        amp_gridamp::GridAmp::new(
            &dep.db,
            DaemonConfig {
                work_walltime_hours: 6.0,
                ..DaemonConfig::default()
            },
        )
        .unwrap(),
    ));
    dep.grid.advance(SimDuration::from_hours(6.0));
    // the external monitor notices the silence
    assert!(!monitor.healthy(&dep.daemon, dep.grid.now().as_secs() as i64));

    // the replacement daemon reads everything it needs from the DB and
    // carries the simulation to completion
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let done = sims.get(sim_id).unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
    assert!(done.result_json.is_some());
}

#[test]
fn durable_database_survives_process_restart() {
    let dir = tmpdir("durable");
    let snap = dir.join("amp.snap");
    let wal = dir.join("amp.wal");

    let sim_id;
    {
        let db = Db::open(&snap, &wal).unwrap();
        amp::core::setup::initialize(&db).unwrap();
        let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
        let mut u = AmpUser::new("astro1", "a@x.edu", "h", 0);
        u.approved = true;
        Manager::<AmpUser>::new(admin.clone())
            .create(&mut u)
            .unwrap();
        let mut star = Star::from_catalog(&amp::stellar::famous_stars()[0], "local");
        Manager::<Star>::new(admin.clone())
            .create(&mut star)
            .unwrap();
        let mut alloc = Allocation::new("kraken", "TG-R", 1000.0);
        Manager::<Allocation>::new(admin.clone())
            .create(&mut alloc)
            .unwrap();
        db.snapshot().unwrap(); // snapshot covers the fixtures

        // post-snapshot work lands only in the WAL
        let mut sim = Simulation::new_direct(
            star.id.unwrap(),
            u.id.unwrap(),
            StellarParams::sun(),
            "kraken",
            alloc.id.unwrap(),
            500,
        );
        sim_id = Manager::<Simulation>::new(admin).create(&mut sim).unwrap();
        // process "exits" here (db dropped)
    }

    // restart: snapshot + WAL suffix replay
    let db = Db::open(&snap, &wal).unwrap();
    amp::core::setup::initialize(&db).unwrap(); // idempotent
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let sim = Manager::<Simulation>::new(admin.clone())
        .get(sim_id)
        .unwrap();
    assert_eq!(sim.status, SimStatus::Queued);
    assert_eq!(sim.created_at, 500);
    // fresh writes continue cleanly after recovery
    let mut u2 = AmpUser::new("astro2", "b@x.edu", "h", 0);
    Manager::<AmpUser>::new(admin.clone())
        .create(&mut u2)
        .unwrap();
    assert_eq!(Manager::<AmpUser>::new(admin).all().unwrap().len(), 2);
}

/// Open the database under `dir` with one superuser connection.
fn open_plain(dir: &std::path::Path) -> (Db, Connection) {
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    let c = db.connect("admin").unwrap();
    (db, c)
}

fn int_table(name: &str) -> TableSchema {
    TableSchema::new(name, vec![Column::new("v", ValueType::Int)])
}

/// Regression (data loss): `compact()` leaves a log with no commits, and the
/// log used to restart its numbering from the file's last record — 0 — on the
/// next open. Records written after that reopen then carried sequence
/// numbers the snapshot's per-table coverage already claimed, and the
/// following recovery skipped them as applied.
#[test]
fn writes_after_compaction_and_reopen_survive_the_next_reopen() {
    let dir = tmpdir("compact_reopen");
    {
        let (db, c) = open_plain(&dir);
        c.create_table(int_table("t")).unwrap();
        for v in 0..10 {
            c.insert("t", &[("v", Value::Int(v))]).unwrap();
        }
        db.compact().unwrap();
        let log = std::fs::read(dir.join("db.wal")).unwrap();
        assert_eq!(
            log,
            amp::simdb::wal::MAGIC,
            "compaction left commits in the log"
        );
    }
    {
        let (_db, c) = open_plain(&dir);
        for v in 10..15 {
            c.insert("t", &[("v", Value::Int(v))]).unwrap();
        }
    }
    let (_db, c) = open_plain(&dir);
    assert_eq!(c.count("t", &Query::new()).unwrap(), 15);
}

/// Regression: two `compact()` calls at once shared the temporary files
/// they rename from and failed each other — `No such file or directory`, or
/// a log cut finding a frame the other's snapshot only partly covered. One
/// checkpoint runs at a time: two threads compacting 30 times each beside a
/// writer all succeed, and a reopen holds every row the writer committed.
#[test]
fn compactions_at_once_take_turns_and_lose_no_commit() {
    let dir = tmpdir("compact_race");
    let (db, c) = open_plain(&dir);
    c.create_table(int_table("t")).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    // The writer and both compactors start together.
    let start = std::sync::Barrier::new(3);
    let (failed, written) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            start.wait();
            let mut n = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                c.insert("t", &[("v", Value::Int(n))]).unwrap();
                n += 1;
            }
            n
        });
        let compactor = || {
            s.spawn(|| {
                start.wait();
                (0..30)
                    .filter_map(|_| db.compact().err())
                    .collect::<Vec<_>>()
            })
        };
        let compactors = [compactor(), compactor()];
        let failed: Vec<DbError> = compactors
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (failed, writer.join().unwrap())
    });
    assert!(
        failed.is_empty(),
        "{} of 60 compactions failed: {failed:?}",
        failed.len()
    );
    drop((db, c));
    let (_db, c) = open_plain(&dir);
    let rows = c.select_project("t", &Query::new().order_by("id"), "v");
    let values: Vec<Value> = rows.unwrap().into_iter().map(|(_, v)| v).collect();
    assert_eq!(values, (0..written).map(Value::Int).collect::<Vec<_>>());
}

/// The same, for a log compaction truncated only in part: a racing writer
/// claimed sequence 13 after the compaction pinned its cut at watermark 12,
/// so its frame is the one the cut kept. Numbering must continue past it,
/// and both reopens must replay it exactly once.
#[test]
fn writes_after_partial_truncation_and_reopen_survive_the_next_reopen() {
    use amp::simdb::wal::{encode_frame, Wal, MAGIC};

    let dir = tmpdir("compact_partial");
    {
        let (db, c) = open_plain(&dir);
        c.create_table(int_table("a")).unwrap(); // seq 0
        c.create_table(int_table("b")).unwrap(); // seq 1
        c.insert("a", &[("v", Value::Int(0))]).unwrap(); // seq 2
        for v in 0..10 {
            c.insert("b", &[("v", Value::Int(v))]).unwrap(); // seq 3..=12
        }
        db.compact().unwrap();
    }
    // The racing writer's commit, as the cut left it: the log's only frame.
    // `a` was created first: it is table 0.
    let tail = LogOp::Insert {
        table: 0,
        id: 2,
        row: vec![Value::Int(1)],
    };
    let frame = encode_frame(13, &[tail]);
    std::fs::write(dir.join("db.wal"), [&MAGIC[..], &frame].concat()).unwrap();
    {
        let (_db, c) = open_plain(&dir);
        assert_eq!(c.count("a", &Query::new()).unwrap(), 2, "tail replayed");
        for v in 10..15 {
            c.insert("b", &[("v", Value::Int(v))]).unwrap(); // seq 14..=18
        }
        c.insert("a", &[("v", Value::Int(2))]).unwrap(); // seq 19
    }
    let seqs: Vec<u64> = (Wal::read_records(dir.join("db.wal")).unwrap().iter())
        .map(|r| r.seq)
        .collect();
    assert_eq!(seqs, (13..=19).collect::<Vec<_>>());
    let (_db, c) = open_plain(&dir);
    assert_eq!(c.count("b", &Query::new()).unwrap(), 15);
    assert_eq!(c.count("a", &Query::new()).unwrap(), 3);
}

/// Regression (silent data loss): a snapshot at watermark 12 and a log
/// whose first frame is 15 opened as a database without commits 13 and 14.
/// The snapshot holds exactly the commits numbered up to its watermark, so
/// the records above it must run on from 13: a gap there is commits
/// missing, `Corrupt`, and the database stays shut. A gap at or below the
/// watermark is legal: a snapshot of deferred commits that never reached
/// the log holds more than the log does, and the log numbers on past it.
#[test]
fn a_gap_above_the_snapshot_is_corrupt_and_one_below_it_is_not() {
    use amp::simdb::wal::{encode_frame, Wal, MAGIC};

    let dir = tmpdir("gap_above");
    {
        let (db, c) = open_plain(&dir);
        c.create_table(int_table("t")).unwrap(); // seq 0
        for v in 1..=12 {
            c.insert("t", &[("v", Value::Int(v))]).unwrap(); // seq 1..=12
        }
        db.snapshot().unwrap();
    }
    let fifteenth = LogOp::Insert {
        table: 0,
        id: 15,
        row: vec![Value::Int(15)],
    };
    let frame = encode_frame(15, &[fifteenth]);
    std::fs::write(dir.join("db.wal"), [&MAGIC[..], &frame].concat()).unwrap();
    for _ in 0..2 {
        let opened = Db::open(dir.join("db.snap"), dir.join("db.wal"));
        let why = "wal seq 15: a gap, the log should go on at seq 13";
        assert_eq!(opened.err(), Some(DbError::Corrupt(why.into())));
    }

    let dir = tmpdir("gap_below");
    {
        let (db, c) = open_plain(&dir);
        c.create_table(int_table("t")).unwrap(); // seq 0, flushed
        let deferred = c.deferred();
        for v in 1..=5 {
            deferred.insert("t", &[("v", Value::Int(v))]).unwrap(); // seq 1..=5
        }
        db.snapshot().unwrap(); // watermark 5; the log holds seq 0 alone
    }
    {
        let (_db, c) = open_plain(&dir);
        assert_eq!(c.count("t", &Query::new()).unwrap(), 5);
        c.insert("t", &[("v", Value::Int(6))]).unwrap();
    }
    let seqs: Vec<u64> = (Wal::read_records(dir.join("db.wal")).unwrap().iter())
        .map(|r| r.seq)
        .collect();
    assert_eq!(seqs, [0, 6]);
    let (_db, c) = open_plain(&dir);
    assert_eq!(c.count("t", &Query::new()).unwrap(), 6);
}

/// Regression: a log record whose checksum holds but which does not apply
/// to the state it meets answered as if a live caller had erred —
/// `NoSuchTable("t")` from `Db::open` after compact, one more commit and a
/// lost snapshot (that pair is now refused as a gap first). Whatever the
/// record and whatever refuses it, it is the files that are wrong:
/// `Corrupt`, naming the record, and the database stays shut.
#[test]
fn a_log_record_that_does_not_apply_is_corrupt_and_the_database_stays_shut() {
    use amp::simdb::wal::{encode_frame, MAGIC};

    let dir = tmpdir("unappliable");
    let refused = |why: &str| {
        for _ in 0..2 {
            let opened = Db::open(dir.join("db.snap"), dir.join("db.wal"));
            assert_eq!(opened.err(), Some(DbError::Corrupt(why.into())));
        }
    };
    let insert = |table, id| LogOp::Insert {
        table,
        id,
        row: vec![Value::Int(0)],
    };
    {
        let (db, c) = open_plain(&dir);
        c.create_table(int_table("t")).unwrap(); // seq 0
        c.insert("t", &[("v", Value::Int(0))]).unwrap(); // seq 1
        db.compact().unwrap();
        c.insert("t", &[("v", Value::Int(1))]).unwrap(); // seq 2
    }
    std::fs::remove_file(dir.join("db.snap")).unwrap();
    // With no snapshot the log must start at seq 0, so the lost snapshot is
    // refused as a gap before the record meets the state it cannot apply to.
    refused("wal seq 2: a gap, the log should go on at seq 0");

    // Each as seq 2 of a log that creates `t`, table 0, and inserts t[1].
    // A table is named by its number, so one the state does not have is
    // refused by number.
    let create = |schema| LogOp::CreateTable { schema };
    let update = |id, set| LogOp::Update { table: 0, id, set };
    let delete = |table| LogOp::Delete { table, id: 9 };
    let orphan = TableSchema::new(
        "child",
        vec![Column::new("p", ValueType::Int).references("nope", OnDelete::Cascade)],
    );
    let head = encode_frame(0, &[create(int_table("t")), insert(0, 1)]);
    for (op, why) in [
        (insert(7, 1), "insert on table 7: no such table"),
        (delete(1), "delete on table 1: no such table"),
        (
            LogOp::Insert {
                table: 0,
                id: 2,
                row: vec![Value::Int(0), Value::Int(1)],
            },
            "insert on t: schema error: table t: row arity 2 != schema arity 1",
        ),
        (update(9, vec![]), "update on t: no row t[9]"),
        (delete(0), "delete on t: no row t[9]"),
        (
            insert(0, 1),
            "insert on t: schema error: table t: duplicate explicit id 1",
        ),
        (
            create(int_table("t")),
            "create table on t: schema error: table t already exists",
        ),
        (
            create(orphan),
            "create table on child: schema error: table child: \
             FK column p references missing table nope",
        ),
        (
            update(1, vec![(7, Value::Int(1))]),
            "update on t: schema error: no column 7",
        ),
        (
            update(1, vec![(0, "one".into())]),
            "update on t: type mismatch on t.v: expected INT, got Text(\"one\")",
        ),
    ] {
        let frame = encode_frame(2, &[op]);
        std::fs::write(dir.join("db.wal"), [&MAGIC[..], &head, &frame].concat()).unwrap();
        refused(&format!("wal seq 2: {why}"));
    }

    // An update that gives row 2 the unique cell row 1 holds, as seq 3 of
    // a log that creates `u`, table 0, and inserts u[1] and u[2].
    let unique = TableSchema::new("u", vec![Column::new("v", ValueType::Int).unique()]);
    let row = |id, v| LogOp::Insert {
        table: 0,
        id,
        row: vec![Value::Int(v)],
    };
    let head = encode_frame(0, &[create(unique), row(1, 10), row(2, 20)]);
    let twice = LogOp::Update {
        table: 0,
        id: 2,
        set: vec![(0, Value::Int(10))],
    };
    let frame = encode_frame(3, &[twice]);
    std::fs::write(dir.join("db.wal"), [&MAGIC[..], &head, &frame].concat()).unwrap();
    refused("wal seq 3: update on u: unique violation on u.v = 10");
}

/// Regression: an acknowledged insert of `f64::INFINITY` wrote
/// `{"Float":null}` to the log and the next open answered `Corrupt`; the
/// JSON snapshot has no spelling for a non-finite float either. They are
/// refused where column types are checked, so neither file ever holds one.
#[test]
fn non_finite_floats_are_refused_at_the_door_and_the_database_reopens() {
    let dir = tmpdir("non_finite");
    let schema = TableSchema::new("t", vec![Column::new("x", ValueType::Float)]);
    {
        let (db, c) = open_plain(&dir);
        c.create_table(schema).unwrap();
        let id = c.insert("t", &[("x", Value::Float(1.5))]).unwrap();
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let cell = [("x", Value::Float(bad))];
            for refused in [
                c.insert("t", &cell).map(drop),
                c.insert_row("t", vec![Value::Float(bad)]).map(drop),
                c.update("t", id, &cell),
                c.update_row("t", id, vec![Value::Float(bad)]),
                c.transaction(&["t"], |tx| tx.update("t", id, &cell)),
            ] {
                assert!(
                    matches!(refused, Err(DbError::TypeMismatch { .. })),
                    "{bad}: {refused:?}"
                );
            }
        }
        assert_eq!(c.get("t", id).unwrap(), vec![Value::Float(1.5)]);
        drop((db, c));
        let (db, c) = open_plain(&dir); // the log replays ...
        c.update("t", id, &[("x", Value::Float(-0.0))]).unwrap();
        db.compact().unwrap();
    }
    let (_db, c) = open_plain(&dir); // ... and so does the snapshot
    assert_eq!(
        c.select("t", &Query::new()).unwrap(),
        vec![(1, vec![Value::Float(-0.0)])]
    );
}

#[test]
fn notification_outbox_preserved_across_daemon_restart() {
    let mut dep =
        amp::gridamp::deploy(amp::grid::systems::kraken(), DaemonConfig::default(), None).unwrap();
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 3).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();
    dep.daemon.run_until_settled(&dep.grid, 48.0);

    // replace the daemon; the completion notification is still in the DB
    dep.daemon = amp_gridamp::GridAmp::new(&dep.db, DaemonConfig::default()).unwrap();
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let notes = Manager::<Notification>::new(admin)
        .filter(&Query::new().eq("simulation_id", sim_id))
        .unwrap();
    assert!(notes.iter().any(|n| n.subject.contains("complete")));
}
