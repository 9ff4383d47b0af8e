//! Seeded log torture: what any crash, and any single flipped bit, leaves
//! of a durable simdb (DESIGN §8.7).
//!
//! A run drives one fsync-on `Db` through the daemon's commit shapes — a
//! one-row update, an insert, a 64-row transaction, a lease compare-and-swap,
//! a two-table transaction, a delete whose foreign keys are set NULL — on a
//! waiting and a deferring connection in a seeded mix, with a compaction in
//! the middle. After every commit it keeps the tables (the oracle) and, at
//! every acknowledgement — a waiting commit's return, a deferring
//! connection's `flush()` — the length of the log file. Then, on copies:
//!
//! * **every byte offset of the last K frames is a crash point**: the log
//!   cut there recovers to exactly the commits whose frames it still holds
//!   whole — never part of a transaction — and those include every commit
//!   acknowledged by then;
//! * **a flipped bit in each byte of those frames** is a torn tail when it
//!   hits the last frame, and `Corrupt` with the frame's byte offset when a
//!   valid frame follows it;
//! * **every step boundary of a compaction recovers** to everything
//!   committed: temporary snapshot written (whole or in part), renamed over
//!   the snapshot, temporary log written, renamed over the log;
//! * **the snapshot has no torn tail and no unchecked byte**: cut at any
//!   length it is `Corrupt`, and with any one bit flipped it is `Corrupt`
//!   with the byte offset — never a database other than the one committed
//!   (a seeded sample of 2,000 positions; every byte in the nightly soak);
//! * **whatever recovers, reopens**: it takes a write and opens again with it.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use amp::simdb::wal::Wal;
use amp::simdb::{
    Column, Connection, Db, DbError, OnDelete, Query, Role, Row, TableSchema, Value, ValueType,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SNAP: &str = "db.snap";
const LOG: &str = "db.wal";
/// What `compact()` names its temporary snapshot and temporary log.
const SNAP_TMP: &str = "db.tmp";
const LOG_TMP: &str = "db.wal.tmp";
const BATCH: usize = 64;

/// Every table's rows, in id order.
type State = BTreeMap<String, Vec<(i64, Row)>>;

fn open(dir: &Path) -> Result<(Db, Connection), DbError> {
    let db = Db::open(dir.join(SNAP), dir.join(LOG))?;
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin")?;
    Ok((db, admin))
}

fn dump(db: &Db, admin: &Connection) -> State {
    let rows = |t: &String| admin.select(t, &Query::new().order_by("id")).unwrap();
    let tables = db.table_names().into_iter();
    tables.map(|t| (t.clone(), rows(&t))).collect()
}

fn create_schema(admin: &Connection) {
    let text = |name| Column::new(name, ValueType::Text);
    let int = |name| Column::new(name, ValueType::Int);
    for schema in [
        TableSchema::new("owner", vec![text("name").not_null()]),
        TableSchema::new(
            "sim",
            vec![
                text("status").not_null().indexed(),
                text("payload"),
                int("owner_id").references("owner", OnDelete::SetNull),
            ],
        ),
        TableSchema::new(
            "job",
            vec![
                int("sim_id")
                    .not_null()
                    .references("sim", OnDelete::Cascade),
                text("state").not_null().indexed(),
                text("handle"),
            ],
        ),
        TableSchema::new(
            "lease",
            vec![
                int("sim_id").not_null().unique(),
                text("daemon").not_null(),
                int("epoch").not_null(),
                Column::new("expires", ValueType::Timestamp).not_null(),
            ],
        ),
    ] {
        admin.create_table(schema).unwrap();
    }
}

/// One driven database and everything the checks need to know about it.
struct Run {
    dir: PathBuf,
    db: Db,
    waiting: Connection,
    deferring: Connection,
    rng: ChaCha8Rng,
    /// The tables after the set-up and after each commit since.
    oracle: Vec<State>,
    /// `(log length, commits so far)` at every acknowledgement.
    acks: Vec<(u64, usize)>,
    sims: Vec<i64>,
}

impl Run {
    fn start(tag: &str, seed: u64) -> Run {
        let dir = common::tmpdir(&format!("torture_{tag}"));
        std::fs::create_dir(dir.join("scratch")).unwrap();
        let (db, waiting) = open(&dir).unwrap();
        db.set_fsync(true);
        create_schema(&waiting);
        let sims: Vec<i64> = (0..4)
            .map(|i| {
                let payload = format!("{{\"mass\":1.0{i},\"notes\":\"{}\"}}", "x".repeat(300));
                let sim = [("status", "QUEUED".into()), ("payload", payload.into())];
                let sim = waiting.insert("sim", &sim).unwrap();
                let lease = [
                    ("sim_id", Value::Int(sim)),
                    ("daemon", "gridamp-0".into()),
                    ("epoch", Value::Int(1)),
                    ("expires", Value::Timestamp(1_000)),
                ];
                waiting.insert("lease", &lease).unwrap();
                sim
            })
            .collect();
        for i in 0..BATCH {
            let job = [
                ("sim_id", Value::Int(sims[i % 4])),
                ("state", "PENDING".into()),
            ];
            waiting.insert("job", &job).unwrap();
        }
        // The set-up goes into a snapshot: from here on the log holds one
        // frame per driven commit.
        db.compact().unwrap();
        Run {
            oracle: vec![dump(&db, &waiting)],
            deferring: waiting.clone().deferred(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            acks: Vec::new(),
            dir,
            db,
            waiting,
            sims,
        }
    }

    fn log_len(&self) -> u64 {
        std::fs::metadata(self.dir.join(LOG)).unwrap().len()
    }

    fn commits(&self) -> usize {
        self.oracle.len() - 1
    }

    /// One commit of a seeded shape on a seeded connection.
    fn commit(&mut self) {
        let waits = self.rng.random_range(0..3) == 0;
        let conn = if waits {
            &self.waiting
        } else {
            &self.deferring
        }
        .clone();
        let sim = self.sims[self.rng.random_range(0..self.sims.len())];
        let stamp = self.commits() as i64;
        let new_job = [
            ("sim_id", Value::Int(sim)),
            ("state", "SUBMITTED".into()),
            ("handle", format!("https://kraken/gram/{stamp}").into()),
        ];
        match self.rng.random_range(0..6) {
            0 => {
                let status = ["PREJOB", "RUNNING", "POSTJOB", "DONE"][stamp as usize % 4];
                conn.update("sim", sim, &[("status", status.into())])
                    .unwrap();
            }
            1 => drop(conn.insert("job", &new_job).unwrap()),
            2 => conn
                .transaction(&["job"], |tx| {
                    (1..=BATCH as i64).try_for_each(|job| {
                        tx.update("job", job, &[("state", format!("POLLED-{stamp}").into())])
                    })
                })
                .unwrap(),
            3 => {
                let epoch = conn.get("lease", sim).unwrap()[2].clone();
                let next = Value::Int(epoch.as_int().unwrap() + 1);
                let renewed = [("epoch", next), ("expires", Value::Timestamp(stamp * 300))];
                let won = conn.compare_and_swap("lease", sim, &[("epoch", epoch)], &renewed);
                assert!(won.unwrap(), "an uncontended swap lost");
            }
            4 => conn
                .transaction(&["lease", "job"], |tx| {
                    tx.update(
                        "lease",
                        sim,
                        &[("daemon", format!("gridamp-{stamp}").into())],
                    )?;
                    tx.insert("job", &new_job).map(drop)
                })
                .unwrap(),
            // A simulation's owner goes (its `owner_id` is set NULL in the
            // same commit), or a new owner takes it.
            _ => match conn.get("sim", sim).unwrap()[2].as_int() {
                Some(owner) => conn.delete("owner", owner).unwrap(),
                None => conn
                    .transaction(&["owner", "sim"], |tx| {
                        let owner =
                            tx.insert("owner", &[("name", format!("user{stamp}").into())])?;
                        tx.update("sim", sim, &[("owner_id", Value::Int(owner))])
                    })
                    .unwrap(),
            },
        }
        self.oracle.push(dump(&self.db, &self.waiting));
        if !waits && self.rng.random_range(0..3) > 0 {
            return; // deferred, and not flushed yet: not acknowledged
        }
        self.deferring.flush().unwrap(); // nothing left to do after a waiting commit
        self.acks.push((self.log_len(), self.commits()));
    }

    fn read(&self, file: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(file)).unwrap()
    }

    /// Recover the given files in a scratch directory: the tables they open
    /// to — after showing that the database takes a write and reopens with
    /// it — or the error `Db::open` answered.
    fn recover(&self, files: &[(&str, &[u8])]) -> Result<State, DbError> {
        let scratch = self.dir.join("scratch");
        for old in std::fs::read_dir(&scratch).unwrap() {
            std::fs::remove_file(old.unwrap().path()).unwrap();
        }
        for (name, bytes) in files {
            std::fs::write(scratch.join(name), bytes).unwrap();
        }
        let (db, admin) = open(&scratch)?;
        let state = dump(&db, &admin);
        let written = admin.insert("owner", &[("name", "after the crash".into())]);
        drop((db, admin));
        let (db, admin) = open(&scratch).expect("a recovered database reopens");
        let mut reopened = dump(&db, &admin);
        let last = reopened.get_mut("owner").and_then(|owners| owners.pop());
        assert_eq!(last.map(|(id, _)| id), Some(written.unwrap()));
        assert_eq!(reopened, state, "the reopened tables moved");
        Ok(state)
    }

    /// `compact()`, recovering what a crash at each of its step boundaries
    /// would leave.
    fn compact_step_by_step(&self) {
        let (snap_before, log_before) = (self.read(SNAP), self.read(LOG));
        self.db.compact().unwrap();
        let (snap, log) = (self.read(SNAP), self.read(LOG));
        assert!(log.len() < log_before.len() && snap != snap_before);
        let everything = self.oracle.last().unwrap();
        let old = [(SNAP, &snap_before[..]), (LOG, &log_before[..])];
        let renamed = [(SNAP, &snap[..]), (LOG, &log_before[..])];
        for (step, files) in [
            (
                "temporary snapshot half written",
                [&old[..], &[(SNAP_TMP, &snap[..snap.len() / 2])]].concat(),
            ),
            (
                "temporary snapshot written",
                [&old[..], &[(SNAP_TMP, &snap[..])]].concat(),
            ),
            ("snapshot renamed", renamed.to_vec()),
            (
                "temporary log half written",
                [&renamed[..], &[(LOG_TMP, &log[..log.len() / 2])]].concat(),
            ),
            (
                "temporary log written",
                [&renamed[..], &[(LOG_TMP, &log[..])]].concat(),
            ),
            ("log renamed", vec![(SNAP, &snap[..]), (LOG, &log[..])]),
        ] {
            let recovered = self
                .recover(&files)
                .unwrap_or_else(|e| panic!("{step}: {e}"));
            assert_eq!(&recovered, everything, "{step}");
        }
    }

    /// Cut, and flip a bit of, every byte of the log's last `k` frames.
    fn torture_tail(&mut self, k: usize) {
        let (snap, log) = (self.read(SNAP), self.read(LOG));
        let frames = Wal::read_frames(self.dir.join(LOG)).unwrap();
        // The log was emptied by a compaction some commits ago, and holds one
        // frame per commit since.
        let base = self.commits() - frames.len();
        assert_eq!(frames.last().map(|f| f.end), Some(log.len()));
        assert!(frames.len() > k, "only {} frames to torture", frames.len());
        let shapes: Vec<usize> = frames.iter().map(|f| f.records.len()).collect();
        assert!(shapes.contains(&BATCH) && shapes.contains(&1) && shapes.contains(&2));

        let tail = &frames[frames.len() - k..];
        let last = tail.last().unwrap().offset;
        for (i, frame) in tail.iter().enumerate() {
            // Commits whose frames end at or before this one's start.
            let whole = base + frames.len() - k + i;
            let acked = self
                .acks
                .iter()
                .rfind(|(len, _)| *len <= frame.offset as u64);
            assert!(
                acked.is_none_or(|(_, n)| *n <= whole),
                "acknowledged, not in the log"
            );
            for at in frame.offset..frame.end {
                let cut = self.recover(&[(SNAP, &snap), (LOG, &log[..at])]);
                let cut = cut.unwrap_or_else(|e| panic!("cut at byte {at}: {e}"));
                assert!(
                    cut == self.oracle[whole],
                    "cut at byte {at}: not commit {whole}"
                );

                let mut flipped = log.clone();
                flipped[at] ^= 1u8 << self.rng.random_range(0..8);
                match self.recover(&[(SNAP, &snap), (LOG, &flipped)]) {
                    Ok(state) if frame.offset == last => {
                        assert!(state == self.oracle[whole], "flip at byte {at}")
                    }
                    Err(DbError::Corrupt(why)) if frame.offset < last => {
                        let names_frame = why.contains(&format!("byte {}:", frame.offset));
                        assert!(names_frame, "flip at byte {at}: {why}");
                    }
                    other => panic!("flip at byte {at}: {:?}", other.map(|_| "recovered")),
                }
            }
        }
        // Damage far from the tail is reported too, not replayed around.
        let mut flipped = log.clone();
        flipped[frames[0].offset + 9] ^= 0x40;
        match self.recover(&[(SNAP, &snap), (LOG, &flipped)]) {
            Err(DbError::Corrupt(why)) => assert!(why.contains("byte 8:"), "{why}"),
            other => panic!("first frame damaged: {:?}", other.map(|_| "recovered")),
        }
    }
}

impl Run {
    /// Cut the snapshot at, and flip a bit of, each of a seeded sample of
    /// its bytes (or `every_byte`), the log left whole beside it.
    fn torture_snapshot(&mut self, every_byte: bool) {
        const SAMPLE: usize = 2_000;
        let (snap, log) = (self.read(SNAP), self.read(LOG));
        let everything = self.oracle.last().unwrap();
        let whole = self.recover(&[(SNAP, &snap), (LOG, &log)]);
        assert!(&whole.unwrap() == everything);
        let positions: Vec<usize> = if every_byte || snap.len() <= SAMPLE {
            (0..snap.len()).collect()
        } else {
            // The header's bytes and the last frame's among them.
            let ends = (0..24).chain(snap.len() - 24..snap.len());
            let sample = (0..SAMPLE).map(|_| self.rng.random_range(0..snap.len()));
            ends.chain(sample).collect()
        };
        for at in positions {
            match self.recover(&[(SNAP, &snap[..at]), (LOG, &log)]) {
                Err(DbError::Corrupt(why)) => assert!(why.contains("snapshot byte"), "{why}"),
                other => panic!("cut at byte {at}: {:?}", other.map(|_| "recovered")),
            }
            let mut flipped = snap.clone();
            flipped[at] ^= 1u8 << self.rng.random_range(0..8);
            match self.recover(&[(SNAP, &flipped), (LOG, &log)]) {
                Err(DbError::Corrupt(why)) => assert!(why.contains("snapshot byte"), "{why}"),
                Ok(state) => assert!(&state == everything, "flip at byte {at}: another database"),
                Err(other) => panic!("flip at byte {at}: {other}"),
            }
        }
    }
}

/// `before` commits, a compaction taken apart, `after` more commits (until
/// every shape is among them), then the last `k` frames tortured, and the
/// snapshot under them.
fn torture(seed: u64, before: usize, after: usize, k: usize, every_snapshot_byte: bool) {
    let mut run = Run::start(&format!("{seed}_{k}"), seed);
    (0..before).for_each(|_| run.commit());
    run.deferring.flush().unwrap();
    run.compact_step_by_step();
    (0..after).for_each(|_| run.commit());
    run.deferring.flush().unwrap();
    run.acks.push((run.log_len(), run.commits()));
    assert!(
        run.acks.len() > k && run.acks.len() < run.commits(),
        "{:?}",
        run.acks
    );
    run.torture_tail(k);
    run.torture_snapshot(every_snapshot_byte);
    let _ = std::fs::remove_dir_all(&run.dir);
}

#[test]
fn every_cut_and_flip_in_the_last_frames_recovers_seed_1() {
    torture(1, 20, 40, 8, false);
}

#[test]
fn every_cut_and_flip_in_the_last_frames_recovers_seed_7919() {
    torture(7919, 20, 40, 8, false);
}

/// The nightly soak: a longer run, a deeper tail, every byte of the snapshot.
#[test]
#[ignore]
fn every_cut_and_flip_in_the_last_frames_recovers_soak() {
    torture(20_091_114, 60, 160, 48, true);
}
