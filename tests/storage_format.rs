//! The on-disk format, pinned: `tests/golden/simdb_format/{snapshot,wal}`
//! are a snapshot and a log that today's code must open, and must write
//! again byte for byte (DESIGN §8.7, §8.8).
//!
//! **How the fixtures were produced.** By [`build`] below, through
//!
//! ```text
//! cargo test --release --test storage_format -- --ignored write_the_fixtures
//! ```
//!
//! which writes both files into `tests/golden/simdb_format/`. The snapshot
//! was rewritten when its header became one watermark (magic
//! `AMPSNP\0\x02`), and again, under the same magic, when a snapshot came
//! to list its tables in table-number order (creation order: `star`, then
//! `obs`) rather than by name: the same bytes, two tables swapped. The log
//! was rewritten in that second run, when a frame's length and sequence
//! number became varints and an op came to name its table by number (magic
//! `AMPLOG\0\x02`). `build` stays part of the suite, so a fixture is never
//! taken on trust: the same calls against today's engine must leave the
//! same bytes. To change a format on purpose, bump that file's magic and
//! rerun `write_the_fixtures`; a file whose format did not move must come
//! out unchanged.
//!
//! What they hold: a snapshot of two tables (`star`, a column of every
//! type and every [`Value`] shape, NULLs included; `obs`, a foreign key into
//! it) holding the first eight log records, and a log of what came after
//! the checkpoint — a four-op transaction over both tables, a
//! `CREATE TABLE`, an insert, and a delete with the delete it cascades to.

mod common;

use std::path::{Path, PathBuf};

use amp::simdb::wal::{encode_frame, Wal, MAGIC, SNAPSHOT_MAGIC};
use amp::simdb::{
    Column, Connection, Db, DbError, LogOp, OnDelete, Query, Role, Row, TableSchema, Value,
    ValueType,
};
use common::tmpdir;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/simdb_format");

fn open(dir: &Path) -> (Db, Connection) {
    let db = Db::open(dir.join("snapshot"), dir.join("wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    (db, admin)
}

fn star_row(name: &str, hd: i64, mag: f64, variable: bool, seen: i64, note: Value) -> Row {
    vec![
        name.into(),
        Value::Int(hd),
        Value::Float(mag),
        Value::Bool(variable),
        Value::Timestamp(seen),
        note,
    ]
}

/// The database the fixtures hold, from nothing: `dir/snapshot`, `dir/wal`.
fn build(dir: &Path) {
    let (db, admin) = open(dir);
    let col = Column::new;
    let star = vec![
        col("name", ValueType::Text).not_null().unique(),
        col("hd", ValueType::Int).indexed(),
        col("mag", ValueType::Float),
        col("variable", ValueType::Bool).default(false),
        col("seen", ValueType::Timestamp),
        col("note", ValueType::Text).max_length(40),
    ];
    let obs = vec![
        col("star_id", ValueType::Int)
            .not_null()
            .references("star", OnDelete::Cascade),
        col("freq", ValueType::Float),
    ];
    admin.create_table(TableSchema::new("star", star)).unwrap();
    admin.create_table(TableSchema::new("obs", obs)).unwrap();
    let stars = [
        star_row("Sun", 0, -26.74, false, 0, Value::Null),
        star_row("α Cen A", 128_620, -0.0, false, -1, "quo\"te\\\n".into()),
        star_row("β Hyi", i64::MAX, 1e300, true, i64::MAX, "".into()),
        star_row(
            "16 Cyg 日本",
            i64::MIN,
            f64::MIN_POSITIVE,
            true,
            64,
            "🌀".into(),
        ),
    ];
    for row in stars {
        admin.insert_row("star", row).unwrap();
    }
    for (star_id, freq) in [(1, Value::Float(3090.0)), (3, Value::Null)] {
        let row = vec![Value::Int(star_id), freq];
        admin.insert_row("obs", row).unwrap();
    }
    db.compact().unwrap();

    admin
        .transaction(&["star", "obs"], |tx| {
            let kic = star_row(
                "KIC 8006161",
                173_701,
                7.36,
                false,
                1_254_000_000,
                Value::Null,
            );
            let id = tx.insert_row("star", kic)?;
            tx.insert_row("obs", vec![Value::Int(id), Value::Float(3574.7)])?;
            tx.update(
                "star",
                2,
                &[("note", Value::Null), ("variable", true.into())],
            )?;
            tx.delete("obs", 1)
        })
        .unwrap();
    let run = vec![
        col("label", ValueType::Text),
        col("score", ValueType::Float),
    ];
    admin.create_table(TableSchema::new("run", run)).unwrap();
    admin
        .insert("run", &[("label", "first".into()), ("score", 0.5.into())])
        .unwrap();
    admin.delete("star", 3).unwrap();
}

fn contents(db: &Db, admin: &Connection) -> Vec<(String, Vec<(i64, Row)>)> {
    let rows = |t: &String| admin.select(t, &Query::new().order_by("id")).unwrap();
    let tables = db.table_names().into_iter();
    tables.map(|t| (t.clone(), rows(&t))).collect()
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(GOLDEN).join(name)).unwrap()
}

/// A directory holding copies of the named fixtures (opening a database
/// may cut its log, so it never opens the originals).
fn copy_of(tag: &str, files: &[&str]) -> PathBuf {
    let dir = tmpdir(tag);
    for name in files {
        std::fs::write(dir.join(name), golden(name)).unwrap();
    }
    dir
}

/// Regenerate the fixtures: run [`build`] in a fresh directory and copy
/// the two files it leaves over `tests/golden/simdb_format/`. Not part of
/// the suite; the module docs say when to run it.
#[test]
#[ignore]
fn write_the_fixtures() {
    let dir = tmpdir("fixtures");
    build(&dir);
    for name in ["snapshot", "wal"] {
        std::fs::copy(dir.join(name), Path::new(GOLDEN).join(name)).unwrap();
    }
}

#[test]
fn todays_engine_writes_the_fixtures_byte_for_byte() {
    let dir = tmpdir("build");
    build(&dir);
    for name in ["snapshot", "wal"] {
        let built = std::fs::read(dir.join(name)).unwrap();
        assert!(built == golden(name), "{name} differs from the fixture");
    }
}

#[test]
fn the_fixtures_open_to_the_database_that_wrote_them() {
    let built = tmpdir("oracle");
    build(&built);
    let (db, admin) = open(&built);
    let expected = contents(&db, &admin);
    let names: Vec<&str> = expected.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(names, ["obs", "run", "star"]);
    let lens: Vec<usize> = expected.iter().map(|(_, rows)| rows.len()).collect();
    assert_eq!(lens, [1, 1, 4]);

    let dir = copy_of("open", &["snapshot", "wal"]);
    let (db, admin) = open(&dir);
    assert_eq!(contents(&db, &admin), expected);
    // Spot checks that do not go through `build`: a float's sign, the
    // update's NULL, the last delete.
    let alpha = admin.get("star", 2).unwrap();
    assert!(alpha[2].as_float().unwrap().is_sign_negative());
    assert_eq!((&alpha[3], &alpha[5]), (&Value::Bool(true), &Value::Null));
    assert!(admin.get("star", 3).is_err());
    assert!(admin.get("obs", 2).is_err(), "the delete's cascade");
    // Numbering continues above the log: the next commit is record 16.
    admin.delete("run", 1).unwrap();
    let records = Wal::read_records(dir.join("wal")).unwrap();
    assert_eq!(records.last().unwrap().seq, 16);
    // The untouched fixture log was not cut or rewritten by the open.
    assert!(std::fs::read(dir.join("wal"))
        .unwrap()
        .starts_with(&golden("wal")));
}

#[test]
fn the_fixture_log_lists_its_commits_and_re_encodes_to_itself() {
    let path = Path::new(GOLDEN).join("wal");
    let frames = Wal::read_frames(&path).unwrap();
    let shape: Vec<_> = (frames.iter())
        .map(|f| (f.offset, f.end, f.records[0].seq, f.records.len()))
        .collect();
    let expected = [
        (8, 76, 8, 4),
        (76, 371, 12, 1),
        (371, 396, 13, 1),
        (396, 408, 14, 2),
    ];
    assert_eq!(shape, expected);
    assert!(matches!(frames[1].records[0].op, LogOp::CreateTable { .. }));
    // `run`, created after `star` (0) and `obs` (1), is table 2.
    assert!(matches!(
        frames[2].records[0].op,
        LogOp::Insert { table: 2, .. }
    ));
    let bytes = golden("wal");
    assert_eq!((MAGIC.len(), bytes.len()), (8, 408));

    let mut rebuilt = MAGIC.to_vec();
    for frame in frames {
        let first_seq = frame.records[0].seq;
        let ops: Vec<LogOp> = frame.records.into_iter().map(|rec| rec.op).collect();
        rebuilt.extend(encode_frame(first_seq, &ops));
    }
    assert!(
        rebuilt == bytes,
        "the re-encoded log differs from the fixture"
    );
}

#[test]
fn a_snapshot_of_the_loaded_fixture_is_the_fixture() {
    // The snapshot alone: what the checkpoint held, before the log's tail.
    let dir = copy_of("resnap", &["snapshot"]);
    let (db, admin) = open(&dir);
    assert_eq!(db.table_names(), ["obs", "star"]);
    assert_eq!(admin.count("star", &Query::new()).unwrap(), 4);
    std::fs::remove_file(dir.join("snapshot")).unwrap();
    db.snapshot().unwrap();
    let rewritten = std::fs::read(dir.join("snapshot")).unwrap();
    assert!(
        rewritten == golden("snapshot"),
        "the rewritten snapshot differs"
    );
}

/// The snapshot's format before its header became one watermark is not
/// read: no reader of it is kept. The fixture under the old magic answers
/// `Corrupt`, and the database stays shut.
#[test]
fn a_snapshot_of_the_previous_format_is_corrupt_and_the_database_stays_shut() {
    assert_eq!(SNAPSHOT_MAGIC, b"AMPSNP\x00\x02");
    let dir = copy_of("v1", &["snapshot", "wal"]);
    let v1 = [&b"AMPSNP\x00\x01"[..], &golden("snapshot")[8..]].concat();
    std::fs::write(dir.join("snapshot"), v1).unwrap();
    for _ in 0..2 {
        let opened = Db::open(dir.join("snapshot"), dir.join("wal"));
        let why = "snapshot byte 0: not a snapshot";
        assert_eq!(opened.err(), Some(DbError::Corrupt(why.into())));
    }
}

/// Nor is the log's format before its frames took varints and its ops table
/// numbers: a log under the old magic answers `Corrupt`, is left as it
/// was, and the database stays shut.
#[test]
fn a_log_of_the_previous_format_is_corrupt_and_the_database_stays_shut() {
    assert_eq!(MAGIC, b"AMPLOG\x00\x02");
    let dir = copy_of("log_v1", &["snapshot", "wal"]);
    let v1 = [&b"AMPLOG\x00\x01"[..], &golden("wal")[8..]].concat();
    std::fs::write(dir.join("wal"), &v1).unwrap();
    for _ in 0..2 {
        let opened = Db::open(dir.join("snapshot"), dir.join("wal"));
        let why = "wal byte 0: not a framed log";
        assert_eq!(opened.err(), Some(DbError::Corrupt(why.into())));
        assert_eq!(std::fs::read(dir.join("wal")).unwrap(), v1);
    }
}
