//! Equivalence oracle for the simdb query planner, plus WAL group-commit
//! crash-replay properties.
//!
//! The planner (`crates/simdb/src/query.rs`) picks among unique probes,
//! secondary-index probes, index-ordered scans, and full scans; range
//! and text filters are tested on the rows of whichever it picks. Whatever
//! plan it picks, the observable results must be byte-identical — ids,
//! row contents, ordering, pagination — to a deliberately naive reference
//! executor that scans everything, filters with its own reimplementation
//! of the predicate semantics, sorts with a full comparator, and slices.
//! Random schemas-worth of data and random queries drive both sides, over
//! one bare `Table`.
//!
//! That oracle's tables hold at most 60 rows. A second one, over 600–760
//! rows, reaches what a count may leave out: filters an index set already
//! answered, range filters tested on the rows beside a probe, a value
//! spread over several index chunks, `In` lists naming a member twice, and
//! `offset`/`limit` at and past the match count — through every count
//! entry point, with `Manager::exists` held to `first`.
//!
//! The WAL properties check the group-commit protocol: a log produced by
//! batched commits (single- or multi-threaded) must have contiguous
//! sequence numbers, and *every frame prefix* of it must open as a
//! consistent database — a crash can truncate the tail but never tear or
//! reorder committed records.

mod common;

use amp::simdb::prelude::*;
use amp::simdb::table::Table;
use amp::simdb::wal::{Wal, WalRecord};
use amp::simdb::{OrderBy, Plan};
use common::tmpdir;
use proptest::prelude::*;
use std::cmp::Ordering;

// ---------------------------------------------------------------------------
// Fixture: one table exercising every index shape the planner knows about.
// ---------------------------------------------------------------------------

const TABLE: &str = "m";
// row layout: u (Int unique not-null -> unique probe), s (Text indexed
// not-null -> secondary probe + index-ordered scan), k (Int indexed
// nullable -> secondary probe with NULL holes), p (Int plain nullable ->
// never index-drivable)
const COLS: [&str; 4] = ["u", "s", "k", "p"];
const COL_S: usize = 1;

fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            Column::new("u", ValueType::Int).not_null().unique(),
            Column::new("s", ValueType::Text).indexed().not_null(),
            Column::new("k", ValueType::Int).indexed(),
            Column::new("p", ValueType::Int),
        ],
    )
}

fn fixture() -> Table {
    Table::new(schema()).unwrap()
}

/// One random row. `u` gets a collision-free value derived from `i`.
fn insert_row(t: &mut Table, i: usize, s: u8, k: Option<i8>, p: Option<i8>) {
    t.insert(vec![
        Value::Int(i as i64 * 3 + 1),
        format!("s{}", s % 5).into(),
        k.map_or(Value::Null, |v| Value::Int(v as i64)),
        p.map_or(Value::Null, |v| Value::Int(v as i64)),
    ])
    .unwrap();
}

// ---------------------------------------------------------------------------
// Random queries
// ---------------------------------------------------------------------------

/// A comparison value that sometimes hits, sometimes misses, sometimes is
/// NULL or the wrong flavour entirely.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-160i64..160).prop_map(Value::Int),
        (0u8..7).prop_map(|s| format!("s{s}").into()),
        // fragments for the text operators: hits, wrong case, the empty needle
        prop_oneof![Just("s"), Just("S"), Just("3"), Just("S1"), Just("")].prop_map(Value::from),
        Just(Value::Null),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::IsNull),
        Just(Op::NotNull),
        Just(Op::Contains),
        Just(Op::IContains),
        Just(Op::StartsWith),
        proptest::collection::vec(arb_value(), 0..4).prop_map(Op::In),
    ]
}

/// Text over ASCII letters of both cases, digits and space, salted with
/// `K` (U+212A), `İ`, `ß` and the three sigmas.
fn arb_mixed_text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    const ALPHABET: [char; 16] = [
        'a', 'A', 'k', 'K', 'i', 'I', 's', 'S', '7', ' ', '\u{212A}', 'İ', 'ß', 'Σ', 'σ', 'ς',
    ];
    proptest::collection::vec(0usize..ALPHABET.len(), len)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A filter on one of `COLS`, or on the primary key (index `COLS.len()`).
fn arb_filter() -> impl Strategy<Value = (usize, Op, Value)> {
    (0usize..=COLS.len(), arb_op(), arb_value())
}

/// The column a filter's index names: `COLS[ci]`, or `"id"` past them.
fn filter_column(ci: usize) -> &'static str {
    COLS.get(ci).copied().unwrap_or("id")
}

fn arb_order() -> impl Strategy<Value = Vec<OrderBy>> {
    proptest::collection::vec(
        (0usize..=COLS.len(), any::<bool>()).prop_map(|(ci, descending)| OrderBy {
            // index == len means "order by primary key"
            column: if ci == COLS.len() {
                "id".into()
            } else {
                COLS[ci].into()
            },
            descending,
        }),
        0..3,
    )
}

#[derive(Debug, Clone)]
struct QSpec {
    filters: Vec<(usize, Op, Value)>,
    order: Vec<OrderBy>,
    offset: usize,
    limit: Option<usize>,
}

fn arb_query() -> impl Strategy<Value = QSpec> {
    (
        proptest::collection::vec(arb_filter(), 0..4),
        arb_order(),
        0usize..25,
        proptest::option::of(0usize..25),
    )
        .prop_map(|(filters, order, offset, limit)| QSpec {
            filters,
            order,
            offset,
            limit,
        })
}

fn build_query(spec: &QSpec) -> Query {
    let mut q = Query::new();
    for (ci, op, v) in &spec.filters {
        q = q.filter(filter_column(*ci), op.clone(), v.clone());
    }
    for o in &spec.order {
        q = if o.descending {
            q.order_by_desc(&o.column)
        } else {
            q.order_by(&o.column)
        };
    }
    q = q.offset(spec.offset);
    if let Some(l) = spec.limit {
        q = q.limit(l);
    }
    q
}

// ---------------------------------------------------------------------------
// Naive reference executor — scan everything, own predicate semantics.
// ---------------------------------------------------------------------------

/// Case-insensitive containment the slow way: lowercase both sides.
fn ref_icontains(cell: &str, needle: &str) -> bool {
    cell.to_lowercase().contains(&needle.to_lowercase())
}

fn ref_matches(op: &Op, rhs: &Value, cell: &Value) -> bool {
    // the text operators match Text against Text and nothing else
    let text = |f: fn(&str, &str) -> bool| match (cell, rhs) {
        (Value::Text(c), Value::Text(n)) => f(c, n),
        _ => false,
    };
    match op {
        Op::IsNull => cell.is_null(),
        Op::NotNull => !cell.is_null(),
        Op::In(vals) => vals.iter().any(|v| v.key_eq(cell)),
        _ if cell.is_null() => false,
        Op::Eq => cell.key_eq(rhs),
        Op::Ne => !cell.key_eq(rhs),
        Op::Lt => cell.total_cmp(rhs).is_lt(),
        Op::Le => cell.total_cmp(rhs).is_le(),
        Op::Gt => cell.total_cmp(rhs).is_gt(),
        Op::Ge => cell.total_cmp(rhs).is_ge(),
        Op::Contains => text(|c, n| c.contains(n)),
        Op::IContains => text(ref_icontains),
        Op::StartsWith => text(|c, n| c.starts_with(n)),
    }
}

fn ref_execute(t: &Table, spec: &QSpec) -> Vec<(i64, Row)> {
    let mut rows: Vec<(i64, Row)> = Query::new()
        .execute(t)
        .unwrap()
        .into_iter()
        .filter(|(id, row)| {
            spec.filters.iter().all(|(ci, op, rhs)| match row.get(*ci) {
                Some(cell) => ref_matches(op, rhs, cell),
                None => ref_matches(op, rhs, &Value::Int(*id)),
            })
        })
        .collect();
    let cmp = |a: &(i64, Row), b: &(i64, Row)| -> Ordering {
        for o in &spec.order {
            let ord = if o.column == "id" {
                a.0.cmp(&b.0)
            } else {
                let ci = COLS.iter().position(|c| *c == o.column).unwrap();
                a.1[ci].total_cmp(&b.1[ci])
            };
            let ord = if o.descending { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        a.0.cmp(&b.0)
    };
    rows.sort_by(cmp);
    let start = spec.offset.min(rows.len());
    let end = spec
        .limit
        .map_or(rows.len(), |l| (start + l).min(rows.len()));
    rows[start..end].to_vec()
}

// ---------------------------------------------------------------------------
// Large tables: what a count may leave out
// ---------------------------------------------------------------------------

/// Row counts of the large oracle. `s` is `s0` on all but every eighth
/// row, so its posting list spans more than one 512-entry index chunk,
/// while every other `s` and `k` posting list is a few dozen ids. A range
/// filter beside either kind of probe is tested on the rows.
const LARGE_ROWS: std::ops::Range<usize> = 600..760;

fn large_row(i: usize, k: Option<i8>, p: Option<i8>) -> Row {
    let s = match i % 8 {
        0 => 1 + i / 8 % 4,
        _ => 0,
    };
    vec![
        Value::Int(i as i64 * 3 + 1),
        format!("s{s}").into(),
        k.map_or(Value::Null, |v| Value::Int(v as i64)),
        p.map_or(Value::Null, |v| Value::Int(v as i64)),
    ]
}

/// The fixture table as a model, for `Manager::exists` and `first`.
#[derive(Debug)]
struct Item {
    id: Option<i64>,
    row: Row,
}

impl Model for Item {
    const TABLE: &'static str = TABLE;

    fn schema() -> TableSchema {
        schema()
    }

    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
        Ok(Item {
            id: Some(id),
            row: row.to_vec(),
        })
    }

    fn to_values(&self) -> Vec<(&'static str, Value)> {
        COLS.into_iter().zip(self.row.iter().cloned()).collect()
    }

    fn id(&self) -> Option<i64> {
        self.id
    }

    fn set_id(&mut self, id: i64) {
        self.id = Some(id);
    }
}

/// Values around the large table's cells: the handful `k` and `p` take,
/// `u`'s range, the `s` labels and one past them, and NULL.
fn arb_large_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..5).prop_map(Value::Int),
        (0i64..2_400).prop_map(Value::Int),
        (0u8..6).prop_map(|s| format!("s{s}").into()),
        Just(Value::Null),
    ]
}

fn arb_large_filter() -> impl Strategy<Value = (usize, Op, Value)> {
    let op = prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::IsNull),
        Just(Op::NotNull),
        // Members sometimes listed twice over.
        (
            proptest::collection::vec(arb_large_value(), 0..4),
            any::<bool>()
        )
            .prop_map(|(mut members, twice)| {
                if twice {
                    members.extend(members.clone());
                }
                Op::In(members)
            }),
    ];
    (0usize..COLS.len(), op, arb_large_value())
}

/// Filter sets the large oracle always asks, each reaching one thing a
/// count may skip: a lone probe (over `s0`'s chunks, an `In` repeating a
/// member, a unique column), a range filter beside a large or a small
/// probe, filters only a row can answer, and no filter at all.
fn fixed_large_filters() -> Vec<Vec<(usize, Op, Value)>> {
    let (u, s, k, p) = (0, 1, 2, 3);
    let text = |v: &str| Value::from(v);
    let members = |vals: Vec<Value>| Op::In(vals);
    vec![
        vec![],
        vec![(s, Op::Eq, text("s0"))],
        vec![(
            s,
            members(vec![text("s0"), text("s1"), text("s0")]),
            Value::Null,
        )],
        vec![(
            k,
            members(vec![
                Value::Int(1),
                Value::Int(1),
                Value::Int(-1),
                Value::Int(9),
            ]),
            Value::Null,
        )],
        vec![(u, Op::Eq, Value::Int(301))],
        vec![(s, Op::Eq, text("s0")), (k, Op::Ge, Value::Int(0))],
        vec![
            (s, Op::Eq, text("s0")),
            (k, Op::Ge, Value::Int(0)),
            (k, Op::Lt, Value::Int(3)),
        ],
        vec![(s, Op::Eq, text("s1")), (k, Op::Ge, Value::Int(0))],
        vec![(s, Op::Eq, text("s2")), (u, Op::Lt, Value::Int(900))],
        vec![(k, Op::Eq, Value::Int(2)), (u, Op::Ge, Value::Int(600))],
        vec![
            (s, members(vec![text("s0"), text("s0")]), Value::Null),
            (p, Op::Eq, Value::Int(1)),
        ],
        vec![(u, Op::Ge, Value::Int(600))],
        vec![(k, Op::Gt, Value::Int(0)), (u, Op::Le, Value::Int(1_500))],
        vec![(s, Op::Ne, text("s0"))],
    ]
}

// ---------------------------------------------------------------------------
// WAL helpers
// ---------------------------------------------------------------------------

/// The database whose log is `wal` (no snapshot), with the fixture's table
/// created if the log does not hold it yet.
fn open(wal: &std::path::Path) -> Connection {
    let db = Db::open(wal.with_extension("snap"), wal).unwrap();
    db.define_role(Role::superuser("admin"));
    let c = db.connect("admin").unwrap();
    if !c.has_table(TABLE) {
        c.create_table(schema()).unwrap();
    }
    c
}

/// Commit a batch of mutations as one transaction: one frame of the log
/// (none when every pick met an empty table). `uniq` survives across
/// batches so re-inserts after deletes never collide on the unique column.
fn mutate(db: &Connection, seeds: &[(u8, i8)], uniq: &mut i64) {
    db.transaction(&[TABLE], |tx| {
        for (kind, v) in seeds {
            let ids: Vec<i64> = tx
                .select(TABLE, &Query::new())?
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let picked = ids.get(*v as usize % ids.len().max(1));
            match (kind % 3, picked) {
                (0, _) => {
                    *uniq += 1;
                    tx.insert(
                        TABLE,
                        &[
                            ("u", Value::Int(*uniq * 3 + 1_000_000)),
                            ("s", format!("s{}", v.rem_euclid(5)).into()),
                            ("k", Value::Int(*v as i64)),
                            ("p", Value::Null),
                        ],
                    )?;
                }
                (1, Some(&id)) => tx.update(TABLE, id, &[("p", Value::Int(*v as i64))])?,
                (2, Some(&id)) => tx.delete(TABLE, id)?,
                _ => {}
            }
        }
        Ok(())
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever plan the planner picks, execute/count/project agree with
    /// the naive reference — ids, row contents, order, and pagination.
    #[test]
    fn planner_matches_reference_executor(
        rows in proptest::collection::vec((0u8..7, proptest::option::of(any::<i8>()), proptest::option::of(any::<i8>())), 0..60),
        specs in proptest::collection::vec(arb_query(), 1..8),
    ) {
        let mut t = fixture();
        for (i, (s, k, p)) in rows.iter().enumerate() {
            insert_row(&mut t, i, *s, *k, *p);
        }
        for spec in &specs {
            let q = build_query(spec);
            let expected = ref_execute(&t, spec);
            let got = q.execute(&t).unwrap();
            let plan = q.explain(&t).unwrap();
            prop_assert_eq!(&got, &expected, "plan {:?} diverged for {:?}", plan, spec);
            prop_assert_eq!(
                q.count(&t).unwrap(),
                expected.len(),
                "count under plan {:?} diverged for {:?}", plan, spec
            );
            let proj = q.project(&t, "s").unwrap();
            let expected_proj: Vec<(i64, Value)> = expected
                .iter()
                .map(|(id, row)| (*id, row[COL_S].clone()))
                .collect();
            prop_assert_eq!(proj, expected_proj, "projection under plan {:?} diverged", plan);
        }
    }

    /// `IContains` over cells and needles that mix ASCII of both cases
    /// with characters whose lowercase is ASCII (`K` U+212A), two chars
    /// (`İ`) or positional (`Σ`): the scan selects exactly the rows that
    /// lowercasing both sides selects. Needles are random, empty, one
    /// character longer than a cell, or a case-flipped slice of a cell
    /// (its first window, its last, or one between).
    #[test]
    fn icontains_scan_matches_lowercasing_both_sides(
        cells in proptest::collection::vec(arb_mixed_text(0..9), 1..24),
        free in arb_mixed_text(0..4),
        (pick, from, len, grow) in (any::<usize>(), 0usize..9, 0usize..9, any::<bool>()),
    ) {
        let mut t = Table::new(TableSchema::new(
            TABLE,
            vec![Column::new("s", ValueType::Text).not_null()],
        ))
        .unwrap();
        for c in &cells {
            t.insert(vec![c.as_str().into()]).unwrap();
        }
        let picked: Vec<char> = cells[pick % cells.len()].chars().collect();
        let from = from.min(picked.len());
        let slice = &picked[from..(from + len).min(picked.len())];
        let flipped: String = slice
            .iter()
            .map(|c| if c.is_ascii_lowercase() { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
            .collect();
        let longer = format!("{}x", picked.iter().collect::<String>());
        for needle in [free.as_str(), flipped.as_str(), if grow { longer.as_str() } else { "" }] {
            let got: Vec<i64> = Query::new()
                .filter("s", Op::IContains, needle)
                .execute(&t)
                .unwrap()
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let expected: Vec<i64> = (1i64..)
                .zip(&cells)
                .filter(|(_, c)| ref_icontains(c, needle))
                .map(|(id, _)| id)
                .collect();
            prop_assert_eq!(got, expected, "needle {:?} over {:?}", needle, cells);
        }
    }

    /// Index-backed plans actually get chosen where expected, and an
    /// unordered query's ids always come back in primary-key order
    /// regardless of which access path produced them.
    #[test]
    fn plans_are_index_backed_and_pk_ordered(
        rows in proptest::collection::vec((0u8..7, proptest::option::of(any::<i8>()), proptest::option::of(any::<i8>())), 1..60),
        pivot in -140i64..140,
    ) {
        let mut t = fixture();
        for (i, (s, k, p)) in rows.iter().enumerate() {
            insert_row(&mut t, i, *s, *k, *p);
        }
        let t = &t;
        prop_assert_eq!(
            Query::new().eq("u", 1).explain(t).unwrap(),
            Plan::UniqueProbe { column: "u".into() }
        );
        // when the probed key set is provably empty the planner is
        // allowed (encouraged) to answer Plan::Empty instead
        let s_hits = rows.iter().filter(|(s, _, _)| s % 5 == 1).count();
        prop_assert_eq!(
            Query::new().eq("s", "s1").explain(t).unwrap(),
            if s_hits > 0 {
                Plan::IndexProbe { columns: vec!["s".into()] }
            } else {
                Plan::Empty
            }
        );
        // A range over an indexed column is tested on the rows: a scan
        // without an order, a probe when an `Eq` beside it has one.
        let range = Query::new().filter("k", Op::Ge, Value::Int(pivot));
        prop_assert_eq!(range.explain(t).unwrap(), Plan::FullScan);
        prop_assert_eq!(
            range.clone().eq("s", "s1").explain(t).unwrap(),
            Query::new().eq("s", "s1").explain(t).unwrap()
        );
        for q in [Query::new().eq("s", "s2"), range] {
            let ids: Vec<i64> = q.execute(t).unwrap().into_iter().map(|(id, _)| id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(ids, sorted);
        }
    }

    /// A filter on the primary key reads what `Connection::get` reads: `Eq`
    /// on an id is that row or nothing (a deleted row, an id never held, a
    /// value of another type), `In` on ids the rows `get` finds, ascending
    /// and once each, and `Manager::project` of an `Eq` exactly its cell.
    #[test]
    fn primary_key_filters_agree_with_connection_get(
        rows in proptest::collection::vec((0u8..7, proptest::option::of(any::<i8>())), 1..40),
        deleted in proptest::collection::vec(any::<usize>(), 0..10),
        lists in proptest::collection::vec(proptest::collection::vec(-2i64..45, 0..6), 1..5),
    ) {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        let conn = db.connect("admin").unwrap();
        conn.create_table(schema()).unwrap();
        for (i, (s, k)) in rows.iter().enumerate() {
            conn.insert(TABLE, &[
                ("u", Value::Int(i as i64 * 3 + 1)),
                ("s", format!("s{}", s % 5).into()),
                ("k", k.map_or(Value::Null, |v| Value::Int(v as i64))),
                ("p", Value::Null),
            ]).unwrap();
        }
        for pick in &deleted {
            let _ = conn.delete(TABLE, (pick % rows.len()) as i64 + 1);
        }
        let items = Manager::<Item>::new(conn.clone());
        let get = |id: i64| conn.get(TABLE, id).ok().map(|row| (id, row));
        for id in -1..rows.len() as i64 + 3 {
            let q = Query::new().eq("id", id);
            let expected: Vec<(i64, Row)> = get(id).into_iter().collect();
            prop_assert_eq!(conn.select(TABLE, &q).unwrap(), expected.clone(), "id {}", id);
            prop_assert_eq!(conn.count(TABLE, &q).unwrap(), expected.len());
            let cell: Vec<(i64, Value)> =
                expected.iter().map(|(id, row)| (*id, row[0].clone())).collect();
            prop_assert_eq!(items.project(&q, "u").unwrap(), cell);
            for other in [Value::from(id.to_string()), Value::Float(id as f64)] {
                prop_assert!(conn.select(TABLE, &Query::new().eq("id", other)).unwrap().is_empty());
            }
        }
        for list in &lists {
            let q = Query::new().filter(
                "id",
                Op::In(list.iter().map(|&id| Value::Int(id)).collect()),
                Value::Null,
            );
            let mut ids = list.clone();
            ids.sort_unstable();
            ids.dedup();
            let expected: Vec<(i64, Row)> = ids.into_iter().filter_map(get).collect();
            prop_assert_eq!(conn.count(TABLE, &q).unwrap(), expected.len());
            prop_assert_eq!(conn.select(TABLE, &q).unwrap(), expected, "ids {:?}", list);
        }
    }

    /// Group-committed WAL: batched commits produce contiguous seqs, and
    /// every frame prefix of the log — one frame for the table, one per
    /// batch — opens as a consistent database, the full prefix being exactly
    /// the live state.
    #[test]
    fn every_wal_prefix_replays_consistently(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<i8>()), 1..9),
            1..10,
        ),
        case in 0u32..1_000_000,
    ) {
        let dir = tmpdir(&format!("prefix_{case}"));
        let wal = dir.join("db.wal");
        let db = open(&wal);
        let mut uniq = 0i64;
        for batch in &batches {
            mutate(&db, batch, &mut uniq);
        }
        let live = db.select(TABLE, &Query::new()).unwrap();
        drop(db);
        let raw = std::fs::read(&wal).unwrap();
        let frames = Wal::read_frames(&wal).unwrap();
        let mut cuts = vec![0, frames.first().map_or(raw.len(), |f| f.offset)];
        cuts.extend(frames.iter().map(|f| f.end));
        prop_assert_eq!(cuts.last(), Some(&raw.len()));
        for (i, &cut) in cuts.iter().enumerate() {
            let pfile = dir.join(format!("prefix_{cut}.wal"));
            std::fs::write(&pfile, &raw[..cut]).unwrap();
            let records = Wal::read_records(&pfile).unwrap();
            // whole commits only: those of the first `i - 1` frames
            let whole: usize = frames.iter().take(i.saturating_sub(1)).map(|f| f.records.len()).sum();
            prop_assert_eq!(records.len(), whole);
            // contiguous seqs from 0: nothing torn, nothing reordered
            for (i, rec) in records.iter().enumerate() {
                prop_assert_eq!(rec.seq, i as u64);
            }
            let replayed = open(&pfile);
            if cut == raw.len() {
                prop_assert_eq!(&live, &replayed.select(TABLE, &Query::new()).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over a table large enough to reach what a count may leave out (the
    /// filters its index sets answered, a lone probe's id list, the rows
    /// past `offset + limit`), every count entry point — the bare table,
    /// a connection, a read view, `Manager::count` — answers the
    /// reference's count at offsets and limits on both sides of the match
    /// count, and `Manager::exists` answers what `first` does.
    #[test]
    fn counts_on_a_large_table_match_the_reference(
        cells in proptest::collection::vec(
            (proptest::option::of(-3i8..4), proptest::option::of(-3i8..4)),
            LARGE_ROWS,
        ),
        random in proptest::collection::vec(proptest::collection::vec(arb_large_filter(), 1..4), 6),
    ) {
        let rows: Vec<Row> = cells
            .iter()
            .enumerate()
            .map(|(i, (k, p))| large_row(i, *k, *p))
            .collect();
        let mut t = fixture();
        for row in &rows {
            t.insert(row.clone()).unwrap();
        }
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        let conn = db.connect("admin").unwrap();
        conn.create_table(schema()).unwrap();
        conn.transaction(&[TABLE], |tx| {
            rows.iter().try_for_each(|row| {
                let named: Vec<_> = COLS.into_iter().zip(row.iter().cloned()).collect();
                tx.insert(TABLE, &named).map(drop)
            })
        })
        .unwrap();
        let view = conn.read_view(&[TABLE]).unwrap();
        let items = Manager::<Item>::new(conn.clone());

        // The cases the oracle is for are reached.
        let s0 = rows.iter().filter(|r| r[COL_S] == Value::from("s0")).count();
        prop_assert!(s0 > 512, "s0's {} entries fit one index chunk", s0);
        let fixed = fixed_large_filters();
        let probed = |filters: &[(usize, Op, Value)]| {
            let spec = QSpec { filters: filters.to_vec(), order: vec![], offset: 0, limit: None };
            match build_query(&spec).explain(&t).unwrap() {
                Plan::IndexProbe { mut columns } => {
                    columns.sort();
                    columns
                }
                plan => panic!("{filters:?} planned as {plan:?}"),
            }
        };
        prop_assert_eq!(probed(&fixed[5]), ["s"], "a range beside s0's probe is tested on the rows");
        prop_assert_eq!(probed(&fixed[7]), ["s"], "a range beside s1's probe is tested on the rows");

        for filters in fixed.into_iter().chain(random) {
            let spec = QSpec { filters, order: vec![], offset: 0, limit: None };
            let all: Vec<i64> = ref_execute(&t, &spec).into_iter().map(|(id, _)| id).collect();
            let m = all.len();
            for offset in [0, 1, m / 2, m.saturating_sub(1), m, m + 1] {
                for limit in [None, Some(0), Some(1), Some(m.saturating_sub(offset)), Some(m + 1)] {
                    let spec = QSpec { offset, limit, ..spec.clone() };
                    let q = build_query(&spec);
                    let expected = m.saturating_sub(offset).min(limit.unwrap_or(usize::MAX));
                    let counts = [
                        q.count(&t).unwrap(),
                        conn.count(TABLE, &q).unwrap(),
                        view.count(TABLE, &q).unwrap(),
                        items.count(&q).unwrap(),
                    ];
                    prop_assert_eq!(
                        counts,
                        [expected; 4],
                        "{:?} under plan {:?}", spec, q.explain(&t).unwrap()
                    );
                    let first = items.first(&q).unwrap().and_then(|item| item.id);
                    prop_assert_eq!(first, all.get(offset).copied(), "first of {:?}", spec);
                    prop_assert_eq!(items.exists(&q).unwrap(), first.is_some(), "exists {:?}", spec);
                }
            }
        }
    }
}

/// Concurrent transactions on one durable database, each committing its
/// inserts as one frame through the group-commit path: all records land,
/// seqs are contiguous, and each transaction's inserts stay adjacent and
/// in order.
#[test]
fn concurrent_group_commit_preserves_batches() {
    let dir = tmpdir("concurrent");
    let path = dir.join("db.wal");
    let db = open(&path); // the table: seq 0
    const THREADS: usize = 8;
    const BATCHES: usize = 20;
    const BATCH: usize = 8;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            s.spawn(move || {
                for b in 0..BATCHES {
                    db.transaction(&[TABLE], |tx| {
                        for i in 0..BATCH {
                            let u = (t * BATCHES * BATCH + b * BATCH + i) as i64;
                            let tag = format!("s{}", i % 5).into();
                            tx.insert(TABLE, &[("u", Value::Int(u)), ("s", tag)])?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let records = Wal::read_records(&path).unwrap();
    assert_eq!(records.len(), 1 + THREADS * BATCHES * BATCH);
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "seq gap at record {i}");
    }
    // A transaction's inserts must be adjacent and in submission order: its
    // `u` values run on from a multiple of the batch size.
    let u = |rec: &WalRecord| match &rec.op {
        LogOp::Insert { row, .. } => row[0].as_int().unwrap(),
        op => panic!("unexpected op {op:?}"),
    };
    for (n, batch) in records[1..].chunks(BATCH).enumerate() {
        let start = u(&batch[0]);
        assert_eq!(start % BATCH as i64, 0, "transaction {n} starts mid-batch");
        let us: Vec<i64> = batch.iter().map(u).collect();
        let expected: Vec<i64> = (start..start + BATCH as i64).collect();
        assert_eq!(us, expected, "transaction {n} torn");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-opening a log written by group commit resumes the sequence exactly
/// where it left off.
#[test]
fn reopened_wal_resumes_sequence() {
    let dir = tmpdir("reopen");
    let path = dir.join("db.wal");
    let mut uniq = 0i64;
    let last_seq = || Wal::read_records(&path).unwrap().last().map(|rec| rec.seq);
    {
        let db = open(&path); // the table: seq 0
        mutate(&db, &[(0, 1), (0, 2), (0, 3)], &mut uniq);
        assert_eq!(last_seq(), Some(3));
    }
    let live = {
        let db = open(&path);
        mutate(&db, &[(0, 4)], &mut uniq);
        assert_eq!(last_seq(), Some(4));
        db.select(TABLE, &Query::new()).unwrap()
    };
    let records = Wal::read_records(&path).unwrap();
    assert!(records.iter().map(|rec| rec.seq).eq(0..5));
    assert_eq!(live.len(), 4);
    assert_eq!(live, open(&path).select(TABLE, &Query::new()).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
