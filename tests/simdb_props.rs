//! Property tests for the database substrate, through a `Connection` as
//! the portal and the daemon hold one: constraint invariants hold under
//! arbitrary operation sequences, a reopened database is exactly the one
//! that was dropped, and query pagination tiles the full result set.

mod common;

use amp::simdb::prelude::*;
use proptest::prelude::*;

/// A random mutation against the two-table (parent/child) fixture.
#[derive(Debug, Clone)]
enum Action {
    InsertParent { name: u16 },
    InsertChild { parent_ref: u8, v: i8 },
    DeleteParent { pick: u8 },
    DeleteChild { pick: u8 },
    UpdateChild { pick: u8, v: i8 },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u16..50).prop_map(|name| Action::InsertParent { name }),
        (any::<u8>(), any::<i8>())
            .prop_map(|(parent_ref, v)| Action::InsertChild { parent_ref, v }),
        any::<u8>().prop_map(|pick| Action::DeleteParent { pick }),
        any::<u8>().prop_map(|pick| Action::DeleteChild { pick }),
        (any::<u8>(), any::<i8>()).prop_map(|(pick, v)| Action::UpdateChild { pick, v }),
    ]
}

fn connect(db: Db) -> Connection {
    db.define_role(Role::superuser("admin"));
    db.connect("admin").unwrap()
}

/// The two-table fixture in `db`.
fn fixture_in(db: Db) -> Connection {
    let db = connect(db);
    db.create_table(TableSchema::new(
        "parent",
        vec![Column::new("name", ValueType::Text).not_null().unique()],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "child",
        vec![
            Column::new("parent_id", ValueType::Int)
                .not_null()
                .references("parent", OnDelete::Cascade)
                .indexed(),
            Column::new("v", ValueType::Int),
        ],
    ))
    .unwrap();
    db
}

fn fixture() -> Connection {
    fixture_in(Db::in_memory())
}

fn pick_id(db: &Connection, table: &str, pick: u8) -> Option<i64> {
    let rows = db.select(table, &Query::new()).ok()?;
    if rows.is_empty() {
        None
    } else {
        Some(rows[pick as usize % rows.len()].0)
    }
}

/// Apply `action` where it has a row to act on. A statement the engine
/// refuses (a taken name) leaves nothing behind, which the invariants see.
fn apply(db: &Connection, action: &Action) {
    let _refused = match action {
        Action::InsertParent { name } => db
            .insert("parent", &[("name", format!("p{name}").into())])
            .map(drop),
        Action::InsertChild { parent_ref, v } => match pick_id(db, "parent", *parent_ref) {
            Some(pid) => db
                .insert(
                    "child",
                    &[("parent_id", Value::Int(pid)), ("v", Value::Int(*v as i64))],
                )
                .map(drop),
            None => Ok(()),
        },
        Action::DeleteParent { pick } => match pick_id(db, "parent", *pick) {
            Some(id) => db.delete("parent", id),
            None => Ok(()),
        },
        Action::DeleteChild { pick } => match pick_id(db, "child", *pick) {
            Some(id) => db.delete("child", id),
            None => Ok(()),
        },
        Action::UpdateChild { pick, v } => match pick_id(db, "child", *pick) {
            Some(id) => db.update("child", id, &[("v", Value::Int(*v as i64))]),
            None => Ok(()),
        },
    };
}

fn invariants_hold(db: &Connection) -> Result<(), String> {
    // unique names among parents
    let parents = db
        .select("parent", &Query::new())
        .map_err(|e| e.to_string())?;
    let mut names: Vec<String> = parents
        .iter()
        .map(|(_, r)| r[0].as_text().unwrap().to_string())
        .collect();
    let n = names.len();
    names.sort();
    names.dedup();
    if names.len() != n {
        return Err("duplicate parent names".into());
    }
    // referential integrity: every child's parent exists
    let children = db
        .select("child", &Query::new())
        .map_err(|e| e.to_string())?;
    for (cid, row) in &children {
        let pid = row[0].as_int().unwrap();
        if !parents.iter().any(|(id, _)| id == &pid) {
            return Err(format!("child {cid} dangles to parent {pid}"));
        }
    }
    Ok(())
}

/// A random write against the `ledger` fixture, whose four indexed columns
/// cover what an index must order: a unique text key (drawn from a small
/// pool, so some writes are refused), a low-cardinality status, an integer
/// with NULLs and a float holding both zeros.
#[derive(Debug, Clone)]
enum Write {
    Insert(LedgerRow),
    Update { pick: u8, row: LedgerRow },
    Delete { pick: u8 },
}

#[derive(Debug, Clone)]
struct LedgerRow {
    /// `k0`..`k199`, or NULL from 200 up.
    key: u8,
    status: u8,
    n: Option<i8>,
    x: u8,
}

impl LedgerRow {
    fn cells(&self) -> Row {
        const STATUS: [&str; 4] = ["ACTIVE", "DONE", "HOLD", "QUEUED"];
        const X: [f64; 5] = [-0.0, 0.0, 1.5, -2.25, 1e300];
        vec![
            (self.key < 200).then(|| format!("k{}", self.key)).into(),
            STATUS[self.status as usize % STATUS.len()].into(),
            self.n.map(i64::from).into(),
            X[self.x as usize % X.len()].into(),
        ]
    }
}

fn arb_row() -> impl Strategy<Value = LedgerRow> {
    (
        any::<u8>(),
        any::<u8>(),
        proptest::option::of(-3i8..3),
        any::<u8>(),
    )
        .prop_map(|(key, status, n, x)| LedgerRow { key, status, n, x })
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        arb_row().prop_map(Write::Insert),
        arb_row().prop_map(Write::Insert),
        (any::<u8>(), arb_row()).prop_map(|(pick, row)| Write::Update { pick, row }),
        any::<u8>().prop_map(|pick| Write::Delete { pick }),
    ]
}

/// Apply `write` where it has a row to act on; a refused one (a taken key)
/// leaves nothing behind.
fn write(db: &Connection, write: &Write) {
    let _refused = match write {
        Write::Insert(row) => db.insert_row("ledger", row.cells()).map(drop),
        Write::Update { pick, row } => match pick_id(db, "ledger", *pick) {
            Some(id) => db.update_row("ledger", id, row.cells()),
            None => Ok(()),
        },
        Write::Delete { pick } => match pick_id(db, "ledger", *pick) {
            Some(id) => db.delete("ledger", id),
            None => Ok(()),
        },
    };
}

/// Per indexed column: every entry in index order, then, for every
/// distinct cell the column holds (NULL included), its posting list and
/// unique probe.
type IndexAnswers = Vec<(Vec<i64>, Vec<(Value, Vec<i64>, Option<i64>)>)>;

fn index_answers(db: &Connection) -> IndexAnswers {
    let view = db.read_view(&["ledger"]).unwrap();
    let table = view.table("ledger").unwrap();
    (0..table.schema.columns.len())
        .map(|col| {
            let all = table.indexed_ids(col).unwrap();
            let mut cells: Vec<Value> = table.iter().map(|(_, r)| r[col].clone()).collect();
            cells.sort_by(|a, b| a.total_cmp(b));
            cells.dedup();
            let probes = cells.into_iter().map(|cell| {
                let ids = table.find_indexed(col, &cell).unwrap();
                let first = table.find_unique(col, &cell);
                (cell, ids, first)
            });
            (all, probes.collect())
        })
        .collect()
}

/// A random write against the `owner` / `item` fixture, through each
/// caller of the table's one update path: a whole-row `update_row`, a
/// named-cell `update`, two updates of one row in one transaction (the
/// second finds the row unshared and writes it in place), and the SET NULL
/// a deleted owner leaves in its items.
#[derive(Debug, Clone)]
enum Edit {
    Owner {
        name: u8,
    },
    DropOwner {
        pick: u8,
    },
    Insert(Item),
    Replace {
        pick: u8,
        item: Item,
    },
    Set {
        pick: u8,
        item: Item,
        mask: u8,
    },
    Twice {
        pick: u8,
        first: Item,
        then: Item,
        mask: u8,
    },
    Delete {
        pick: u8,
    },
    Compact,
}

/// An `item` row: a unique key from a small pool (so some writes are
/// refused) or NULL, an indexed status, an indexed nullable count, a note
/// and an owner, each of the last three NULL some of the time.
#[derive(Debug, Clone)]
struct Item {
    key: u8,
    status: u8,
    n: Option<i8>,
    note: Option<u8>,
    owner: Option<u8>,
}

const ITEM_COLUMNS: [&str; 5] = ["key", "status", "n", "note", "owner_id"];

impl Item {
    fn cells(&self, db: &Connection) -> Row {
        const STATUS: [&str; 3] = ["ACTIVE", "DONE", "HOLD"];
        let owner = self.owner.and_then(|pick| pick_id(db, "owner", pick));
        vec![
            (self.key < 40).then(|| format!("k{}", self.key)).into(),
            STATUS[self.status as usize % STATUS.len()].into(),
            self.n.map(i64::from).into(),
            self.note.map(|n| format!("note {}", n % 4)).into(),
            owner.into(),
        ]
    }

    /// The cells `mask` names, by column name (at least one).
    fn named(&self, db: &Connection, mask: u8) -> Vec<(&'static str, Value)> {
        let cells = self.cells(db);
        let keep = |i: usize| mask & (1 << i) != 0 || mask.is_multiple_of(32) && i == 0;
        (ITEM_COLUMNS.into_iter().zip(cells).enumerate())
            .filter(|(i, _)| keep(*i))
            .map(|(_, cell)| cell)
            .collect()
    }
}

fn arb_item() -> impl Strategy<Value = Item> {
    (
        0u8..48,
        any::<u8>(),
        proptest::option::of(-3i8..3),
        proptest::option::of(any::<u8>()),
        proptest::option::of(any::<u8>()),
    )
        .prop_map(|(key, status, n, note, owner)| Item {
            key,
            status,
            n,
            note,
            owner,
        })
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0u8..30).prop_map(|name| Edit::Owner { name }),
        any::<u8>().prop_map(|pick| Edit::DropOwner { pick }),
        arb_item().prop_map(Edit::Insert),
        arb_item().prop_map(Edit::Insert),
        (any::<u8>(), arb_item()).prop_map(|(pick, item)| Edit::Replace { pick, item }),
        (any::<u8>(), arb_item(), any::<u8>()).prop_map(|(pick, item, mask)| Edit::Set {
            pick,
            item,
            mask
        }),
        (any::<u8>(), arb_item(), arb_item(), any::<u8>()).prop_map(|(pick, first, then, mask)| {
            Edit::Twice {
                pick,
                first,
                then,
                mask,
            }
        }),
        any::<u8>().prop_map(|pick| Edit::Delete { pick }),
        Just(Edit::Compact),
    ]
}

/// Apply `edit` where it has a row to act on; a refused write leaves
/// nothing behind.
fn edit(db: &Db, conn: &Connection, edit: &Edit) {
    let item = |pick| pick_id(conn, "item", pick);
    let _refused = match edit {
        Edit::Owner { name } => conn
            .insert("owner", &[("name", format!("o{name}").into())])
            .map(drop),
        Edit::DropOwner { pick } => match pick_id(conn, "owner", *pick) {
            Some(id) => conn.delete("owner", id),
            None => Ok(()),
        },
        Edit::Insert(row) => conn.insert_row("item", row.cells(conn)).map(drop),
        Edit::Replace { pick, item: row } => match item(*pick) {
            Some(id) => conn.update_row("item", id, row.cells(conn)),
            None => Ok(()),
        },
        Edit::Set {
            pick,
            item: row,
            mask,
        } => match item(*pick) {
            Some(id) => conn.update("item", id, &row.named(conn, *mask)),
            None => Ok(()),
        },
        Edit::Twice {
            pick,
            first,
            then,
            mask,
        } => match item(*pick) {
            Some(id) => {
                let (first, then) = (first.cells(conn), then.named(conn, *mask));
                conn.transaction(&["item"], |tx| {
                    tx.update_row("item", id, first)?;
                    tx.update("item", id, &then)
                })
            }
            None => Ok(()),
        },
        Edit::Delete { pick } => match item(*pick) {
            Some(id) => conn.delete("item", id),
            None => Ok(()),
        },
        Edit::Compact => db.compact(),
    };
}

/// Per table: its rows, the id it assigns next, and every index in index
/// order.
type TableState = (Vec<(i64, Row)>, i64, Vec<Option<Vec<i64>>>);

fn table_states(conn: &Connection, names: &[&str]) -> Vec<TableState> {
    let view = conn.read_view(names).unwrap();
    (names.iter())
        .map(|name| {
            let table = view.table(name).unwrap();
            let rows = table.iter().map(|(id, row)| (id, row.to_vec()));
            let indexes = (0..table.schema.columns.len()).map(|col| table.indexed_ids(col));
            (rows.collect(), table.next_id(), indexes.collect())
        })
        .collect()
}

/// The tables of the numbering fixture, in creation order — which is their
/// number, and not name order. `mid` is created only after a checkpoint.
const NUMBERED: [&str; 3] = ["zeta", "alpha", "mid"];

/// A random step against the numbering fixture: a write to the table at
/// `table % tables` (those created so far), or a checkpoint.
#[derive(Debug, Clone)]
enum Step {
    Insert { table: u8, key: u8, n: i8 },
    Set { table: u8, pick: u8, n: i8 },
    Delete { table: u8, pick: u8 },
    Compact,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let insert = || {
        let fields = (any::<u8>(), 0u8..24, any::<i8>());
        fields.prop_map(|(table, key, n)| Step::Insert { table, key, n })
    };
    prop_oneof![
        insert(),
        insert(),
        (any::<u8>(), any::<u8>(), any::<i8>()).prop_map(|(table, pick, n)| Step::Set {
            table,
            pick,
            n
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(table, pick)| Step::Delete { table, pick }),
        Just(Step::Compact),
    ]
}

/// `zeta`, then `alpha`, whose rows point into `zeta` (SET NULL on delete).
fn create_zeta_and_alpha(conn: &Connection) {
    let int = |name| Column::new(name, ValueType::Int);
    let zeta = vec![
        Column::new("key", ValueType::Text).unique(),
        int("n").indexed(),
    ];
    let alpha = vec![
        int("zeta_id")
            .references("zeta", OnDelete::SetNull)
            .indexed(),
        int("n").indexed(),
        Column::new("note", ValueType::Text),
    ];
    conn.create_table(TableSchema::new("zeta", zeta)).unwrap();
    conn.create_table(TableSchema::new("alpha", alpha)).unwrap();
}

/// `mid`, whose rows belong to an `alpha` row (CASCADE on delete).
fn create_mid(conn: &Connection) {
    let int = |name| Column::new(name, ValueType::Int);
    let mid = vec![
        int("alpha_id")
            .not_null()
            .references("alpha", OnDelete::Cascade)
            .indexed(),
        int("n").indexed(),
    ];
    conn.create_table(TableSchema::new("mid", mid)).unwrap();
}

fn step(db: &Db, conn: &Connection, tables: usize, step: &Step) {
    let name = |table: &u8| NUMBERED[*table as usize % tables];
    let _refused = match step {
        Step::Insert { table, key, n } => {
            let (name, n) = (name(table), Value::Int(i64::from(*n)));
            let values = match name {
                "zeta" => vec![("key", format!("k{key}").into()), ("n", n)],
                "alpha" => {
                    let zeta = pick_id(conn, "zeta", *key).into();
                    vec![
                        ("zeta_id", zeta),
                        ("n", n),
                        ("note", format!("{key}").into()),
                    ]
                }
                _ => match pick_id(conn, "alpha", *key) {
                    Some(alpha) => vec![("alpha_id", Value::Int(alpha)), ("n", n)],
                    None => return,
                },
            };
            conn.insert(name, &values).map(drop)
        }
        Step::Set { table, pick, n } => match pick_id(conn, name(table), *pick) {
            Some(id) => conn.update(name(table), id, &[("n", Value::Int(i64::from(*n)))]),
            None => Ok(()),
        },
        Step::Delete { table, pick } => match pick_id(conn, name(table), *pick) {
            Some(id) => conn.delete(name(table), id),
            None => Ok(()),
        },
        Step::Compact => db.compact(),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_survive_random_operations(actions in proptest::collection::vec(arb_action(), 1..120)) {
        let db = fixture();
        for a in &actions {
            apply(&db, a);
            invariants_hold(&db).map_err(TestCaseError::fail)?;
        }
    }

    /// `Db::open` → actions → drop → `Db::open`: the reopened database holds
    /// the rows, under the ids, of an in-memory twin that took the same
    /// actions, and hands out the same ids next (those of deleted rows are
    /// not reused).
    #[test]
    fn wal_replay_reproduces_state(
        actions in proptest::collection::vec(arb_action(), 1..80),
        case in 0u32..1_000_000,
    ) {
        let dir = common::tmpdir(&format!("simdb_props_{case}"));
        let open = || Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
        let twin = fixture();
        let durable = fixture_in(open());
        for a in &actions {
            apply(&twin, a);
            apply(&durable, a);
        }
        drop(durable);
        let reopened = connect(open());
        for table in ["parent", "child"] {
            let a = twin.select(table, &Query::new()).unwrap();
            let b = reopened.select(table, &Query::new()).unwrap();
            prop_assert_eq!(a, b, "table {} diverged", table);
        }
        let fresh_ids = |db: &Connection| {
            let parent = db.insert("parent", &[("name", "fresh".into())]).unwrap();
            let child = db.insert("child", &[("parent_id", Value::Int(parent))]).unwrap();
            (parent, child)
        };
        prop_assert_eq!(fresh_ids(&twin), fresh_ids(&reopened), "id allocation diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random writes, `compact()`, a short tail, reopen: the indexes a
    /// snapshot load builds in bulk (and the tail's replay then maintains)
    /// answer exactly as the live ones maintained write by write did.
    #[test]
    fn bulk_built_indexes_equal_live_maintained_ones(
        head in proptest::collection::vec(arb_write(), 1..1200),
        tail in proptest::collection::vec(arb_write(), 0..20),
        case in 0u32..1_000_000,
    ) {
        let dir = common::tmpdir(&format!("simdb_props_index_{case}"));
        let open = || Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
        let db = open();
        let conn = connect(db.clone());
        conn.create_table(TableSchema::new(
            "ledger",
            vec![
                Column::new("key", ValueType::Text).unique(),
                Column::new("status", ValueType::Text).not_null().indexed(),
                Column::new("n", ValueType::Int).indexed(),
                Column::new("x", ValueType::Float).not_null().indexed(),
            ],
        ))
        .unwrap();
        head.iter().for_each(|w| write(&conn, w));
        db.compact().unwrap();
        tail.iter().for_each(|w| write(&conn, w));
        let live = index_answers(&conn);
        drop((conn, db));
        let reopened = index_answers(&connect(open()));
        prop_assert_eq!(live, reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every caller of the one update path — whole rows, named cells, a
    /// row written twice in one transaction, SET NULL — on a durable
    /// database with checkpoints between the writes; then drop and reopen.
    /// Replay applies each logged update through the same path, in place:
    /// every table's rows, next id and indexes are the live ones.
    #[test]
    fn the_one_update_path_replays_to_the_live_state(
        edits in proptest::collection::vec(arb_edit(), 1..160),
        case in 0u32..1_000_000,
    ) {
        let dir = common::tmpdir(&format!("simdb_props_update_{case}"));
        let open = || Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
        let db = open();
        let conn = connect(db.clone());
        conn.create_table(TableSchema::new(
            "owner",
            vec![Column::new("name", ValueType::Text).not_null().unique()],
        ))
        .unwrap();
        conn.create_table(TableSchema::new(
            "item",
            vec![
                Column::new("key", ValueType::Text).unique(),
                Column::new("status", ValueType::Text).not_null().indexed(),
                Column::new("n", ValueType::Int).indexed(),
                Column::new("note", ValueType::Text).max_length(8),
                Column::new("owner_id", ValueType::Int).references("owner", OnDelete::SetNull),
            ],
        ))
        .unwrap();
        edits.iter().for_each(|e| edit(&db, &conn, e));
        let live = table_states(&conn, &["owner", "item"]);
        drop((conn, db));
        let reopened = table_states(&connect(open()), &["owner", "item"]);
        prop_assert_eq!(live, reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log names a table by its number, creation order, and a snapshot
    /// lists its tables in that order. Tables created out of name order
    /// (`zeta` before `alpha`) and one created after a checkpoint (`mid`),
    /// random writes and checkpoints: a reopen holds every table's rows,
    /// next id and indexes as they were live, and so does a second reopen
    /// after more writes.
    #[test]
    fn table_numbers_survive_checkpoints_and_restarts(
        head in proptest::collection::vec(arb_step(), 0..60),
        tail in proptest::collection::vec(arb_step(), 0..60),
        more in proptest::collection::vec(arb_step(), 0..20),
        case in 0u32..1_000_000,
    ) {
        let dir = common::tmpdir(&format!("simdb_props_numbers_{case}"));
        let open = || Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
        let db = open();
        let conn = connect(db.clone());
        create_zeta_and_alpha(&conn);
        head.iter().for_each(|s| step(&db, &conn, 2, s));
        db.compact().unwrap();
        create_mid(&conn);
        tail.iter().for_each(|s| step(&db, &conn, 3, s));
        let live = table_states(&conn, &NUMBERED);
        drop((conn, db));

        let db = open();
        let conn = connect(db.clone());
        prop_assert_eq!(&table_states(&conn, &NUMBERED), &live, "first reopen");
        more.iter().for_each(|s| step(&db, &conn, 3, s));
        let live = table_states(&conn, &NUMBERED);
        drop((conn, db));
        prop_assert_eq!(table_states(&connect(open()), &NUMBERED), live, "second reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pagination_tiles_results(n_rows in 0usize..60, page in 1usize..12) {
        let db = fixture();
        for i in 0..n_rows {
            db.insert("parent", &[("name", format!("p{i:03}").into())]).unwrap();
        }
        let all = db.select("parent", &Query::new().order_by("name")).unwrap();
        let mut tiled = Vec::new();
        let mut offset = 0;
        loop {
            let chunk = db
                .select("parent", &Query::new().order_by("name").offset(offset).limit(page))
                .unwrap();
            if chunk.is_empty() { break; }
            offset += chunk.len();
            tiled.extend(chunk);
        }
        prop_assert_eq!(all, tiled);
    }

    #[test]
    fn filters_partition_rows(n in 0usize..50, pivot in -50i64..50) {
        let db = fixture();
        db.insert("parent", &[("name", "root".into())]).unwrap();
        for i in 0..n {
            db.insert("child", &[("parent_id", Value::Int(1)), ("v", Value::Int(i as i64 - 25))]).unwrap();
        }
        let lt = db.count("child", &Query::new().filter("v", Op::Lt, Value::Int(pivot))).unwrap();
        let ge = db.count("child", &Query::new().filter("v", Op::Ge, Value::Int(pivot))).unwrap();
        prop_assert_eq!(lt + ge, n);
    }
}
