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
