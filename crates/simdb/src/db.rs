//! The database engine: tables, referential integrity, mutation log.
//!
//! `Database` is the single-threaded engine used for WAL replay, snapshot
//! loading, and the property-test oracles. The live, concurrent
//! engine is the per-table sharded catalog in [`crate::shard`]; both run
//! the *same* mutation logic, which lives in [`ops`] and is generic over a
//! [`TableSet`] — "some tables I may read and write, plus the schema-level
//! reverse-FK edges". There are exactly two implementations: `Database`
//! over all its tables, and the live engine's
//! [`crate::shard::BufferedTables`] — every live write, one statement or a
//! transaction — over the write set its ordered mutex acquisition covered
//! plus the pinned versions of that set's FK targets.

use crate::error::DbError;
use crate::query::Query;
use crate::schema::{OnDelete, TableSchema};
use crate::table::{Row, Table};
use crate::value::Value;
use std::collections::BTreeMap;

/// Table access required by the shared mutation engine in [`ops`].
///
/// `table_ref`/`table_mut` resolve tables the current operation is allowed
/// to touch; `referencing_columns` answers the schema-level question "who
/// holds a foreign key into `target`?" (needed to plan delete cascades),
/// which must cover *every* table in the database, not just the write
/// set — FK edges are immutable after DDL, so implementations can serve it
/// from a catalog snapshot without touching any table.
pub(crate) trait TableSet {
    fn table_ref(&self, name: &str) -> Result<&Table, DbError>;
    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError>;
    /// `(referencing table, column index, on_delete)` of every FK column
    /// in the database whose target is `target`.
    fn referencing_columns(&self, target: &str) -> Vec<(String, usize, OnDelete)>;
    /// Bump the table's modification counter — must happen under the same
    /// exclusive access as the data change itself.
    fn bump_version(&mut self, table: &str);
}

/// A committed mutation, as recorded in the write-ahead log. An `Update`
/// carries in `set` the cells that differ from the row it replaced and
/// nothing else: replay applies them over the row the recovered state holds
/// (see [`crate::wal`] for why that is the row the diff was taken against).
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    CreateTable { schema: TableSchema },
    Insert { table: String, id: i64, row: Row },
    Update { table: String, id: i64, set: Cells },
    Delete { table: String, id: i64 },
}

/// Cells of one row, as `(column index, value)` pairs.
pub type Cells = Vec<(usize, Value)>;

/// The in-memory relational engine.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Monotone per-table modification counters, bumped on every committed
    /// insert/update/delete (and at table creation) under the same exclusive
    /// access as the data change itself. Consumers that stamp derived state
    /// (e.g. the portal's response cache) compare these to detect precisely
    /// which tables changed. Runtime-only: rebuilt from zero on load.
    versions: BTreeMap<String, u64>,
    /// Highest WAL sequence number applied per table during recovery.
    /// Runtime-only bookkeeping threaded from the snapshot's per-table
    /// coverage through replay into the sharded catalog, where commits
    /// keep it current and compaction persists it again.
    applied_seqs: BTreeMap<String, u64>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// The database a snapshot file holds: its tables as decoded, indexes
    /// not yet built, and the per-table WAL coverage it recorded (which
    /// replay then refines).
    pub(crate) fn from_snapshot(
        mut tables: BTreeMap<String, Table>,
        applied_seqs: BTreeMap<String, u64>,
    ) -> Result<Database, DbError> {
        for table in tables.values_mut() {
            table.rebuild_indexes()?;
        }
        Ok(Database {
            tables,
            applied_seqs,
            ..Database::default()
        })
    }

    pub fn create_table(&mut self, schema: TableSchema) -> Result<LogOp, DbError> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::Schema(format!(
                "table {} already exists",
                schema.name
            )));
        }
        // FK targets must exist (or be the table itself, for self-reference).
        for c in &schema.columns {
            if let Some(fk) = &c.foreign_key {
                if fk.references != schema.name && !self.tables.contains_key(&fk.references) {
                    return Err(DbError::Schema(format!(
                        "table {}: FK column {} references missing table {}",
                        schema.name, c.name, fk.references
                    )));
                }
            }
        }
        let table = Table::new(schema.clone())?;
        self.tables.insert(schema.name.clone(), table);
        self.bump_version(&schema.name);
        Ok(LogOp::CreateTable { schema })
    }

    /// Current modification counter for `table` (0 for untouched/unknown
    /// tables). Strictly increases with every committed mutation of the
    /// table, atomically with the data change.
    pub fn table_version(&self, table: &str) -> u64 {
        self.versions.get(table).copied().unwrap_or(0)
    }

    fn bump_version(&mut self, table: &str) {
        *self.versions.entry(table.to_string()).or_insert(0) += 1;
    }

    /// Record that `table`'s state includes the effects of WAL record
    /// `seq` (recovery replay; see `applied_seqs`).
    pub(crate) fn note_applied(&mut self, table: &str, seq: u64) {
        let e = self.applied_seqs.entry(table.to_string()).or_insert(0);
        *e = (*e).max(seq);
    }

    pub(crate) fn applied_seq(&self, table: &str) -> Option<u64> {
        self.applied_seqs.get(table).copied()
    }

    /// The highest WAL sequence number any table's state includes.
    pub(crate) fn max_applied_seq(&self) -> Option<u64> {
        self.applied_seqs.values().copied().max()
    }

    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// Build a full row from named values, applying defaults and Null for
    /// omitted columns, and rejecting unknown column names.
    pub fn build_row(&self, table: &str, values: &[(&str, Value)]) -> Result<Row, DbError> {
        ops::build_row(self, table, values)
    }

    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<(i64, LogOp), DbError> {
        ops::insert_row(self, table, row)
    }

    /// Insert from named values (defaults applied).
    pub fn insert(
        &mut self,
        table: &str,
        values: &[(&str, Value)],
    ) -> Result<(i64, LogOp), DbError> {
        ops::insert(self, table, values)
    }

    /// Replace a whole row.
    pub fn update_row(&mut self, table: &str, id: i64, row: Row) -> Result<LogOp, DbError> {
        ops::update_row(self, table, id, row)
    }

    /// Update selected columns of a row.
    pub fn update(
        &mut self,
        table: &str,
        id: i64,
        values: &[(&str, Value)],
    ) -> Result<LogOp, DbError> {
        ops::update(self, table, id, values)
    }

    /// Delete a row, honouring FK `ON DELETE` semantics atomically: the
    /// whole cascade is planned (and `Restrict` violations detected) before
    /// any mutation happens.
    pub fn delete(&mut self, table: &str, id: i64) -> Result<Vec<LogOp>, DbError> {
        ops::delete(self, table, id)
    }

    /// Decompose into table storage, per-table version counters, and
    /// per-table WAL coverage (building the sharded runtime catalog after
    /// recovery).
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        BTreeMap<String, Table>,
        BTreeMap<String, u64>,
        BTreeMap<String, u64>,
    ) {
        (self.tables, self.versions, self.applied_seqs)
    }

    pub fn select(&self, table: &str, query: &Query) -> Result<Vec<(i64, Row)>, DbError> {
        query.execute(self.table(table)?)
    }

    /// Single-column projection of a query: `(id, cell)` pairs without
    /// cloning whole rows (see [`Query::project`]).
    pub fn select_project(
        &self,
        table: &str,
        query: &Query,
        column: &str,
    ) -> Result<Vec<(i64, Value)>, DbError> {
        query.project(self.table(table)?, column)
    }

    pub fn get(&self, table: &str, id: i64) -> Result<Row, DbError> {
        self.table(table)?
            .get(id)
            .cloned()
            .ok_or_else(|| DbError::NoSuchRow {
                table: table.to_string(),
                id,
            })
    }

    /// Planner-driven count: never materializes or clones a row.
    pub fn count(&self, table: &str, query: &Query) -> Result<usize, DbError> {
        query.count(self.table(table)?)
    }

    /// Apply a logged operation (WAL replay path).
    pub fn apply_log_op(&mut self, op: &LogOp) -> Result<(), DbError> {
        match op {
            LogOp::CreateTable { schema } => {
                self.create_table(schema.clone())?;
            }
            LogOp::Insert { table, id, row } => {
                self.table_mut(table)?.insert_with_id(*id, row.clone())?;
                self.bump_version(table);
            }
            LogOp::Update { table, id, set } => {
                let mut row = self.get(table, *id)?;
                for (ci, value) in set {
                    let no_column = || DbError::Corrupt(format!("{table}[{id}]: no column {ci}"));
                    *row.get_mut(*ci).ok_or_else(no_column)? = value.clone();
                }
                self.table_mut(table)?.update(*id, row)?;
                self.bump_version(table);
            }
            LogOp::Delete { table, id } => {
                self.table_mut(table)?.delete(*id)?;
                self.bump_version(table);
            }
        }
        Ok(())
    }
}

impl TableSet for Database {
    fn table_ref(&self, name: &str) -> Result<&Table, DbError> {
        self.table(name)
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        Database::table_mut(self, name)
    }

    fn referencing_columns(&self, target: &str) -> Vec<(String, usize, OnDelete)> {
        let mut out = Vec::new();
        for (name, t) in &self.tables {
            for (ci, c) in t.schema.columns.iter().enumerate() {
                if let Some(fk) = &c.foreign_key {
                    if fk.references == target {
                        out.push((name.clone(), ci, fk.on_delete));
                    }
                }
            }
        }
        out
    }

    fn bump_version(&mut self, table: &str) {
        Database::bump_version(self, table)
    }
}

/// The shared mutation engine: referential integrity, row construction and
/// the cascade planner, generic over [`TableSet`]. The single-threaded
/// [`Database`] and the sharded engine's buffered write sets both route
/// every mutation through these functions, so the two cannot drift.
pub(crate) mod ops {
    use super::*;

    /// Build a full row from named values, applying defaults and Null for
    /// omitted columns, and rejecting unknown column names.
    pub fn build_row<TS: TableSet>(
        ts: &TS,
        table: &str,
        values: &[(&str, Value)],
    ) -> Result<Row, DbError> {
        let t = ts.table_ref(table)?;
        for (name, _) in values {
            if t.schema.column_index(name).is_none() {
                return Err(DbError::NoSuchColumn {
                    table: table.to_string(),
                    column: name.to_string(),
                });
            }
        }
        let row: Row = t
            .schema
            .columns
            .iter()
            .map(|c| {
                values
                    .iter()
                    .find(|(n, _)| *n == c.name)
                    .map(|(_, v)| v.clone())
                    .or_else(|| c.default.clone())
                    .unwrap_or(Value::Null)
            })
            .collect();
        Ok(row)
    }

    /// Check all FK columns of `row` reference existing rows.
    fn check_foreign_keys<TS: TableSet>(ts: &TS, table: &str, row: &Row) -> Result<(), DbError> {
        let t = ts.table_ref(table)?;
        for (col, val) in t.schema.columns.iter().zip(row.iter()) {
            if let (Some(fk), Value::Int(id)) = (&col.foreign_key, val) {
                let target = ts.table_ref(&fk.references)?;
                if target.get(*id).is_none() {
                    return Err(DbError::ForeignKeyViolation {
                        table: table.to_string(),
                        detail: format!(
                            "{}.{} = {} has no match in {}",
                            table, col.name, id, fk.references
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    pub fn insert_row<TS: TableSet>(
        ts: &mut TS,
        table: &str,
        row: Row,
    ) -> Result<(i64, LogOp), DbError> {
        check_foreign_keys(ts, table, &row)?;
        let id = ts.table_mut(table)?.insert(row.clone())?;
        ts.bump_version(table);
        Ok((
            id,
            LogOp::Insert {
                table: table.to_string(),
                id,
                row,
            },
        ))
    }

    pub fn insert<TS: TableSet>(
        ts: &mut TS,
        table: &str,
        values: &[(&str, Value)],
    ) -> Result<(i64, LogOp), DbError> {
        let row = build_row(ts, table, values)?;
        insert_row(ts, table, row)
    }

    pub fn update_row<TS: TableSet>(
        ts: &mut TS,
        table: &str,
        id: i64,
        row: Row,
    ) -> Result<LogOp, DbError> {
        check_foreign_keys(ts, table, &row)?;
        // The log takes the cells that change, not the row (see `LogOp`).
        let old = ts.table_ref(table)?.get(id).map_or(&[][..], |old| &old[..]);
        let set = (old.iter().zip(&row).enumerate())
            .filter(|(_, (was, now))| was != now)
            .map(|(ci, (_, now))| (ci, now.clone()))
            .collect();
        ts.table_mut(table)?.update(id, row)?;
        ts.bump_version(table);
        Ok(LogOp::Update {
            table: table.to_string(),
            id,
            set,
        })
    }

    pub fn update<TS: TableSet>(
        ts: &mut TS,
        table: &str,
        id: i64,
        values: &[(&str, Value)],
    ) -> Result<LogOp, DbError> {
        let t = ts.table_ref(table)?;
        let mut row = t.get(id).cloned().ok_or_else(|| DbError::NoSuchRow {
            table: table.to_string(),
            id,
        })?;
        for (name, v) in values {
            let ci = t
                .schema
                .column_index(name)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: table.to_string(),
                    column: name.to_string(),
                })?;
            row[ci] = v.clone();
        }
        update_row(ts, table, id, row)
    }

    /// Plan the full effect of deleting `(table, id)`: the ordered list of
    /// cascade deletes (leaf-first) and SET NULL updates. Fails on
    /// `Restrict` references without mutating anything.
    fn plan_delete<TS: TableSet>(
        ts: &TS,
        table: &str,
        id: i64,
        deletes: &mut Vec<(String, i64)>,
        set_nulls: &mut Vec<(String, i64, usize)>,
    ) -> Result<(), DbError> {
        if deletes.iter().any(|(t, i)| t == table && *i == id) {
            return Ok(()); // already planned (self-referential cycles)
        }
        deletes.push((table.to_string(), id));
        for (ref_table, ci, on_delete) in ts.referencing_columns(table) {
            let t = ts.table_ref(&ref_table)?;
            let refs: Vec<i64> = match t.find_indexed(ci, &Value::Int(id)) {
                Some(hits) => hits,
                None => t
                    .iter()
                    .filter(|(_, r)| r[ci] == Value::Int(id))
                    .map(|(rid, _)| rid)
                    .collect(),
            };
            for rid in refs {
                match on_delete {
                    OnDelete::Restrict => {
                        return Err(DbError::ForeignKeyViolation {
                            table: table.to_string(),
                            detail: format!(
                                "row {id} is referenced by {ref_table}[{rid}] (RESTRICT)"
                            ),
                        });
                    }
                    OnDelete::Cascade => {
                        plan_delete(ts, &ref_table, rid, deletes, set_nulls)?;
                    }
                    OnDelete::SetNull => {
                        set_nulls.push((ref_table.clone(), rid, ci));
                    }
                }
            }
        }
        Ok(())
    }

    pub fn delete<TS: TableSet>(ts: &mut TS, table: &str, id: i64) -> Result<Vec<LogOp>, DbError> {
        if ts.table_ref(table)?.get(id).is_none() {
            return Err(DbError::NoSuchRow {
                table: table.to_string(),
                id,
            });
        }
        let mut deletes = Vec::new();
        let mut set_nulls = Vec::new();
        plan_delete(ts, table, id, &mut deletes, &mut set_nulls)?;

        let mut log = Vec::new();
        // SET NULLs first so no dangling references appear mid-way; skip
        // rows that are themselves being deleted.
        for (t, rid, ci) in set_nulls {
            if deletes.iter().any(|(dt, di)| *dt == t && *di == rid) {
                continue;
            }
            let mut row = ts.table_ref(&t)?.get(rid).cloned().expect("planned row");
            row[ci] = Value::Null;
            ts.table_mut(&t)?.update(rid, row)?;
            log.push(LogOp::Update {
                table: t,
                id: rid,
                set: vec![(ci, Value::Null)],
            });
        }
        // Delete leaf-first (reverse plan order).
        for (t, rid) in deletes.into_iter().rev() {
            ts.table_mut(&t)?.delete(rid)?;
            log.push(LogOp::Delete { table: t, id: rid });
        }
        for op in &log {
            match op {
                LogOp::Update { table, .. } | LogOp::Delete { table, .. } => ts.bump_version(table),
                _ => {}
            }
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "catalog",
            vec![Column::new("name", ValueType::Text).not_null().unique()],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "star",
            vec![
                Column::new("name", ValueType::Text).not_null().unique(),
                Column::new("catalog_id", ValueType::Int).references("catalog", OnDelete::Cascade),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "sim",
            vec![
                Column::new("star_id", ValueType::Int)
                    .not_null()
                    .references("star", OnDelete::Restrict),
                Column::new("note_id", ValueType::Int).references("catalog", OnDelete::SetNull),
            ],
        ))
        .unwrap();
        db
    }

    #[test]
    fn insert_with_defaults_and_unknown_column() {
        let mut db = db();
        let (id, _) = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        assert_eq!(id, 1);
        assert!(matches!(
            db.insert("catalog", &[("nope", Value::Int(1))]),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn fk_existence_enforced() {
        let mut db = db();
        assert!(matches!(
            db.insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(99))]
            ),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        let (cid, _) = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        assert!(db
            .insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(cid))]
            )
            .is_ok());
    }

    #[test]
    fn delete_cascades_and_sets_null() {
        let mut db = db();
        let (cid, _) = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        let (sid, _) = db
            .insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(cid))],
            )
            .unwrap();
        // sim restricts star delete but not catalog delete
        let (_mid, _) = db
            .insert(
                "sim",
                &[("star_id", Value::Int(sid)), ("note_id", Value::Int(cid))],
            )
            .unwrap();
        // star is referenced with RESTRICT via sim -> cascade from catalog
        // would delete star, which is restricted
        let err = db.delete("catalog", cid);
        assert!(matches!(err, Err(DbError::ForeignKeyViolation { .. })));
        // nothing was mutated by the failed plan
        assert_eq!(db.table("star").unwrap().len(), 1);
        assert_eq!(db.table("sim").unwrap().len(), 1);

        // remove the restricting row, then cascade works and nulls note_id
        let (mid2, _) = db
            .insert(
                "sim",
                &[("star_id", Value::Int(sid)), ("note_id", Value::Int(cid))],
            )
            .unwrap();
        db.delete("sim", mid2).unwrap();
        let sims = db.select("sim", &Query::new()).unwrap();
        db.delete("sim", sims[0].0).unwrap();
        let ops = db.delete("catalog", cid).unwrap();
        assert!(db.table("star").unwrap().is_empty());
        assert!(db.table("catalog").unwrap().is_empty());
        assert!(ops
            .iter()
            .any(|o| matches!(o, LogOp::Delete { table, .. } if table == "star")));
    }

    #[test]
    fn set_null_on_surviving_reference() {
        let mut db = db();
        let (c1, _) = db.insert("catalog", &[("name", "a".into())]).unwrap();
        let (c2, _) = db.insert("catalog", &[("name", "b".into())]).unwrap();
        let (sid, _) = db
            .insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(c2))],
            )
            .unwrap();
        db.insert(
            "sim",
            &[("star_id", Value::Int(sid)), ("note_id", Value::Int(c1))],
        )
        .unwrap();
        db.delete("catalog", c1).unwrap();
        let sims = db.select("sim", &Query::new()).unwrap();
        assert_eq!(sims.len(), 1);
        assert!(sims[0].1[1].is_null());
    }

    #[test]
    fn partial_update() {
        let mut db = db();
        let (cid, _) = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        db.update("catalog", cid, &[("name", "kic".into())])
            .unwrap();
        assert_eq!(db.get("catalog", cid).unwrap()[0], "kic".into());
    }

    #[test]
    fn log_replay_reproduces_state() {
        let mut db = db();
        let mut ops = Vec::new();
        let (cid, op) = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        ops.push(op);
        let (sid, op) = db
            .insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(cid))],
            )
            .unwrap();
        ops.push(op);
        ops.push(db.update("star", sid, &[("name", "HD2".into())]).unwrap());
        ops.extend(db.delete("catalog", cid).unwrap());

        let mut replay = Database::new();
        replay
            .create_table(db.table("catalog").unwrap().schema.clone())
            .unwrap();
        replay
            .create_table(db.table("star").unwrap().schema.clone())
            .unwrap();
        for op in &ops {
            replay.apply_log_op(op).unwrap();
        }
        assert!(replay.table("star").unwrap().is_empty());
        assert!(replay.table("catalog").unwrap().is_empty());
        // id counters advanced identically
        let (nid, _) = replay.insert("catalog", &[("name", "x".into())]).unwrap();
        let (oid, _) = db.insert("catalog", &[("name", "x".into())]).unwrap();
        assert_eq!(nid, oid);
    }

    #[test]
    fn create_table_rejects_missing_fk_target_and_dup() {
        let mut db = Database::new();
        assert!(db
            .create_table(TableSchema::new(
                "a",
                vec![Column::new("x", ValueType::Int).references("nope", OnDelete::Cascade)],
            ))
            .is_err());
        db.create_table(TableSchema::new("a", vec![])).unwrap();
        assert!(db.create_table(TableSchema::new("a", vec![])).is_err());
    }

    #[test]
    fn self_referential_cascade_terminates() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "node",
            vec![Column::new("parent_id", ValueType::Int).references("node", OnDelete::Cascade)],
        ))
        .unwrap();
        let (a, _) = db.insert("node", &[]).unwrap();
        let (b, _) = db.insert("node", &[("parent_id", Value::Int(a))]).unwrap();
        let (_c, _) = db.insert("node", &[("parent_id", Value::Int(b))]).unwrap();
        db.delete("node", a).unwrap();
        assert!(db.table("node").unwrap().is_empty());
    }
}
