//! What a write does to the tables: row construction, referential
//! integrity and the cascade planner, and the [`LogOp`] each mutation leaves
//! for the write-ahead log.
//!
//! There is one engine, so this logic has one home: methods on
//! [`BufferedTables`], the writer and buffers every live write — one
//! statement or a transaction — runs against (see [`crate::version`]). A
//! method reads buffer-or-base, mutates the buffer, and returns the ops for
//! the caller to log once the whole write has applied. Recovery does not
//! come through here: it applies logged ops to plain tables
//! ([`crate::wal`]).

use crate::error::DbError;
use crate::schema::{OnDelete, TableSchema};
use crate::table::Row;
use crate::value::Value;
use crate::version::BufferedTables;

/// A committed mutation, as recorded in the write-ahead log. `table` is the
/// table's number: its position in the database's table list, which is
/// creation order (a `CreateTable` takes the next number; DESIGN §8.7). An
/// `Update` carries in `set` the cells that differ from the row it replaced
/// and nothing else: replay applies them over the row the recovered state
/// holds (see [`crate::wal`] for why that is the row the diff was taken
/// against).
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    CreateTable { schema: TableSchema },
    Insert { table: usize, id: i64, row: Row },
    Update { table: usize, id: i64, set: Cells },
    Delete { table: usize, id: i64 },
}

/// Cells of one row, as `(column index, value)` pairs.
pub type Cells = Vec<(usize, Value)>;

impl BufferedTables<'_> {
    /// Build a full row of table number `table` from named values, applying
    /// defaults and Null for omitted columns, and rejecting unknown column
    /// names.
    fn build_row(&self, table: usize, values: &[(&str, Value)]) -> Result<Row, DbError> {
        let t = self.table_at(table);
        for (name, _) in values {
            if t.schema.column_index(name).is_none() {
                return Err(DbError::NoSuchColumn {
                    table: t.schema.name.clone(),
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

    /// Check that the FK cells among `cells` — `(column index, value)` —
    /// of table number `table` reference existing rows.
    fn check_foreign_keys<'v>(
        &self,
        table: usize,
        cells: impl IntoIterator<Item = (usize, &'v Value)>,
    ) -> Result<(), DbError> {
        let t = self.table_at(table);
        for (ci, val) in cells {
            let Some(col) = t.schema.columns.get(ci) else {
                continue; // the table refuses the column
            };
            if let (Some(fk), Value::Int(id)) = (&col.foreign_key, val) {
                let target = self.table_ref(&fk.references)?;
                if target.get(*id).is_none() {
                    let name = &t.schema.name;
                    return Err(DbError::ForeignKeyViolation {
                        table: name.clone(),
                        detail: format!(
                            "{}.{} = {} has no match in {}",
                            name, col.name, id, fk.references
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    pub(crate) fn insert_row(&mut self, table: &str, row: Row) -> Result<(i64, LogOp), DbError> {
        let table = self.position(table)?;
        self.insert_at(table, row)
    }

    /// Insert from named values (defaults applied).
    pub(crate) fn insert(
        &mut self,
        table: &str,
        values: &[(&str, Value)],
    ) -> Result<(i64, LogOp), DbError> {
        let table = self.position(table)?;
        let row = self.build_row(table, values)?;
        self.insert_at(table, row)
    }

    fn insert_at(&mut self, table: usize, row: Row) -> Result<(i64, LogOp), DbError> {
        self.check_foreign_keys(table, row.iter().enumerate())?;
        let id = self.table_mut(table).insert(&row[..])?;
        self.bump_version(table);
        Ok((id, LogOp::Insert { table, id, row }))
    }

    /// Set the cells of `set` that differ from the stored row, through the
    /// table's one update path ([`crate::table::Table::update_cells`]), and
    /// log exactly those (see `LogOp`), in column order. An update that
    /// changes nothing still counts as a write and logs an empty `set`.
    fn update_cells(&mut self, table: usize, id: i64, mut set: Cells) -> Result<LogOp, DbError> {
        let old = self.table_at(table).row(id)?;
        set.retain(|(ci, now)| old.get(*ci) != Some(now));
        set.sort_by_key(|(ci, _)| *ci);
        self.check_foreign_keys(table, set.iter().map(|(ci, v)| (*ci, v)))?;
        self.table_mut(table).update_cells(id, &set)?;
        self.bump_version(table);
        Ok(LogOp::Update { table, id, set })
    }

    /// Replace a whole row.
    pub(crate) fn update_row(&mut self, table: &str, id: i64, row: Row) -> Result<LogOp, DbError> {
        let pos = self.position(table)?;
        let t = self.table_at(pos);
        let arity = t.schema.columns.len();
        t.row(id)?;
        if row.len() != arity {
            return Err(DbError::Schema(format!(
                "table {table}: row arity {} != schema arity {arity}",
                row.len()
            )));
        }
        self.update_cells(pos, id, row.into_iter().enumerate().collect())
    }

    /// Update selected columns of a row. A column named twice takes the
    /// last value given.
    pub(crate) fn update(
        &mut self,
        table: &str,
        id: i64,
        values: &[(&str, Value)],
    ) -> Result<LogOp, DbError> {
        let pos = self.position(table)?;
        let t = self.table_at(pos);
        t.row(id)?;
        let mut set: Cells = Vec::with_capacity(values.len());
        for (name, v) in values {
            let ci = t
                .schema
                .column_index(name)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: table.to_string(),
                    column: name.to_string(),
                })?;
            match set.iter_mut().find(|(c, _)| *c == ci) {
                Some(cell) => cell.1 = v.clone(),
                None => set.push((ci, v.clone())),
            }
        }
        self.update_cells(pos, id, set)
    }

    /// Plan the full effect of deleting row `id` of table number `table`:
    /// the ordered list of cascade deletes (leaf-first) and SET NULL
    /// updates, by table number. Fails on `Restrict` references without
    /// mutating anything.
    fn plan_delete(
        &self,
        table: usize,
        id: i64,
        deletes: &mut Vec<(usize, i64)>,
        set_nulls: &mut Vec<(usize, i64, usize)>,
    ) -> Result<(), DbError> {
        if deletes.contains(&(table, id)) {
            return Ok(()); // already planned (self-referential cycles)
        }
        deletes.push((table, id));
        for &(ref_table, ci, on_delete) in self.referencing_columns(table) {
            let t = self.table_at(ref_table);
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
                            table: self.table_at(table).schema.name.clone(),
                            detail: format!(
                                "row {id} is referenced by {}[{rid}] (RESTRICT)",
                                t.schema.name
                            ),
                        });
                    }
                    OnDelete::Cascade => {
                        self.plan_delete(ref_table, rid, deletes, set_nulls)?;
                    }
                    OnDelete::SetNull => {
                        set_nulls.push((ref_table, rid, ci));
                    }
                }
            }
        }
        Ok(())
    }

    /// Delete a row, honouring FK `ON DELETE` semantics atomically: the
    /// whole cascade is planned (and `Restrict` violations detected) before
    /// any mutation happens.
    pub(crate) fn delete(&mut self, table: &str, id: i64) -> Result<Vec<LogOp>, DbError> {
        let table = self.position(table)?;
        self.table_at(table).row(id)?;
        let mut deletes = Vec::new();
        let mut set_nulls = Vec::new();
        self.plan_delete(table, id, &mut deletes, &mut set_nulls)?;

        let mut log = Vec::new();
        // SET NULLs first so no dangling references appear mid-way; skip
        // rows that are themselves being deleted.
        for (t, rid, ci) in set_nulls {
            if deletes.contains(&(t, rid)) {
                continue;
            }
            let set = vec![(ci, Value::Null)];
            self.table_mut(t).update_cells(rid, &set)?;
            log.push(LogOp::Update {
                table: t,
                id: rid,
                set,
            });
        }
        // Delete leaf-first (reverse plan order).
        for (t, rid) in deletes.into_iter().rev() {
            self.table_mut(t).delete(rid)?;
            log.push(LogOp::Delete { table: t, id: rid });
        }
        for op in &log {
            match op {
                LogOp::Update { table, .. } | LogOp::Delete { table, .. } => {
                    self.bump_version(*table)
                }
                _ => {}
            }
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn connect(schemas: Vec<TableSchema>) -> Connection {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        let c = db.connect("admin").unwrap();
        for schema in schemas {
            c.create_table(schema).unwrap();
        }
        c
    }

    fn db() -> Connection {
        connect(vec![
            TableSchema::new(
                "catalog",
                vec![Column::new("name", ValueType::Text).not_null().unique()],
            ),
            TableSchema::new(
                "star",
                vec![
                    Column::new("name", ValueType::Text).not_null().unique(),
                    Column::new("catalog_id", ValueType::Int)
                        .references("catalog", OnDelete::Cascade),
                ],
            ),
            TableSchema::new(
                "sim",
                vec![
                    Column::new("star_id", ValueType::Int)
                        .not_null()
                        .references("star", OnDelete::Restrict),
                    Column::new("note_id", ValueType::Int).references("catalog", OnDelete::SetNull),
                ],
            ),
        ])
    }

    fn len(db: &Connection, table: &str) -> usize {
        db.count(table, &Query::new()).unwrap()
    }

    #[test]
    fn insert_with_defaults_and_unknown_column() {
        let db = db();
        let id = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        assert_eq!(id, 1);
        // An omitted nullable column is Null.
        let sid = db.insert("star", &[("name", "HD1".into())]).unwrap();
        assert!(db.get("star", sid).unwrap()[1].is_null());
        assert!(matches!(
            db.insert("catalog", &[("nope", Value::Int(1))]),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn fk_existence_enforced() {
        let db = db();
        assert!(matches!(
            db.insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(99))]
            ),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        let cid = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        assert!(db
            .insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(cid))]
            )
            .is_ok());
    }

    #[test]
    fn delete_cascades_and_sets_null() {
        let db = db();
        let cid = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        let sid = db
            .insert(
                "star",
                &[("name", "HD1".into()), ("catalog_id", Value::Int(cid))],
            )
            .unwrap();
        // sim restricts star delete but not catalog delete
        let sim = [("star_id", Value::Int(sid)), ("note_id", Value::Int(cid))];
        db.insert("sim", &sim).unwrap();
        // star is referenced with RESTRICT via sim -> cascade from catalog
        // would delete star, which is restricted
        let err = db.delete("catalog", cid);
        assert!(matches!(err, Err(DbError::ForeignKeyViolation { .. })));
        // nothing was mutated by the failed plan
        assert_eq!((len(&db, "star"), len(&db, "sim")), (1, 1));
        assert_eq!(db.get("sim", 1).unwrap()[1], Value::Int(cid));

        // remove the restricting rows, then cascade works
        let mid2 = db.insert("sim", &sim).unwrap();
        db.delete("sim", mid2).unwrap();
        let sims = db.select("sim", &Query::new()).unwrap();
        db.delete("sim", sims[0].0).unwrap();
        db.delete("catalog", cid).unwrap();
        assert_eq!((len(&db, "star"), len(&db, "catalog")), (0, 0));
    }

    #[test]
    fn set_null_on_surviving_reference() {
        let db = db();
        let c1 = db.insert("catalog", &[("name", "a".into())]).unwrap();
        let c2 = db.insert("catalog", &[("name", "b".into())]).unwrap();
        let sid = db
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
        let db = db();
        let cid = db.insert("catalog", &[("name", "kepler".into())]).unwrap();
        db.update("catalog", cid, &[("name", "kic".into())])
            .unwrap();
        assert_eq!(db.get("catalog", cid).unwrap()[0], "kic".into());
    }

    #[test]
    fn create_table_rejects_missing_fk_target_and_dup() {
        let db = connect(vec![]);
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
        let db = connect(vec![TableSchema::new(
            "node",
            vec![Column::new("parent_id", ValueType::Int).references("node", OnDelete::Cascade)],
        )]);
        let a = db.insert("node", &[]).unwrap();
        let b = db.insert("node", &[("parent_id", Value::Int(a))]).unwrap();
        db.insert("node", &[("parent_id", Value::Int(b))]).unwrap();
        db.delete("node", a).unwrap();
        assert_eq!(len(&db, "node"), 0);
    }
}
