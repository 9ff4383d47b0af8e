//! A Django-flavoured object-relational layer.
//!
//! The paper (§4) describes being won over by Django's ORM: models define
//! the schema ("perfect table/field/type correspondence"), the schema can be
//! "reconstructed on demand" for test databases, and the same models work
//! from the website *and* from standalone programs (the GridAMP daemon).
//! [`Model`] + [`Manager`] + [`Registry`] reproduce exactly that workflow.

use crate::error::DbError;
use crate::query::Query;
use crate::schema::TableSchema;
use crate::value::Value;
use crate::{Connection, ReadView};
use std::marker::PhantomData;

/// A struct that maps to a table. Implementations live beside the business
/// types (see `amp-core`); the trait is deliberately mechanical so writing
/// one reads like a Django model definition.
pub trait Model: Sized {
    /// Table name.
    const TABLE: &'static str;

    /// Declarative schema — the single source of truth for the table.
    fn schema() -> TableSchema;

    /// Hydrate from a row's cells.
    fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError>;

    /// Dehydrate to named column values (omitting the primary key).
    fn to_values(&self) -> Vec<(&'static str, Value)>;

    /// Primary key, if the instance has been saved.
    fn id(&self) -> Option<i64>;

    /// Record the assigned primary key after a create.
    fn set_id(&mut self, id: i64);
}

/// Read a named column out of a row using the model's schema. Helper for
/// `Model::from_row` implementations.
pub fn row_value<'r, M: Model>(row: &'r [Value], column: &str) -> Result<&'r Value, DbError> {
    let schema = M::schema();
    let idx = schema
        .column_index(column)
        .ok_or_else(|| DbError::NoSuchColumn {
            table: M::TABLE.to_string(),
            column: column.to_string(),
        })?;
    row.get(idx)
        .ok_or_else(|| DbError::Schema(format!("row for {} shorter than schema", M::TABLE)))
}

/// Typed access to one model's table over a role-scoped connection —
/// the analogue of Django's `Model.objects`.
pub struct Manager<M: Model> {
    conn: Connection,
    _model: PhantomData<M>,
}

impl<M: Model> Manager<M> {
    pub fn new(conn: Connection) -> Self {
        Manager {
            conn,
            _model: PhantomData,
        }
    }

    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    /// Insert a new instance; assigns and records its id. A foreign key is
    /// checked against the parent table's *published* version: one that
    /// points at a row of another connection's still-uncommitted
    /// transaction fails with a foreign-key violation instead of waiting
    /// for that transaction.
    pub fn create(&self, m: &mut M) -> Result<i64, DbError> {
        let values = m.to_values();
        let id = self.conn.insert(M::TABLE, &values)?;
        m.set_id(id);
        Ok(id)
    }

    /// Persist changes to an already-created instance.
    pub fn save(&self, m: &M) -> Result<(), DbError> {
        let id = m
            .id()
            .ok_or_else(|| DbError::Schema(format!("cannot save unsaved {} instance", M::TABLE)))?;
        self.conn.update(M::TABLE, id, &m.to_values())
    }

    pub fn get(&self, id: i64) -> Result<M, DbError> {
        let row = self.conn.get(M::TABLE, id)?;
        M::from_row(id, &row)
    }

    pub fn filter(&self, query: &Query) -> Result<Vec<M>, DbError> {
        self.conn
            .select(M::TABLE, query)?
            .into_iter()
            .map(|(id, row)| M::from_row(id, &row))
            .collect()
    }

    /// Single-column projection: `(id, cell)` pairs of the matching rows,
    /// skipping the full row clone + model decode of [`Self::filter`]
    /// (pass `"id"` to list primary keys alone). For hot worklist scans
    /// that only need to know *which* rows to visit.
    pub fn project(&self, query: &Query, column: &str) -> Result<Vec<(i64, Value)>, DbError> {
        self.conn.select_project(M::TABLE, query, column)
    }

    /// Primary keys of the matching rows, in query order. The cheapest
    /// way to build a worklist: no row clones, no model decode, and the
    /// planner can satisfy indexable filters without touching row data.
    pub fn ids(&self, query: &Query) -> Result<Vec<i64>, DbError> {
        Ok(self
            .project(query, "id")?
            .into_iter()
            .map(|(id, _)| id)
            .collect())
    }

    pub fn first(&self, query: &Query) -> Result<Option<M>, DbError> {
        let mut q = query.clone();
        q.limit = Some(1);
        Ok(self.filter(&q)?.into_iter().next())
    }

    pub fn all(&self) -> Result<Vec<M>, DbError> {
        self.filter(&Query::new())
    }

    pub fn count(&self, query: &Query) -> Result<usize, DbError> {
        self.conn.count(M::TABLE, query)
    }

    pub fn exists(&self, query: &Query) -> Result<bool, DbError> {
        let mut q = query.clone();
        q.limit = Some(1);
        Ok(self.count(&q)? > 0)
    }

    pub fn delete(&self, id: i64) -> Result<(), DbError> {
        self.conn.delete(M::TABLE, id)
    }
}

/// Typed reads against a pinned multi-table snapshot
/// ([`Connection::read_view`]) — the model-level face of the coherent
/// read-view API. Where a [`Manager`] pins the latest version per call, a
/// view's reads all observe the same instant, so a page render (or daemon
/// worklist) that decodes several related models can never see table A
/// after a transaction and table B before it.
impl ReadView {
    /// All matching instances of `M`, decoded from the pinned snapshot.
    pub fn filter<M: Model>(&self, query: &Query) -> Result<Vec<M>, DbError> {
        self.select(M::TABLE, query)?
            .into_iter()
            .map(|(id, row)| M::from_row(id, &row))
            .collect()
    }

    /// Primary keys of the matching rows (no row clones, no decode) — the
    /// worklist-builder companion to [`Manager::ids`].
    pub fn ids<M: Model>(&self, query: &Query) -> Result<Vec<i64>, DbError> {
        Ok(self
            .select_project(M::TABLE, query, "id")?
            .into_iter()
            .map(|(id, _)| id)
            .collect())
    }
}

/// A set of model schemas that can be materialized as tables — Django's
/// `migrate` / `syncdb`. Registration order matters when models reference
/// each other (FK targets must be registered first).
#[derive(Default)]
pub struct Registry {
    schemas: Vec<TableSchema>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn register<M: Model>(mut self) -> Self {
        self.schemas.push(M::schema());
        self
    }

    pub fn register_schema(mut self, schema: TableSchema) -> Self {
        self.schemas.push(schema);
        self
    }

    pub fn schemas(&self) -> &[TableSchema] {
        &self.schemas
    }

    /// Create missing tables and verify existing ones match their declared
    /// schema exactly (the paper's "perfect table/field/type
    /// correspondence"). Returns the names of tables created.
    pub fn migrate(&self, conn: &Connection) -> Result<Vec<String>, DbError> {
        let mut created = Vec::new();
        for schema in &self.schemas {
            if conn.has_table(&schema.name) {
                self.verify_one(conn, schema)?;
            } else {
                conn.create_table(schema.clone())?;
                created.push(schema.name.clone());
            }
        }
        Ok(created)
    }

    fn verify_one(&self, conn: &Connection, schema: &TableSchema) -> Result<(), DbError> {
        // Introspect via a zero-row select: we need the stored schema, which
        // only the engine has; go through the Db raw access in admin.
        // Simpler: compare against admin::table_schema.
        let existing = crate::admin::table_schema(conn, &schema.name)?;
        if &existing != schema {
            return Err(DbError::Schema(format!(
                "schema drift on table {}: stored definition differs from model",
                schema.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::{PermSet, Role};
    use crate::schema::Column;
    use crate::value::ValueType;
    use crate::{Db, Query};

    #[derive(Debug, Clone, PartialEq)]
    struct Star {
        id: Option<i64>,
        name: String,
        mass: f64,
    }

    impl Model for Star {
        const TABLE: &'static str = "star";

        fn schema() -> TableSchema {
            TableSchema::new(
                "star",
                vec![
                    Column::new("name", ValueType::Text).not_null().unique(),
                    Column::new("mass", ValueType::Float).not_null(),
                ],
            )
        }

        fn from_row(id: i64, row: &[Value]) -> Result<Self, DbError> {
            Ok(Star {
                id: Some(id),
                name: row_value::<Self>(row, "name")?
                    .as_text()
                    .unwrap_or_default()
                    .to_string(),
                mass: row_value::<Self>(row, "mass")?.as_float().unwrap_or(0.0),
            })
        }

        fn to_values(&self) -> Vec<(&'static str, Value)> {
            vec![
                ("name", self.name.clone().into()),
                ("mass", self.mass.into()),
            ]
        }

        fn id(&self) -> Option<i64> {
            self.id
        }

        fn set_id(&mut self, id: i64) {
            self.id = Some(id);
        }
    }

    fn setup() -> Db {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        db.define_role(Role::new("web").grant("star", PermSet::ALL));
        let admin = db.connect("admin").unwrap();
        Registry::new().register::<Star>().migrate(&admin).unwrap();
        db
    }

    #[test]
    fn create_get_roundtrip() {
        let db = setup();
        let m = Manager::<Star>::new(db.connect("web").unwrap());
        let mut s = Star {
            id: None,
            name: "HD 52265".into(),
            mass: 1.2,
        };
        let id = m.create(&mut s).unwrap();
        assert_eq!(s.id, Some(id));
        let loaded = m.get(id).unwrap();
        assert_eq!(loaded, s);
    }

    #[test]
    fn save_updates() {
        let db = setup();
        let m = Manager::<Star>::new(db.connect("web").unwrap());
        let mut s = Star {
            id: None,
            name: "HD 1".into(),
            mass: 1.0,
        };
        m.create(&mut s).unwrap();
        s.mass = 2.0;
        m.save(&s).unwrap();
        assert_eq!(m.get(s.id.unwrap()).unwrap().mass, 2.0);
    }

    #[test]
    fn save_unsaved_is_error() {
        let db = setup();
        let m = Manager::<Star>::new(db.connect("web").unwrap());
        let s = Star {
            id: None,
            name: "X".into(),
            mass: 1.0,
        };
        assert!(m.save(&s).is_err());
    }

    #[test]
    fn filter_first_count_exists() {
        let db = setup();
        let m = Manager::<Star>::new(db.connect("web").unwrap());
        for (n, mass) in [("A", 0.8), ("B", 1.2), ("C", 1.5)] {
            m.create(&mut Star {
                id: None,
                name: n.into(),
                mass,
            })
            .unwrap();
        }
        let q = Query::new().filter("mass", crate::Op::Gt, Value::Float(1.0));
        assert_eq!(m.count(&q).unwrap(), 2);
        assert!(m.exists(&q).unwrap());
        let first = m
            .first(&Query::new().order_by_desc("mass"))
            .unwrap()
            .unwrap();
        assert_eq!(first.name, "C");
        assert_eq!(m.all().unwrap().len(), 3);
    }

    #[test]
    fn migrate_is_idempotent_and_detects_drift() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        // idempotent: second migrate creates nothing
        let created = Registry::new().register::<Star>().migrate(&admin).unwrap();
        assert!(created.is_empty());
        // drift: a different schema under the same name errors
        let drifted = Registry::new().register_schema(TableSchema::new(
            "star",
            vec![Column::new("name", ValueType::Text)],
        ));
        assert!(drifted.migrate(&admin).is_err());
    }

    #[test]
    fn manager_respects_role() {
        let db = setup();
        db.define_role(Role::new("ro").grant("star", PermSet::READ_ONLY));
        let m = Manager::<Star>::new(db.connect("ro").unwrap());
        assert!(m
            .create(&mut Star {
                id: None,
                name: "X".into(),
                mass: 1.0
            })
            .is_err());
        assert!(m.all().is_ok());
    }
}
