//! Table schemas: columns, constraints, and foreign keys.
//!
//! Mirrors the subset of the Django ORM's schema machinery that AMP used:
//! typed columns, `NOT NULL`, `UNIQUE`, length-bounded text, defaults, and
//! foreign keys with `ON DELETE` behaviour. The paper (§4) stresses "direct
//! and explicit control of the database schema" — schemas here are explicit
//! values, inspectable and diffable, and the ORM layer generates them from
//! model definitions with "perfect table/field/type correspondence".

use crate::error::DbError;
use crate::value::{Value, ValueType};
use serde::{Deserialize, Serialize};

/// What happens to referencing rows when a referenced row is deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OnDelete {
    /// Refuse the delete while references exist.
    Restrict,
    /// Delete referencing rows too (recursively).
    Cascade,
    /// Null out the referencing column (requires the column be nullable).
    SetNull,
}

/// A foreign-key constraint on a column. The referenced column is always the
/// target table's implicit `id` primary key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    pub references: String,
    pub on_delete: OnDelete,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub ty: ValueType,
    pub not_null: bool,
    pub unique: bool,
    /// Maximum length for `Text` columns (like Django's `max_length`).
    pub max_length: Option<usize>,
    /// Applied when an insert omits the column.
    pub default: Option<Value>,
    pub foreign_key: Option<ForeignKey>,
    /// Maintain a secondary (non-unique) index on this column.
    pub indexed: bool,
}

impl Column {
    pub fn new(name: &str, ty: ValueType) -> Self {
        Column {
            name: name.to_string(),
            ty,
            not_null: false,
            unique: false,
            max_length: None,
            default: None,
            foreign_key: None,
            indexed: false,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    pub fn max_length(mut self, n: usize) -> Self {
        self.max_length = Some(n);
        self
    }

    pub fn default(mut self, v: impl Into<Value>) -> Self {
        self.default = Some(v.into());
        self
    }

    pub fn references(mut self, table: &str, on_delete: OnDelete) -> Self {
        self.foreign_key = Some(ForeignKey {
            references: table.to_string(),
            on_delete,
        });
        self
    }

    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }

    /// Whether tables keep an index over this column: unique, indexed and
    /// foreign-key columns get one.
    pub(crate) fn has_index(&self) -> bool {
        self.unique || self.indexed || self.foreign_key.is_some()
    }

    /// Validate a candidate cell value against this column's constraints
    /// (type, nullability, text length). Uniqueness and FK existence are
    /// table/database-level checks.
    pub fn check_value(&self, table: &str, v: &Value) -> Result<(), DbError> {
        if v.is_null() {
            if self.not_null {
                return Err(DbError::NotNullViolation {
                    table: table.to_string(),
                    column: self.name.clone(),
                });
            }
            return Ok(());
        }
        if !v.conforms_to(self.ty) {
            return Err(DbError::TypeMismatch {
                table: table.to_string(),
                column: self.name.clone(),
                expected: self.ty,
                got: v.clone(),
            });
        }
        if let (Some(max), Value::Text(s)) = (self.max_length, v) {
            if s.chars().count() > max {
                return Err(DbError::LengthViolation {
                    table: table.to_string(),
                    column: self.name.clone(),
                    max,
                    got: s.chars().count(),
                });
            }
        }
        Ok(())
    }
}

/// A table schema. Every table has an implicit auto-increment `id` primary
/// key (as in Django); `columns` lists the remaining columns in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
}

impl TableSchema {
    pub fn new(name: &str, columns: Vec<Column>) -> Self {
        TableSchema {
            name: name.to_string(),
            columns,
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Validate a candidate row's arity and per-column constraints (see
    /// [`Column::check_value`]); uniqueness is the table's check.
    pub(crate) fn check_cells(&self, row: &[Value]) -> Result<(), DbError> {
        if row.len() != self.columns.len() {
            return Err(DbError::Schema(format!(
                "table {}: row arity {} != schema arity {}",
                self.name,
                row.len(),
                self.columns.len()
            )));
        }
        for (col, val) in self.columns.iter().zip(row) {
            col.check_value(&self.name, val)?;
        }
        Ok(())
    }

    /// Validate internal consistency: unique column names, FK targets that
    /// use `SetNull` must be nullable, sensible defaults.
    pub fn validate(&self) -> Result<(), DbError> {
        for (i, c) in self.columns.iter().enumerate() {
            if c.name == "id" {
                return Err(DbError::Schema(format!(
                    "table {}: column name 'id' is reserved for the primary key",
                    self.name
                )));
            }
            if self.columns[i + 1..].iter().any(|o| o.name == c.name) {
                return Err(DbError::Schema(format!(
                    "table {}: duplicate column {}",
                    self.name, c.name
                )));
            }
            if let Some(fk) = &c.foreign_key {
                if c.ty != ValueType::Int {
                    return Err(DbError::Schema(format!(
                        "table {}: FK column {} must be Int",
                        self.name, c.name
                    )));
                }
                if fk.on_delete == OnDelete::SetNull && c.not_null {
                    return Err(DbError::Schema(format!(
                        "table {}: FK column {} is NOT NULL but ON DELETE SET NULL",
                        self.name, c.name
                    )));
                }
            }
            if let Some(d) = &c.default {
                c.check_value(&self.name, d)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> TableSchema {
        TableSchema::new(
            "star",
            vec![
                Column::new("name", ValueType::Text)
                    .not_null()
                    .max_length(8),
                Column::new("mass", ValueType::Float),
                Column::new("catalog_id", ValueType::Int).references("catalog", OnDelete::Cascade),
            ],
        )
    }

    #[test]
    fn column_lookup() {
        let s = demo_schema();
        assert_eq!(s.column_index("mass"), Some(1));
        assert!(s.column("nope").is_none());
    }

    #[test]
    fn value_checks() {
        let s = demo_schema();
        let name = s.column("name").unwrap();
        assert!(name.check_value("star", &Value::Text("ok".into())).is_ok());
        assert!(name.check_value("star", &Value::Null).is_err());
        assert!(name.check_value("star", &Value::Int(3)).is_err());
        assert!(name
            .check_value("star", &Value::Text("waytoolongname".into()))
            .is_err());
        let mass = s.column("mass").unwrap();
        assert!(mass.check_value("star", &Value::Null).is_ok());
    }

    #[test]
    fn schema_validation_catches_duplicates_and_reserved() {
        let dup = TableSchema::new(
            "t",
            vec![
                Column::new("a", ValueType::Int),
                Column::new("a", ValueType::Int),
            ],
        );
        assert!(dup.validate().is_err());
        let reserved = TableSchema::new("t", vec![Column::new("id", ValueType::Int)]);
        assert!(reserved.validate().is_err());
    }

    #[test]
    fn fk_set_null_requires_nullable() {
        let bad = TableSchema::new(
            "t",
            vec![Column::new("r", ValueType::Int)
                .not_null()
                .references("o", OnDelete::SetNull)],
        );
        assert!(bad.validate().is_err());
        let good = TableSchema::new(
            "t",
            vec![Column::new("r", ValueType::Int).references("o", OnDelete::SetNull)],
        );
        assert!(good.validate().is_ok());
    }

    #[test]
    fn fk_must_be_int() {
        let bad = TableSchema::new(
            "t",
            vec![Column::new("r", ValueType::Text).references("o", OnDelete::Cascade)],
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn bad_default_rejected() {
        let bad = TableSchema::new("t", vec![Column::new("a", ValueType::Int).default("text")]);
        assert!(bad.validate().is_err());
    }
}
