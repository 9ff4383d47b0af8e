//! Introspection utilities for the administrative interface.
//!
//! Django's built-in admin "can manipulate ORM objects ... without custom
//! development" (§4.1). The AMP portal's admin app builds its generic
//! table/row screens on these functions. All of them go through a
//! role-scoped [`Connection`], so the admin surface is still subject to the
//! permission system (AMP ran it only on non-public servers).

use crate::error::DbError;
use crate::query::Query;
use crate::schema::TableSchema;
use crate::table::Row;
use crate::value::{Value, ValueType};
use crate::Connection;

/// Names of all tables, sorted.
pub fn table_names(conn: &Connection) -> Vec<String> {
    conn.db_handle().table_names()
}

/// The stored schema of a table.
pub fn table_schema(conn: &Connection, table: &str) -> Result<TableSchema, DbError> {
    conn.db_handle().table_schema(table)
}

/// Row count without requiring SELECT (admin dashboards show counts even
/// for tables the viewing role cannot read in full).
pub fn table_len(conn: &Connection, table: &str) -> Result<usize, DbError> {
    conn.db_handle().table_len(table)
}

/// A page of rows for the generic change-list screen.
pub fn browse(
    conn: &Connection,
    table: &str,
    offset: usize,
    limit: usize,
) -> Result<Vec<(i64, Row)>, DbError> {
    conn.select(table, &Query::new().offset(offset).limit(limit))
}

/// Parse a user-supplied string into a `Value` for a given column type —
/// the admin form's input path. Strictness here is part of the security
/// story: free text only ever enters the DB as a validated, typed value.
pub fn parse_value(ty: ValueType, raw: &str) -> Result<Value, DbError> {
    let raw = raw.trim();
    if raw.is_empty() || raw.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    let err = |detail: &str| DbError::Schema(format!("cannot parse {raw:?} as {ty}: {detail}"));
    match ty {
        ValueType::Int => raw
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| err(&e.to_string())),
        ValueType::Float => {
            let v: f64 = raw
                .parse()
                .map_err(|e: std::num::ParseFloatError| err(&e.to_string()))?;
            if !v.is_finite() {
                return Err(err("NaN and infinities are not storable"));
            }
            Ok(Value::Float(v))
        }
        ValueType::Bool => match raw.to_ascii_lowercase().as_str() {
            "true" | "1" | "yes" | "on" => Ok(Value::Bool(true)),
            "false" | "0" | "no" | "off" => Ok(Value::Bool(false)),
            _ => Err(err("expected true/false")),
        },
        ValueType::Text => Ok(Value::Text(raw.into())),
        ValueType::Timestamp => raw
            .trim_start_matches('@')
            .parse::<i64>()
            .map(Value::Timestamp)
            .map_err(|e| err(&e.to_string())),
    }
}

/// Generic single-field edit used by the admin change form. `check` sees
/// the row as it stands and may refuse the write: the read and the write
/// are one transaction.
pub fn set_field(
    conn: &Connection,
    table: &str,
    id: i64,
    column: &str,
    raw: &str,
    check: impl FnOnce(&[Value]) -> Result<(), DbError>,
) -> Result<(), DbError> {
    let schema = table_schema(conn, table)?;
    let col = schema.column(column).ok_or_else(|| DbError::NoSuchColumn {
        table: table.to_string(),
        column: column.to_string(),
    })?;
    let value = parse_value(col.ty, raw)?;
    conn.transaction(&[table], |tx| {
        check(&tx.get(table, id)?)?;
        tx.update(table, id, &[(column, value)])
    })
}

/// Dump a whole table as display strings (debugging / fixtures).
pub fn dump_table(conn: &Connection, table: &str) -> Result<String, DbError> {
    let schema = table_schema(conn, table)?;
    let rows = conn.select(table, &Query::new())?;
    let mut out = String::new();
    out.push_str("id");
    for c in &schema.columns {
        out.push('\t');
        out.push_str(&c.name);
    }
    out.push('\n');
    for (id, row) in rows {
        out.push_str(&id.to_string());
        for v in &row {
            out.push('\t');
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    Ok(out)
}

// Admin introspection reads schema metadata (one version pin, no lock),
// not row data; it never returns row contents without a SELECT check
// (browse/dump go through conn.select above).

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::{PermSet, Role};
    use crate::schema::Column;
    use crate::{Db, TableSchema};

    fn setup() -> Db {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        db.define_role(Role::new("web").grant("star", PermSet::READ_ONLY));
        let admin = db.connect("admin").unwrap();
        admin
            .create_table(TableSchema::new(
                "star",
                vec![
                    Column::new("name", ValueType::Text).not_null(),
                    Column::new("mass", ValueType::Float),
                    Column::new("seen", ValueType::Bool).default(false),
                ],
            ))
            .unwrap();
        admin
            .insert(
                "star",
                &[("name", "HD1".into()), ("mass", Value::Float(1.1))],
            )
            .unwrap();
        db
    }

    #[test]
    fn introspection() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        assert_eq!(table_names(&admin), vec!["star".to_string()]);
        assert_eq!(table_len(&admin, "star").unwrap(), 1);
        let schema = table_schema(&admin, "star").unwrap();
        assert_eq!(schema.columns.len(), 3);
    }

    #[test]
    fn parse_value_strictness() {
        assert_eq!(parse_value(ValueType::Int, "42").unwrap(), Value::Int(42));
        assert!(parse_value(ValueType::Int, "4.2").is_err());
        assert!(parse_value(ValueType::Int, "42; DROP TABLE star").is_err());
        assert_eq!(
            parse_value(ValueType::Bool, "Yes").unwrap(),
            Value::Bool(true)
        );
        assert!(parse_value(ValueType::Float, "NaN").is_err());
        assert_eq!(parse_value(ValueType::Text, "  hi ").unwrap(), "hi".into());
        assert_eq!(
            parse_value(ValueType::Timestamp, "@99").unwrap(),
            Value::Timestamp(99)
        );
        assert!(parse_value(ValueType::Int, "").unwrap().is_null());
    }

    #[test]
    fn set_field_roundtrip() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let any = |_: &[Value]| Ok(());
        set_field(&admin, "star", 1, "mass", "2.5", any).unwrap();
        assert_eq!(admin.get("star", 1).unwrap()[1], Value::Float(2.5));
        assert!(set_field(&admin, "star", 1, "mass", "heavy", any).is_err());
        assert!(set_field(&admin, "star", 1, "nope", "1", any).is_err());
        let refuse = |_: &[Value]| Err(DbError::TxnAborted("refused".into()));
        assert!(set_field(&admin, "star", 1, "mass", "3.5", refuse).is_err());
        assert_eq!(admin.get("star", 1).unwrap()[1], Value::Float(2.5));
    }

    #[test]
    fn set_field_respects_role() {
        let db = setup();
        let web = db.connect("web").unwrap();
        assert!(set_field(&web, "star", 1, "mass", "2.5", |_| Ok(())).is_err());
    }

    #[test]
    fn dump_table_format() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let dump = dump_table(&admin, "star").unwrap();
        assert!(dump.starts_with("id\tname\tmass\tseen\n"));
        assert!(dump.contains("HD1"));
    }

    #[test]
    fn browse_pagination() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        for i in 0..10 {
            admin
                .insert("star", &[("name", format!("S{i}").into())])
                .unwrap();
        }
        let page = browse(&admin, "star", 5, 3).unwrap();
        assert_eq!(page.len(), 3);
    }

    #[test]
    fn action_export_is_reexported() {
        // keep Action in the public surface for downstream permission UIs
        let _ = crate::Action::Select.name();
    }
}
