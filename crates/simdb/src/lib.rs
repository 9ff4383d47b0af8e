//! # amp-simdb — the AMP gateway's central database
//!
//! An embedded, typed, relational database with a Django-style ORM, built as
//! the substrate for the AMP science gateway reproduction (Woitaszek et al.,
//! GCE 2009). In the paper, *all* communication between the public web
//! portal and the GridAMP workflow daemon happens asynchronously through a
//! central SQL database with strict type constraints and per-role table
//! permissions — that database is this crate.
//!
//! Layering:
//!
//! * [`value`] / [`schema`] — typed cells, columns, constraints, FKs;
//! * [`table`] — copy-on-write row storage and one ordered index per
//!   indexed column;
//! * `version` — the engine: the published version of the whole
//!   database, the one writer and its buffers;
//! * [`db`] — what a write does to those buffers (defaults, foreign keys,
//!   cascades) and the [`LogOp`]s it leaves;
//! * [`query`] — Django-queryset-flavoured filters/ordering/slicing;
//! * [`perm`] — role-based table grants (`web`, `daemon`, `admin`);
//! * [`wal`] — durability: framed binary commit log + snapshots, and the
//!   recovery that rebuilds the engine's tables from them;
//! * [`orm`] — model trait, managers, migrations (the Django ORM analogue);
//! * [`admin`] — schema/row introspection for the admin interface.
//!
//! # Concurrency model
//!
//! The engine publishes one immutable version of the whole database, and
//! readers take **no locks at all**: a read pins that version with a
//! couple of atomic operations, so the portal's worker threads reading
//! `star` never wait on anyone — not even the daemon writing `star`. Every
//! write — a statement, a transaction or a `create_table` — takes the same
//! path: the database's one writer mutex; mutations into copy-on-write
//! buffers over the published version; and at commit one atomic install of
//! the next version, sharing every table the write did not touch. A
//! rolled-back write simply drops its buffers. With one writer there is no
//! lock order to keep and nothing to deadlock on (see `version`).
//!
//! Multi-table consistency is explicit:
//!
//! * [`Connection::read_view`] pins a coherent snapshot of several tables
//!   — one pin of the whole version, so a multi-table transaction is seen
//!   entirely or not at all. Page renders, daemon worklists, and cache
//!   version stamps read multi-table state without tearing, and without
//!   blocking any writer;
//! * [`Connection::transaction`] declares the tables it writes up front,
//!   holds the writer for its closure, and publishes-or-rolls-back. Its
//!   closure writes only through its [`Txn`]: a [`Connection`] write from
//!   inside it waits for the writer the closure holds, for ever.
//!
//! Entry point: build a [`Db`], define roles, [`Db::connect`] per component.
//!
//! ```
//! use amp_simdb::prelude::*;
//!
//! let db = Db::in_memory();
//! db.define_role(Role::superuser("admin"));
//! db.define_role(Role::new("web").grant("star", PermSet::READ_ONLY));
//!
//! let admin = db.connect("admin").unwrap();
//! admin.create_table(TableSchema::new(
//!     "star",
//!     vec![Column::new("name", ValueType::Text).not_null().unique()],
//! )).unwrap();
//! admin.insert("star", &[("name", "HD 52265".into())]).unwrap();
//!
//! let web = db.connect("web").unwrap();
//! assert_eq!(web.count("star", &Query::new()).unwrap(), 1);
//! assert!(web.delete("star", 1).is_err()); // read-only role
//! ```

#![deny(unsafe_code)]

pub mod admin;
pub mod db;
pub mod error;
pub(crate) mod obs;
pub mod orm;
pub mod perm;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;
pub(crate) mod version;
pub mod wal;

pub use crate::db::LogOp;
pub use crate::error::DbError;
pub use crate::perm::{Action, PermSet, Role};
pub use crate::query::{Filter, Op, OrderBy, Plan, Query};
pub use crate::schema::{Column, ForeignKey, OnDelete, TableSchema};
pub use crate::table::Row;
pub use crate::value::{Value, ValueType};

/// Everything a typical consumer needs.
pub mod prelude {
    pub use crate::db::LogOp;
    pub use crate::error::DbError;
    pub use crate::orm::{Manager, Model, Registry};
    pub use crate::perm::{Action, PermSet, Role};
    pub use crate::query::{Filter, Op, Query};
    pub use crate::schema::{Column, OnDelete, TableSchema};
    pub use crate::table::Row;
    pub use crate::value::{Value, ValueType};
    pub use crate::{Connection, Db, ReadView};
}

use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shared state behind a [`Db`] handle.
struct DbShared {
    /// The published version of every table, and the one writer mutex.
    slot: version::Slot,
    /// Roles are resolved once per [`Db::connect`] and shared by `Arc` —
    /// connections never re-enter this lock on the per-operation path.
    roles: RwLock<HashMap<String, Arc<Role>>>,
    wal: Option<wal::Wal>,
    snapshot_path: Option<PathBuf>,
    /// One checkpoint at a time: [`Db::compact`] holds it from the cut's
    /// pin to the end of the log cut. Two at once would share the
    /// temporary files they rename from, and an older cut's snapshot could
    /// land after a newer cut had trimmed the log.
    checkpoint: std::sync::Mutex<()>,
}

/// A thread-safe database handle. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Db {
    shared: Arc<DbShared>,
}

impl Db {
    fn new(
        first: version::DbVersion,
        wal: Option<wal::Wal>,
        snapshot_path: Option<PathBuf>,
    ) -> Self {
        Db {
            shared: Arc::new(DbShared {
                slot: version::Slot::new(first),
                roles: RwLock::new(HashMap::new()),
                wal,
                snapshot_path,
                checkpoint: std::sync::Mutex::new(()),
            }),
        }
    }

    /// A purely in-memory database (no WAL, no snapshots).
    pub fn in_memory() -> Self {
        Self::new(version::DbVersion::empty(), None, None)
    }

    /// Open a durable database: recover from `snapshot` + `wal` if they
    /// exist, and append future mutations to `wal`.
    pub fn open(
        snapshot: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> Result<Self, DbError> {
        let snapshot = snapshot.into();
        let wal_path = wal_path.into();
        // Recovery builds plain tables, which move (not copy) into the
        // first published version under the watermark replay reached. The
        // log numbers on from it: it is the snapshot's watermark or the
        // log's last record, whichever is higher.
        let (tables, applied_seq) = wal::recover_with_last_seq(&snapshot, &wal_path)?;
        let first = version::DbVersion::from_recovered(tables, applied_seq);
        let wal = wal::Wal::open_at(&wal_path, applied_seq.map_or(0, |seq| seq + 1))?;
        Ok(Self::new(first, Some(wal), Some(snapshot)))
    }

    /// Register (or replace) a role.
    pub fn define_role(&self, role: Role) {
        self.shared
            .roles
            .write()
            .insert(role.name.clone(), Arc::new(role));
    }

    /// Open a connection acting as `role`. The role is resolved once, here;
    /// the connection (and its clones) share it via `Arc` instead of
    /// re-reading the roles table per operation.
    pub fn connect(&self, role: &str) -> Result<Connection, DbError> {
        let roles = self.shared.roles.read();
        let role = roles
            .get(role)
            .cloned()
            .ok_or_else(|| DbError::Schema(format!("role {role} is not defined")))?;
        Ok(Connection {
            db: self.clone(),
            role,
            deferred: false,
        })
    }

    /// Compact durability state: write a snapshot of a pinned consistent
    /// cut, then drop every WAL record at or below the cut's watermark.
    /// Recovery afterwards reads the snapshot plus the surviving suffix —
    /// keeping restart time bounded on long-lived gateways.
    ///
    /// Fully non-blocking for both readers *and* writers: the cut is one
    /// pin of the published version, and the encoder streams its immutable
    /// tables to the file chunk by chunk in table-number order, so no lock
    /// they take is held across the file I/O (the seed engine stalled the
    /// whole gateway behind an exclusive lock here). Writers racing the
    /// compaction keep appending; their records have sequence numbers
    /// above the watermark and survive the truncation untouched (see
    /// `wal::Wal::truncate_keeping`). A second compaction waits for this
    /// one to finish.
    ///
    /// `simdb_checkpoint_seconds{stage=pin|encode_write|truncate}` say where
    /// its time went, `simdb_snapshot_bytes` what it wrote.
    pub fn compact(&self) -> Result<(), DbError> {
        let shared = &*self.shared;
        let (Some(wal), Some(path)) = (&shared.wal, &shared.snapshot_path) else {
            return Err(DbError::Io("no WAL configured".into()));
        };
        let _one = self.checkpoint_lock();
        let metrics = obs::metrics();
        let mut since = Instant::now();
        let cut = shared.slot.pin();
        metrics.checkpoint_pin.lap(&mut since);
        let tables = cut.tables().map(|version| &version.table);
        let bytes = wal::Snapshot::write(tables, cut.applied_seq, path, wal.fsync())?;
        metrics.snapshot_bytes.set(bytes as i64);
        metrics.checkpoint_encode_write.lap(&mut since);
        let watermark = cut.applied_seq;
        drop(cut);
        wal.truncate_keeping(watermark)?;
        metrics.checkpoint_truncate.lap(&mut since);
        Ok(())
    }

    /// Durability policy: when `on`, every log flush ends in `fdatasync`
    /// (group commit shares one across the batch the leader drains), so a
    /// commit that has returned on a waiting connection — or been followed
    /// by [`Connection::flush`] on a deferring one — survives power loss
    /// rather than just process death; and a snapshot or log rewrite syncs
    /// its temporary file before the rename and the directory after it.
    /// Off by default — the historical behavior. No-op on an in-memory
    /// database.
    pub fn set_fsync(&self, on: bool) {
        if let Some(wal) = &self.shared.wal {
            wal.set_fsync(on);
        }
    }

    /// The checkpoint lock. It guards no data, only the files a checkpoint
    /// writes, so a checkpoint that panicked leaves nothing to repair.
    fn checkpoint_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        let lock = self.shared.checkpoint.lock();
        lock.unwrap_or_else(|e| e.into_inner())
    }

    /// Current modification counter for `table`. Monotone; bumped
    /// atomically with every committed mutation of the table. Unknown
    /// tables report 0. Lock-free: one version pin.
    pub fn table_version(&self, table: &str) -> u64 {
        self.shared.slot.pin().get(table).map_or(0, |v| v.version)
    }

    /// Read several tables' modification counters at one consistent point:
    /// one pin of the published version — no lock taken, no writer
    /// blocked. Unknown tables report 0, as in [`Self::table_version`].
    pub fn table_versions(&self, tables: &[&str]) -> Vec<u64> {
        let cut = self.shared.slot.pin();
        let version = |t| cut.get(t).map_or(0, |v| v.version);
        tables.iter().map(|t| version(t)).collect()
    }

    /// Names of all tables, sorted (lock-free: one version pin).
    pub fn table_names(&self) -> Vec<String> {
        let cut = self.shared.slot.pin();
        let mut names: Vec<String> = cut.tables().map(|v| v.table.schema.name.clone()).collect();
        names.sort_unstable();
        names
    }

    /// The stored schema of a table (lock-free: one version pin).
    pub fn table_schema(&self, table: &str) -> Result<TableSchema, DbError> {
        Ok(self.shared.slot.pin().get(table)?.table.schema.clone())
    }

    /// Row count of a table (lock-free: one version pin).
    pub fn table_len(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.shared.slot.pin().get(table)?.table.len())
    }

    /// Claim WAL sequence numbers for `ops` and buffer them. Must be
    /// called while the writer mutex is still held and before the ops are
    /// published, so WAL order matches apply order.
    fn enqueue_wal(&self, ops: &[LogOp]) -> Result<Option<u64>, DbError> {
        match &self.shared.wal {
            Some(w) => w.enqueue(ops),
            None => Ok(None),
        }
    }

    /// Make everything up to `last` durable (group commit). Called after
    /// the writer is released for single ops — the flush batches with the
    /// commits of the writers that queued behind it.
    fn sync_wal(&self, last: Option<u64>) -> Result<(), DbError> {
        match (&self.shared.wal, last) {
            (Some(w), Some(last)) => w.sync_to(last),
            _ => Ok(()),
        }
    }
}

/// A role-scoped connection. All operations are permission-checked against
/// the connection's role and (when the [`Db`] is durable) WAL-logged.
///
/// A connection either **waits** (the default: a commit returns once its
/// records are flushed) or **defers** ([`Self::deferred`]: a commit is
/// logged and published at once, and [`Self::flush`] is the caller's
/// durability point). The log is one ordered buffer that any flush drains
/// whole, so what is durable is always a prefix of commit order, whichever
/// mix of connections wrote it.
#[derive(Clone)]
pub struct Connection {
    db: Db,
    role: Arc<Role>,
    /// Commits on this handle (and its clones) wait for no flush.
    deferred: bool,
}

impl Connection {
    /// This connection, deferring: every commit is logged and published
    /// before it returns but waits for no flush, so a crash may lose a
    /// suffix of them — back to the last flush by *any* connection. For a
    /// caller with a natural commit point of its own that can re-derive
    /// what it wrote since (the workflow daemon: its tick). Clones inherit
    /// the choice.
    pub fn deferred(self) -> Self {
        Connection {
            deferred: true,
            ..self
        }
    }

    /// Make every commit logged so far — by this or any other connection —
    /// durable: one group-commit flush, or none when the log is already
    /// durable. On a waiting connection there is never anything left to do.
    pub fn flush(&self) -> Result<(), DbError> {
        let logged = self.db.shared.wal.as_ref().and_then(wal::Wal::last_seq);
        self.db.sync_wal(logged)
    }

    /// The end of a commit: wait for the flush covering `last`, unless
    /// this connection defers.
    fn sync_wal(&self, last: Option<u64>) -> Result<(), DbError> {
        if self.deferred {
            return Ok(());
        }
        self.db.sync_wal(last)
    }

    pub(crate) fn db_handle(&self) -> &Db {
        &self.db
    }

    /// DDL: create a table (superuser only, mirroring AMP where only the
    /// migration/admin path may alter schema). A writer like any other: it
    /// claims its WAL sequence under the writer mutex, so the `CreateTable`
    /// record always precedes the first insert into the new table, then
    /// publishes, lets the writer go and flushes.
    pub fn create_table(&self, schema: TableSchema) -> Result<(), DbError> {
        if !self.role.superuser {
            return Err(DbError::PermissionDenied {
                role: self.role.name.clone(),
                table: schema.name.clone(),
                action: "CREATE TABLE",
            });
        }
        let writer = self.db.shared.slot.write();
        let last =
            writer.create_table(schema, |op| self.db.enqueue_wal(std::slice::from_ref(op)))?;
        self.sync_wal(last)
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.db.shared.slot.pin().get(name).is_ok()
    }

    /// One single-statement write: take the writer, apply to its buffers,
    /// claim WAL sequence numbers *under the writer* (so WAL order matches
    /// apply order), publish the next version and let the writer go, then
    /// group-commit the flush (unless this connection defers it) — so
    /// writers queued behind it share an fsync. A failed `apply` returns
    /// with the buffers dropped: nothing was published and nothing is left
    /// behind.
    fn run_write<T>(
        &self,
        apply: impl FnOnce(&mut version::BufferedTables<'_>) -> Result<(T, Vec<LogOp>), DbError>,
    ) -> Result<T, DbError> {
        let mut set = version::BufferedTables::new(self.db.shared.slot.write());
        let (out, ops) = apply(&mut set)?;
        let last = self.db.enqueue_wal(&ops)?;
        set.commit(last);
        self.sync_wal(last)?;
        Ok(out)
    }

    /// One single-table read against the table's published version.
    /// Lock-free: pin, read, drop — no writer is blocked and no lock-wait
    /// metric is touched.
    fn run_read<T>(
        &self,
        table: &str,
        read: impl FnOnce(&table::Table) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        read(&self.db.shared.slot.pin().get(table)?.table)
    }

    pub fn insert(&self, table: &str, values: &[(&str, Value)]) -> Result<i64, DbError> {
        self.role.check(table, Action::Insert)?;
        self.run_write(|set| {
            let (id, op) = set.insert(table, values)?;
            Ok((id, vec![op]))
        })
    }

    pub fn update(&self, table: &str, id: i64, values: &[(&str, Value)]) -> Result<(), DbError> {
        self.role.check(table, Action::Update)?;
        self.run_write(|set| {
            let op = set.update(table, id, values)?;
            Ok(((), vec![op]))
        })
    }

    /// Delete a row. Referential actions (cascades, SET NULL) execute with
    /// definer rights, as in SQL — only the named table needs the grant.
    pub fn delete(&self, table: &str, id: i64) -> Result<(), DbError> {
        self.role.check(table, Action::Delete)?;
        self.run_write(|set| {
            let ops = set.delete(table, id)?;
            Ok(((), ops))
        })
    }

    pub fn select(&self, table: &str, query: &Query) -> Result<Vec<(i64, Row)>, DbError> {
        self.role.check(table, Action::Select)?;
        self.run_read(table, |t| query.execute(t))
    }

    /// Single-column projection of a query (see [`Query::project`]).
    pub fn select_project(
        &self,
        table: &str,
        query: &Query,
        column: &str,
    ) -> Result<Vec<(i64, Value)>, DbError> {
        self.role.check(table, Action::Select)?;
        self.run_read(table, |t| query.project(t, column))
    }

    pub fn get(&self, table: &str, id: i64) -> Result<Row, DbError> {
        self.role.check(table, Action::Select)?;
        self.run_read(table, |t| t.row(id).map(<[Value]>::to_vec))
    }

    pub fn count(&self, table: &str, query: &Query) -> Result<usize, DbError> {
        self.role.check(table, Action::Select)?;
        self.run_read(table, |t| query.count(t))
    }

    /// Modification counter for `table` — cache-invalidation metadata, not
    /// row data, so no table grant is required.
    pub fn table_version(&self, table: &str) -> u64 {
        self.db.table_version(table)
    }

    /// Several tables' counters read at one consistent point.
    pub fn table_versions(&self, tables: &[&str]) -> Vec<u64> {
        self.db.table_versions(tables)
    }

    /// Pin a coherent snapshot of several tables: one pin of the published
    /// version, so a multi-table transaction is observed entirely or not at
    /// all. Every read (and [`ReadView::versions`] stamp) through the view
    /// observes the same instant. Naming a table that does not exist is
    /// `NoSuchTable`.
    ///
    /// The view takes **no locks**: it never blocks writers (or anything
    /// else), and holding one indefinitely costs only the memory of the
    /// superseded versions it keeps alive (observable as the
    /// `simdb_table_live_versions` gauge).
    pub fn read_view(&self, tables: &[&str]) -> Result<ReadView, DbError> {
        let version = self.db.shared.slot.pin();
        let tables = tables.iter().map(|t| version.position(t));
        Ok(ReadView {
            tables: tables.collect::<Result<_, _>>()?,
            version,
            role: Arc::clone(&self.role),
        })
    }

    /// Run several mutations atomically over a declared table set: either
    /// every operation commits (WAL-logged as one batch) or none do.
    ///
    /// `tables` declares what the transaction writes: an insert, update or
    /// delete in `f` naming another table is an error, and rolls the
    /// transaction back. Reads inside `f`, and the cascades of a delete,
    /// may reach any table. The transaction holds the database's one
    /// writer from before `f` runs until it has published, so readers see
    /// none of its intermediate state and no other write interleaves.
    ///
    /// Mutations accumulate in the same **delta write-buffer**
    /// (`version::BufferedTables`) a single statement uses, layered over
    /// the version published when the transaction began: reads inside `f`
    /// see buffer-or-base, commit publishes the buffers as the next
    /// version, and rollback — on `f`'s error or a durability failure —
    /// just drops the buffers; nothing shared was ever touched, so there is
    /// no journal to restore.
    pub fn transaction<T>(
        &self,
        tables: &[&str],
        f: impl FnOnce(&mut Txn<'_>) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let set = version::BufferedTables::new(self.db.shared.slot.write());
        for t in tables {
            set.table_ref(t)?; // an unknown table is NoSuchTable
        }
        let mut txn = Txn {
            set,
            tables,
            role: &self.role,
            ops: Vec::new(),
        };
        let out = f(&mut txn)?; // on error the buffers drop with `txn`: rollback
        let Txn { set, ops, .. } = txn;
        // Enqueue *and* flush while the writer is held: if durability
        // fails, `set` drops unpublished — no reader (and no later writer)
        // ever sees the aborted state. Publication happens only after the
        // batch is durable. (A deferring connection has no flush to wait
        // for: it publishes after the enqueue, as a single statement does.)
        let last = self.db.enqueue_wal(&ops)?;
        self.sync_wal(last)?;
        set.commit(last);
        Ok(out)
    }

    /// Compare-and-swap one row: atomically verify that row `id` of
    /// `table` still matches every `(column, value)` pair in `expect`,
    /// and only then apply `set`. Returns `Ok(true)` when the swap
    /// committed, `Ok(false)` when the row is gone or any expected value
    /// no longer matches (somebody else won the race).
    ///
    /// This is the linearization primitive for optimistic coordination
    /// rows — e.g. the daemon lease table, where concurrent claimers race
    /// on `(daemon_id, epoch)` and exactly one CAS per epoch can succeed.
    /// The check and the update run inside one
    /// [`Connection::transaction`], i.e. under the writer mutex, so no
    /// writer can interleave between them.
    pub fn compare_and_swap(
        &self,
        table: &str,
        id: i64,
        expect: &[(&str, Value)],
        set: &[(&str, Value)],
    ) -> Result<bool, DbError> {
        self.transaction(&[table], |tx| {
            let mut q = Query::new();
            for (column, value) in expect {
                q = q.filter(column, Op::Eq, value.clone());
            }
            let matched = tx.select(table, &q)?.iter().any(|(rid, _)| *rid == id);
            if !matched {
                return Ok(false);
            }
            tx.update(table, id, set)?;
            Ok(true)
        })
    }
}

/// A coherent multi-table snapshot (see [`Connection::read_view`]): one
/// pinned immutable version — it holds no lock and blocks nobody. Reads are
/// permission-checked per table against the connection's role, and reach
/// only the tables the view named; version stamps are cache metadata and
/// need no grant.
pub struct ReadView {
    version: Arc<version::DbVersion>,
    /// Positions of the named tables in `version`, in requested order.
    tables: Vec<usize>,
    role: Arc<Role>,
}

impl ReadView {
    /// The pinned table itself, read-only: for what a query does not
    /// phrase, such as an index's contents
    /// ([`Table::indexed_ids`](table::Table::indexed_ids)).
    pub fn table(&self, name: &str) -> Result<&table::Table, DbError> {
        self.role.check(name, Action::Select)?;
        let mut named = self.tables.iter().map(|&pos| &self.version.at(pos).table);
        named
            .find(|t| t.schema.name == name)
            .ok_or_else(|| DbError::Schema(format!("table {name} is not part of this read view")))
    }

    pub fn select(&self, table: &str, query: &Query) -> Result<Vec<(i64, Row)>, DbError> {
        query.execute(self.table(table)?)
    }

    /// Single-column projection of a query (see [`Query::project`]).
    pub fn select_project(
        &self,
        table: &str,
        query: &Query,
        column: &str,
    ) -> Result<Vec<(i64, Value)>, DbError> {
        query.project(self.table(table)?, column)
    }

    pub fn get(&self, table: &str, id: i64) -> Result<Row, DbError> {
        self.table(table)?.row(id).map(<[Value]>::to_vec)
    }

    pub fn count(&self, table: &str, query: &Query) -> Result<usize, DbError> {
        query.count(self.table(table)?)
    }

    /// Version stamps of the viewed tables, in the order they were passed
    /// to [`Connection::read_view`]. Taken from the pinned snapshot, so
    /// the stamp is exactly as old as every row read through the view —
    /// the invariant the portal's response cache relies on.
    pub fn versions(&self) -> Vec<u64> {
        let version = |&pos| self.version.at(pos).version;
        self.tables.iter().map(version).collect()
    }

    /// The viewed table names, in requested order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        let name = |&pos| self.version.at(pos).table.schema.name.as_str();
        self.tables.iter().map(name)
    }
}

/// In-flight transaction handle. Mutations accumulate in the transaction's
/// delta write-buffer (`version::BufferedTables`); reads see
/// buffer-or-base. Rollback drops the buffers — nothing is shared until
/// commit publishes them.
pub struct Txn<'a> {
    set: version::BufferedTables<'a>,
    /// The declared table list: the tables this transaction may write.
    tables: &'a [&'a str],
    role: &'a Role,
    ops: Vec<LogOp>,
}

impl Txn<'_> {
    /// The role may do `action` on `table`, and the transaction declared it.
    fn check(&self, table: &str, action: Action) -> Result<(), DbError> {
        self.role.check(table, action)?;
        if !self.tables.contains(&table) {
            return Err(DbError::Schema(format!(
                "table {table} is not in this transaction's declared table list"
            )));
        }
        Ok(())
    }

    pub fn insert(&mut self, table: &str, values: &[(&str, Value)]) -> Result<i64, DbError> {
        self.check(table, Action::Insert)?;
        let (id, op) = self.set.insert(table, values)?;
        self.ops.push(op);
        Ok(id)
    }

    pub fn update(
        &mut self,
        table: &str,
        id: i64,
        values: &[(&str, Value)],
    ) -> Result<(), DbError> {
        self.check(table, Action::Update)?;
        let op = self.set.update(table, id, values)?;
        self.ops.push(op);
        Ok(())
    }

    pub fn delete(&mut self, table: &str, id: i64) -> Result<(), DbError> {
        self.check(table, Action::Delete)?;
        let ops = self.set.delete(table, id)?;
        self.ops.extend(ops);
        Ok(())
    }

    pub fn select(&self, table: &str, query: &Query) -> Result<Vec<(i64, Row)>, DbError> {
        self.role.check(table, Action::Select)?;
        query.execute(self.set.table_ref(table)?)
    }

    pub fn get(&self, table: &str, id: i64) -> Result<Row, DbError> {
        self.role.check(table, Action::Select)?;
        self.set.table_ref(table)?.row(id).map(<[Value]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Db {
        let db = Db::in_memory();
        db.define_role(Role::superuser("admin"));
        db.define_role(
            Role::new("web")
                .grant("star", PermSet::READ_ONLY)
                .grant("request", PermSet::ALL),
        );
        let admin = db.connect("admin").unwrap();
        admin
            .create_table(TableSchema::new(
                "star",
                vec![Column::new("name", ValueType::Text).not_null().unique()],
            ))
            .unwrap();
        admin
            .create_table(TableSchema::new(
                "request",
                vec![Column::new("body", ValueType::Text)],
            ))
            .unwrap();
        db
    }

    #[test]
    fn role_enforcement_end_to_end() {
        let db = setup();
        let web = db.connect("web").unwrap();
        assert!(web.insert("star", &[("name", "HD1".into())]).is_err());
        assert!(web.insert("request", &[("body", "hi".into())]).is_ok());
        assert!(web.select("star", &Query::new()).is_ok());
        let admin = db.connect("admin").unwrap();
        admin.insert("star", &[("name", "HD1".into())]).unwrap();
        assert!(web.delete("star", 1).is_err());
    }

    #[test]
    fn unknown_role_rejected() {
        let db = setup();
        assert!(db.connect("nobody").is_err());
    }

    #[test]
    fn ddl_requires_superuser() {
        let db = setup();
        let web = db.connect("web").unwrap();
        assert!(web.create_table(TableSchema::new("x", vec![])).is_err());
    }

    #[test]
    fn transaction_commits_atomically() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let out = admin
            .transaction(&["star"], |tx| {
                tx.insert("star", &[("name", "A".into())])?;
                tx.insert("star", &[("name", "B".into())])?;
                Ok(42)
            })
            .unwrap();
        assert_eq!(out, 42);
        assert_eq!(admin.count("star", &Query::new()).unwrap(), 2);
    }

    #[test]
    fn transaction_rolls_back_on_error() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        admin.insert("star", &[("name", "A".into())]).unwrap();
        let res: Result<(), DbError> = admin.transaction(&["star"], |tx| {
            tx.insert("star", &[("name", "B".into())])?;
            tx.insert("star", &[("name", "A".into())])?; // unique violation
            Ok(())
        });
        assert!(res.is_err());
        assert_eq!(admin.count("star", &Query::new()).unwrap(), 1);
    }

    #[test]
    fn panicking_transaction_rolls_back_and_leaves_the_table_writable() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            admin.transaction::<()>(&["star"], |tx| {
                tx.insert("star", &[("name", "A".into())])?;
                panic!("closure panicked while holding the writer mutex")
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(admin.count("star", &Query::new()).unwrap(), 0);
        // The one mutex was poisoned by the unwind; the next writer
        // recovers it, whichever table it writes, and so does DDL.
        assert_eq!(admin.insert("star", &[("name", "B".into())]).unwrap(), 1);
        assert_eq!(admin.insert("request", &[("body", "x".into())]).unwrap(), 1);
        admin
            .create_table(TableSchema::new("after_panic", vec![]))
            .unwrap();
        assert!(admin.has_table("after_panic"));
    }

    #[test]
    fn transaction_respects_permissions() {
        let db = setup();
        let web = db.connect("web").unwrap();
        let res: Result<(), DbError> = web.transaction(&["request", "star"], |tx| {
            tx.insert("request", &[("body", "x".into())])?;
            tx.insert("star", &[("name", "HD".into())])?; // denied
            Ok(())
        });
        assert!(matches!(res, Err(DbError::PermissionDenied { .. })));
        assert_eq!(web.count("request", &Query::new()).unwrap(), 0);
    }

    #[test]
    fn transaction_rejects_undeclared_table() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        // Writing a table outside the declared set fails cleanly (instead
        // of deadlocking or silently escalating the lock set)...
        let res: Result<(), DbError> = admin.transaction(&["star"], |tx| {
            tx.insert("request", &[("body", "x".into())])?;
            Ok(())
        });
        assert!(res.is_err());
        // ...and the partial work is rolled back.
        assert_eq!(admin.count("request", &Query::new()).unwrap(), 0);
    }

    #[test]
    fn compare_and_swap_is_exclusive() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let id = admin.insert("star", &[("name", "HD1".into())]).unwrap();

        // matching expectation: swap commits
        assert!(admin
            .compare_and_swap(
                "star",
                id,
                &[("name", "HD1".into())],
                &[("name", "HD2".into())]
            )
            .unwrap());
        // stale expectation: swap refused, row untouched
        assert!(!admin
            .compare_and_swap(
                "star",
                id,
                &[("name", "HD1".into())],
                &[("name", "HD3".into())]
            )
            .unwrap());
        let row = admin.get("star", id).unwrap();
        assert_eq!(row[0], Value::Text("HD2".into()));
        // missing row: refused, not an error
        assert!(!admin
            .compare_and_swap("star", 999, &[], &[("name", "X".into())])
            .unwrap());

        // racing swappers on one row: exactly one per generation wins
        let db2 = db.clone();
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let db = db2.clone();
                    s.spawn(move || {
                        let c = db.connect("admin").unwrap();
                        c.compare_and_swap(
                            "star",
                            id,
                            &[("name", "HD2".into())],
                            &[("name", format!("HD2-{i}").into())],
                        )
                        .unwrap() as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        // permission checks still apply inside the CAS transaction
        let web = db.connect("web").unwrap();
        assert!(web
            .compare_and_swap("star", id, &[], &[("name", "W".into())])
            .is_err());
    }

    #[test]
    fn durable_db_recovers() {
        let dir = std::env::temp_dir().join(format!("simdb_db_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("db.snap");
        let walp = dir.join("db.wal");
        {
            let db = Db::open(&snap, &walp).unwrap();
            db.define_role(Role::superuser("admin"));
            let c = db.connect("admin").unwrap();
            c.create_table(TableSchema::new(
                "t",
                vec![Column::new("v", ValueType::Int)],
            ))
            .unwrap();
            c.insert("t", &[("v", Value::Int(1))]).unwrap();
            db.compact().unwrap();
            c.insert("t", &[("v", Value::Int(2))]).unwrap();
        }
        let db = Db::open(&snap, &walp).unwrap();
        db.define_role(Role::superuser("admin"));
        let c = db.connect("admin").unwrap();
        assert_eq!(c.count("t", &Query::new()).unwrap(), 2);
        // continue writing after recovery
        c.insert("t", &[("v", Value::Int(3))]).unwrap();
        assert_eq!(c.count("t", &Query::new()).unwrap(), 3);
    }

    /// The deferring connection's contract, read off the log file (the
    /// flush counter is process-wide and other unit tests move it; its
    /// side of the contract is asserted in `tests/observability.rs`).
    #[test]
    fn deferred_commits_are_visible_at_once_and_durable_at_the_next_flush() {
        let dir = std::env::temp_dir().join(format!("simdb_deferred_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (snap, walp, copy) = (
            dir.join("db.snap"),
            dir.join("db.wal"),
            dir.join("copy.wal"),
        );
        let db = Db::open(&snap, &walp).unwrap();
        db.define_role(Role::superuser("admin"));
        let waiting = db.connect("admin").unwrap();
        let int = |v| [("v", Value::Int(v))];
        for t in ["a", "b"] {
            waiting
                .create_table(TableSchema::new(t, vec![Column::new("v", ValueType::Int)]))
                .unwrap();
        }
        waiting.insert("a", &int(0)).unwrap();
        // Rows of `a` and `b` a crash would leave behind right now.
        let crash = || {
            std::fs::copy(&walp, &copy).unwrap();
            let recovered = Db::open(dir.join("no.snap"), &copy).unwrap();
            ["a", "b"].map(|t| recovered.table_len(t).unwrap())
        };
        let flushed = std::fs::read(&walp).unwrap();
        assert_eq!(crash(), [1, 0]);

        // A statement and a transaction, the latter through a clone (which
        // inherits the deferral): published before they return ...
        let deferring = waiting.clone().deferred();
        deferring.insert("a", &int(1)).unwrap();
        deferring
            .clone()
            .transaction(&["a"], |tx| {
                tx.insert("a", &int(2))?;
                tx.insert("a", &int(3))
            })
            .unwrap();
        assert_eq!(waiting.count("a", &Query::new()).unwrap(), 4);
        let view = waiting.read_view(&["a", "b"]).unwrap();
        assert_eq!(view.count("a", &Query::new()).unwrap(), 4);
        // ... while the file has not moved: a crash keeps the last flushed
        // state, whole records and nothing after them.
        assert_eq!(std::fs::read(&walp).unwrap(), flushed);
        assert_eq!(crash(), [1, 0]);

        // The flush appends the whole suffix to what was there.
        deferring.flush().unwrap();
        let log = std::fs::read(&walp).unwrap();
        assert!(log.len() > flushed.len() && log.starts_with(&flushed));
        assert_eq!(crash(), [4, 0]);

        // A waiting connection's commit, on another table, drains the one
        // queue: the deferred record before it is durable with it, and the
        // deferring connection's own flush finds nothing left to write.
        deferring.insert("a", &int(4)).unwrap();
        assert_eq!(crash(), [4, 0]);
        waiting.insert("b", &int(0)).unwrap();
        assert_eq!(crash(), [5, 1]);
        let len = std::fs::metadata(&walp).unwrap().len();
        deferring.flush().unwrap();
        assert_eq!(std::fs::metadata(&walp).unwrap().len(), len);
    }

    #[test]
    fn compaction_preserves_state_and_bounds_wal() {
        let dir = std::env::temp_dir().join(format!("simdb_compact_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("db.snap");
        let walp = dir.join("db.wal");
        {
            let db = Db::open(&snap, &walp).unwrap();
            db.define_role(Role::superuser("admin"));
            let c = db.connect("admin").unwrap();
            c.create_table(TableSchema::new(
                "t",
                vec![Column::new("v", ValueType::Int)],
            ))
            .unwrap();
            for i in 0..50 {
                c.insert("t", &[("v", Value::Int(i))]).unwrap();
            }
            let frames = wal::Wal::read_frames(&walp).unwrap();
            assert_eq!(frames.len(), 51, "one frame per commit");
            db.compact().unwrap();
            let after = std::fs::metadata(&walp).unwrap().len();
            assert_eq!(after, wal::MAGIC.len() as u64, "WAL truncated");
            // writes continue after compaction
            c.insert("t", &[("v", Value::Int(999))]).unwrap();
        }
        let db = Db::open(&snap, &walp).unwrap();
        db.define_role(Role::superuser("admin"));
        let c = db.connect("admin").unwrap();
        assert_eq!(c.count("t", &Query::new()).unwrap(), 51);
        // post-compaction record replayed on top of the snapshot
        assert_eq!(
            c.count("t", &Query::new().eq("v", Value::Int(999)))
                .unwrap(),
            1
        );
        // compaction without persistence configured is an error
        assert!(Db::in_memory().compact().is_err());
    }

    #[test]
    fn table_versions_track_mutations_precisely() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let web = db.connect("web").unwrap();
        // table creation counts as version 1
        assert_eq!(db.table_version("star"), 1);
        assert_eq!(db.table_version("nope"), 0);

        let v0 = web.table_version("star");
        let id = admin.insert("star", &[("name", "HD1".into())]).unwrap();
        assert_eq!(web.table_version("star"), v0 + 1);
        admin.update("star", id, &[("name", "HD2".into())]).unwrap();
        assert_eq!(web.table_version("star"), v0 + 2);
        // an unrelated table is untouched
        assert_eq!(web.table_version("request"), 1);
        admin.delete("star", id).unwrap();
        assert_eq!(web.table_version("star"), v0 + 3);

        // failed mutations don't bump
        let v = db.table_version("star");
        assert!(admin.insert("star", &[("nope", Value::Int(1))]).is_err());
        assert_eq!(db.table_version("star"), v);

        // rolled-back transactions don't bump either
        let v = db.table_version("star");
        let _ = admin.transaction(&["star"], |tx| {
            tx.insert("star", &[("name", "HD3".into())])?;
            Err::<(), _>(DbError::Io("abort".into()))
        });
        assert_eq!(db.table_version("star"), v);
        admin
            .transaction(&["star"], |tx| tx.insert("star", &[("name", "HD3".into())]))
            .unwrap();
        assert_eq!(db.table_version("star"), v + 1);

        // multi-table stamp at one consistent point
        let stamp = web.table_versions(&["star", "request"]);
        assert_eq!(stamp, vec![db.table_version("star"), 1]);
    }

    #[test]
    fn read_view_is_coherent_and_role_checked() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        admin.insert("star", &[("name", "HD1".into())]).unwrap();
        let web = db.connect("web").unwrap();
        let view = web.read_view(&["star", "request"]).unwrap();
        assert_eq!(view.count("star", &Query::new()).unwrap(), 1);
        assert_eq!(view.count("request", &Query::new()).unwrap(), 0);
        assert_eq!(
            view.versions(),
            vec![db.table_version("star"), db.table_version("request")]
        );
        assert_eq!(view.tables().collect::<Vec<_>>(), vec!["star", "request"]);
        // a table outside the view is an error, not a fresh lock
        assert!(view.count("nope", &Query::new()).is_err());
        drop(view);

        // roles apply through views too
        db.define_role(Role::new("blind"));
        let blind = db.connect("blind").unwrap();
        let view = blind.read_view(&["star"]).unwrap();
        assert!(view.select("star", &Query::new()).is_err());
        assert_eq!(view.versions().len(), 1); // stamps need no grant

        // duplicate table names are tolerated (single guard, both stamps)
        let view = web.read_view(&["star", "star"]).unwrap();
        assert_eq!(view.versions().len(), 2);
    }

    /// A read hands out the stored text, not a copy of it: the cells of a
    /// `get` or `select` answer, through a connection, a transaction or a
    /// read view, point at the allocation the table holds.
    #[test]
    fn read_text_cells_share_the_stored_allocation() {
        let db = setup();
        let admin = db.connect("admin").unwrap();
        let id = admin
            .insert("star", &[("name", "HD 52265".into())])
            .unwrap();
        let pinned = db.shared.slot.pin();
        let Value::Text(stored) = &pinned.get("star").unwrap().table.get(id).unwrap()[0] else {
            panic!("a text cell")
        };
        let shares = |row: &[Value]| matches!(&row[0], Value::Text(t) if Arc::ptr_eq(t, stored));
        assert!(shares(&admin.get("star", id).unwrap()));
        assert!(shares(&admin.select("star", &Query::new()).unwrap()[0].1));
        let view = admin.read_view(&["star"]).unwrap();
        assert!(shares(&view.get("star", id).unwrap()));
        assert!(shares(&view.select("star", &Query::new()).unwrap()[0].1));
        admin
            .transaction(&["star"], |tx| {
                assert!(shares(&tx.get("star", id)?));
                assert!(shares(&tx.select("star", &Query::new())?[0].1));
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn concurrent_writers_do_not_lose_rows() {
        let db = setup();
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                let c = db.connect("web").unwrap();
                for i in 0..50 {
                    c.insert("request", &[("body", format!("{t}:{i}").into())])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let c = db.connect("web").unwrap();
        assert_eq!(c.count("request", &Query::new()).unwrap(), 400);
    }
}
