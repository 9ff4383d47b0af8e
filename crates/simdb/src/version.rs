//! The engine: one published version of the whole database, readers that
//! take **no lock at all**, and one writer at a time.
//!
//! A [`DbVersion`] is an immutable snapshot of every table: one
//! [`Arc<TableVersion>`] per table (its rows, indexes and modification
//! counter), the schema facts only DDL changes ([`Catalog`]) and one WAL
//! watermark, [`DbVersion::applied_seq`].
//! The engine's [`Slot`] publishes the latest one, and readers pin it with
//! two atomic operations ([`Slot::pin`]). A read, a read view, a set of
//! version stamps and a checkpoint's cut are each one pin, so every cut is
//! consistent by construction: a commit is one publish, and a pin sees all
//! of it or none of it. That published version is the only copy of the data
//! the engine keeps.
//!
//! Every write — a statement, a transaction or `create_table` — takes the
//! slot's one writer mutex ([`Slot::write`]), pins the published version as
//! its *base*, absorbs its mutations into copy-on-write clones of the
//! tables it touches ([`BufferedTables`]; see [`crate::table`]), and at
//! commit publishes the base with those tables replaced as the next
//! version. Rollback is dropping the buffers. Tables a commit did not touch
//! keep their `Arc<TableVersion>`, so a commit copies a vector of pointers
//! and the tables it wrote, nothing more.
//!
//! # Version publication protocol
//!
//! `Slot::current` holds a raw pointer obtained from
//! `Arc::into_raw(Arc<DbVersion>)`; the slot owns that strong reference.
//! The pin/publish handshake is three SeqCst operations on the reader side
//! and two on the publisher side:
//!
//! * **pin** (reader): `pins.fetch_add(1)` → `current.load()` →
//!   `Arc::increment_strong_count(ptr)` → `pins.fetch_sub(1)`;
//! * **publish** (the writer, holding the writer mutex): `current.swap(new)`,
//!   move the old `Arc` onto the `retained` list, then — only if
//!   `pins.load() == 0` *after* the swap — drop every retained version.
//!
//! Safety argument (all operations SeqCst, so they embed in one total
//! order): a reader holds `pins > 0` from before its pointer load until
//! after it owns a strong count. If the publisher's post-swap check reads
//! `pins == 0`, every reader window that could still load `current` must
//! *start* after that check, hence after the swap — so it observes the new
//! pointer, and no future pin can reach a superseded version. Retained
//! versions are then dropped; any still-alive [`crate::ReadView`] keeps its
//! own strong reference, so it is never invalidated, merely detached from
//! the slot. If the check reads `pins > 0`, the superseded versions stay on
//! `retained` until a later publish observes a quiescent moment — the
//! window is a handful of instructions, so retention is transient; the
//! `simdb_table_live_versions{table}` gauge makes it observable anyway.
//! The gauge is maintained by the table versions themselves (incremented at
//! construction, decremented by `Drop`), so it moves the instant the last
//! `ReadView` pinning a superseded table version drops — no publish
//! required. This protocol is the crate's only `unsafe`.

use crate::db::LogOp;
use crate::error::DbError;
use crate::schema::{OnDelete, TableSchema};
use crate::table::Table;
use crate::wal::Recovered;
use amp_obs::{Gauge, Histogram, Unit};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One published, immutable snapshot of a table. Versions hold these by
/// `Arc`; the storage inside is copy-on-write, so a table version shares
/// every row and index chunk its successor did not touch.
pub(crate) struct TableVersion {
    pub table: Table,
    /// Monotone per-table modification counter (see `Db::table_version`).
    pub version: u64,
    /// Shared handle on the table's `simdb_table_live_versions` gauge.
    /// Each version counts itself in at construction and out on `Drop`, so
    /// the gauge decrements the moment a superseded version's last pin
    /// drops — not at the next publish.
    live: Gauge,
}

impl TableVersion {
    fn new(table: Table, version: u64, live: Gauge) -> Arc<TableVersion> {
        live.add(1);
        Arc::new(TableVersion {
            table,
            version,
            live,
        })
    }

    /// A table's first version, with its gauge resolved.
    fn first(table: Table, version: u64) -> Arc<TableVersion> {
        let live = crate::obs::live_versions(&table.schema.name);
        TableVersion::new(table, version, live)
    }
}

impl Drop for TableVersion {
    fn drop(&mut self) {
        self.live.add(-1);
    }
}

/// What only DDL changes: each table's number, and the reverse-FK list.
/// Shared by `Arc` between versions, so a commit copies none of it.
///
/// A table's number is its position in [`DbVersion::tables`]: creation
/// order, since `create_table` appends and nothing removes a table. The
/// log names a table by it (DESIGN §8.7), and a snapshot lists its tables
/// in that order, so recovery rebuilds the same numbers.
pub(crate) struct Catalog {
    /// Table name → number.
    positions: BTreeMap<String, usize>,
    /// Per number: `(referencing table's number, column index, on_delete)`
    /// of every FK column whose target is that table.
    referencing: Vec<Vec<(usize, usize, OnDelete)>>,
}

impl Catalog {
    fn new<'a>(schemas: impl Iterator<Item = &'a TableSchema> + Clone) -> Arc<Catalog> {
        let positions: BTreeMap<String, usize> = (schemas.clone().enumerate())
            .map(|(pos, schema)| (schema.name.clone(), pos))
            .collect();
        let mut referencing = vec![Vec::new(); positions.len()];
        for (pos, schema) in schemas.enumerate() {
            for (ci, c) in schema.columns.iter().enumerate() {
                let Some(fk) = &c.foreign_key else { continue };
                if let Some(&target) = positions.get(&fk.references) {
                    referencing[target].push((pos, ci, fk.on_delete));
                }
            }
        }
        Arc::new(Catalog {
            positions,
            referencing,
        })
    }
}

/// One published, immutable version of the whole database.
pub(crate) struct DbVersion {
    catalog: Arc<Catalog>,
    tables: Vec<Arc<TableVersion>>,
    /// The last WAL sequence number of the last commit this version
    /// includes (`None` before the first logged commit). The one writer
    /// claims a commit's numbers and then publishes it, and every logged
    /// commit publishes, so a version holds exactly the commits numbered at
    /// or below this watermark: a checkpoint's cut is this one number.
    pub applied_seq: Option<u64>,
}

impl DbVersion {
    pub fn empty() -> DbVersion {
        DbVersion::from_recovered(Vec::new(), None)
    }

    /// The first version over what recovery built (snapshot + WAL replay),
    /// in table-number order: each table moves — is not copied — into it,
    /// with the version counter replay left it at, under the watermark
    /// replay reached.
    pub fn from_recovered(recovered: Vec<Recovered>, applied_seq: Option<u64>) -> DbVersion {
        let tables: Vec<Arc<TableVersion>> = (recovered.into_iter())
            .map(|r| TableVersion::first(r.table, r.version))
            .collect();
        DbVersion {
            catalog: Catalog::new(tables.iter().map(|v| &v.table.schema)),
            tables,
            applied_seq,
        }
    }

    /// The number of the table called `name`: an argument for [`Self::at`].
    pub fn position(&self, name: &str) -> Result<usize, DbError> {
        let found = self.catalog.positions.get(name).copied();
        found.ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub fn at(&self, position: usize) -> &TableVersion {
        &self.tables[position]
    }

    pub fn get(&self, name: &str) -> Result<&Arc<TableVersion>, DbError> {
        Ok(&self.tables[self.position(name)?])
    }

    /// Every table, in number order (creation order).
    pub fn tables(&self) -> impl ExactSizeIterator<Item = &TableVersion> {
        self.tables.iter().map(|v| &**v)
    }
}

/// The published-version slot readers pin lock-free, and the one mutex
/// that serialises every writer.
pub(crate) struct Slot {
    /// `Arc::into_raw` of the latest published [`DbVersion`]; the slot owns
    /// this strong reference until `swap`ped out or dropped.
    current: AtomicPtr<DbVersion>,
    /// Readers currently inside the pin window (between loading `current`
    /// and owning a strong count).
    pins: AtomicUsize,
    /// The writer mutex. The data it owns is the publisher's `retained`
    /// list: superseded versions that could not yet be proven unreachable
    /// (a reader was mid-pin at swap time), pruned at the next quiescent
    /// publish; see the module docs.
    writer: Mutex<Vec<Arc<DbVersion>>>,
    /// `simdb_writer_lock_wait_seconds`: time a writer waited for the mutex.
    wait: Histogram,
    /// `simdb_writer_lock_hold_seconds`: time a writer held it.
    hold: Histogram,
}

#[allow(unsafe_code)]
impl Slot {
    pub fn new(first: DbVersion) -> Slot {
        let registry = amp_obs::registry();
        Slot {
            current: AtomicPtr::new(Arc::into_raw(Arc::new(first)) as *mut DbVersion),
            pins: AtomicUsize::new(0),
            writer: Mutex::new(Vec::new()),
            wait: registry.histogram("simdb_writer_lock_wait_seconds", Unit::Seconds),
            hold: registry.histogram("simdb_writer_lock_hold_seconds", Unit::Seconds),
        }
    }

    /// Pin the latest published version: two atomic RMWs and one atomic
    /// load, no lock, no syscall, no timing. Never blocks and never spins
    /// — this is the entire read path.
    pub fn pin(&self) -> Arc<DbVersion> {
        self.pins.fetch_add(1, SeqCst);
        let ptr = self.current.load(SeqCst);
        // SAFETY: `pins > 0` spans the load and the count bump, so the
        // publisher cannot have released this version's strong count (see
        // the module-level protocol proof).
        let pinned = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        self.pins.fetch_sub(1, SeqCst);
        pinned
    }

    /// Install `next` as the published version (see the module docs for
    /// the swap/retain/prune protocol). Wait-free: one `swap` and one
    /// `pins` check. Only the holder of the writer mutex calls this; its
    /// guard lends the `retained` list.
    fn publish(&self, retained: &mut Vec<Arc<DbVersion>>, next: Arc<DbVersion>) {
        let next_ptr = Arc::into_raw(next) as *mut DbVersion;
        let prev_ptr = self.current.swap(next_ptr, SeqCst);
        // SAFETY: we own the strong count that was parked in `current`.
        retained.push(unsafe { Arc::from_raw(prev_ptr) });
        if self.pins.load(SeqCst) == 0 {
            // Quiescent after the swap: no reader can reach a superseded
            // version through `current` anymore (module-level proof), so
            // the publisher's references can go. Live `ReadView`s keep
            // their own strong counts.
            retained.clear();
        }
    }

    /// Become the database's one writer, then pin the published version as
    /// the base of whatever this writer goes on to publish.
    pub fn write(&self) -> Writer<'_> {
        let wait_start = Instant::now();
        // A writer that panicked (a transaction closure, say) poisons the
        // mutex, but the list behind it only ever sees whole `push` and
        // `clear` calls and the database itself changes by one pointer
        // swap, so what a poisoned lock guards is valid and every table
        // stays writable.
        let retained = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.wait.observe_duration(wait_start.elapsed());
        Writer {
            base: self.pin(),
            slot: self,
            retained,
            acquired: Instant::now(),
        }
    }
}

#[allow(unsafe_code)]
impl Drop for Slot {
    fn drop(&mut self) {
        // Reclaim the strong reference parked in `current`. No pins can be
        // in flight: dropping the slot means no `&Slot` remains.
        let ptr = *self.current.get_mut();
        // SAFETY: `current` always holds a pointer from `Arc::into_raw`
        // whose strong count the slot owns.
        unsafe { drop(Arc::from_raw(ptr)) };
    }
}

/// The writer mutex plus the version that was published when it was taken.
/// Records the hold duration into `simdb_writer_lock_hold_seconds` on drop.
pub(crate) struct Writer<'a> {
    slot: &'a Slot,
    retained: MutexGuard<'a, Vec<Arc<DbVersion>>>,
    /// The published version. Only the mutex holder publishes, so this
    /// stays the tip for as long as the guard lives.
    base: Arc<DbVersion>,
    acquired: Instant,
}

impl Writer<'_> {
    fn publish(&mut self, next: DbVersion) {
        let next = Arc::new(next);
        self.slot.publish(&mut self.retained, Arc::clone(&next));
        self.base = next;
    }

    /// DDL: create a table. `log` claims the WAL sequence of the
    /// `CreateTable` record once the schema has been accepted; the version
    /// that publishes the table carries it as its watermark. Returns that
    /// sequence number for the caller to flush after letting the writer go.
    pub fn create_table(
        mut self,
        schema: TableSchema,
        log: impl FnOnce(&LogOp) -> Result<Option<u64>, DbError>,
    ) -> Result<Option<u64>, DbError> {
        let table = new_table(&schema, |t| self.base.position(t).is_ok())?;
        let seq = log(&LogOp::CreateTable { schema })?;
        let mut tables = self.base.tables.clone();
        // Table creation counts as version 1, as in the seed engine.
        tables.push(TableVersion::first(table, 1));
        let catalog = Catalog::new(tables.iter().map(|v| &v.table.schema));
        let applied_seq = seq.or(self.base.applied_seq);
        self.publish(DbVersion {
            catalog,
            tables,
            applied_seq,
        });
        Ok(seq)
    }
}

impl Drop for Writer<'_> {
    fn drop(&mut self) {
        self.slot.hold.observe_duration(self.acquired.elapsed());
    }
}

/// DDL's checks, for a live `CREATE TABLE` and a replayed one alike: the
/// name is free, every FK target `exists` (or is the table itself, for
/// self-reference) and the schema is valid. Returns the empty table.
pub(crate) fn new_table(
    schema: &TableSchema,
    exists: impl Fn(&str) -> bool,
) -> Result<Table, DbError> {
    if exists(&schema.name) {
        return Err(DbError::Schema(format!(
            "table {} already exists",
            schema.name
        )));
    }
    for c in &schema.columns {
        if let Some(fk) = &c.foreign_key {
            if fk.references != schema.name && !exists(&fk.references) {
                return Err(DbError::Schema(format!(
                    "table {}: FK column {} references missing table {}",
                    schema.name, c.name, fk.references
                )));
            }
        }
    }
    Table::new(schema.clone())
}

/// The writer and the **delta write-buffer** over its base: what the
/// mutation logic in [`crate::db`] runs against for every live write.
///
/// A buffer is created lazily, on the first mutation of each table, as a
/// copy-on-write *structural* clone of the table's base — O(chunk spine)
/// `Arc` bumps, no row data. From then on:
///
/// * **reads inside the operation** resolve buffer-or-base:
///   [`Self::table_ref`] returns the buffer when one exists (the operation
///   sees its own writes) and the base's table otherwise;
/// * **mutations** apply to the buffer through the ordinary per-row
///   copy-on-write path, materializing exactly the rows touched;
/// * **commit** ([`Self::commit`]) moves each dirty buffer into the next
///   published version — no second clone, no replay;
/// * **rollback is `Drop`**: the buffers vanish and nothing shared was
///   ever touched, so there is nothing to restore and no journal to keep.
pub(crate) struct BufferedTables<'a> {
    writer: Writer<'a>,
    /// `(position, buffer)` of each table this operation has mutated.
    buffers: Vec<(usize, Buffer)>,
}

struct Buffer {
    table: Table,
    /// Starts at the base's `version`; the buffer is dirty iff it moved.
    version: u64,
}

impl<'a> BufferedTables<'a> {
    pub fn new(writer: Writer<'a>) -> Self {
        BufferedTables {
            writer,
            buffers: Vec::new(),
        }
    }

    /// Publish the next version: the base with every *dirty* table
    /// replaced, stamped with `last_seq` (the batch's final WAL sequence
    /// number, claimed by this writer), then let the writer go. Clean
    /// buffers are simply dropped, and a write that dirtied nothing
    /// publishes nothing: it logged nothing either, since every logged op
    /// bumps its table's version.
    ///
    /// Also drains each dirty table's write-amplification counters into the
    /// `simdb_rows_copied_per_write` and
    /// `simdb_index_entries_copied_per_write` histograms: one observation
    /// per commit, covering everything the write actually materialized.
    pub fn commit(self, last_seq: Option<u64>) {
        let BufferedTables {
            mut writer,
            buffers,
        } = self;
        let base = &writer.base;
        let mut tables = None;
        let (mut rows_copied, mut index_entries_copied) = (0u64, 0u64);
        for (pos, mut buffer) in buffers {
            let was = &base.tables[pos];
            if buffer.version == was.version {
                continue;
            }
            let copied = buffer.table.take_copied();
            rows_copied += copied.rows;
            index_entries_copied += copied.index_entries;
            let next = TableVersion::new(buffer.table, buffer.version, was.live.clone());
            tables.get_or_insert_with(|| base.tables.clone())[pos] = next;
        }
        let Some(tables) = tables else {
            debug_assert!(last_seq.is_none(), "a logged commit dirtied no table");
            return;
        };
        let catalog = Arc::clone(&base.catalog);
        let applied_seq = last_seq.or(base.applied_seq);
        writer.publish(DbVersion {
            catalog,
            tables,
            applied_seq,
        });
        let metrics = crate::obs::metrics();
        metrics.rows_copied_per_write.observe(rows_copied);
        metrics
            .index_entries_copied_per_write
            .observe(index_entries_copied);
    }

    /// The number of the table called `name`.
    pub fn position(&self, name: &str) -> Result<usize, DbError> {
        self.writer.base.position(name)
    }

    /// Table number `pos` as this operation sees it: its buffer, or the
    /// base.
    pub fn table_at(&self, pos: usize) -> &Table {
        match self.buffers.iter().find(|(p, _)| *p == pos) {
            Some((_, buffer)) => &buffer.table,
            None => &self.writer.base.tables[pos].table,
        }
    }

    /// [`Self::table_at`], by name.
    pub fn table_ref(&self, name: &str) -> Result<&Table, DbError> {
        Ok(self.table_at(self.position(name)?))
    }

    /// The buffer of table number `pos`, cloned from its base on first use.
    pub fn table_mut(&mut self, pos: usize) -> &mut Table {
        let at = match self.buffers.iter().position(|(p, _)| *p == pos) {
            Some(at) => at,
            None => {
                let base = &self.writer.base.tables[pos];
                let buffer = Buffer {
                    table: base.table.clone(),
                    version: base.version,
                };
                self.buffers.push((pos, buffer));
                self.buffers.len() - 1
            }
        };
        &mut self.buffers[at].1.table
    }

    /// `(referencing table's number, column index, on_delete)` of every FK
    /// column in the database whose target is table number `target`:
    /// schema facts, so cascade planning reads them without touching a
    /// table.
    pub fn referencing_columns(&self, target: usize) -> &[(usize, usize, OnDelete)] {
        &self.writer.base.catalog.referencing[target]
    }

    /// Bump table number `pos`'s modification counter: the buffer is
    /// dirty, and its commit publishes the new count with the data.
    pub fn bump_version(&mut self, pos: usize) {
        match self.buffers.iter_mut().find(|(p, _)| *p == pos) {
            Some((_, buffer)) => buffer.version += 1,
            None => debug_assert!(false, "bump_version on unbuffered table {pos}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn slot_with(names: &[&str]) -> Slot {
        let slot = Slot::new(DbVersion::empty());
        for name in names {
            let schema = TableSchema::new(name, vec![Column::new("v", ValueType::Int)]);
            slot.write().create_table(schema, |_| Ok(None)).unwrap();
        }
        slot
    }

    /// One writer that republishes `name`'s rows under the next version.
    fn bump(slot: &Slot, name: &str) {
        let mut set = BufferedTables::new(slot.write());
        let pos = set.position(name).unwrap();
        set.table_mut(pos);
        set.bump_version(pos);
        set.commit(None);
    }

    fn version(slot: &Slot, name: &str) -> u64 {
        slot.pin().get(name).unwrap().version
    }

    #[test]
    fn pin_sees_only_published_state() {
        let s = slot_with(&["t"]);
        let mut set = BufferedTables::new(s.write());
        set.table_mut(0);
        set.bump_version(0);
        // Holding the writer mutex and a dirty buffer changes nothing
        // readers can see.
        assert_eq!(version(&s, "t"), 1);
        set.commit(None);
        assert_eq!(version(&s, "t"), 2);
        // The next writer's base is what the last one published.
        assert_eq!(s.write().base.get("t").unwrap().version, 2);
    }

    #[test]
    fn pinned_version_is_immutable_across_publishes() {
        let s = slot_with(&["t"]);
        let pinned = s.pin();
        for _ in 2..10 {
            bump(&s, "t");
        }
        // The pin still reads the state it pinned; fresh pins see the tip.
        assert_eq!(pinned.get("t").unwrap().version, 1);
        assert_eq!(version(&s, "t"), 9);
    }

    #[test]
    fn a_commit_shares_every_table_it_did_not_write() {
        let s = slot_with(&["a", "b"]);
        let before = s.pin();
        bump(&s, "a");
        let after = s.pin();
        assert!(Arc::ptr_eq(
            before.get("b").unwrap(),
            after.get("b").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            before.get("a").unwrap(),
            after.get("a").unwrap()
        ));
        assert!(Arc::ptr_eq(&before.catalog, &after.catalog));
    }

    /// Every logged commit publishes, stamped with its last sequence
    /// number; an unlogged one keeps the watermark it found, and a write
    /// that dirtied nothing publishes nothing.
    #[test]
    fn a_published_version_carries_the_last_commits_watermark() {
        let s = Slot::new(DbVersion::empty());
        let schema = TableSchema::new("t", vec![Column::new("v", ValueType::Int)]);
        s.write().create_table(schema, |_| Ok(Some(0))).unwrap();
        assert_eq!(s.pin().applied_seq, Some(0));
        let mut set = BufferedTables::new(s.write());
        set.table_mut(0);
        set.bump_version(0);
        set.commit(Some(3));
        assert_eq!((s.pin().applied_seq, version(&s, "t")), (Some(3), 2));
        bump(&s, "t");
        assert_eq!((s.pin().applied_seq, version(&s, "t")), (Some(3), 3));
        let before = s.pin();
        let mut clean = BufferedTables::new(s.write());
        clean.table_mut(0);
        clean.commit(None);
        assert!(Arc::ptr_eq(&before, &s.pin()), "a clean write published");
    }

    #[test]
    fn superseded_versions_freed_after_last_pin_drops() {
        // Unique table name: the live-versions gauge is process-global.
        let s = slot_with(&["t_freed"]);
        let gauge = crate::obs::live_versions("t_freed");
        let pinned = s.pin();
        for _ in 2..6 {
            bump(&s, "t_freed");
        }
        // The outstanding pin holds version 1 alive alongside the tip; the
        // superseded versions in between died at their publish.
        assert_eq!(gauge.get(), 2, "pinned + current versions alive");
        // The gauge decrements the moment the pin drops — no publish needed.
        drop(pinned);
        assert_eq!(gauge.get(), 1, "gauge lagged past the last pin drop");
        bump(&s, "t_freed");
        assert_eq!(gauge.get(), 1, "only the current version remains alive");
        assert!(s.write().retained.is_empty());
    }

    #[test]
    fn stress_many_readers_and_writers() {
        let s = slot_with(&["t"]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        bump(&s, "t");
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut last = 0;
                    for _ in 0..500 {
                        let v = version(&s, "t");
                        assert!(v >= last, "published versions went backwards");
                        last = v;
                    }
                });
            }
        });
        // No writer lost an increment: each one's base was the last publish.
        assert_eq!(version(&s, "t"), 1 + 4 * 500);
    }
}
