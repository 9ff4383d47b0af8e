//! Per-table sharded concurrency: readers take **no locks at all**, and
//! every write — one statement or a whole transaction — is a buffered
//! commit over the published version.
//!
//! Every [`Shard`] *publishes* an [`Arc<TableVersion>`] — an immutable
//! snapshot of the table's rows, indexes, modification counter, and WAL
//! coverage — and readers pin it with two atomic operations
//! ([`Shard::pin`]). That published version is the only copy of the table
//! the engine keeps: a shard has no working state beside it. Writers of
//! one table serialise on the shard's plain mutex, pin the published
//! version as their *base*, absorb their mutations into a copy-on-write
//! clone of it ([`BufferedTables`]; see [`crate::table`]), and atomically
//! install that buffer as the next version at commit. Rollback is dropping
//! the buffer.
//!
//! # Version publication protocol
//!
//! `Shard::current` holds a raw pointer obtained from
//! `Arc::into_raw(Arc<TableVersion>)`; the shard owns that strong
//! reference. The pin/publish handshake is three SeqCst operations on the
//! reader side and two on the publisher side:
//!
//! * **pin** (reader): `pins.fetch_add(1)` → `current.load()` →
//!   `Arc::increment_strong_count(ptr)` → `pins.fetch_sub(1)`;
//! * **publish** (writer, serialized by the shard's writer mutex):
//!   `current.swap(new)`, move the old `Arc` onto the `retained` list,
//!   then — only if `pins.load() == 0` *after* the swap — drop every
//!   retained version.
//!
//! Safety argument (all operations SeqCst, so they embed in one total
//! order): a reader holds `pins > 0` from before its pointer load until
//! after it owns a strong count. If the publisher's post-swap check reads
//! `pins == 0`, every reader window that could still load `current` must
//! *start* after that check, hence after the swap — so it observes the new
//! pointer, and no future pin can reach a superseded version. Retained
//! versions are then dropped; any still-alive [`crate::ReadView`] keeps
//! its own strong reference, so it is never invalidated, merely detached
//! from the shard. If the check reads `pins > 0`, the superseded versions
//! stay on `retained` until a later publish observes a quiescent moment —
//! the window is a handful of instructions, so retention is transient; the
//! `simdb_table_live_versions{table}` gauge makes it observable anyway.
//! The gauge is maintained by the versions themselves (incremented at
//! construction, decremented by `Drop`), so it moves the instant the last
//! `ReadView` pinning a superseded version drops — no publish required.
//!
//! # Multi-table cuts
//!
//! A single publish is atomic, but a transaction commits several tables;
//! pinning table-by-table could observe half a transaction. The catalog
//! carries a *commit seqlock* ([`CommitClock`]): multi-table commits hold
//! its mutex, bump the sequence to odd, publish every dirty table, and
//! bump back to even. Multi-table pins ([`CommitClock::pin_cut`]) read the
//! sequence, pin, and re-read: an odd or changed sequence means a commit
//! overlapped and the cut retries. Publishing is wait-free (one pointer
//! swap per table), so the retry window is tiny. Single-table commits
//! skip the clock entirely — their one publish is already atomic.
//!
//! # The write path
//!
//! The tables an operation may mutate — its *write set* — follow from
//! immutable schema facts (FK edges change only at DDL, under the catalog
//! write lock):
//!
//! * insert / update on `T`: `T` alone;
//! * delete on `T`, or a transaction declaring `T`: the reverse-FK closure
//!   of `T` — every table a cascade or SET NULL could touch.
//!
//! [`LockPlan::acquire`] takes the write set's mutexes in canonical
//! (sorted-by-name) order, *then* pins the published version of every
//! write-set table (its base, which nobody else can replace while the
//! mutex is held) and of every FK target outside the set. The first
//! mutation of a table clones its base into a buffer; reads inside the
//! operation see buffer-or-base; [`BufferedTables::commit`] moves each
//! dirty buffer into a new [`TableVersion`] and swaps it in under the
//! commit clock.
//!
//! **Why FK targets need no lock.** The only thing that can invalidate an
//! FK existence check is a delete of the parent row, and a delete locks
//! the parent's whole reverse-FK closure, which contains the child table.
//! Holding the child's mutex therefore excludes every such delete;
//! pinning the parent *after* the mutexes are held sees every delete that
//! won the race; and a writer claims its WAL sequence before it publishes,
//! so a child that sees a published parent always logs after it and replay
//! meets the parent first. A parent row of a still-uncommitted transaction
//! is not published, so a reference to it fails the check instead of
//! waiting — the snapshot rule reads already follow.
//!
//! # Locking hierarchy and deadlock freedom
//!
//! Locks are always taken in this order, and released before anything
//! earlier in the order is re-acquired:
//!
//! 1. the **catalog** lock (`RwLock` in `lib.rs`) — read to resolve names
//!    to shards and compute write sets, write only for DDL;
//! 2. **table writer mutexes**, in canonical order;
//! 3. the **WAL** queue/file mutexes (the sequence claim happens while the
//!    table mutexes are held; the durability flush happens after release
//!    for single statements, under them for transactions so they can roll
//!    back);
//! 4. the **commit clock** mutex — taken only at multi-table publish,
//!    while holding the table mutexes, never while acquiring any earlier
//!    lock.
//!
//! Because every operation acquires its entire write set in one ascending
//! pass, every wait-for edge points from a mutex to a strictly later one
//! in the canonical order — the wait-for graph is acyclic, so deadlock is
//! structurally impossible regardless of which tables writers touch.
//! Readers, and the FK checks of writers, take part in no lock at all.

use crate::db::LogOp;
use crate::error::DbError;
use crate::obs::ShardMetrics;
use crate::schema::{OnDelete, TableSchema};
use crate::table::Table;
use crate::wal::Recovered;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One published, immutable snapshot of a table. Readers hold these by
/// `Arc`; the storage inside is copy-on-write, so a version shares every
/// row and index chunk its successor did not touch.
pub(crate) struct TableVersion {
    pub table: Table,
    /// Monotone per-table modification counter (see `Db::table_version`).
    pub version: u64,
    /// Highest WAL sequence number whose effects this version includes
    /// (`None` until the table's first logged op). Compaction uses these,
    /// per table, to decide which WAL records a snapshot makes redundant.
    pub applied_seq: Option<u64>,
    /// Shared handle on the table's `simdb_table_live_versions` gauge.
    /// Each version counts itself in at construction and out on `Drop`, so
    /// the gauge decrements the moment a superseded version's last pin
    /// drops — not at the next publish.
    live: amp_obs::Gauge,
}

impl TableVersion {
    fn new(
        table: Table,
        version: u64,
        applied_seq: Option<u64>,
        live: amp_obs::Gauge,
    ) -> Arc<TableVersion> {
        live.add(1);
        Arc::new(TableVersion {
            table,
            version,
            applied_seq,
            live,
        })
    }
}

impl Drop for TableVersion {
    fn drop(&mut self) {
        self.live.add(-1);
    }
}

/// One table's shard: the published-version slot readers pin lock-free,
/// the mutex that serialises the table's writers, and the per-table
/// metrics.
pub(crate) struct Shard {
    /// `Arc::into_raw` of the latest published [`TableVersion`]; the shard
    /// owns this strong reference until `swap`ped out or dropped.
    current: AtomicPtr<TableVersion>,
    /// Readers currently inside the pin window (between loading `current`
    /// and owning a strong count).
    pins: AtomicUsize,
    /// Serialises writers of this table. The data it owns is the
    /// publisher's `retained` list: superseded versions that could not yet
    /// be proven unreachable (a reader was mid-pin at swap time), pruned at
    /// the next quiescent publish; see the module docs.
    writer: Mutex<Vec<Arc<TableVersion>>>,
    metrics: ShardMetrics,
}

impl Shard {
    pub fn new(name: &str, table: Table, version: u64, applied_seq: Option<u64>) -> Arc<Shard> {
        let metrics = ShardMetrics::for_table(name);
        let first = TableVersion::new(table, version, applied_seq, metrics.live_versions.clone());
        Arc::new(Shard {
            current: AtomicPtr::new(Arc::into_raw(first) as *mut TableVersion),
            pins: AtomicUsize::new(0),
            writer: Mutex::new(Vec::new()),
            metrics,
        })
    }

    /// Pin the latest published version: two atomic RMWs and one atomic
    /// load, no lock, no syscall, no timing. Never blocks and never spins
    /// — this is the entire read path.
    pub fn pin(&self) -> Arc<TableVersion> {
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

    /// Become the table's one writer, then pin the published version as
    /// the base of whatever this writer goes on to publish.
    pub fn write(&self) -> WriteGuard<'_> {
        let wait_start = Instant::now();
        // A writer that panicked (a transaction closure, say) poisons the
        // mutex, but the list behind it only ever sees whole `push` and
        // `clear` calls and the table itself changes by one pointer swap,
        // so what a poisoned lock guards is valid and the table stays
        // writable.
        let retained = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.metrics
            .lock_wait
            .observe_duration(wait_start.elapsed());
        WriteGuard {
            base: self.pin(),
            shard: self,
            retained,
            acquired: Instant::now(),
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Reclaim the strong reference parked in `current`. No pins can be
        // in flight: dropping the shard means no `Arc<Shard>` remains.
        let ptr = *self.current.get_mut();
        // SAFETY: `current` always holds a pointer from `Arc::into_raw`
        // whose strong count the shard owns.
        unsafe { drop(Arc::from_raw(ptr)) };
    }
}

/// Exclusive writer access to one table: the shard's mutex plus the
/// version that was published when it was taken. Records the hold duration
/// into the shard's `simdb_table_lock_hold_seconds{table}` histogram on
/// drop.
pub(crate) struct WriteGuard<'a> {
    shard: &'a Shard,
    retained: MutexGuard<'a, Vec<Arc<TableVersion>>>,
    /// The published version. Only the mutex holder publishes, so this
    /// stays the table's tip for as long as the guard lives.
    base: Arc<TableVersion>,
    acquired: Instant,
}

impl WriteGuard<'_> {
    /// Install `table` as the new published version (see the module docs
    /// for the swap/retain/prune protocol). Wait-free: one `swap` and one
    /// `pins` check. A writer that never calls this leaves readers on the
    /// previous version — that is the abort path.
    pub fn publish(&mut self, table: Table, version: u64, applied_seq: Option<u64>) {
        let next = TableVersion::new(
            table,
            version,
            applied_seq,
            self.shard.metrics.live_versions.clone(),
        );
        let next_ptr = Arc::into_raw(Arc::clone(&next)) as *mut TableVersion;
        let prev_ptr = self.shard.current.swap(next_ptr, SeqCst);
        // SAFETY: we own the strong count that was parked in `current`.
        let prev = unsafe { Arc::from_raw(prev_ptr) };
        self.retained.push(prev);
        if self.shard.pins.load(SeqCst) == 0 {
            // Quiescent after the swap: no reader can reach a superseded
            // version through `current` anymore (module-level proof), so
            // the publisher's references can go. Live `ReadView`s keep
            // their own strong counts — each version keeps the live_versions
            // gauge honest from its own `Drop`.
            self.retained.clear();
        }
        self.base = next;
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.shard
            .metrics
            .lock_hold
            .observe_duration(self.acquired.elapsed());
    }
}

/// `target table -> [(referencing table, column index, on_delete)]` for
/// every FK column in the database. Shared by `Arc` snapshot with
/// in-flight operations; rebuilt (as a fresh `Arc`) on DDL.
pub(crate) type ReverseFk = HashMap<String, Vec<(String, usize, OnDelete)>>;

/// The catalog-wide commit seqlock: serializes multi-table publications
/// (mutex) and lets multi-table pins detect overlap (sequence is odd
/// while a publication is in flight; see module docs).
pub(crate) struct CommitClock {
    seq: AtomicU64,
    lock: Mutex<()>,
}

impl CommitClock {
    fn new() -> Arc<CommitClock> {
        Arc::new(CommitClock {
            seq: AtomicU64::new(0),
            lock: Mutex::new(()),
        })
    }

    /// Pin a *consistent* cut across several shards without any lock: pin
    /// each table's published version, validated against the clock so a
    /// multi-table commit can never be observed half-published. Lone
    /// tables skip the clock — a single publish is atomic on its own.
    pub fn pin_cut(
        &self,
        shards: &BTreeMap<String, Arc<Shard>>,
    ) -> BTreeMap<String, Arc<TableVersion>> {
        if shards.len() <= 1 {
            return shards.iter().map(|(n, s)| (n.clone(), s.pin())).collect();
        }
        loop {
            let before = self.seq.load(SeqCst);
            if before & 1 == 1 {
                // A multi-table publication is mid-flight; it is wait-free,
                // so yield once and re-read rather than pinning a doomed cut.
                std::thread::yield_now();
                continue;
            }
            let cut: BTreeMap<String, Arc<TableVersion>> =
                shards.iter().map(|(n, s)| (n.clone(), s.pin())).collect();
            if self.seq.load(SeqCst) == before {
                return cut;
            }
            std::thread::yield_now();
        }
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

/// The engine's table directory: shards plus the schema-level metadata
/// (immutable outside the catalog write lock) that write-set planning and
/// cascade planning need without touching any table.
pub(crate) struct Catalog {
    tables: BTreeMap<String, Arc<Shard>>,
    /// Declarative schema per table — DDL-immutable, so introspection
    /// (admin screens, ORM drift checks) never pins a version.
    schemas: BTreeMap<String, Arc<TableSchema>>,
    /// Direct FK target tables per table (deduped, self excluded).
    fk_targets: HashMap<String, Vec<String>>,
    referencing: Arc<ReverseFk>,
    commit: Arc<CommitClock>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog {
            tables: BTreeMap::new(),
            schemas: BTreeMap::new(),
            fk_targets: HashMap::new(),
            referencing: Arc::new(HashMap::new()),
            commit: CommitClock::new(),
        }
    }

    /// The runtime catalog over what recovery built (snapshot + WAL
    /// replay): each table moves — is not copied — into its shard, with the
    /// version counter and WAL coverage replay left it at.
    pub fn from_recovered(tables: BTreeMap<String, Recovered>) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, r) in tables {
            let schema = Arc::new(r.table.schema.clone());
            catalog.schemas.insert(name.clone(), schema);
            let shard = Shard::new(&name, r.table, r.version, r.applied_seq);
            catalog.tables.insert(name, shard);
        }
        catalog.rebuild_edges();
        catalog
    }

    /// DDL: create a table (caller holds the catalog write lock).
    /// `log` claims the WAL sequence of the `CreateTable` record once the
    /// schema has been accepted; the table is published carrying it, so
    /// compaction can retire the record once a snapshot includes the table.
    /// Returns that sequence number for the caller to flush.
    pub fn create_table(
        &mut self,
        schema: TableSchema,
        log: impl FnOnce(&LogOp) -> Result<Option<u64>, DbError>,
    ) -> Result<Option<u64>, DbError> {
        let table = new_table(&schema, |t| self.tables.contains_key(t))?;
        let seq = log(&LogOp::CreateTable {
            schema: schema.clone(),
        })?;
        // Table creation counts as version 1, as in the seed engine.
        self.tables
            .insert(schema.name.clone(), Shard::new(&schema.name, table, 1, seq));
        self.schemas.insert(schema.name.clone(), Arc::new(schema));
        self.rebuild_edges();
        Ok(seq)
    }

    fn rebuild_edges(&mut self) {
        let mut fk_targets: HashMap<String, Vec<String>> = HashMap::new();
        let mut referencing: ReverseFk = HashMap::new();
        for (name, schema) in &self.schemas {
            for (ci, c) in schema.columns.iter().enumerate() {
                if let Some(fk) = &c.foreign_key {
                    referencing.entry(fk.references.clone()).or_default().push((
                        name.clone(),
                        ci,
                        fk.on_delete,
                    ));
                    if fk.references != *name {
                        let targets = fk_targets.entry(name.clone()).or_default();
                        if !targets.contains(&fk.references) {
                            targets.push(fk.references.clone());
                        }
                    }
                }
            }
        }
        self.fk_targets = fk_targets;
        self.referencing = Arc::new(referencing);
    }

    pub fn shard(&self, name: &str) -> Result<&Arc<Shard>, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    pub fn schema(&self, name: &str) -> Result<Arc<TableSchema>, DbError> {
        self.schemas
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Every shard in canonical order (snapshot / compaction cuts).
    pub fn all_shards(&self) -> impl Iterator<Item = (&str, &Arc<Shard>)> {
        self.tables.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Pin `shards` as one consistent cut (see [`CommitClock::pin_cut`]).
    pub fn pin_cut(
        &self,
        shards: &BTreeMap<String, Arc<Shard>>,
    ) -> BTreeMap<String, Arc<TableVersion>> {
        self.commit.pin_cut(shards)
    }

    /// The reverse-FK closure of `table`: every table a delete on `table`
    /// could mutate through cascades or SET NULLs (including itself).
    fn delete_closure(&self, table: &str) -> BTreeSet<String> {
        let mut set: BTreeSet<String> = BTreeSet::new();
        let mut queue = vec![table.to_string()];
        while let Some(t) = queue.pop() {
            if !set.insert(t.clone()) {
                continue;
            }
            if let Some(refs) = self.referencing.get(&t) {
                for (ref_table, _, _) in refs {
                    if !set.contains(ref_table) {
                        queue.push(ref_table.clone());
                    }
                }
            }
        }
        set
    }

    /// Plan for an insert or update on `table`: the table is the write
    /// set, its FK targets are pinned for row-existence checks.
    pub fn write_plan(&self, table: &str) -> Result<LockPlan, DbError> {
        self.plan_for(BTreeSet::from([table.to_string()]))
    }

    /// Plan for a delete from, or a transaction over, the declared
    /// `tables`: the write set is the union of their delete closures (any
    /// member may be inserted into, updated, or deleted from, and cascades
    /// and SET NULLs mutate the rest).
    pub fn txn_plan(&self, tables: &[&str]) -> Result<LockPlan, DbError> {
        let mut writes: BTreeSet<String> = BTreeSet::new();
        for t in tables {
            // Resolve first so unknown tables error as NoSuchTable.
            self.shard(t)?;
            writes.append(&mut self.delete_closure(t));
        }
        self.plan_for(writes)
    }

    fn plan_for(&self, write_set: BTreeSet<String>) -> Result<LockPlan, DbError> {
        let mut plan = LockPlan {
            writes: BTreeMap::new(),
            targets: BTreeMap::new(),
            referencing: Arc::clone(&self.referencing),
            commit: Arc::clone(&self.commit),
        };
        for w in &write_set {
            for target in self.fk_targets.get(w).into_iter().flatten() {
                if !write_set.contains(target) {
                    plan.targets
                        .insert(target.clone(), Arc::clone(self.shard(target)?));
                }
            }
        }
        for w in write_set {
            let shard = Arc::clone(self.shard(&w)?);
            plan.writes.insert(w, shard);
        }
        Ok(plan)
    }
}

/// A computed, not-yet-acquired write set. Built under the catalog read
/// lock; acquired after it is released.
pub(crate) struct LockPlan {
    /// Tables the operation may mutate, canonically ordered by the map.
    writes: BTreeMap<String, Arc<Shard>>,
    /// FK targets outside the write set: pinned, never locked.
    targets: BTreeMap<String, Arc<Shard>>,
    referencing: Arc<ReverseFk>,
    commit: Arc<CommitClock>,
}

impl LockPlan {
    /// Take every write-set mutex in canonical order (see the module docs
    /// for why this cannot deadlock), pinning each table's base as its
    /// mutex is won, and only then pin the FK targets — as one cut, so the
    /// operation's reads across them are untorn.
    pub fn acquire(&self) -> BufferedTables<'_> {
        let writes = self
            .writes
            .iter()
            .map(|(name, shard)| (name.as_str(), (shard.write(), None)))
            .collect();
        BufferedTables {
            writes,
            targets: self.commit.pin_cut(&self.targets),
            referencing: &self.referencing,
            commit: &self.commit,
        }
    }
}

/// An acquired write set and the **delta write-buffer** over it: what the
/// mutation logic in [`crate::db`] runs against for every live write.
///
/// A buffer is created lazily, on the first mutation of each table, as a
/// copy-on-write *structural* clone of the table's base — O(chunk spine)
/// `Arc` bumps, no row data. From then on:
///
/// * **reads inside the operation** resolve buffer-or-base:
///   [`Self::table_ref`] returns the buffer when one exists (the
///   operation sees its own writes) and the pinned version otherwise;
/// * **mutations** apply to the buffer through the ordinary per-row
///   copy-on-write path, materializing exactly the rows touched;
/// * **commit** ([`Self::commit`]) moves each dirty buffer into the
///   table's next published version — no second clone, no replay;
/// * **rollback is `Drop`**: the buffers vanish and nothing shared was
///   ever touched, so there is nothing to restore and no journal to keep.
///   A transaction that mutates two of its five declared tables clones two
///   spines, not five.
pub(crate) struct BufferedTables<'a> {
    writes: BTreeMap<&'a str, (WriteGuard<'a>, Option<Buffer>)>,
    targets: BTreeMap<String, Arc<TableVersion>>,
    referencing: &'a ReverseFk,
    commit: &'a CommitClock,
}

struct Buffer {
    table: Table,
    /// Starts at the base's `version`; the buffer is dirty iff it moved.
    version: u64,
}

impl<'a> BufferedTables<'a> {
    /// Publish a new version of every *dirty* table, stamped with
    /// `last_seq` (the batch's final WAL sequence number — every table the
    /// batch wrote is covered up to it, since other writers of those
    /// tables are excluded by the guards), then release the write set.
    /// Clean buffers are simply dropped: an untouched table is never
    /// republished. Multi-table publications run under the commit clock so
    /// concurrent `pin_cut`s either see all of the batch or none of it.
    ///
    /// Also drains each dirty table's write-amplification counters into the
    /// `simdb_rows_copied_per_write` and
    /// `simdb_index_entries_copied_per_write` histograms: one observation
    /// per commit, covering everything the write actually materialized.
    pub fn commit(mut self, last_seq: Option<u64>) {
        let dirty: Vec<(&mut WriteGuard, Buffer)> = self
            .writes
            .values_mut()
            .filter_map(|(guard, buffer)| {
                let buffer = buffer.take()?;
                (buffer.version != guard.base.version).then_some((guard, buffer))
            })
            .collect();
        if dirty.is_empty() {
            return;
        }
        let multi = dirty.len() > 1;
        let _serialize = multi.then(|| {
            let guard = self.commit.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.commit.seq.fetch_add(1, SeqCst); // odd: cut invalid
            guard
        });
        let (mut rows_copied, mut index_entries_copied) = (0u64, 0u64);
        for (guard, mut buffer) in dirty {
            let copied = buffer.table.take_copied();
            rows_copied += copied.rows;
            index_entries_copied += copied.index_entries;
            let applied_seq = last_seq.or(guard.base.applied_seq);
            guard.publish(buffer.table, buffer.version, applied_seq);
        }
        if multi {
            self.commit.seq.fetch_add(1, SeqCst); // even: cut valid again
        }
        let metrics = crate::obs::metrics();
        metrics.rows_copied_per_write.observe(rows_copied);
        metrics
            .index_entries_copied_per_write
            .observe(index_entries_copied);
    }

    /// A table this operation may read: one of its write set, or a pinned
    /// FK target.
    pub fn table_ref(&self, name: &str) -> Result<&Table, DbError> {
        if let Some((guard, buffer)) = self.writes.get(name) {
            // Buffer-or-base: the operation's own writes are visible.
            return Ok(buffer.as_ref().map_or(&guard.base.table, |b| &b.table));
        }
        if let Some(version) = self.targets.get(name) {
            return Ok(&version.table);
        }
        Err(DbError::Schema(format!(
            "table {name} is not covered by this operation's write set \
             (declare it in the transaction's table list)"
        )))
    }

    /// The buffer of a write-set table, cloned from its base on first use.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        let (guard, buffer) = self.writes.get_mut(name).ok_or_else(|| {
            DbError::Schema(format!(
                "table {name} is not in this operation's write set \
                 (declare it in the transaction's table list)"
            ))
        })?;
        let buffer = buffer.get_or_insert_with(|| Buffer {
            table: guard.base.table.clone(),
            version: guard.base.version,
        });
        Ok(&mut buffer.table)
    }

    /// `(referencing table, column index, on_delete)` of every FK column
    /// in the database whose target is `target`: schema facts, immutable
    /// after DDL, so cascade planning reads them without touching a table.
    pub fn referencing_columns(&self, target: &str) -> &'a [(String, usize, OnDelete)] {
        self.referencing
            .get(target)
            .map_or(&[][..], |refs| &refs[..])
    }

    /// Bump the table's modification counter: the buffer is dirty, and its
    /// commit publishes the new count with the data.
    pub fn bump_version(&mut self, table: &str) {
        match self.writes.get_mut(table) {
            Some((_, Some(buffer))) => buffer.version += 1,
            _ => debug_assert!(false, "bump_version on unbuffered table {table}"),
        }
    }
}

/// A pinned multi-table snapshot backing [`crate::ReadView`]: one
/// `Arc<TableVersion>` per table, taken as a commit-clock-validated cut.
/// Entirely lock-free to construct and to read; holding one blocks no
/// writer and no other reader — it only keeps superseded versions alive.
pub(crate) struct PinnedView {
    /// Requested order; duplicates in the request map to one pin.
    order: Vec<String>,
    versions: BTreeMap<String, Arc<TableVersion>>,
}

impl PinnedView {
    /// Pin `tables` as one consistent cut (see [`Catalog::pin_cut`]).
    /// The caller holds the catalog read lock only to resolve names.
    pub fn pin(catalog: &Catalog, tables: &[&str]) -> Result<PinnedView, DbError> {
        let mut shards: BTreeMap<String, Arc<Shard>> = BTreeMap::new();
        for t in tables {
            if !shards.contains_key(*t) {
                shards.insert((*t).to_string(), Arc::clone(catalog.shard(t)?));
            }
        }
        Ok(PinnedView {
            order: tables.iter().map(|t| (*t).to_string()).collect(),
            versions: catalog.pin_cut(&shards),
        })
    }

    pub fn version(&self, table: &str) -> Result<&TableVersion, DbError> {
        self.versions
            .get(table)
            .map(|v| &**v)
            .ok_or_else(|| DbError::Schema(format!("table {table} is not part of this read view")))
    }

    /// Versions of the viewed tables, in the order they were requested.
    pub fn versions(&self) -> Vec<u64> {
        self.order
            .iter()
            .map(|t| self.versions.get(t).map(|v| v.version).unwrap_or(0))
            .collect()
    }

    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn shard_named(name: &str) -> Arc<Shard> {
        let table = Table::new(TableSchema::new(
            name,
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
        Shard::new(name, table, 1, None)
    }

    /// Publish the base's rows again under a new version number.
    fn publish(w: &mut WriteGuard, version: u64) {
        w.publish(w.base.table.clone(), version, None);
    }

    fn catalog(schemas: Vec<TableSchema>) -> Catalog {
        let mut c = Catalog::new();
        for schema in schemas {
            c.create_table(schema, |_| Ok(None)).unwrap();
        }
        c
    }

    #[test]
    fn pin_sees_only_published_state() {
        let s = shard_named("t");
        let mut w = s.write();
        // Holding the writer mutex changes nothing readers can see.
        assert_eq!(s.pin().version, 1);
        publish(&mut w, 7);
        assert_eq!(s.pin().version, 7);
        // The next writer's base is what the last one published.
        drop(w);
        assert_eq!(s.write().base.version, 7);
    }

    #[test]
    fn pinned_version_is_immutable_across_publishes() {
        let s = shard_named("t");
        let pinned = s.pin();
        for i in 2..10 {
            publish(&mut s.write(), i);
        }
        // The pin still reads the state it pinned; fresh pins see the tip.
        assert_eq!(pinned.version, 1);
        assert_eq!(s.pin().version, 9);
    }

    #[test]
    fn superseded_versions_freed_after_last_pin_drops() {
        // Unique table name: the live-versions gauge is process-global.
        let s = shard_named("t_freed");
        let gauge = amp_obs::registry().gauge(&amp_obs::labeled(
            "simdb_table_live_versions",
            &[("table", "t_freed")],
        ));
        let pinned = s.pin();
        for i in 2..6 {
            publish(&mut s.write(), i);
        }
        // The outstanding pin holds version 1 alive alongside the tip; the
        // superseded versions in between died at their publish.
        assert_eq!(gauge.get(), 2, "pinned + current versions alive");
        // The gauge decrements the moment the pin drops — no publish needed.
        drop(pinned);
        assert_eq!(gauge.get(), 1, "gauge lagged past the last pin drop");
        let mut w = s.write();
        publish(&mut w, 6);
        assert_eq!(gauge.get(), 1, "only the current version remains alive");
        assert!(w.retained.is_empty());
    }

    #[test]
    fn stress_many_readers_and_writers() {
        let s = shard_named("t");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let mut w = s.write();
                    let next = w.base.version + 1;
                    publish(&mut w, next);
                }
            }));
        }
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..500 {
                    let v = s.pin().version;
                    assert!(v >= last, "published versions went backwards");
                    last = v;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No writer lost an increment: each one's base was the last publish.
        assert_eq!(s.pin().version, 1 + 4 * 500);
    }

    #[test]
    fn delete_closure_follows_reverse_edges() {
        let c = catalog(vec![
            TableSchema::new("a", vec![]),
            TableSchema::new(
                "b",
                vec![Column::new("a_id", ValueType::Int).references("a", OnDelete::Cascade)],
            ),
            TableSchema::new(
                "c",
                vec![Column::new("b_id", ValueType::Int).references("b", OnDelete::SetNull)],
            ),
            TableSchema::new("lonely", vec![]),
        ]);
        let closure = c.delete_closure("a");
        assert!(closure.contains("a") && closure.contains("b") && closure.contains("c"));
        assert!(!closure.contains("lonely"));
        assert_eq!(c.delete_closure("c").len(), 1);
    }

    #[test]
    fn txn_plan_locks_closure_and_fk_targets() {
        let c = catalog(vec![
            TableSchema::new("parent", vec![]),
            TableSchema::new(
                "child",
                vec![Column::new("p", ValueType::Int).references("parent", OnDelete::Cascade)],
            ),
        ]);
        let parent = c.shard("parent").unwrap();
        let plan = c.txn_plan(&["child"]).unwrap();
        let set = plan.acquire();
        // child is written; parent is pinned for FK checks, not locked.
        assert!(set.writes.contains_key("child") && !set.writes.contains_key("parent"));
        assert!(set.targets.contains_key("parent"));
        assert!(parent.writer.try_lock().is_ok());
        drop(set);
        // Declaring parent pulls child into the write set (cascade reach).
        let plan = c.txn_plan(&["parent"]).unwrap();
        let set = plan.acquire();
        assert!(set.writes.contains_key("parent") && set.writes.contains_key("child"));
        assert!(set.targets.is_empty());
        assert!(parent.writer.try_lock().is_err());
    }
}
