//! Per-table sharded concurrency with an MVCC read path: writers take one
//! lock per table, readers take **no locks at all**.
//!
//! The seed engine serialized every portal worker and daemon thread on a
//! single `RwLock<Database>`; PR 5 sharded that into one lock per table,
//! but readers still contended with writers on each table's lock. This
//! module removes readers from the lock protocol entirely: every
//! [`Shard`] *publishes* an [`Arc<TableVersion>`] — an immutable snapshot
//! of the table's rows, indexes, modification counter, and WAL coverage —
//! and readers pin it with two atomic operations ([`Shard::pin`]).
//! Writers keep the writer-preferring lock *among themselves*, mutate a
//! private working copy via copy-on-write (see [`crate::table`]), and
//! atomically install a new version at commit. Rollback = never publish.
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
//! * **publish** (writer, serialized by the shard write lock):
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
//! bump back to even. Multi-table pins ([`Catalog::pin_cut`]) read the
//! sequence, pin, and re-read: an odd or changed sequence means a commit
//! overlapped and the cut retries. Publishing is wait-free (a few `Arc`
//! bumps per table), so the retry window is tiny. Single-table commits
//! skip the clock entirely — their one publish is already atomic.
//!
//! # Locking hierarchy and deadlock freedom (writer side)
//!
//! Locks are always taken in this order, and released before anything
//! earlier in the order is re-acquired:
//!
//! 1. the **catalog** lock (`RwLock` in `lib.rs`) — read to resolve names
//!    to shards and compute lock sets, write only for DDL;
//! 2. **table shard locks**, acquired in canonical (sorted-by-name) order
//!    with the required mode per table ([`LockPlan::acquire`]);
//! 3. the **WAL** queue/file mutexes (sequence claim happens while table
//!    locks are held; the durability flush happens after release for
//!    single ops, under the guards for transactions so they can roll back);
//! 4. the **commit clock** mutex — taken only at multi-table publish,
//!    while holding write guards, never while acquiring any earlier lock.
//!
//! Because every operation acquires its entire shard set in one ascending
//! pass, every wait-for edge points from a lock to a strictly later lock
//! in the canonical order — the wait-for graph is acyclic, so deadlock is
//! structurally impossible regardless of which tables writers touch.
//! Readers participate in no lock at all and cannot deadlock by
//! construction.
//!
//! # Lock sets (writer side)
//!
//! The set of shards an operation must hold is computed from immutable
//! schema facts (FK edges change only at DDL, under the catalog write
//! lock):
//!
//! * insert / update on `T`: write `T`, read `T`'s FK target tables
//!   (existence checks must see committed-and-stable rows);
//! * delete on `T`: write locks on the reverse-FK closure of `T` — every
//!   table a cascade or SET NULL could touch;
//! * transaction over declared tables `D`: write locks on the union of the
//!   members' delete closures, read locks on their FK targets.

use crate::db::TableSet;
use crate::error::DbError;
use crate::obs::ShardMetrics;
use crate::query::Query;
use crate::schema::{OnDelete, TableSchema};
use crate::table::{Row, Table};
use crate::value::Value;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One published, immutable snapshot of a table. Readers hold these by
/// `Arc`; the storage inside is copy-on-write, so a version is a cheap
/// structural share of the writer's working state at commit time.
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

/// The writer-side working state a shard's lock protects. Mutations apply
/// here first; readers never see it — they see the last published
/// [`TableVersion`]. `retained`/`history` are publisher bookkeeping,
/// touched only while the write lock is held.
pub(crate) struct ShardState {
    pub table: Table,
    /// Monotone per-table modification counter (see `Db::table_version`).
    pub version: u64,
    /// Highest WAL seq applied to this table (stamped into publications).
    pub applied_seq: Option<u64>,
    /// Superseded versions that could not yet be proven unreachable (a
    /// reader was mid-pin at swap time). Pruned at the next quiescent
    /// publish; see the module docs.
    retained: Vec<Arc<TableVersion>>,
}

/// Reader/writer bookkeeping for a shard's writer-side lock.
#[derive(Default)]
struct LockCore {
    readers: usize,
    writer: bool,
    /// Writers queued; lock-readers yield to them (writer preference) so
    /// FK-check read locks cannot starve the daemon's status writes.
    waiting_writers: usize,
    /// Total write-guard releases, ever. An arriving lock-reader snapshots
    /// `writer_releases + waiting_writers + active` as its admission
    /// ticket: it yields to the writers already present, but not to
    /// writers that arrive after it — bounding reader wait under a
    /// continuous writer stream (the starvation latent in the PR 5 loop).
    writer_releases: u64,
}

/// One table's shard: the published-version slot readers pin lock-free,
/// plus a writer-preferring reader/writer lock with *owned* guards
/// (guards keep the shard alive via `Arc`) for the writer side, plus the
/// per-table metrics.
///
/// The lock is hand-rolled over `Mutex`+`Condvar` because the vendored
/// `parking_lot` stand-in has no owned-guard (`arc_lock`) API. It no
/// longer sits on the plain-read path at all — only writers (and the FK
/// read locks inside write plans) touch it.
pub(crate) struct Shard {
    /// `Arc::into_raw` of the latest published [`TableVersion`]; the shard
    /// owns this strong reference until `swap`ped out or dropped.
    current: AtomicPtr<TableVersion>,
    /// Readers currently inside the pin window (between loading `current`
    /// and owning a strong count).
    pins: AtomicUsize,
    core: Mutex<LockCore>,
    cond: Condvar,
    state: UnsafeCell<ShardState>,
    metrics: ShardMetrics,
}

// SAFETY: `state` is only ever reached through `ReadGuard`/`WriteGuard`,
// whose construction goes through the reader/writer protocol on `core`:
// shared references exist only while `readers > 0 && !writer`, exclusive
// references only while `writer && readers == 0`. `current` is reclaimed
// through the pin protocol documented on the module.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    pub fn new(name: &str, table: Table, version: u64, applied_seq: Option<u64>) -> Arc<Shard> {
        let metrics = ShardMetrics::for_table(name);
        let first = TableVersion::new(
            table.clone(),
            version,
            applied_seq,
            metrics.live_versions.clone(),
        );
        Arc::new(Shard {
            current: AtomicPtr::new(Arc::into_raw(first) as *mut TableVersion),
            pins: AtomicUsize::new(0),
            core: Mutex::new(LockCore::default()),
            cond: Condvar::new(),
            state: UnsafeCell::new(ShardState {
                table,
                version,
                applied_seq,
                retained: Vec::new(),
            }),
            metrics,
        })
    }

    fn lock_core(&self) -> std::sync::MutexGuard<'_, LockCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
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

    /// Acquire a shared (writer-side) guard — used by FK-check read locks
    /// inside write plans, *not* by plain reads (those use [`Shard::pin`]).
    /// Yields to the writers present at arrival, but not to later ones.
    pub fn read(self: &Arc<Self>) -> ReadGuard {
        let wait_start = Instant::now();
        let mut core = self.lock_core();
        let ticket = core.writer_releases + core.waiting_writers as u64 + u64::from(core.writer);
        while core.writer || (core.waiting_writers > 0 && core.writer_releases < ticket) {
            core = self.cond.wait(core).unwrap_or_else(|e| e.into_inner());
        }
        core.readers += 1;
        drop(core);
        self.metrics
            .lock_wait
            .observe_duration(wait_start.elapsed());
        ReadGuard {
            shard: Arc::clone(self),
        }
    }

    /// Acquire the exclusive (write) guard.
    pub fn write(self: &Arc<Self>) -> WriteGuard {
        let wait_start = Instant::now();
        let mut core = self.lock_core();
        core.waiting_writers += 1;
        while core.writer || core.readers > 0 {
            core = self.cond.wait(core).unwrap_or_else(|e| e.into_inner());
        }
        core.waiting_writers -= 1;
        core.writer = true;
        drop(core);
        self.metrics
            .lock_wait
            .observe_duration(wait_start.elapsed());
        // SAFETY: exclusive from here until the guard drops.
        let entry_version = unsafe { (*self.state.get()).version };
        WriteGuard {
            shard: Arc::clone(self),
            acquired: Instant::now(),
            entry_version,
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Reclaim the strong reference parked in `current`. No pins can be
        // in flight: dropping the shard means no `Arc<Shard>` remains.
        let ptr = *self.current.get_mut();
        unsafe { drop(Arc::from_raw(ptr)) };
    }
}

/// Owned shared guard over one shard's writer-side state.
pub(crate) struct ReadGuard {
    shard: Arc<Shard>,
}

impl std::ops::Deref for ReadGuard {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        // SAFETY: the read protocol guarantees no writer is active while
        // this guard lives.
        unsafe { &*self.shard.state.get() }
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        let mut core = self.shard.lock_core();
        core.readers -= 1;
        let wake = core.readers == 0;
        drop(core);
        if wake {
            self.shard.cond.notify_all();
        }
    }
}

/// Owned exclusive guard over one shard's working state. Records the hold
/// duration into the shard's `simdb_table_lock_hold_seconds{table}`
/// histogram on drop.
pub(crate) struct WriteGuard {
    shard: Arc<Shard>,
    acquired: Instant,
    /// `version` at acquisition — publication happens only if it moved.
    entry_version: u64,
}

impl std::ops::Deref for WriteGuard {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        // SAFETY: exclusive while this guard lives.
        unsafe { &*self.shard.state.get() }
    }
}

impl std::ops::DerefMut for WriteGuard {
    fn deref_mut(&mut self) -> &mut ShardState {
        // SAFETY: exclusive while this guard lives.
        unsafe { &mut *self.shard.state.get() }
    }
}

impl WriteGuard {
    /// Uncommitted changes since acquisition?
    pub fn is_dirty(&self) -> bool {
        self.version != self.entry_version
    }

    /// Install the working state as the new published version (see the
    /// module docs for the swap/retain/prune protocol). Wait-free: a COW
    /// table clone, one `swap`, and one `pins` check. Callers that
    /// mutated state and *don't* publish (rollback) leave readers on the
    /// previous version — that is the abort path.
    pub fn publish(&mut self) {
        let shard = Arc::clone(&self.shard);
        let state = &mut **self;
        let next = TableVersion::new(
            state.table.clone(),
            state.version,
            state.applied_seq,
            shard.metrics.live_versions.clone(),
        );
        let next_ptr = Arc::into_raw(next) as *mut TableVersion;
        let prev_ptr = shard.current.swap(next_ptr, SeqCst);
        // SAFETY: we own the strong count that was parked in `current`.
        let prev = unsafe { Arc::from_raw(prev_ptr) };
        state.retained.push(prev);
        if shard.pins.load(SeqCst) == 0 {
            // Quiescent after the swap: no reader can reach a superseded
            // version through `current` anymore (module-level proof), so
            // the publisher's references can go. Live `ReadView`s keep
            // their own strong counts — each version keeps the live_versions
            // gauge honest from its own `Drop`.
            state.retained.clear();
        }
        self.entry_version = self.version;
    }
}

impl Drop for WriteGuard {
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || !self.is_dirty(),
            "write guard dropped with unpublished, unrolled-back changes"
        );
        self.shard
            .metrics
            .lock_hold
            .observe_duration(self.acquired.elapsed());
        let mut core = self.shard.lock_core();
        core.writer = false;
        core.writer_releases += 1;
        drop(core);
        self.shard.cond.notify_all();
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
}

/// The engine's table directory: shards plus the schema-level metadata
/// (immutable outside the catalog write lock) that lock-set planning and
/// cascade planning need without touching row locks.
pub(crate) struct Catalog {
    tables: BTreeMap<String, Arc<Shard>>,
    /// Declarative schema per table — DDL-immutable, so introspection
    /// (admin screens, ORM drift checks) never takes a shard lock.
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

    /// Build the runtime catalog from recovered storage (snapshot + WAL
    /// replay), carrying over the version counters and per-table WAL
    /// coverage the replay produced.
    pub fn from_parts(
        tables: BTreeMap<String, Table>,
        versions: &BTreeMap<String, u64>,
        applied: &BTreeMap<String, u64>,
    ) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, table) in tables {
            let version = versions.get(&name).copied().unwrap_or(0);
            let applied_seq = applied.get(&name).copied();
            catalog
                .schemas
                .insert(name.clone(), Arc::new(table.schema.clone()));
            catalog
                .tables
                .insert(name.clone(), Shard::new(&name, table, version, applied_seq));
        }
        catalog.rebuild_edges();
        catalog
    }

    /// DDL: create a table (the sharded analogue of
    /// `Database::create_table`; caller holds the catalog write lock).
    pub fn create_table(&mut self, schema: TableSchema) -> Result<crate::db::LogOp, DbError> {
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
        self.schemas
            .insert(schema.name.clone(), Arc::new(schema.clone()));
        // Table creation counts as version 1, as in the seed engine. The
        // WAL seq of the CreateTable record isn't known yet; the DDL path
        // republishes with it once claimed (still under the catalog write
        // lock), so compaction can retire the record.
        self.tables.insert(
            schema.name.clone(),
            Shard::new(&schema.name, table, 1, None),
        );
        self.rebuild_edges();
        Ok(crate::db::LogOp::CreateTable { schema })
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

    /// Pin a *consistent* cut across several shards without any lock: pin
    /// each table's published version, validated against the commit clock
    /// so a multi-table commit can never be observed half-published. Lone
    /// tables skip the clock — a single publish is atomic on its own.
    pub fn pin_cut(
        &self,
        shards: &BTreeMap<String, Arc<Shard>>,
    ) -> BTreeMap<String, Arc<TableVersion>> {
        if shards.len() <= 1 {
            return shards.iter().map(|(n, s)| (n.clone(), s.pin())).collect();
        }
        loop {
            let before = self.commit.seq.load(SeqCst);
            if before & 1 == 1 {
                // A multi-table publication is mid-flight; it is wait-free,
                // so yield once and re-read rather than pinning a doomed cut.
                std::thread::yield_now();
                continue;
            }
            let cut: BTreeMap<String, Arc<TableVersion>> =
                shards.iter().map(|(n, s)| (n.clone(), s.pin())).collect();
            if self.commit.seq.load(SeqCst) == before {
                return cut;
            }
            std::thread::yield_now();
        }
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

    /// Lock plan for an insert or update on `table`: exclusive on the
    /// table, shared on its FK targets (row-existence checks).
    pub fn write_plan(&self, table: &str) -> Result<LockPlan, DbError> {
        let mut entries = BTreeMap::new();
        entries.insert(table.to_string(), (Arc::clone(self.shard(table)?), true));
        for target in self.fk_targets.get(table).into_iter().flatten() {
            if target != table {
                entries
                    .entry(target.clone())
                    .or_insert((Arc::clone(self.shard(target)?), false));
            }
        }
        Ok(self.plan_from(entries))
    }

    /// Lock plan for a delete on `table`: exclusive on the whole reverse-FK
    /// closure (cascades and SET NULLs mutate those tables).
    pub fn delete_plan(&self, table: &str) -> Result<LockPlan, DbError> {
        // Resolve the root first so unknown tables error as NoSuchTable.
        self.shard(table)?;
        let mut entries = BTreeMap::new();
        for t in self.delete_closure(table) {
            entries.insert(t.clone(), (Arc::clone(self.shard(&t)?), true));
        }
        Ok(self.plan_from(entries))
    }

    /// Lock plan for a transaction over the declared `tables`: exclusive
    /// on the union of their delete closures (any member may be inserted
    /// into, updated, or deleted from), shared on the FK targets of that
    /// write set.
    pub fn txn_plan(&self, tables: &[&str]) -> Result<LockPlan, DbError> {
        let mut writes: BTreeSet<String> = BTreeSet::new();
        for t in tables {
            self.shard(t)?;
            writes.append(&mut self.delete_closure(t));
        }
        let mut entries = BTreeMap::new();
        for w in &writes {
            entries.insert(w.clone(), (Arc::clone(self.shard(w)?), true));
        }
        for w in &writes {
            for target in self.fk_targets.get(w).into_iter().flatten() {
                if !writes.contains(target) {
                    entries
                        .entry(target.clone())
                        .or_insert((Arc::clone(self.shard(target)?), false));
                }
            }
        }
        Ok(self.plan_from(entries))
    }

    fn plan_from(&self, entries: BTreeMap<String, (Arc<Shard>, bool)>) -> LockPlan {
        LockPlan {
            entries,
            referencing: Arc::clone(&self.referencing),
            commit: Arc::clone(&self.commit),
        }
    }
}

/// A computed, not-yet-acquired lock set: `table -> (shard, exclusive?)`,
/// canonically ordered by the `BTreeMap`. Built under the catalog read
/// lock; acquired after it is released.
pub(crate) struct LockPlan {
    entries: BTreeMap<String, (Arc<Shard>, bool)>,
    referencing: Arc<ReverseFk>,
    commit: Arc<CommitClock>,
}

impl LockPlan {
    /// Acquire every lock in canonical order (see module docs for why this
    /// cannot deadlock) and return the locked table set.
    pub fn acquire(self) -> LockedTables {
        let mut writes = BTreeMap::new();
        let mut reads = BTreeMap::new();
        for (name, (shard, exclusive)) in self.entries {
            if exclusive {
                writes.insert(name, shard.write());
            } else {
                reads.insert(name, shard.read());
            }
        }
        LockedTables {
            writes,
            reads,
            referencing: self.referencing,
            commit: self.commit,
        }
    }
}

/// An acquired lock set: the tables one operation may touch, write guards
/// for its mutation targets and read guards for FK-existence checks.
/// Implements [`TableSet`], so the shared mutation engine in
/// [`crate::db::ops`] runs against it unchanged. Mutations apply to the
/// private working copies; nothing is visible to readers until
/// [`LockedTables::commit`] publishes.
pub(crate) struct LockedTables {
    pub writes: BTreeMap<String, WriteGuard>,
    pub reads: BTreeMap<String, ReadGuard>,
    referencing: Arc<ReverseFk>,
    commit: Arc<CommitClock>,
}

impl TableSet for LockedTables {
    fn table_ref(&self, name: &str) -> Result<&Table, DbError> {
        if let Some(g) = self.writes.get(name) {
            return Ok(&g.table);
        }
        if let Some(g) = self.reads.get(name) {
            return Ok(&g.table);
        }
        Err(DbError::Schema(format!(
            "table {name} is not covered by this operation's lock set \
             (declare it in the transaction's table list)"
        )))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        match self.writes.get_mut(name) {
            Some(g) => Ok(&mut g.table),
            None => Err(DbError::Schema(format!(
                "table {name} is not write-locked by this operation \
                 (declare it in the transaction's table list)"
            ))),
        }
    }

    fn referencing_columns(&self, target: &str) -> Vec<(String, usize, OnDelete)> {
        self.referencing.get(target).cloned().unwrap_or_default()
    }

    fn bump_version(&mut self, table: &str) {
        if let Some(g) = self.writes.get_mut(table) {
            g.version += 1;
        } else {
            debug_assert!(false, "bump_version on unlocked table {table}");
        }
    }
}

impl LockedTables {
    /// Commit: publish a new version of every *dirty* write-locked table,
    /// stamped with `last_seq` (the batch's final WAL sequence number —
    /// every table the batch wrote is covered up to it, since other
    /// writers of those tables are excluded by the guards). Multi-table
    /// publications run under the commit clock so concurrent `pin_cut`s
    /// either see all of the batch or none of it.
    ///
    /// Also drains each dirty table's write-amplification counters into the
    /// `simdb_rows_copied_per_write` and
    /// `simdb_index_entries_copied_per_write` histograms: one observation
    /// per commit, covering everything the write actually materialized.
    pub fn commit(&mut self, last_seq: Option<u64>) {
        let dirty = self.writes.values().filter(|g| g.is_dirty()).count();
        if dirty == 0 {
            return;
        }
        let _serialize = if dirty > 1 {
            let guard = self.commit.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.commit.seq.fetch_add(1, SeqCst); // odd: cut invalid
            Some(guard)
        } else {
            None
        };
        let (mut rows_copied, mut index_entries_copied) = (0u64, 0u64);
        for g in self.writes.values_mut() {
            if g.is_dirty() {
                if last_seq.is_some() {
                    g.applied_seq = last_seq;
                }
                let copied = g.table.take_copied();
                rows_copied += copied.rows;
                index_entries_copied += copied.index_entries;
                g.publish();
            }
        }
        if dirty > 1 {
            self.commit.seq.fetch_add(1, SeqCst); // even: cut valid again
        }
        let metrics = crate::obs::metrics();
        metrics.rows_copied_per_write.observe(rows_copied);
        metrics
            .index_entries_copied_per_write
            .observe(index_entries_copied);
    }
}

/// The per-transaction **delta write-buffer**: a [`TableSet`] layered over
/// an acquired lock set that absorbs every mutation into transaction-
/// private buffers instead of the shards' working state.
///
/// A buffer is created lazily, on the first mutation of each table, as a
/// copy-on-write *structural* clone of the base working copy — O(chunk
/// spine) `Arc` bumps, no row data. From then on:
///
/// * **reads inside the transaction** resolve buffer-or-base:
///   [`TableSet::table_ref`] returns the buffer when one exists (the
///   transaction sees its own writes) and the untouched base otherwise;
/// * **mutations** apply to the buffer through the ordinary per-row
///   copy-on-write path, materializing exactly the rows touched;
/// * **commit** ([`Self::commit`]) installs each dirty buffer as the
///   shard's new working state — the overlay *is* the merged spine, so the
///   merge is a move, not a replay — and publishes under the commit clock;
/// * **rollback is `Drop`**: the buffers vanish and the base working state
///   was never touched, so there is nothing to restore and no journal to
///   keep. A transaction that mutates only two of its five declared tables
///   clones two spines, not five (the old backup journal cloned all).
pub(crate) struct BufferedTables<'a> {
    locked: &'a mut LockedTables,
    buffers: BTreeMap<String, BufferedTable>,
}

struct BufferedTable {
    table: Table,
    version: u64,
    /// Base `version` at buffer creation; the buffer is dirty iff moved.
    entry_version: u64,
}

impl<'a> BufferedTables<'a> {
    pub fn new(locked: &'a mut LockedTables) -> BufferedTables<'a> {
        BufferedTables {
            locked,
            buffers: BTreeMap::new(),
        }
    }

    /// Install every dirty buffer into its shard's working state and
    /// publish (see [`LockedTables::commit`]). Clean buffers are simply
    /// dropped — an untouched table is never republished.
    pub fn commit(self, last_seq: Option<u64>) {
        for (name, buf) in self.buffers {
            if buf.version != buf.entry_version {
                let g = self
                    .locked
                    .writes
                    .get_mut(&name)
                    .expect("buffer exists only for write-locked tables");
                g.table = buf.table;
                g.version = buf.version;
            }
        }
        self.locked.commit(last_seq);
    }
}

impl TableSet for BufferedTables<'_> {
    fn table_ref(&self, name: &str) -> Result<&Table, DbError> {
        if let Some(b) = self.buffers.get(name) {
            return Ok(&b.table); // buffer-or-base: own writes visible
        }
        self.locked.table_ref(name)
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        if !self.buffers.contains_key(name) {
            let g = self.locked.writes.get(name).ok_or_else(|| {
                DbError::Schema(format!(
                    "table {name} is not write-locked by this operation \
                     (declare it in the transaction's table list)"
                ))
            })?;
            self.buffers.insert(
                name.to_string(),
                BufferedTable {
                    table: g.table.clone(),
                    version: g.version,
                    entry_version: g.version,
                },
            );
        }
        Ok(&mut self.buffers.get_mut(name).expect("just inserted").table)
    }

    fn referencing_columns(&self, target: &str) -> Vec<(String, usize, OnDelete)> {
        self.locked.referencing_columns(target)
    }

    fn bump_version(&mut self, table: &str) {
        match self.buffers.get_mut(table) {
            Some(b) => b.version += 1,
            None => debug_assert!(false, "bump_version on unbuffered table {table}"),
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

/// Read helpers shared by `Connection` single-table reads and `ReadView`:
/// plain query execution against a pinned version's table.
pub(crate) fn select(table: &Table, query: &Query) -> Result<Vec<(i64, Row)>, DbError> {
    query.execute(table)
}

pub(crate) fn select_project(
    table: &Table,
    query: &Query,
    column: &str,
) -> Result<Vec<(i64, Value)>, DbError> {
    query.project(table, column)
}

pub(crate) fn get(table: &Table, name: &str, id: i64) -> Result<Row, DbError> {
    table.get(id).cloned().ok_or_else(|| DbError::NoSuchRow {
        table: name.to_string(),
        id,
    })
}

pub(crate) fn count(table: &Table, query: &Query) -> Result<usize, DbError> {
    query.count(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    fn shard() -> Arc<Shard> {
        let table = Table::new(TableSchema::new(
            "t",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
        Shard::new("t", table, 1, None)
    }

    #[test]
    fn readers_share_writers_exclude() {
        let s = shard();
        let r1 = s.read();
        let r2 = s.read();
        assert_eq!(r1.version, 1);
        assert_eq!(r2.version, 1);
        drop((r1, r2));
        let mut w = s.write();
        w.version = 2;
        w.publish();
        drop(w);
        assert_eq!(s.read().version, 2);
        assert_eq!(s.pin().version, 2);
    }

    #[test]
    fn pin_sees_only_published_state() {
        let s = shard();
        let mut w = s.write();
        w.version = 7;
        // Mutated but unpublished: readers still see the old version.
        assert_eq!(s.pin().version, 1);
        w.publish();
        assert_eq!(s.pin().version, 7);
        drop(w);
    }

    #[test]
    fn pinned_version_is_immutable_across_publishes() {
        let s = shard();
        let pinned = s.pin();
        for i in 2..10 {
            let mut w = s.write();
            w.version = i;
            w.publish();
        }
        // The pin still reads the state it pinned; fresh pins see the tip.
        assert_eq!(pinned.version, 1);
        assert_eq!(s.pin().version, 9);
    }

    #[test]
    fn superseded_versions_freed_after_last_pin_drops() {
        // Unique table name: the live-versions gauge is process-global.
        let table = Table::new(TableSchema::new(
            "t_freed",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
        let s = Shard::new("t_freed", table, 1, None);
        let gauge = amp_obs::registry().gauge(&amp_obs::labeled(
            "simdb_table_live_versions",
            &[("table", "t_freed")],
        ));
        let pinned = s.pin();
        for i in 2..6 {
            let mut w = s.write();
            w.version = i;
            w.publish();
        }
        // The outstanding pin holds version 1 alive alongside the tip; the
        // superseded versions in between died at their publish.
        assert_eq!(gauge.get(), 2, "pinned + current versions alive");
        // The gauge decrements the moment the pin drops — no publish needed.
        drop(pinned);
        assert_eq!(gauge.get(), 1, "gauge lagged past the last pin drop");
        let mut w = s.write();
        w.version = 6;
        w.publish();
        assert_eq!(gauge.get(), 1, "only the current version remains alive");
        assert!(w.retained.is_empty());
    }

    #[test]
    fn writer_blocks_until_readers_drain() {
        let s = shard();
        let r = s.read();
        let s2 = Arc::clone(&s);
        let entered = Arc::new(AtomicUsize::new(0));
        let entered2 = Arc::clone(&entered);
        let h = std::thread::spawn(move || {
            let mut w = s2.write();
            entered2.store(1, Ordering::SeqCst);
            w.version += 1;
            w.publish();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "writer ran under reader");
        drop(r);
        h.join().unwrap();
        assert_eq!(s.read().version, 2);
    }

    #[test]
    fn readers_yield_to_waiting_writers() {
        // With a writer queued, a new reader must wait; once the writer
        // finishes, readers proceed and see its effect.
        let s = shard();
        let r = s.read();
        let s_w = Arc::clone(&s);
        let w = std::thread::spawn(move || {
            let mut g = s_w.write();
            g.version = 99;
            g.publish();
        });
        // Give the writer time to queue behind `r`.
        std::thread::sleep(Duration::from_millis(30));
        let s_r = Arc::clone(&s);
        let late_reader = std::thread::spawn(move || s_r.read().version);
        std::thread::sleep(Duration::from_millis(30));
        drop(r);
        w.join().unwrap();
        assert_eq!(late_reader.join().unwrap(), 99);
    }

    #[test]
    fn lock_readers_admitted_under_continuous_writers() {
        // Regression for the PR 5 starvation loop: a reader arriving while
        // writers keep queueing used to spin until `waiting_writers == 0`,
        // which a continuous writer stream never reaches. The admission
        // ticket bounds the wait to the writers present at arrival.
        let s = shard();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let mut g = s.write();
                        g.version += 1;
                        g.publish();
                    }
                })
            })
            .collect();
        // Let the writer stream establish itself.
        std::thread::sleep(Duration::from_millis(20));
        let (tx, rx) = std::sync::mpsc::channel();
        let s_r = Arc::clone(&s);
        std::thread::spawn(move || {
            let g = s_r.read();
            let _ = tx.send(g.version);
        });
        let got = rx.recv_timeout(Duration::from_secs(5));
        stop.store(true, Ordering::SeqCst);
        for w in writers {
            w.join().unwrap();
        }
        assert!(got.is_ok(), "reader starved under continuous writer stream");
    }

    #[test]
    fn stress_many_readers_and_writers() {
        let s = shard();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let mut g = s.write();
                    g.version += 1;
                    g.publish();
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
        assert_eq!(s.pin().version, 1 + 4 * 500);
        assert_eq!(s.read().version, 1 + 4 * 500);
    }

    #[test]
    fn delete_closure_follows_reverse_edges() {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new("a", vec![])).unwrap();
        c.create_table(TableSchema::new(
            "b",
            vec![Column::new("a_id", ValueType::Int).references("a", OnDelete::Cascade)],
        ))
        .unwrap();
        c.create_table(TableSchema::new(
            "c",
            vec![Column::new("b_id", ValueType::Int).references("b", OnDelete::SetNull)],
        ))
        .unwrap();
        c.create_table(TableSchema::new("lonely", vec![])).unwrap();
        let closure = c.delete_closure("a");
        assert!(closure.contains("a") && closure.contains("b") && closure.contains("c"));
        assert!(!closure.contains("lonely"));
        assert_eq!(c.delete_closure("c").len(), 1);
    }

    #[test]
    fn txn_plan_locks_closure_and_fk_targets() {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new("parent", vec![])).unwrap();
        c.create_table(TableSchema::new(
            "child",
            vec![Column::new("p", ValueType::Int).references("parent", OnDelete::Cascade)],
        ))
        .unwrap();
        let plan = c.txn_plan(&["child"]).unwrap();
        let set = plan.acquire();
        // child is written; parent is read-locked for FK checks.
        assert!(set.writes.contains_key("child"));
        assert!(set.reads.contains_key("parent"));
        // Declaring parent pulls child into the write set (cascade reach).
        let plan = c.txn_plan(&["parent"]).unwrap();
        drop(set);
        let set = plan.acquire();
        assert!(set.writes.contains_key("parent") && set.writes.contains_key("child"));
    }
}
