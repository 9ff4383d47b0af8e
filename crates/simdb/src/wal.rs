//! Durability: a framed binary commit log and full snapshots.
//!
//! The central database is the only channel between AMP's portal and the
//! GridAMP daemon, so losing it loses all workflow state. The [`Wal`]
//! appends each commit as one checksummed frame; [`Snapshot`] streams the
//! whole database into a file of the same frames. Recovery
//! ([`recover_with_last_seq`]) = load the latest snapshot, then apply the
//! log's suffix in place to the plain tables it held ([`Recovered`]), which
//! then move into the engine's shards; a record that does not apply is
//! `Corrupt`.
//!
//! # The log file (DESIGN §9.13)
//!
//! [`MAGIC`], then frames: `[u32 body length][u32 CRC-32 of the body][body]`,
//! little-endian. One frame is **one commit** — everything one
//! [`Wal::enqueue`] call receives — so a recovered log is a prefix of whole
//! commits. The body is the commit's ops, then the sequence number of the
//! first of them as eight bytes: last, so that the CRC over the ops is taken
//! before the queue lock and only finished under it.
//!
//! An op is a tag byte, the table name, the row id and typed values. Counts,
//! lengths and column indexes are LEB128 varints; ids, `Int`s and
//! `Timestamp`s zigzag varints; a `Float` its eight raw bytes; text
//! length-prefixed UTF-8; each value leads with a type tag. An `Update`
//! carries only the cells that changed ([`LogOp`]), which is sound because
//! replay is an exact, per-table, sequence-ordered prefix over a snapshot
//! that records each table's `applied_seq` and [`Wal::truncate_keeping`]
//! keeps exactly the commits above it: the row a surviving `Update` finds is
//! the row its diff was taken against. `CreateTable`, cold, keeps the
//! schema's JSON as its body.
//!
//! A crash mid-append leaves a torn last frame: a short header, a short
//! body or a CRC mismatch with no valid frame anywhere after it. Recovery
//! ([`Wal::open`], `Db::open`) cuts the file back to its last whole frame and
//! counts the bytes cut in `simdb_wal_torn_tail_bytes_total`;
//! [`Wal::read_frames`] only leaves the tail out. A bad frame *followed by a
//! valid one* is damage, never a torn tail, and answers `Corrupt` with its
//! byte offset.
//!
//! # The snapshot file (DESIGN §9.8)
//!
//! [`SNAPSHOT_MAGIC`], then the same frames with the same value codec, in a
//! fixed order: one file header (`covered_seq`, the per-table `applied_seqs`,
//! the table count); then per table a header (the schema's JSON, `next_id`,
//! the row count) followed by its rows, one frame per storage chunk of at
//! most 256 rows, a row being its zigzag id and one value per column.
//! [`Snapshot::write`] streams those frames into the temporary file, so it
//! never holds more than one chunk's bytes; [`Snapshot::load`] decodes them
//! one by one. A snapshot only ever appears by rename, so it has no
//! legitimate torn tail: a frame that fails its checksum, a file that ends
//! short of the counts it declares and bytes after the last table are all
//! `Corrupt`, with the byte offset.

use crate::db::LogOp;
use crate::error::DbError;
use crate::schema::TableSchema;
use crate::shard::new_table;
use crate::table::{Row, Rows, Table};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// The first bytes of every log file: format name and version.
pub const MAGIC: &[u8; 8] = b"AMPLOG\x00\x01";

/// The first bytes of every snapshot file: format name and version.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AMPSNP\x00\x01";

/// The shortest body of a log frame: one op's tag and the sequence number.
const LOG_FRAME_MIN: usize = 9;

/// The table a logged op targets (per-table WAL coverage accounting).
pub(crate) fn op_table(op: &LogOp) -> &str {
    match op {
        LogOp::CreateTable { schema } => &schema.name,
        LogOp::Insert { table, .. } | LogOp::Update { table, .. } | LogOp::Delete { table, .. } => {
            table
        }
    }
}

/// Slice-by-8 tables for CRC-32 (IEEE, reflected `0xEDB88320`): `[0]` is
/// the classic byte table, `[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes, so eight look-ups advance the state over eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xff) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) state continued over `bytes`: start from `!0`, invert the
/// final state. Eight bytes a step, the last `len % 8` one at a time; the
/// result does not depend on how a buffer is split between calls.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut steps = bytes.chunks_exact(8);
    for step in &mut steps {
        let word = u64::from_le_bytes(step.try_into().expect("eight bytes")) ^ crc as u64;
        crc = (0..8).fold(0, |c, i| c ^ t[7 - i][(word >> (8 * i)) as u8 as usize]);
    }
    for &b in steps.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_int(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => buf.push(1 + *b as u8),
        Value::Int(i) => {
            buf.push(3);
            put_int(buf, *i);
        }
        Value::Float(f) => {
            buf.push(4);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Timestamp(t) => {
            buf.push(5);
            put_int(buf, *t);
        }
        Value::Text(s) => {
            buf.push(6);
            put_bytes(buf, s.as_bytes());
        }
    }
}

/// A schema, cold wherever it is written, keeps its JSON as its encoding.
fn put_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    let json = serde_json::to_vec(schema).expect("schema JSON encode is infallible");
    put_bytes(buf, &json);
}

fn put_op(buf: &mut Vec<u8>, op: &LogOp) {
    let mut head = |tag: u8, table: &str, id: i64| {
        buf.push(tag);
        put_bytes(buf, table.as_bytes());
        put_int(buf, id);
    };
    match op {
        LogOp::CreateTable { schema } => {
            buf.push(0);
            put_schema(buf, schema);
        }
        LogOp::Insert { table, id, row } => {
            head(1, table, *id);
            put_varint(buf, row.len() as u64);
            row.iter().for_each(|v| put_value(buf, v));
        }
        LogOp::Update { table, id, set } => {
            head(2, table, *id);
            put_varint(buf, set.len() as u64);
            for (ci, v) in set {
                put_varint(buf, *ci as u64);
                put_value(buf, v);
            }
        }
        LogOp::Delete { table, id } => head(3, table, *id),
    }
}

fn get_varint(d: &mut &[u8]) -> Option<u64> {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = *d.split_off_first()?;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

fn get_int(d: &mut &[u8]) -> Option<i64> {
    let v = get_varint(d)?;
    Some((v >> 1) as i64 ^ -((v & 1) as i64))
}

fn get_bytes<'a>(d: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = usize::try_from(get_varint(d)?).ok()?;
    d.split_off(..len)
}

fn get_text(d: &mut &[u8]) -> Option<String> {
    String::from_utf8(get_bytes(d)?.to_vec()).ok()
}

fn get_value(d: &mut &[u8]) -> Option<Value> {
    Some(match *d.split_off_first()? {
        0 => Value::Null,
        tag @ 1..=2 => Value::Bool(tag == 2),
        3 => Value::Int(get_int(d)?),
        4 => Value::Float(f64::from_le_bytes(d.split_off(..8)?.try_into().ok()?)),
        5 => Value::Timestamp(get_int(d)?),
        6 => Value::Text(get_text(d)?),
        _ => return None,
    })
}

fn get_schema(d: &mut &[u8]) -> Option<TableSchema> {
    serde_json::from_str(&get_text(d)?).ok()
}

fn get_op(d: &mut &[u8]) -> Option<LogOp> {
    let tag = *d.split_off_first()?;
    if tag == 0 {
        let schema = get_schema(d)?;
        return Some(LogOp::CreateTable { schema });
    }
    let (table, id) = (get_text(d)?, get_int(d)?);
    Some(match tag {
        1 => {
            let row = (0..get_varint(d)?)
                .map(|_| get_value(d))
                .collect::<Option<_>>()?;
            LogOp::Insert { table, id, row }
        }
        2 => {
            let set = (0..get_varint(d)?)
                .map(|_| Some((usize::try_from(get_varint(d)?).ok()?, get_value(d)?)))
                .collect::<Option<_>>()?;
            LogOp::Update { table, id, set }
        }
        3 => LogOp::Delete { table, id },
        _ => return None,
    })
}

/// Step over one value by its length, building nothing.
fn skip_value(d: &mut &[u8]) -> Option<()> {
    match *d.split_off_first()? {
        0..=2 => {}
        3 | 5 => drop(get_varint(d)?),
        4 => drop(d.split_off(..8)?),
        6 => drop(get_bytes(d)?),
        _ => return None,
    }
    Some(())
}

/// Step over one op and answer the table it targets ([`op_table`] of what
/// [`get_op`] would build): the log cut's read of a frame, which borrows
/// the name and skips the cells. Only a `CreateTable`, cold, is decoded.
fn skim_op<'a>(d: &mut &'a [u8]) -> Option<Cow<'a, str>> {
    let tag = *d.split_off_first()?;
    if tag == 0 {
        return Some(Cow::Owned(get_schema(d)?.name));
    }
    let table = std::str::from_utf8(get_bytes(d)?).ok()?;
    get_int(d)?;
    match tag {
        1 => (0..get_varint(d)?).try_for_each(|_| skip_value(d))?,
        2 => (0..get_varint(d)?).try_for_each(|_| get_varint(d).and_then(|_| skip_value(d)))?,
        3 => {}
        _ => return None,
    }
    Some(Cow::Borrowed(table))
}

/// Encode a commit's ops and start the frame's CRC over them: everything
/// of a frame that does not need the sequence number.
fn encode_commit(ops: &[LogOp]) -> Result<(Vec<u8>, u32), DbError> {
    let mut body = Vec::with_capacity(64 * ops.len());
    ops.iter().for_each(|op| put_op(&mut body, op));
    if u32::try_from(body.len() + 8).is_err() {
        return Err(DbError::Io("wal encode: commit over 4 GiB".into()));
    }
    let crc = crc32_update(!0, &body);
    Ok((body, crc))
}

/// Append one frame whose body is `head` then `tail`; `crc` is the CRC
/// state after `head` (a commit's comes from [`encode_commit`]). The
/// caller has checked that the body's length fits the `u32`.
fn push_frame(buf: &mut Vec<u8>, head: &[u8], crc: u32, tail: &[u8]) {
    buf.extend_from_slice(&((head.len() + tail.len()) as u32).to_le_bytes());
    buf.extend_from_slice(&(!crc32_update(crc, tail)).to_le_bytes());
    buf.extend_from_slice(head);
    buf.extend_from_slice(tail);
}

/// One commit as the bytes of its frame, its ops numbered from `first_seq`:
/// for tests and tools that build a log file by hand (after [`MAGIC`]).
pub fn encode_frame(first_seq: u64, ops: &[LogOp]) -> Result<Vec<u8>, DbError> {
    let (mut frame, (body, crc)) = (Vec::new(), encode_commit(ops)?);
    push_frame(&mut frame, &body, crc, &first_seq.to_le_bytes());
    Ok(frame)
}

/// The body, at least `min` bytes of it, of the whole and checksum-clean
/// frame that starts at byte `at`.
fn frame_at(data: &[u8], at: usize, min: usize) -> Option<&[u8]> {
    let mut rest = data.get(at..)?;
    let len = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let body = rest.split_off(..len as usize)?;
    (body.len() >= min && !crc32_update(!0, body) == crc).then_some(body)
}

/// The error every commit gets once a flush has failed (see
/// `CommitState::failed`).
fn dead_log(cause: &str) -> DbError {
    DbError::Io(format!("wal unusable after failed flush: {cause}"))
}

/// One WAL record: a monotonically increasing sequence number plus the op.
#[derive(Debug, Clone)]
pub struct WalRecord {
    pub seq: u64,
    pub op: LogOp,
}

/// One frame of a log file — one commit: its byte range and its records.
#[derive(Debug, Clone)]
pub struct Frame {
    pub offset: usize,
    pub end: usize,
    pub records: Vec<WalRecord>,
}

/// An append-only write-ahead log backed by a file, with **cross-writer
/// group commit**.
///
/// A commit has three phases: (1) encode and checksum the ops — the expensive
/// part — entirely outside any lock; (2) take the cheap `queue` lock just
/// long enough to claim sequence numbers and splice the finished frame
/// into the shared in-memory buffer; (3) make the batch durable through the
/// leader/follower protocol in [`Self::sync_to`]. Phase 3 is the group
/// commit: at most one thread — the *leader* — is elected per flush window
/// under the `commit` mutex; it drains *everything* buffered so far
/// (including frames from writers that arrived while the previous flush was
/// in flight) with a single write + flush + optional `fdatasync`, while
/// every other committer parks on the condvar instead of convoying on a
/// file lock. When the leader publishes the new durable watermark, covered
/// followers return without ever touching the file; uncovered ones elect
/// the next leader. N concurrent daemon writer threads therefore share one
/// durability syscall per window instead of paying one each.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    queue: Mutex<WalQueue>,
    /// Group-commit control block: leader election, follower parking, and
    /// the durable watermark. Never held across file I/O.
    commit: Mutex<CommitState>,
    commit_cond: Condvar,
    /// The file writer. Only the elected leader (`CommitState::flushing`)
    /// and truncation — which first waits out any in-flight flush — touch
    /// it, so this lock is uncontended in steady state.
    file: Mutex<WalFile>,
    /// When set, every group-commit flush is followed by `fdatasync`, so
    /// a commit survives power loss, not just process death. Off by
    /// default (the historical behavior); the fsync is amortized across
    /// the whole batch the group-commit leader drains.
    fsync: std::sync::atomic::AtomicBool,
}

#[derive(Debug)]
struct WalQueue {
    next_seq: u64,
    /// Encoded-but-unflushed frames, in sequence order (led by [`MAGIC`]
    /// while the file is still empty).
    buf: Vec<u8>,
    /// Records currently in `buf` (group-commit batch-size metric).
    pending: usize,
}

#[derive(Debug)]
struct CommitState {
    /// A leader is mid-flush. Guards the file writer by protocol: only the
    /// thread that flipped this true may take the `file` lock for a flush.
    flushing: bool,
    /// Writer threads parked on the condvar waiting for a leader's flush
    /// to cover their records.
    waiters: usize,
    /// Highest sequence number known durable in the file.
    flushed_seq: Option<u64>,
    /// A failed flush may have lost buffered records; the log is unusable.
    failed: Option<String>,
}

#[derive(Debug)]
struct WalFile {
    writer: BufWriter<File>,
    /// The file was created by this open: its directory entry is not known
    /// to be durable until the first `fdatasync`ed flush has also synced
    /// the directory ([`Wal::open_at`] runs before the fsync policy is set).
    created: bool,
}

impl Wal {
    /// Open (or create) a WAL file, continuing after any existing records.
    ///
    /// The file alone does not say where numbering must continue once
    /// compaction has truncated it: a database opens its log with
    /// [`Self::open_at`], past everything its snapshot covers.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let path = path.as_ref();
        let records = if path.exists() {
            read_cutting_torn_tail(path)?
        } else {
            Vec::new()
        };
        Self::open_at(path, records.last().map_or(0, |rec| rec.seq + 1))
    }

    /// Open (or create) a WAL file whose next record is numbered
    /// `next_seq`. The caller has read the file (see
    /// [`recover_with_last_seq`]) and knows that no record in it, and no
    /// record a snapshot already covers, carries that number or a higher one.
    pub(crate) fn open_at(path: impl AsRef<Path>, next_seq: u64) -> Result<Self, DbError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // The first flush of a new file starts it with the header.
        let created = file.metadata()?.len() == 0;
        let buf = if created { MAGIC.to_vec() } else { Vec::new() };
        Ok(Wal {
            path,
            queue: Mutex::new(WalQueue {
                next_seq,
                buf,
                pending: 0,
            }),
            commit: Mutex::new(CommitState {
                flushing: false,
                waiters: 0,
                flushed_seq: next_seq.checked_sub(1),
                failed: None,
            }),
            commit_cond: Condvar::new(),
            file: Mutex::new(WalFile {
                writer: BufWriter::new(file),
                created,
            }),
            fsync: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Enable or disable per-commit `fdatasync` (see the `fsync` field).
    pub fn set_fsync(&self, on: bool) {
        self.fsync.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    pub(crate) fn fsync(&self) -> bool {
        self.fsync.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Highest sequence number assigned so far, or `None` if no record was
    /// ever appended. Tracked in memory so snapshot/checkpoint never has to
    /// re-read the log to learn where it ends.
    pub fn last_seq(&self) -> Option<u64> {
        self.queue
            .lock()
            .expect("wal queue lock")
            .next_seq
            .checked_sub(1)
    }

    /// Append ops and make them durable (group commit). Returns the
    /// sequence number of the last record.
    pub fn append(&self, ops: &[LogOp]) -> Result<u64, DbError> {
        match self.enqueue(ops)? {
            Some(last) => {
                self.sync_to(last)?;
                Ok(last)
            }
            None => Ok(self.queue.lock().expect("wal queue lock").next_seq),
        }
    }

    /// Claim sequence numbers for `ops` and buffer them as one frame
    /// (phases 1–2 of a commit; no durability yet). Returns the last
    /// claimed sequence number, or `None` for an empty batch.
    ///
    /// The sharded engine calls this while still holding the table (or
    /// catalog) write guards covering the ops, so sequence order always
    /// matches apply order — replay cannot reorder ops on the same table.
    /// The flush ([`Self::sync_to`]) happens after the guards are
    /// released, where it group-commits with other tables' writers.
    pub fn enqueue(&self, ops: &[LogOp]) -> Result<Option<u64>, DbError> {
        if ops.is_empty() {
            return Ok(None);
        }
        // Phase 1: encode and checksum before the queue lock.
        let (body, crc) = encode_commit(ops)?;
        // A failed flush lost records and nothing drains the buffer any
        // more: refuse, so the caller publishes nothing that can never be
        // made durable. (Records enqueued while the failing flush was in
        // flight are already published; their `sync_to` reports the error.)
        if let Some(e) = &self.commit.lock().expect("wal commit lock").failed {
            return Err(dead_log(e));
        }

        // Phase 2: claim sequence numbers and buffer the finished frame.
        let mut q = self.queue.lock().expect("wal queue lock");
        let first_seq = q.next_seq;
        push_frame(&mut q.buf, &body, crc, &first_seq.to_le_bytes());
        q.next_seq += ops.len() as u64;
        q.pending += ops.len();
        Ok(Some(q.next_seq - 1))
    }

    /// Ensure every record with `seq <= target` is durable (phase 3: group
    /// commit, leader/follower).
    ///
    /// One thread per flush window is elected leader under the `commit`
    /// mutex; it drains the whole shared buffer and pays one write + flush
    /// (+ one `fdatasync` when durability is on) on behalf of every writer
    /// whose records it covers. Followers park on the condvar — holding no
    /// lock the leader needs — and return as soon as the published durable
    /// watermark reaches their target. Followers that enqueued *during* the
    /// in-flight flush elect the next window's leader on wake-up.
    ///
    /// Invariant: any thread counted in `waiters` when a leader is elected
    /// enqueued its records before parking, so the leader's drain always
    /// covers it (enqueue happens-before park happens-before drain). That
    /// count feeds the `simdb_group_commit_writers` histogram: 1 means the
    /// leader flushed alone; N means one fsync made N writers durable.
    pub fn sync_to(&self, target: u64) -> Result<(), DbError> {
        let mut st = self.commit.lock().expect("wal commit lock");
        loop {
            if let Some(e) = &st.failed {
                return Err(dead_log(e));
            }
            if st.flushed_seq.is_some_and(|s| s >= target) {
                return Ok(()); // a leader's flush already covered us
            }
            if !st.flushing {
                break; // elected: this thread leads the next flush window
            }
            st.waiters += 1;
            st = self.commit_cond.wait(st).expect("wal commit lock");
            st.waiters -= 1;
        }
        st.flushing = true;
        // Everyone parked right now enqueued before parking, so the drain
        // below makes them durable too (see the invariant above).
        let covered_writers = 1 + st.waiters as u64;
        drop(st);

        let (chunk, upto, batch) = {
            let mut q = self.queue.lock().expect("wal queue lock");
            (
                std::mem::take(&mut q.buf),
                q.next_seq - 1,
                std::mem::take(&mut q.pending),
            )
        };
        let res = {
            let mut file = self.file.lock().expect("wal file lock");
            file.writer
                .write_all(&chunk)
                .and_then(|_| file.writer.flush())
                .and_then(|_| {
                    if !self.fsync() {
                        return Ok(());
                    }
                    file.writer.get_ref().sync_data()?;
                    if std::mem::take(&mut file.created) {
                        sync_dir(&self.path)?;
                    }
                    Ok(())
                })
        };

        let mut st = self.commit.lock().expect("wal commit lock");
        st.flushing = false;
        let out = match res {
            Ok(()) => {
                st.flushed_seq = Some(upto);
                let m = crate::obs::metrics();
                m.wal_fsyncs.inc();
                m.wal_bytes.add(chunk.len() as u64);
                if batch > 0 {
                    m.wal_batch.observe(batch as u64);
                }
                m.group_commit_writers.observe(covered_writers);
                Ok(())
            }
            Err(e) => {
                st.failed = Some(e.to_string());
                Err(e.into())
            }
        };
        drop(st);
        self.commit_cond.notify_all();
        out
    }

    /// Block until no flush is in flight, returning the commit-state guard.
    /// While the caller holds it, no leader can be elected.
    fn wait_no_flush(&self) -> std::sync::MutexGuard<'_, CommitState> {
        let mut st = self.commit.lock().expect("wal commit lock");
        while st.flushing {
            st = self.commit_cond.wait(st).expect("wal commit lock");
        }
        st
    }

    /// Compaction truncation: drop every record whose effects the covering
    /// snapshot already contains *per table* — a record survives unless
    /// `applied[table] >= seq`. Safe while writers are running: an
    /// in-flight op that claimed a sequence number but was not yet
    /// published when the snapshot's versions were pinned has
    /// `seq > applied[table]` (claims and publications of one table are
    /// serialized by its writer mutex), so it is preserved. The sequence
    /// counter keeps increasing, so records appended later still sort
    /// strictly after everything the snapshot covers.
    ///
    /// Frames go or stay whole: a snapshot is cut from one untearable
    /// `pin_cut`, so it holds all of a commit or none of it. A frame only
    /// partly covered answers `Corrupt` and the file is left as it was.
    /// Deciding builds no op ([`skim_op`]); a kept frame is copied as it is.
    pub(crate) fn truncate_keeping(&self, applied: &BTreeMap<String, u64>) -> Result<(), DbError> {
        let mut st = self.wait_no_flush();
        if let Some(e) = &st.failed {
            return Err(dead_log(e));
        }
        let mut file = self.file.lock().expect("wal file lock");
        // Flush whatever is buffered so the rewrite below sees every
        // claimed record. Frames enqueued after this point have sequence
        // numbers above anything the snapshot covers and simply flush to
        // the rewritten file later.
        let (chunk, upto) = {
            let mut q = self.queue.lock().expect("wal queue lock");
            q.pending = 0;
            (std::mem::take(&mut q.buf), q.next_seq.checked_sub(1))
        };
        if !chunk.is_empty() {
            if let Err(e) = file
                .writer
                .write_all(&chunk)
                .and_then(|_| file.writer.flush())
            {
                st.failed = Some(e.to_string());
                return Err(e.into());
            }
        } else {
            file.writer.flush()?;
        }
        // Every seq <= upto is now either durable in the file or about to
        // be dropped as snapshot-covered; either way it needs no re-flush.
        st.flushed_seq = upto;

        let data = std::fs::read(&self.path)?;
        let mut out = MAGIC.to_vec();
        walk_frames(&data, |offset, end, first_seq, mut ops| {
            let (mut count, mut uncovered) = (0, 0);
            while !ops.is_empty() {
                let table =
                    skim_op(&mut ops).ok_or_else(|| corrupt_log(offset, "undecodable op"))?;
                let seq = first_seq + count;
                uncovered += u64::from(applied.get(&*table).is_none_or(|&s| s < seq));
                count += 1;
            }
            if uncovered == count {
                out.extend_from_slice(&data[offset..end]);
            } else if uncovered != 0 {
                return Err(corrupt_log(offset, "frame partly covered by the snapshot"));
            }
            Ok(count)
        })?;
        replace_file(&self.path, "wal.tmp", self.fsync(), |file| {
            Ok(file.write_all(&out)?)
        })?;
        file.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Read a log file's whole commits, touching nothing: a torn tail is
    /// left out of the answer and left in the file (recovery is what cuts
    /// it), damage before the tail is `Corrupt`. See the module docs.
    pub fn read_frames(path: impl AsRef<Path>) -> Result<Vec<Frame>, DbError> {
        scan(path.as_ref()).map(|(_, frames, _)| frames)
    }

    /// [`Self::read_frames`], as one flat list of records.
    pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<WalRecord>, DbError> {
        let frames = Self::read_frames(path)?;
        Ok(frames.into_iter().flat_map(|f| f.records).collect())
    }
}

fn corrupt_log(at: usize, why: &str) -> DbError {
    DbError::Corrupt(format!("wal byte {at}: {why}"))
}

/// Walk a log file's whole frames in order and return the length of its
/// whole-frame prefix: anything after that is a torn tail. `each` gets a
/// frame's byte range, the sequence number of its first op and its encoded
/// ops, and answers how many ops they are. Damage before the tail — a
/// sequence regression, a bad frame with a valid one after it — is
/// `Corrupt`.
fn walk_frames(
    data: &[u8],
    mut each: impl FnMut(usize, usize, u64, &[u8]) -> Result<u64, DbError>,
) -> Result<usize, DbError> {
    let mut at = MAGIC.len().min(data.len());
    if data[..at] != MAGIC[..at] {
        return Err(corrupt_log(0, "not a framed log"));
    }
    let mut next_seq = 0;
    while let Some(body) = frame_at(data, at, LOG_FRAME_MIN) {
        let (ops, seq) = body.split_at(body.len() - 8);
        let first_seq = u64::from_le_bytes(seq.try_into().expect("eight bytes"));
        if first_seq < next_seq {
            return Err(corrupt_log(at, "sequence regression"));
        }
        let end = at + 8 + body.len();
        next_seq = first_seq + each(at, end, first_seq, ops)?;
        at = end;
    }
    // A header cut short holds nothing; otherwise `at` ends the last whole frame.
    let whole = if data.len() < MAGIC.len() { 0 } else { at };
    if whole < data.len() {
        if let Some(later) =
            (at + 1..data.len()).find(|&p| frame_at(data, p, LOG_FRAME_MIN).is_some())
        {
            let why = format!("bad frame; a valid one follows at {later}");
            return Err(corrupt_log(at, &why));
        }
    }
    Ok(whole)
}

/// Decode a log file in one pass, returning its bytes, its frames and the
/// length of its whole-frame prefix ([`walk_frames`]). Reads only.
fn scan(path: &Path) -> Result<(Vec<u8>, Vec<Frame>, usize), DbError> {
    let data = std::fs::read(path)?;
    let mut frames = Vec::new();
    let whole = walk_frames(&data, |offset, end, first_seq, mut ops| {
        let mut records = Vec::new();
        while !ops.is_empty() {
            let op = get_op(&mut ops).ok_or_else(|| corrupt_log(offset, "undecodable op"))?;
            let seq = first_seq + records.len() as u64;
            records.push(WalRecord { seq, op });
        }
        let count = records.len() as u64;
        frames.push(Frame {
            offset,
            end,
            records,
        });
        Ok(count)
    })?;
    Ok((data, frames, whole))
}

/// Recovery's read of the log it is about to append to: the records of
/// [`scan`], with a torn tail cut off the file and its bytes counted. Only
/// [`Wal::open`] and [`recover_with_last_seq`] come here.
fn read_cutting_torn_tail(path: &Path) -> Result<Vec<WalRecord>, DbError> {
    let (data, frames, whole) = scan(path)?;
    if whole < data.len() {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(whole as u64)?;
        let cut = (data.len() - whole) as u64;
        crate::obs::metrics().wal_torn_tail_bytes.add(cut);
    }
    Ok(frames.into_iter().flat_map(|f| f.records).collect())
}

#[cfg(test)]
thread_local! {
    /// Directory syncs issued by this thread (each test runs on its own).
    static DIR_SYNCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `sync_all` on the directory holding `path`: what makes a file's creation
/// there, or a rename into it, durable.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(test)]
    DIR_SYNCS.with(|n| n.set(n.get() + 1));
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Write-then-rename for atomicity: `fill` writes the new contents into a
/// temporary file beside `path`. With `durable`, they reach the device
/// before the rename does, and the rename before this returns: `sync_all`
/// on the temporary file, then on the directory.
fn replace_file(
    path: &Path,
    tmp_ext: &str,
    durable: bool,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<(), DbError>,
) -> Result<(), DbError> {
    let tmp = path.with_extension(tmp_ext);
    let mut file = BufWriter::new(File::create(&tmp)?);
    fill(&mut file)?;
    file.flush()?;
    if durable {
        file.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if durable {
        sync_dir(path)?;
    }
    Ok(())
}

/// Decode the whole of a frame's body with `f`.
fn whole<T>(mut body: &[u8], f: impl FnOnce(&mut &[u8]) -> Option<T>) -> Option<T> {
    let out = f(&mut body)?;
    body.is_empty().then_some(out)
}

/// Full database snapshots (the file layout is in the module docs).
pub struct Snapshot;

impl Snapshot {
    /// Stream `tables` — one consistent cut — into the snapshot file at
    /// `path`, frame by frame, and return the file's length. `covered_seq`
    /// is the highest WAL sequence number claimed when the cut was taken,
    /// `applied_seqs` the highest whose effects each table's state includes:
    /// without the latter replay could not tell which records the state
    /// already contains. `durable`: see [`replace_file`].
    pub(crate) fn write<'a>(
        tables: impl ExactSizeIterator<Item = &'a Table>,
        covered_seq: Option<u64>,
        applied_seqs: &BTreeMap<String, u64>,
        path: &Path,
        durable: bool,
    ) -> Result<u64, DbError> {
        let mut bytes = SNAPSHOT_MAGIC.len() as u64;
        replace_file(path, "tmp", durable, |file| {
            file.write_all(SNAPSHOT_MAGIC)?;
            let mut body = Vec::new();
            // A frame goes to the file as its header, then its body.
            let mut emit = |body: &mut Vec<u8>| -> Result<(), DbError> {
                let Ok(len) = u32::try_from(body.len()) else {
                    return Err(DbError::Io("snapshot encode: frame over 4 GiB".into()));
                };
                file.write_all(&len.to_le_bytes())?;
                file.write_all(&(!crc32_update(!0, body)).to_le_bytes())?;
                file.write_all(body)?;
                bytes += 8 + body.len() as u64;
                body.clear();
                Ok(())
            };
            put_varint(&mut body, covered_seq.map_or(0, |seq| seq + 1));
            put_varint(&mut body, applied_seqs.len() as u64);
            for (table, seq) in applied_seqs {
                put_bytes(&mut body, table.as_bytes());
                put_varint(&mut body, *seq);
            }
            put_varint(&mut body, tables.len() as u64);
            emit(&mut body)?;
            for table in tables {
                put_schema(&mut body, &table.schema);
                put_int(&mut body, table.next_id);
                put_varint(&mut body, table.len() as u64);
                emit(&mut body)?;
                for chunk in table.rows.chunks() {
                    for (id, row) in chunk {
                        put_int(&mut body, id);
                        row.iter().for_each(|v| put_value(&mut body, v));
                    }
                    emit(&mut body)?;
                }
            }
            Ok(())
        })?;
        Ok(bytes)
    }

    /// Load a snapshot: its tables (indexes rebuilt, each with the WAL
    /// coverage the file recorded for it) and the highest WAL seq claimed
    /// when it was taken.
    pub(crate) fn load(path: &Path) -> Result<(RecoveredTables, Option<u64>), DbError> {
        let data = std::fs::read(path)?;
        let corrupt = |at: usize, why: &str| DbError::Corrupt(format!("snapshot byte {at}: {why}"));
        if !data.starts_with(SNAPSHOT_MAGIC) {
            return Err(corrupt(0, "not a snapshot"));
        }
        let mut at = SNAPSHOT_MAGIC.len();
        // The next frame: where it starts, and its body.
        let mut next_frame = || {
            let start = at;
            let body = frame_at(&data, start, 1)
                .ok_or_else(|| corrupt(start, "damaged, or cut short of what it declares"))?;
            at += 8 + body.len();
            Ok::<_, DbError>((start, body))
        };

        let (start, body) = next_frame()?;
        let header = whole(body, |d| {
            let covered_seq = get_varint(d)?.checked_sub(1);
            let applied_seqs = (0..get_varint(d)?)
                .map(|_| Some((get_text(d)?, get_varint(d)?)))
                .collect::<Option<BTreeMap<_, _>>>()?;
            Some((covered_seq, applied_seqs, get_varint(d)?))
        });
        let (covered_seq, applied_seqs, table_count) =
            header.ok_or_else(|| corrupt(start, "undecodable file header"))?;

        let mut tables = BTreeMap::new();
        for _ in 0..table_count {
            let (start, body) = next_frame()?;
            let header = whole(body, |d| {
                Some((get_schema(d)?, get_int(d)?, get_varint(d)?))
            });
            let (schema, next_id, row_count) =
                header.ok_or_else(|| corrupt(start, "undecodable table header"))?;
            let mut rows = Rows::default();
            while (rows.len() as u64) < row_count {
                let (start, mut body) = next_frame()?;
                while !body.is_empty() {
                    let id = get_int(&mut body);
                    let cells = (0..schema.columns.len()).map(|_| get_value(&mut body));
                    let row = id.zip(cells.collect::<Option<Row>>());
                    let (id, row) = row.ok_or_else(|| corrupt(start, "undecodable row"))?;
                    if rows.insert(id, std::sync::Arc::new(row)).is_some() {
                        return Err(corrupt(start, "a row id twice"));
                    }
                }
                if rows.len() as u64 > row_count {
                    return Err(corrupt(start, "more rows than the table declares"));
                }
            }
            let name = schema.name.clone();
            let mut table = Table::unindexed(schema, rows, next_id);
            table.rebuild_indexes()?;
            let recovered = Recovered {
                table,
                version: 0,
                applied_seq: applied_seqs.get(&name).copied(),
            };
            if tables.insert(name, recovered).is_some() {
                return Err(corrupt(start, "a table twice"));
            }
        }
        if at < data.len() {
            return Err(corrupt(at, "bytes after the last table"));
        }
        Ok((tables, covered_seq))
    }
}

/// One table as recovery builds it: plain and unshared, so the log's records
/// apply in place, until it moves into its shard.
pub(crate) struct Recovered {
    pub table: Table,
    /// Records replayed onto it: where its runtime modification counter
    /// starts (a snapshot does not carry one).
    pub version: u64,
    /// Highest WAL sequence number whose effects `table` includes.
    pub applied_seq: Option<u64>,
}

pub(crate) type RecoveredTables = BTreeMap<String, Recovered>;

/// Apply one logged op to the tables recovery holds, answering the table it
/// changed. The log records only what committed, against exactly this
/// state, so any refusal here means the files do not belong together.
fn apply(tables: &mut RecoveredTables, op: LogOp) -> Result<&mut Recovered, DbError> {
    fn held(tables: &mut RecoveredTables, name: String) -> Result<&mut Recovered, DbError> {
        match tables.get_mut(&name) {
            Some(r) => Ok(r),
            None => Err(DbError::NoSuchTable(name)),
        }
    }
    match op {
        LogOp::CreateTable { schema } => {
            let created = Recovered {
                table: new_table(&schema, |t| tables.contains_key(t))?,
                version: 0,
                applied_seq: None,
            };
            Ok(tables.entry(schema.name).or_insert(created))
        }
        LogOp::Insert { table, id, row } => {
            let r = held(tables, table)?;
            r.table.insert_with_id(id, row)?;
            Ok(r)
        }
        LogOp::Update { table, id, set } => {
            let r = held(tables, table)?;
            let mut row = r.table.row(id)?.clone();
            for (ci, value) in set {
                let no_column = || DbError::Schema(format!("no column {ci}"));
                *row.get_mut(ci).ok_or_else(no_column)? = value;
            }
            r.table.update(id, row)?;
            Ok(r)
        }
        LogOp::Delete { table, id } => {
            let r = held(tables, table)?;
            r.table.delete(id)?;
            Ok(r)
        }
    }
}

/// Recover the tables `snapshot` (if present) + `wal` (if present) hold, and
/// the highest WAL sequence number that state has ever used: the maximum
/// over the log's records, the snapshot's `covered_seq` and every table's
/// coverage. The log must continue above it. After a compaction the file
/// can be empty, or hold only one table's tail, while the snapshot's
/// coverage of other tables is higher; records numbered from the file alone
/// would sit at or below that coverage and the next recovery would skip
/// them as already applied.
///
/// Replay filtering is per table: each table's coverage, seeded by the
/// snapshot and raised by every record applied, decides which records its
/// state already includes (see [`Wal::truncate_keeping`] for why a global
/// threshold would be unsound once compaction runs concurrently with
/// writers). A record that is due and does not apply is `Corrupt`. A torn
/// tail is cut off the log file (see the module docs).
pub(crate) fn recover_with_last_seq(
    snapshot: &Path,
    wal: &Path,
) -> Result<(RecoveredTables, Option<u64>), DbError> {
    let (mut tables, mut last_seq) = if snapshot.exists() {
        Snapshot::load(snapshot)?
    } else {
        Default::default()
    };
    if wal.exists() {
        let records = read_cutting_torn_tail(wal)?;
        last_seq = last_seq.max(records.last().map(|rec| rec.seq));
        for WalRecord { seq, op } in records {
            let name = op_table(&op).to_string();
            if tables
                .get(&name)
                .is_some_and(|r| r.applied_seq >= Some(seq))
            {
                continue;
            }
            let what = match op {
                LogOp::CreateTable { .. } => "create table",
                LogOp::Insert { .. } => "insert",
                LogOp::Update { .. } => "update",
                LogOp::Delete { .. } => "delete",
            };
            let r = apply(&mut tables, op)
                .map_err(|e| DbError::Corrupt(format!("wal seq {seq}: {what} on {name}: {e}")))?;
            r.applied_seq = Some(seq);
            r.version += 1;
        }
    }
    let last_seq = last_seq.max(tables.values().filter_map(|r| r.applied_seq).max());
    Ok((tables, last_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Cells;
    use crate::schema::{Column, TableSchema};
    use crate::value::{Value, ValueType};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("simdb_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn insert(id: i64, v: i64) -> LogOp {
        LogOp::Insert {
            table: "t".into(),
            id,
            row: vec![Value::Int(v)],
        }
    }

    /// Table `t` holding `v` = 0..5 under ids 1..=5, and the ops that say so.
    fn seed() -> (Table, Vec<LogOp>) {
        let schema = TableSchema::new("t", vec![Column::new("v", ValueType::Int)]);
        let mut table = Table::new(schema.clone()).unwrap();
        let mut ops = vec![LogOp::CreateTable { schema }];
        for v in 0..5 {
            let id = table.insert(vec![Value::Int(v)]).unwrap();
            ops.push(insert(id, v));
        }
        (table, ops)
    }

    /// What `Db::open` would find in these files (`snap` need not exist).
    fn recovered(snap: &Path, wal: &Path) -> RecoveredTables {
        recover_with_last_seq(snap, wal).unwrap().0
    }

    /// Every value type, the varint edges and text no escaping would survive.
    fn every_value_shape() -> Vec<Value> {
        let text = [
            "",
            "plain",
            "quo\"te back\\slash\nnew\tline\r\u{1}",
            "∑ßé日本語🌀",
        ];
        let mut row: Vec<Value> = text.iter().map(|s| Value::Text(s.to_string())).collect();
        row.extend([Value::Null, Value::Bool(true), Value::Bool(false)]);
        row.extend([0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN].map(Value::Int));
        row.extend([1.5, -0.0, 0.1, 1e300, f64::MIN_POSITIVE].map(Value::Float));
        row.extend([-123456789, i64::MAX].map(Value::Timestamp));
        row
    }

    /// CRC-32 by its definition, a bit at a time and no table: the oracle.
    fn crc32_bitwise(crc: u32, bytes: &[u8]) -> u32 {
        let bit = |c: u32, _| (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
        bytes
            .iter()
            .fold(crc, |c, &b| (0..8).fold(c ^ b as u32, bit))
    }

    /// Eight bytes a step changes no checksum: seeded bytes of every length
    /// to 257 and around 4 KiB, at every alignment, whole and split in two
    /// at every point (the long ones at one alignment).
    #[test]
    fn the_sliced_checksum_is_the_bitwise_one_at_every_length_offset_and_split() {
        let lcg = |x: &u64| Some(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        let seeded = std::iter::successors(Some(0x9E37_79B9_7F4A_7C15_u64), lcg);
        let pool: Vec<u8> = seeded.map(|x| (x >> 56) as u8).take(4200).collect();
        for len in (0..=257).chain([4095, 4096, 4104]) {
            for start in 0..8 {
                let s = &pool[start..start + len];
                let want = crc32_bitwise(!0, s);
                assert_eq!(crc32_update(!0, s), want, "{len} bytes at {start}");
                for cut in (0..=len).filter(|_| len <= 257 || start == 0) {
                    let halves = crc32_update(crc32_update(!0, &s[..cut]), &s[cut..]);
                    assert_eq!(halves, want, "{len} bytes at {start}, split at {cut}");
                }
            }
        }
    }

    /// Every op and every value shape, as one commit of five ops and as five
    /// commits of one.
    #[test]
    fn frames_round_trip_every_op_and_value_shape() {
        let crc = !crc32_update(!0, b"123456789");
        assert_eq!(crc, 0xCBF4_3926, "the CRC-32 check value");
        let row = every_value_shape();
        let set: Cells = (row.iter().cloned().enumerate())
            .map(|(i, v)| (i * 97, v))
            .collect();
        let schema = TableSchema::new("x", vec![Column::new("a", ValueType::Int).indexed()]);
        let (table, id) = (String::from("a\"b"), i64::MIN);
        let ops = [
            LogOp::CreateTable { schema },
            LogOp::Update {
                table: table.clone(),
                id,
                set,
            },
            LogOp::Insert {
                table: String::new(),
                id: i64::MAX,
                row,
            },
            LogOp::Update {
                table: table.clone(),
                id: -7,
                set: vec![],
            },
            LogOp::Delete { table, id: 42 },
        ];
        // The log cut's skim reads each op as far as the decoder does.
        for op in &ops {
            let mut bytes = Vec::new();
            put_op(&mut bytes, op);
            let mut rest = &bytes[..];
            assert_eq!(skim_op(&mut rest).as_deref(), Some(op_table(op)));
            assert!(rest.is_empty(), "{op:?}: {} bytes left", rest.len());
        }
        let path = tmpdir("codec").join("db.wal");
        let wal = Wal::open(&path).unwrap();
        wal.append(&ops).unwrap();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(wal.append(std::slice::from_ref(op)).unwrap(), 5 + i as u64);
        }
        let frames = Wal::read_frames(&path).unwrap();
        let sizes: Vec<usize> = frames.iter().map(|f| f.records.len()).collect();
        assert_eq!(sizes, [5, 1, 1, 1, 1, 1]);
        assert_eq!(frames[0].offset, MAGIC.len());
        assert_eq!(frames[5].end, std::fs::read(&path).unwrap().len());
        for (i, rec) in Wal::read_records(&path).unwrap().iter().enumerate() {
            assert_eq!((rec.seq, &rec.op), (i as u64, &ops[i % 5]));
        }
        // The public frame writer produces the same bytes.
        let mut by_hand = [&MAGIC[..], &encode_frame(0, &ops).unwrap()].concat();
        for (i, op) in ops.iter().enumerate() {
            by_hand.extend(encode_frame(5 + i as u64, std::slice::from_ref(op)).unwrap());
        }
        assert_eq!(std::fs::read(&path).unwrap(), by_hand);
    }

    /// After a failed flush the log is dead: nothing drains its buffer, so
    /// a later commit must be refused before it is buffered or published.
    /// (`/dev/full` opens like a file and fails every write with ENOSPC.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_dead_log_refuses_commits_instead_of_publishing_them() {
        use crate::{query::Query, Db, Role};
        let log = Wal::open_at("/dev/full", 0).unwrap();
        let db = Db::new(crate::shard::Catalog::new(), Some(log), None);
        db.define_role(Role::superuser("admin"));
        let conn = db.connect("admin").unwrap();
        // The first commit's flush fails. (DDL, like any single statement,
        // publishes before its flush, so the table is there.)
        let schema = TableSchema::new("t", vec![Column::new("v", ValueType::Int)]);
        assert!(matches!(conn.create_table(schema), Err(DbError::Io(_))));

        let buffered = || {
            let log = db.shared.wal.as_ref().unwrap();
            let q = log.queue.lock().unwrap();
            (q.buf.len(), q.next_seq)
        };
        let (version, queue) = (db.table_version("t"), buffered());
        for conn in [conn.clone(), conn.clone().deferred()] {
            let one = conn.insert("t", &[("v", Value::Int(1))]);
            assert!(matches!(one, Err(DbError::Io(_))), "{one:?}");
            let txn = conn.transaction(&["t"], |tx| tx.insert("t", &[("v", Value::Int(2))]));
            assert!(matches!(txn, Err(DbError::Io(_))), "{txn:?}");
            assert!(conn.flush().is_err());
        }
        assert_eq!(
            db.table_version("t"),
            version,
            "a refused commit was published"
        );
        assert_eq!(conn.count("t", &Query::new()).unwrap(), 0);
        assert_eq!(buffered(), queue, "a refused commit was buffered");
    }

    #[test]
    fn wal_roundtrip() {
        let dir = tmpdir("rt");
        let wal_path = dir.join("db.wal");
        let wal = Wal::open(&wal_path).unwrap();
        wal.append(&seed().1).unwrap();

        let tables = recovered(&dir.join("db.snap"), &wal_path);
        assert_eq!(tables["t"].table.len(), 5);
    }

    #[test]
    fn wal_reopen_continues_sequence() {
        let dir = tmpdir("seq");
        let wal_path = dir.join("db.wal");
        let ops = seed().1;
        {
            let wal = Wal::open(&wal_path).unwrap();
            assert_eq!(wal.append(&ops).unwrap(), (ops.len() - 1) as u64);
        }
        let wal = Wal::open(&wal_path).unwrap();
        let seq = wal.append(&[insert(6, 9)]).unwrap();
        assert_eq!(seq, ops.len() as u64);
        let recs = Wal::read_records(&wal_path).unwrap();
        assert_eq!(recs.len(), ops.len() + 1);
    }

    #[test]
    fn snapshot_plus_wal_suffix() {
        let dir = tmpdir("snap");
        let wal_path = dir.join("db.wal");
        let snap_path = dir.join("db.snap");
        let wal = Wal::open(&wal_path).unwrap();

        let (table, ops) = seed();
        let last = wal.append(&ops).unwrap();
        let applied = [("t".to_string(), last)].into();
        Snapshot::write(
            [&table].into_iter(),
            Some(last),
            &applied,
            &snap_path,
            false,
        )
        .unwrap();

        // post-snapshot activity: a sixth row, and the first one goes
        let first = LogOp::Delete {
            table: "t".into(),
            id: 1,
        };
        wal.append(&[insert(6, 100), first]).unwrap();

        let tables = recovered(&snap_path, &wal_path);
        let vals: Vec<i64> = (tables["t"].table.iter())
            .map(|(_, r)| r[0].as_int().unwrap())
            .collect();
        assert_eq!(vals, [1, 2, 3, 4, 100]);
    }

    #[test]
    fn corrupt_wal_detected() {
        let dir = tmpdir("corrupt");
        let wal_path = dir.join("db.wal");
        std::fs::write(&wal_path, "{\"seq\":0,\"op\":{}}\n").unwrap();
        match Wal::read_records(&wal_path) {
            Err(DbError::Corrupt(why)) => assert!(why.contains("not a framed log"), "{why}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequence_regression_detected() {
        let dir = tmpdir("reg");
        let wal_path = dir.join("db.wal");
        let op = LogOp::Delete {
            table: "t".into(),
            id: 1,
        };
        let frame = encode_frame(5, &[op]).unwrap();
        std::fs::write(&wal_path, [&MAGIC[..], &frame, &frame].concat()).unwrap();
        assert!(matches!(
            Wal::read_records(&wal_path),
            Err(DbError::Corrupt(_))
        ));
    }

    /// Reading a log is free of side effects; opening it for appending is
    /// what cuts a torn tail, and `simdb_wal_torn_tail_bytes_total` grows by
    /// exactly the bytes cut. (No other test here opens a torn log.)
    #[test]
    fn only_opening_the_log_cuts_a_torn_tail() {
        let cut = &crate::obs::metrics().wal_torn_tail_bytes;
        let wal_path = tmpdir("torn").join("db.wal");
        Wal::open(&wal_path).unwrap().append(&seed().1).unwrap();
        let whole = std::fs::read(&wal_path).unwrap();
        let before = cut.get();
        assert_eq!(Wal::open(&wal_path).unwrap().last_seq(), Some(5));
        assert_eq!(cut.get(), before, "a clean log was cut");
        let torn = [&whole[..], &whole[MAGIC.len()..MAGIC.len() + 11]].concat();
        std::fs::write(&wal_path, &torn).unwrap();
        assert_eq!(Wal::read_frames(&wal_path).unwrap().len(), 1);
        assert_eq!(std::fs::read(&wal_path).unwrap(), torn);
        assert_eq!(cut.get(), before, "reading cut the log");
        assert_eq!(Wal::open(&wal_path).unwrap().last_seq(), Some(5));
        assert_eq!(std::fs::read(&wal_path).unwrap(), whole);
        assert_eq!(cut.get() - before, 11);
    }

    fn delete_u(id: i64) -> LogOp {
        let table = "u".into();
        LogOp::Delete { table, id }
    }

    fn coverage(of: &[(&str, u64)]) -> BTreeMap<String, u64> {
        of.iter().map(|&(t, seq)| (t.to_string(), seq)).collect()
    }

    /// A snapshot cannot hold half a commit. Coverage that says it does —
    /// part of one table's ops, or one table's ops and not another's — is
    /// refused before the log is touched, and the log stays usable.
    #[test]
    fn a_partly_covered_frame_is_refused_and_the_log_stays_usable() {
        let wal_path = tmpdir("partial").join("db.wal");
        let wal = Wal::open(&wal_path).unwrap();
        wal.append(&seed().1).unwrap();
        wal.append(&[insert(6, 9), delete_u(1)]).unwrap();
        let before = std::fs::read(&wal_path).unwrap();
        let second = Wal::read_frames(&wal_path).unwrap()[1].offset;
        for (half, at) in [(&[("t", 3)][..], 8), (&[("t", 5), ("u", 7)], second)] {
            match wal.truncate_keeping(&coverage(half)) {
                Err(DbError::Corrupt(why)) => assert!(why.contains(&format!("wal byte {at}:"))),
                other => panic!("{other:?}"),
            }
            assert_eq!(std::fs::read(&wal_path).unwrap(), before);
        }
        assert_eq!(wal.append(&[insert(7, 9)]).unwrap(), 8);
        let all = coverage(&[("t", 8), ("u", 7)]);
        wal.truncate_keeping(&all).unwrap();
        assert_eq!(std::fs::read(&wal_path).unwrap(), MAGIC);
    }

    /// The cut keeps a frame as the bytes it was, in the order it was, and
    /// decides per table: a table's frames above its coverage survive
    /// between another table's covered ones. A racing writer's commit is in
    /// the file it leaves whether it was claimed before the cut or after.
    #[test]
    fn the_log_cut_keeps_whole_frames_as_they_were_and_a_racing_writers_too() {
        let wal_path = tmpdir("cut").join("db.wal");
        let read = || std::fs::read(&wal_path).unwrap();
        let wal = Wal::open(&wal_path).unwrap();
        wal.append(&seed().1).unwrap();
        for id in 1..=3 {
            wal.append(&[delete_u(id), delete_u(-id)]).unwrap();
            wal.append(&[insert(5 + id, id)]).unwrap();
        }
        // Frames: t 0..=5, u 6-7, t 8, u 9-10, t 11, u 12-13, t 14.
        let (before, frames) = (read(), Wal::read_frames(&wal_path).unwrap());
        let bytes = |i: usize| &before[frames[i].offset..frames[i].end];
        assert_eq!(wal.enqueue(&[delete_u(4)]).unwrap(), Some(15)); // not flushed
        let applied = coverage(&[("t", 11), ("u", 7)]);
        wal.truncate_keeping(&applied).unwrap();
        let claimed_before = encode_frame(15, &[delete_u(4)]).unwrap();
        let kept = [MAGIC, bytes(3), bytes(5), bytes(6), &claimed_before].concat();
        assert_eq!(read(), kept);
        assert_eq!(wal.append(&[insert(9, 9)]).unwrap(), 16);
        let claimed_after = encode_frame(16, &[insert(9, 9)]).unwrap();
        assert_eq!(read(), [kept, claimed_after].concat());
    }

    #[test]
    fn snapshot_restores_indexes() {
        let dir = tmpdir("idx");
        let snap_path = dir.join("db.snap");
        let schema = TableSchema::new("t", vec![Column::new("name", ValueType::Text).unique()]);
        let mut table = Table::new(schema).unwrap();
        table.insert(vec!["a".into()]).unwrap();
        Snapshot::write(
            [&table].into_iter(),
            None,
            &BTreeMap::new(),
            &snap_path,
            false,
        )
        .unwrap();
        let (mut loaded, _) = Snapshot::load(&snap_path).unwrap();
        // unique index must be live after load
        let loaded = &mut loaded.get_mut("t").unwrap().table;
        assert!(loaded.insert(vec!["a".into()]).is_err());
        assert!(loaded.insert(vec!["b".into()]).is_ok());
    }

    /// The encoder against the loader: every value shape in every column
    /// type that takes it, an empty table, and a table of sparse ids over
    /// several storage chunks whose last chunk is partial.
    #[test]
    fn snapshot_round_trips_every_value_shape_and_chunking() {
        let wide = every_value_shape();
        let typed = |v: &Value| match v {
            Value::Null | Value::Text(_) => ValueType::Text,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Timestamp(_) => ValueType::Timestamp,
        };
        let columns =
            (wide.iter().enumerate()).map(|(i, v)| Column::new(&format!("c{i}"), typed(v)));
        let table = |name, columns| Table::new(TableSchema::new(name, columns)).unwrap();
        let mut wide_table = table("wide", columns.collect());
        wide_table.insert(wide.clone()).unwrap();
        wide_table.insert(vec![Value::Null; wide.len()]).unwrap();
        let text = |name| Column::new(name, ValueType::Text);
        let mut sparse = table("sparse", vec![text("s").unique()]);
        let sparse_ids: Vec<i64> = (0..300).map(|i| 1 + i * 7).chain([1 << 40]).collect();
        for id in &sparse_ids {
            let row = vec![format!("row {id}").into()];
            sparse.insert_with_id(*id, row).unwrap();
        }
        let sizes: Vec<usize> = sparse.rows.chunks().map(Iterator::count).collect();
        assert_eq!(
            (sizes.len(), sizes.iter().sum::<usize>(), sizes[9]),
            (10, 301, 1)
        );

        let path = tmpdir("snapcodec").join("db.snap");
        let applied: BTreeMap<String, u64> = [("t".to_string(), 7), ("wide".to_string(), 0)].into();
        // In name order, as the snapshot writer takes them.
        let tables = [
            table("empty", vec![text("s")]),
            sparse,
            seed().0,
            wide_table,
        ];
        let bytes = Snapshot::write(tables.iter(), Some(9), &applied, &path, false).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (loaded, covered) = Snapshot::load(&path).unwrap();
        assert_eq!(covered, Some(9));
        assert_eq!(
            loaded.keys().collect::<Vec<_>>(),
            ["empty", "sparse", "t", "wide"]
        );
        for (was, (name, is)) in tables.iter().zip(&loaded) {
            assert_eq!(is.table.schema, was.schema);
            assert_eq!(is.table.next_id, was.next_id);
            assert!(is.table.iter().eq(was.iter()), "{name}: rows differ");
            assert_eq!(
                (is.applied_seq, is.version),
                (applied.get(name).copied(), 0)
            );
        }
        let float = wide.iter().position(|v| *v == Value::Float(-0.0)).unwrap();
        let zero = loaded["wide"].table.get(1).unwrap()[float].as_float();
        assert!(zero.unwrap().is_sign_negative(), "-0.0 came back as 0.0");

        // No coverage at all is not coverage of sequence number 0.
        Snapshot::write(tables.iter(), None, &BTreeMap::new(), &path, false).unwrap();
        let (loaded, covered) = Snapshot::load(&path).unwrap();
        assert_eq!((covered, loaded["t"].applied_seq), (None, None));
    }

    /// A snapshot has no legitimate torn tail and carries no unchecked
    /// byte: every cut and every flipped bit answers `Corrupt` with a byte
    /// offset, as do contents the checksums cannot vouch for.
    #[test]
    fn a_damaged_or_short_snapshot_is_corrupt() {
        let path = tmpdir("snapdamage").join("db.snap");
        let seeded = seed().0;
        let applied = [("t".to_string(), 6)].into();
        Snapshot::write([&seeded].into_iter(), Some(6), &applied, &path, false).unwrap();
        let good = std::fs::read(&path).unwrap();
        let (loaded, covered) = Snapshot::load(&path).unwrap();
        assert_eq!((covered, loaded["t"].applied_seq), (Some(6), Some(6)));
        assert_eq!(loaded["t"].table.len(), 5);

        let corrupt = |bytes: &[u8], what: String| {
            std::fs::write(&path, bytes).unwrap();
            match Snapshot::load(&path) {
                Err(DbError::Corrupt(why)) => assert!(why.starts_with("snapshot byte "), "{why}"),
                other => panic!("{what}: {:?}", other.map(|(_, seq)| seq)),
            }
        };
        for cut in 0..good.len() {
            corrupt(&good[..cut], format!("cut at {cut}"));
        }
        for at in 0..good.len() {
            let mut flipped = good.clone();
            flipped[at] ^= 1 << (at % 8);
            corrupt(&flipped, format!("flip at {at}"));
        }
        corrupt(&[&good[..], &[0]].concat(), "a byte appended".into());
        // Whole frames, but fewer than the headers declare: the file ends
        // after the table header, and after the file header.
        let frame_ends: Vec<usize> = {
            let (mut at, mut ends) = (SNAPSHOT_MAGIC.len(), Vec::new());
            while let Some(body) = frame_at(&good, at, 1) {
                at += 8 + body.len();
                ends.push(at);
            }
            ends
        };
        assert_eq!(frame_ends.len(), 3, "file header, table header, one chunk");
        corrupt(&good[..frame_ends[1]], "rows missing".into());
        corrupt(&good[..frame_ends[0]], "table missing".into());
        // The log's magic is not the snapshot's.
        corrupt(&[&MAGIC[..], &good[8..]].concat(), "a log's header".into());

        // What the checksums cannot see is still checked on load: a
        // duplicated unique cell, a cell of the wrong type, and — refused by
        // the column types, as in the log — a non-finite float.
        let unique = TableSchema::new("t", vec![Column::new("v", ValueType::Int).unique()]);
        let float = TableSchema::new("t", vec![Column::new("v", ValueType::Float)]);
        let rows = seeded.rows.clone();
        let with = |mut rows: Rows, id, cell| {
            rows.insert(id, std::sync::Arc::new(vec![cell]));
            rows
        };
        for (schema, rows, fine) in [
            (&unique, rows.clone(), true),
            (&unique, with(rows.clone(), 9, Value::Int(0)), false),
            (&float, rows.clone(), false),
            (&float, with(Rows::default(), 1, Value::Float(1.5)), true),
            (
                &float,
                with(Rows::default(), 1, Value::Float(f64::NAN)),
                false,
            ),
        ] {
            let table = Table::unindexed(schema.clone(), rows, 10);
            Snapshot::write([&table].into_iter(), None, &BTreeMap::new(), &path, false).unwrap();
            assert_eq!(Snapshot::load(&path).is_ok(), fine);
        }
    }

    /// The log file's creation is made durable with its first durable
    /// flush: one directory sync, then none; none for a file that was there.
    #[test]
    fn a_new_logs_first_durable_flush_syncs_the_directory_once() {
        let path = tmpdir("dirsync").join("db.wal");
        let op = LogOp::Delete {
            table: "t".into(),
            id: 1,
        };
        let dir_syncs = |wal: &Wal| {
            let before = DIR_SYNCS.with(|n| n.get());
            wal.append(std::slice::from_ref(&op)).unwrap();
            DIR_SYNCS.with(|n| n.get()) - before
        };
        let wal = Wal::open(&path).unwrap();
        assert_eq!(dir_syncs(&wal), 0, "fsync is off");
        wal.set_fsync(true);
        assert_eq!(dir_syncs(&wal), 1, "first durable flush of a created file");
        assert_eq!(dir_syncs(&wal), 0);
        drop(wal);
        let wal = Wal::open(&path).unwrap();
        wal.set_fsync(true);
        assert_eq!(dir_syncs(&wal), 0, "the file was there");
    }
}
