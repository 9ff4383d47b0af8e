//! Durability: a framed binary commit log and full snapshots.
//!
//! The central database is the only channel between AMP's portal and the
//! GridAMP daemon, so losing it loses all workflow state. The [`Wal`]
//! appends each commit as one checksummed frame; [`Snapshot`] streams the
//! whole database into a file of the same frames. Recovery
//! (`recover_with_last_seq`) = load the latest snapshot, then apply the
//! log's records above its watermark in place to the plain tables it held
//! (`Recovered`), which then move into the engine's first published
//! version; a record that does not apply, or a gap in the records above the
//! watermark, is `Corrupt`.
//!
//! One number marks a checkpoint. The engine's one writer claims a commit's
//! sequence numbers and then publishes it, and every logged commit
//! publishes, so a published version holds exactly the commits numbered at
//! or below its watermark (`DbVersion::applied_seq`, the last number of the
//! last commit it includes). A snapshot records that watermark;
//! `Wal::truncate_keeping` drops the frames at or below it and replay
//! skips them.
//!
//! # The log file (DESIGN §8.7)
//!
//! [`MAGIC`], then frames: `[varint body length][u32 CRC-32][body]`, the
//! body being `[varint first sequence number][ops]`. One frame is **one
//! commit** — everything one `Wal::enqueue` call receives — so a
//! recovered log is a prefix of whole commits, and its ops are numbered on
//! from the one in its header. The CRC covers the whole body, taken over
//! the ops first and the sequence number after them, so that it is begun
//! before the queue lock and only finished under it. A one-op commit
//! numbered below 2^21 whose body is under 16 KiB spends 9 bytes on its
//! frame: 2 of length, 4 of CRC, 3 of sequence number.
//!
//! An op is a tag byte, the table's number, the row id and typed values. A
//! table's number is its position in the database's table list, which is
//! creation order: a `CreateTable` takes the next number, and a snapshot
//! lists its tables in number order, so recovery rebuilds the same numbers
//! (a record naming a number the recovered state does not have is
//! `Corrupt`). Counts, lengths, table numbers and column indexes are LEB128
//! varints; ids, `Int`s and `Timestamp`s zigzag varints; a `Float` its
//! eight raw bytes; text length-prefixed UTF-8; each value leads with a
//! type tag. An `Insert` carries no cell count: the type tag of its row's
//! last cell carries a mark (`LAST_CELL`), so a frame still decodes without
//! the schemas, and replay checks the row's length against its table's. An
//! `Update` carries only the cells that changed ([`LogOp`]), which is sound
//! because replay applies, in sequence order, exactly the commits above the
//! snapshot's watermark, and `Wal::truncate_keeping` keeps exactly those:
//! the row a surviving `Update` finds is the row its diff was taken
//! against. `CreateTable`, cold, keeps the schema's JSON as its body.
//!
//! A crash mid-append leaves a torn last frame: a short header, a short
//! body or a CRC mismatch with no valid frame anywhere after it. Recovery
//! (`recover_with_last_seq`, which `Db::open` runs before it opens the
//! log to append) cuts the file back to its last whole frame and counts
//! the bytes cut in `simdb_wal_torn_tail_bytes_total`;
//! [`Wal::read_frames`] only leaves the tail out. A bad frame *followed by a
//! valid one* is damage, never a torn tail, and answers `Corrupt` with its
//! byte offset.
//!
//! # The snapshot file (DESIGN §8.8)
//!
//! [`SNAPSHOT_MAGIC`], then frames `[u32 body length][u32 CRC-32 of the
//! body][body]`, little-endian, with the log's value codec, in a fixed
//! order: one file header (the watermark plus one, or 0 for none, and the
//! table count); then per table, in table-number order, a header (the
//! schema's JSON, `next_id`, the row count) followed by its rows, one frame
//! per storage chunk of at most 256 rows, a row being its zigzag id and one
//! value per column.
//! `Snapshot::write` streams those frames into the temporary file, so it
//! never holds more than one chunk's bytes, and lists a table's row ids in
//! ascending order; `Snapshot::load` decodes them one by one. A snapshot
//! only ever appears by rename, so it has no legitimate torn tail: a frame
//! that fails its checksum, a file that ends short of the counts it
//! declares, row ids out of order and bytes after the last table are all
//! `Corrupt`, with the byte offset.

use crate::db::LogOp;
use crate::error::DbError;
use crate::schema::TableSchema;
use crate::table::{Row, Table};
use crate::value::Value;
use crate::version::new_table;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

/// The first bytes of every log file: format name and version.
pub const MAGIC: &[u8; 8] = b"AMPLOG\x00\x02";

/// The first bytes of every snapshot file: format name and version.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AMPSNP\x00\x02";

/// Set on the type tag of an `Insert`'s last cell: the row ends there.
const LAST_CELL: u8 = 0x80;

/// Op tags. An `Insert` of a row with no cells (a table of no columns) has
/// no last cell to mark, and a tag of its own.
const CREATE_TABLE: u8 = 0;
const INSERT: u8 = 1;
const UPDATE: u8 = 2;
const DELETE: u8 = 3;
const INSERT_EMPTY: u8 = 4;

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
    let mut head = |tag: u8, table: usize, id: i64| {
        buf.push(tag);
        put_varint(buf, table as u64);
        put_int(buf, id);
    };
    match op {
        LogOp::CreateTable { schema } => {
            buf.push(CREATE_TABLE);
            put_schema(buf, schema);
        }
        LogOp::Insert { table, id, row } if row.is_empty() => head(INSERT_EMPTY, *table, *id),
        LogOp::Insert { table, id, row } => {
            head(INSERT, *table, *id);
            let mut last = buf.len();
            for v in row {
                last = buf.len();
                put_value(buf, v);
            }
            buf[last] |= LAST_CELL;
        }
        LogOp::Update { table, id, set } => {
            head(UPDATE, *table, *id);
            put_varint(buf, set.len() as u64);
            for (ci, v) in set {
                put_varint(buf, *ci as u64);
                put_value(buf, v);
            }
        }
        LogOp::Delete { table, id } => head(DELETE, *table, *id),
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
    get_value_like(d, None)
}

/// One value. A text cell whose bytes are those of `like`'s text shares
/// its `Arc`, and needs no UTF-8 check: they are a `str`'s bytes.
fn get_value_like(d: &mut &[u8], like: Option<&Value>) -> Option<Value> {
    let tag = *d.split_off_first()?;
    get_value_tagged(tag, d, like)
}

/// [`get_value_like`] for a value whose type tag has been read.
fn get_value_tagged(tag: u8, d: &mut &[u8], like: Option<&Value>) -> Option<Value> {
    Some(match tag {
        0 => Value::Null,
        tag @ 1..=2 => Value::Bool(tag == 2),
        3 => Value::Int(get_int(d)?),
        4 => Value::Float(f64::from_le_bytes(d.split_off(..8)?.try_into().ok()?)),
        5 => Value::Timestamp(get_int(d)?),
        6 => {
            let bytes = get_bytes(d)?;
            match like {
                Some(Value::Text(same)) if same.as_bytes() == bytes => {
                    Value::Text(Arc::clone(same))
                }
                _ => Value::Text(std::str::from_utf8(bytes).ok()?.into()),
            }
        }
        _ => return None,
    })
}

fn get_schema(d: &mut &[u8]) -> Option<TableSchema> {
    serde_json::from_str(&get_text(d)?).ok()
}

/// An `Insert`'s cells: values up to the one whose type tag carries
/// `LAST_CELL`.
fn get_cells(d: &mut &[u8]) -> Option<Row> {
    let mut row = Vec::new();
    loop {
        let tag = *d.split_off_first()?;
        row.push(get_value_tagged(tag & !LAST_CELL, d, None)?);
        if tag & LAST_CELL != 0 {
            return Some(row);
        }
    }
}

/// One snapshot row of `columns` cells, decoded into `buf` (reused from
/// row to row) and moved into the row's one allocation. A text cell equal
/// to the same column's cell of `prev`, the row listed before it, shares
/// that cell's `Arc` ([`get_value_like`]): a run of rows with one status,
/// site or application holds the text once.
fn get_stored_row(
    d: &mut &[u8],
    columns: usize,
    buf: &mut Vec<Value>,
    prev: Option<&[Value]>,
) -> Option<Arc<[Value]>> {
    buf.clear();
    for ci in 0..columns {
        buf.push(get_value_like(d, prev.map(|row| &row[ci]))?);
    }
    Some(buf.drain(..).collect())
}

fn get_op(d: &mut &[u8]) -> Option<LogOp> {
    let tag = *d.split_off_first()?;
    if tag == CREATE_TABLE {
        let schema = get_schema(d)?;
        return Some(LogOp::CreateTable { schema });
    }
    let table = usize::try_from(get_varint(d)?).ok()?;
    let id = get_int(d)?;
    Some(match tag {
        INSERT => {
            let row = get_cells(d)?;
            LogOp::Insert { table, id, row }
        }
        INSERT_EMPTY => LogOp::Insert {
            table,
            id,
            row: Vec::new(),
        },
        UPDATE => {
            // A changed cell is its column's varint and a value: two bytes
            // at least.
            let n = get_varint(d)?;
            let mut set = Vec::with_capacity(n.min(d.len() as u64 / 2) as usize);
            for _ in 0..n {
                set.push((usize::try_from(get_varint(d)?).ok()?, get_value(d)?));
            }
            LogOp::Update { table, id, set }
        }
        DELETE => LogOp::Delete { table, id },
        _ => return None,
    })
}

/// Encode a commit's ops and start the frame's CRC over them: everything
/// of a frame that does not need the sequence number.
fn encode_commit(ops: &[LogOp]) -> (Vec<u8>, u32) {
    let mut body = Vec::with_capacity(64 * ops.len());
    ops.iter().for_each(|op| put_op(&mut body, op));
    let crc = crc32_update(!0, &body);
    (body, crc)
}

/// The bytes `v` takes as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append one log frame: encoded `ops` numbered from `first_seq`, whose
/// CRC state after the ops is `crc` (from [`encode_commit`]).
fn push_frame(buf: &mut Vec<u8>, first_seq: u64, ops: &[u8], crc: u32) {
    put_varint(buf, (varint_len(first_seq) + ops.len()) as u64);
    let crc_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    put_varint(buf, first_seq);
    let crc = !crc32_update(crc, &buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(ops);
}

/// One commit as the bytes of its frame, its ops numbered from `first_seq`:
/// for tests and tools that build a log file by hand (after [`MAGIC`]).
pub fn encode_frame(first_seq: u64, ops: &[LogOp]) -> Vec<u8> {
    let (mut frame, (body, crc)) = (Vec::new(), encode_commit(ops));
    push_frame(&mut frame, first_seq, &body, crc);
    frame
}

/// The whole and checksum-clean log frame that starts at byte `at`: its
/// first sequence number, its encoded ops (one byte at least) and the
/// offset where it ends.
fn log_frame_at(data: &[u8], at: usize) -> Option<(u64, &[u8], usize)> {
    let mut rest = data.get(at..)?;
    let len = usize::try_from(get_varint(&mut rest)?).ok()?;
    let crc = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let body = rest.split_off(..len)?;
    let mut ops = body;
    let first_seq = get_varint(&mut ops)?;
    let seq = &body[..body.len() - ops.len()];
    let clean = !ops.is_empty() && !crc32_update(crc32_update(!0, ops), seq) == crc;
    clean.then_some((first_seq, ops, data.len() - rest.len()))
}

/// The body, one byte at least, of the whole and checksum-clean snapshot
/// frame that starts at byte `at`.
fn snapshot_frame_at(data: &[u8], at: usize) -> Option<&[u8]> {
    let mut rest = data.get(at..)?;
    let len = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let body = rest.split_off(..len as usize)?;
    (!body.is_empty() && !crc32_update(!0, body) == crc).then_some(body)
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
/// leader/follower protocol in `Self::sync_to`. Phase 3 is the group
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
    /// Open (or create) a WAL file whose next record is numbered
    /// `next_seq`. The caller has recovered the file (see
    /// [`recover_with_last_seq`]) and knows that no record in it, and no
    /// commit its snapshot holds, carries that number or a higher one: the
    /// file alone does not say where numbering must continue once
    /// compaction has truncated it.
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
    pub(crate) fn set_fsync(&self, on: bool) {
        self.fsync.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    pub(crate) fn fsync(&self) -> bool {
        self.fsync.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Highest sequence number assigned so far, or `None` if no record was
    /// ever appended. Tracked in memory so snapshot/checkpoint never has to
    /// re-read the log to learn where it ends.
    pub(crate) fn last_seq(&self) -> Option<u64> {
        self.queue
            .lock()
            .expect("wal queue lock")
            .next_seq
            .checked_sub(1)
    }

    /// Claim sequence numbers for `ops` and buffer them as one frame
    /// (phases 1–2 of a commit; no durability yet). Returns the last
    /// claimed sequence number, or `None` for an empty batch.
    ///
    /// The engine calls this while still holding its one writer mutex, so
    /// sequence order always matches apply order — replay cannot reorder
    /// ops. The flush ([`Self::sync_to`]) happens after a statement has
    /// let the writer go, where it group-commits with the writers that
    /// queued behind it.
    pub(crate) fn enqueue(&self, ops: &[LogOp]) -> Result<Option<u64>, DbError> {
        if ops.is_empty() {
            return Ok(None);
        }
        // Phase 1: encode and checksum before the queue lock.
        let (body, crc) = encode_commit(ops);
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
        push_frame(&mut q.buf, first_seq, &body, crc);
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
    pub(crate) fn sync_to(&self, target: u64) -> Result<(), DbError> {
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

    /// Compaction truncation: drop every frame at or below `watermark`,
    /// the last sequence number of the last commit the covering snapshot
    /// holds (`None`: it holds none). Safe while writers are running: a
    /// commit that claimed its numbers but was not yet published when the
    /// snapshot's version was pinned is numbered above the watermark
    /// (claims and publications are serialized by the engine's one writer
    /// mutex), so it is kept. The sequence counter keeps increasing, so
    /// records appended later sort strictly after everything kept.
    ///
    /// A frame goes or stays by the first sequence number in its header,
    /// and a kept frame is copied as the bytes it was. A snapshot holds all
    /// of a commit or none of it, so the first kept frame starts at
    /// `watermark + 1`, or nothing is kept and the watermark is the last
    /// number claimed. Anything else means a frame is partly covered: it
    /// answers `Corrupt` and the file is left as it was.
    pub(crate) fn truncate_keeping(&self, watermark: Option<u64>) -> Result<(), DbError> {
        let mut st = self.wait_no_flush();
        if let Some(e) = &st.failed {
            return Err(dead_log(e));
        }
        let mut file = self.file.lock().expect("wal file lock");
        // Flush whatever is buffered so the rewrite below sees every
        // claimed record. Frames enqueued after this point are numbered
        // above the watermark and simply flush to the rewritten file later.
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
        let keep_from = watermark.map_or(0, |seq| seq + 1);
        // The last dropped frame's offset, and the first kept frame's.
        let (mut dropped, mut kept) = (MAGIC.len(), None);
        let whole = walk_frames(&data, |offset, _, first_seq, _| {
            if first_seq < keep_from {
                dropped = offset;
            } else {
                kept.get_or_insert((offset, first_seq));
            }
            // A frame holds one op at least; the cut counts none.
            Ok(1)
        })?;
        let whole_frames = match kept {
            Some((_, first_seq)) => first_seq == keep_from,
            None => watermark == upto,
        };
        if !whole_frames {
            return Err(corrupt_log(dropped, "frame partly covered by the snapshot"));
        }
        let from = kept.map_or(whole, |(offset, _)| offset);
        replace_file(&self.path, "wal.tmp", self.fsync(), |file| {
            file.write_all(MAGIC)?;
            Ok(file.write_all(&data[from..whole])?)
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
    while let Some((first_seq, ops, end)) = log_frame_at(data, at) {
        if first_seq < next_seq {
            return Err(corrupt_log(at, "sequence regression"));
        }
        next_seq = first_seq + each(at, end, first_seq, ops)?;
        at = end;
    }
    // A header cut short holds nothing; otherwise `at` ends the last whole frame.
    let whole = if data.len() < MAGIC.len() { 0 } else { at };
    if whole < data.len() {
        if let Some(later) = (at + 1..data.len()).find(|&p| log_frame_at(data, p).is_some()) {
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
/// [`recover_with_last_seq`] comes here.
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
    /// Stream `tables` — one consistent cut, in table-number order — into
    /// the snapshot file at `path`, frame by frame, and return the file's
    /// length. `applied_seq` is the cut's watermark: the cut holds exactly
    /// the commits numbered at or below it, so replay skips those records
    /// and applies the rest. `durable`: see [`replace_file`].
    pub(crate) fn write<'a>(
        tables: impl ExactSizeIterator<Item = &'a Table>,
        applied_seq: Option<u64>,
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
            put_varint(&mut body, applied_seq.map_or(0, |seq| seq + 1));
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

    /// Load a snapshot: its tables, in the order it lists them (table-number
    /// order), and its watermark. One pass decodes a table's rows, checking
    /// each as it is read ([`TableSchema::check_cells`]) and that ids
    /// ascend, as [`Rows::chunks`](crate::table::Rows::chunks) writes them;
    /// one more builds its chunks and indexes ([`Table::from_ascending`]).
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
            let body = snapshot_frame_at(&data, start)
                .ok_or_else(|| corrupt(start, "damaged, or cut short of what it declares"))?;
            at += 8 + body.len();
            Ok::<_, DbError>((start, body))
        };

        let (start, body) = next_frame()?;
        let header = whole(body, |d| {
            Some((get_varint(d)?.checked_sub(1), get_varint(d)?))
        });
        let (applied_seq, table_count) =
            header.ok_or_else(|| corrupt(start, "undecodable file header"))?;

        let mut tables: RecoveredTables = Vec::new();
        for _ in 0..table_count {
            let (start, body) = next_frame()?;
            let header = whole(body, |d| {
                Some((get_schema(d)?, get_int(d)?, get_varint(d)?))
            });
            let (schema, next_id, row_count) =
                header.ok_or_else(|| corrupt(start, "undecodable table header"))?;
            // A row is its id and one value per column, a byte each at
            // least: the bytes after this header bound what the count may
            // reserve.
            let columns = schema.columns.len();
            let left = (data.len() - (start + 8 + body.len())) as u64;
            let reserve = row_count.min(left / (1 + columns as u64));
            let mut rows: Vec<(i64, Arc<[Value]>)> = Vec::with_capacity(reserve as usize);
            let mut buf = Vec::with_capacity(columns);
            while (rows.len() as u64) < row_count {
                let (start, mut body) = next_frame()?;
                while !body.is_empty() {
                    let prev = rows.last().map(|(_, row)| &row[..]);
                    let id = get_int(&mut body);
                    let row = id.and_then(|_| get_stored_row(&mut body, columns, &mut buf, prev));
                    let (id, row) = id
                        .zip(row)
                        .ok_or_else(|| corrupt(start, "undecodable row"))?;
                    if rows.last().is_some_and(|&(last, _)| last >= id) {
                        return Err(corrupt(start, "row ids not ascending"));
                    }
                    schema.check_cells(&row)?;
                    rows.push((id, row));
                }
                if rows.len() as u64 > row_count {
                    return Err(corrupt(start, "more rows than the table declares"));
                }
            }
            if tables.iter().any(|r| r.table.schema.name == schema.name) {
                return Err(corrupt(start, "a table twice"));
            }
            let table = Table::from_ascending(schema, next_id, rows)?;
            tables.push(Recovered { table, version: 0 });
        }
        if at < data.len() {
            return Err(corrupt(at, "bytes after the last table"));
        }
        Ok((tables, applied_seq))
    }
}

/// One table as recovery builds it: plain and unshared, so the log's records
/// apply in place, until it moves into the first published version.
pub(crate) struct Recovered {
    pub table: Table,
    /// Records replayed onto it: where its runtime modification counter
    /// starts (a snapshot does not carry one).
    pub version: u64,
}

/// The tables recovery holds, indexed by table number.
pub(crate) type RecoveredTables = Vec<Recovered>;

/// Apply record `seq`, `op`, to the tables recovery holds. The log records
/// only what committed, against exactly this state, so any refusal here
/// means the files do not belong together: `Corrupt`, naming the record.
fn apply(tables: &mut RecoveredTables, seq: u64, op: LogOp) -> Result<(), DbError> {
    let refused = |what: &str, table: &str, e: DbError| {
        DbError::Corrupt(format!("wal seq {seq}: {what} on {table}: {e}"))
    };
    let (what, number) = match op {
        LogOp::CreateTable { schema } => {
            let exists = |name: &str| tables.iter().any(|r| r.table.schema.name == name);
            let table =
                new_table(&schema, exists).map_err(|e| refused("create table", &schema.name, e))?;
            tables.push(Recovered { table, version: 1 });
            return Ok(());
        }
        LogOp::Insert { table, .. } => ("insert", table),
        LogOp::Update { table, .. } => ("update", table),
        LogOp::Delete { table, .. } => ("delete", table),
    };
    let Some(held) = tables.get_mut(number) else {
        let why = format!("wal seq {seq}: {what} on table {number}: no such table");
        return Err(DbError::Corrupt(why));
    };
    held.version += 1;
    let t = &mut held.table;
    let applied = match op {
        LogOp::Insert { id, row, .. } => t.insert_with_id(id, row),
        // In place: the recovered table is unshared, so the row is too.
        LogOp::Update { id, set, .. } => t.update_cells(id, &set),
        LogOp::Delete { id, .. } => t.delete(id),
        LogOp::CreateTable { .. } => unreachable!("applied above"),
    };
    applied.map_err(|e| refused(what, &t.schema.name, e))
}

/// Recover the tables `snapshot` (if present) + `wal` (if present) hold, and
/// their watermark: the last sequence number of the last commit they hold,
/// which is the snapshot's watermark or the log's last record, whichever is
/// higher. The log must number on from it. After a compaction the file can
/// be empty while the snapshot holds commits; records numbered from the
/// file alone would sit at or below its watermark, and the next recovery
/// would skip them as applied.
///
/// Records at or below the snapshot's watermark are skipped: the snapshot
/// holds exactly those commits (see [`Wal::truncate_keeping`]), and gaps
/// among them are legal. The records above it must run contiguously from
/// the watermark plus one, or from 0 with no snapshot: a gap there is
/// commits missing, and is `Corrupt`. So is a record that does not apply.
/// A torn tail is cut off the log file (see the module docs).
pub(crate) fn recover_with_last_seq(
    snapshot: &Path,
    wal: &Path,
) -> Result<(RecoveredTables, Option<u64>), DbError> {
    let (mut tables, mut applied_seq) = if snapshot.exists() {
        Snapshot::load(snapshot)?
    } else {
        Default::default()
    };
    if wal.exists() {
        for WalRecord { seq, op } in read_cutting_torn_tail(wal)? {
            if applied_seq.is_some_and(|applied| seq <= applied) {
                continue;
            }
            let next = applied_seq.map_or(0, |applied| applied + 1);
            if seq != next {
                let why = format!("wal seq {seq}: a gap, the log should go on at seq {next}");
                return Err(DbError::Corrupt(why));
            }
            apply(&mut tables, seq, op)?;
            applied_seq = Some(seq);
        }
    }
    Ok((tables, applied_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Cells;
    use crate::schema::{Column, TableSchema};
    use crate::table::Rows;
    use crate::value::{Value, ValueType};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("simdb_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// An insert into table 0.
    fn insert(id: i64, v: i64) -> LogOp {
        LogOp::Insert {
            table: 0,
            id,
            row: vec![Value::Int(v)],
        }
    }

    /// Table `t` holding `v` = 0..5 under ids 1..=5, and the ops that say so
    /// (it is table 0).
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

    /// One snapshot frame around `body`, its checksum valid.
    fn framed(body: &[u8]) -> Vec<u8> {
        let len = u32::try_from(body.len()).unwrap().to_le_bytes();
        let crc = (!crc32_update(!0, body)).to_le_bytes();
        [&len[..], &crc, body].concat()
    }

    /// What `Db::open` would find in these files (`snap` need not exist).
    fn recovered(snap: &Path, wal: &Path) -> RecoveredTables {
        recover_with_last_seq(snap, wal).unwrap().0
    }

    /// Open the log at `path` for appending as `Db::open` does: recover it
    /// (with the snapshot `db.snap` beside it, if there is one), which cuts
    /// a torn tail, and number on from the watermark recovery reached.
    fn reopen(path: &Path) -> Wal {
        let (_, applied) = recover_with_last_seq(&path.with_file_name("db.snap"), path).unwrap();
        Wal::open_at(path, applied.map_or(0, |seq| seq + 1)).unwrap()
    }

    /// Commit `ops` as the engine does: buffer them as one frame, then wait
    /// for the flush covering it. The last sequence number claimed.
    fn commit(wal: &Wal, ops: &[LogOp]) -> u64 {
        let last = wal.enqueue(ops).unwrap().expect("a commit holds an op");
        wal.sync_to(last).unwrap();
        last
    }

    /// Every value type, the varint edges and text no escaping would survive.
    fn every_value_shape() -> Vec<Value> {
        let text = [
            "",
            "plain",
            "quo\"te back\\slash\nnew\tline\r\u{1}",
            "∑ßé日本語🌀",
        ];
        let mut row: Vec<Value> = text.iter().map(|&s| Value::from(s)).collect();
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
        let (table, id) = (1 << 40, i64::MIN);
        let ops = [
            LogOp::CreateTable { schema },
            LogOp::Update { table, id, set },
            LogOp::Insert {
                table: 0,
                id: i64::MAX,
                row,
            },
            LogOp::Update {
                table: 127,
                id: -7,
                set: vec![],
            },
            LogOp::Delete { table, id: 42 },
            LogOp::Insert {
                table: 128,
                id: 1,
                row: vec![],
            },
        ];
        let path = tmpdir("codec").join("db.wal");
        let wal = reopen(&path);
        commit(&wal, &ops);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(commit(&wal, std::slice::from_ref(op)), 6 + i as u64);
        }
        let frames = Wal::read_frames(&path).unwrap();
        let sizes: Vec<usize> = frames.iter().map(|f| f.records.len()).collect();
        assert_eq!(sizes, [6, 1, 1, 1, 1, 1, 1]);
        assert_eq!(frames[0].offset, MAGIC.len());
        assert_eq!(frames[6].end, std::fs::read(&path).unwrap().len());
        for (i, rec) in Wal::read_records(&path).unwrap().iter().enumerate() {
            assert_eq!((rec.seq, &rec.op), (i as u64, &ops[i % 6]));
        }
        // The public frame writer produces the same bytes.
        let mut by_hand = [&MAGIC[..], &encode_frame(0, &ops)].concat();
        for (i, op) in ops.iter().enumerate() {
            by_hand.extend(encode_frame(6 + i as u64, std::slice::from_ref(op)));
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
        let db = Db::new(crate::version::DbVersion::empty(), Some(log), None);
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
        commit(&reopen(&wal_path), &seed().1);

        let tables = recovered(&dir.join("db.snap"), &wal_path);
        assert_eq!(tables[0].table.len(), 5);
    }

    #[test]
    fn wal_reopen_continues_sequence() {
        let dir = tmpdir("seq");
        let wal_path = dir.join("db.wal");
        let ops = seed().1;
        assert_eq!(commit(&reopen(&wal_path), &ops), (ops.len() - 1) as u64);
        let seq = commit(&reopen(&wal_path), &[insert(6, 9)]);
        assert_eq!(seq, ops.len() as u64);
        let recs = Wal::read_records(&wal_path).unwrap();
        assert_eq!(recs.len(), ops.len() + 1);
    }

    #[test]
    fn snapshot_plus_wal_suffix() {
        let dir = tmpdir("snap");
        let wal_path = dir.join("db.wal");
        let snap_path = dir.join("db.snap");
        let wal = reopen(&wal_path);

        let (table, ops) = seed();
        let last = commit(&wal, &ops);
        Snapshot::write([&table].into_iter(), Some(last), &snap_path, false).unwrap();

        // post-snapshot activity: a sixth row, and the first one goes
        let first = LogOp::Delete { table: 0, id: 1 };
        commit(&wal, &[insert(6, 100), first]);

        let tables = recovered(&snap_path, &wal_path);
        let vals: Vec<i64> = (tables[0].table.iter())
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
        let frame = encode_frame(5, &[LogOp::Delete { table: 0, id: 1 }]);
        std::fs::write(&wal_path, [&MAGIC[..], &frame, &frame].concat()).unwrap();
        assert!(matches!(
            Wal::read_records(&wal_path),
            Err(DbError::Corrupt(_))
        ));
    }

    /// Reading a log is free of side effects; the recovery that opens it
    /// for appending is what cuts a torn tail, and
    /// `simdb_wal_torn_tail_bytes_total` grows by exactly the bytes cut.
    /// (No other test here recovers a torn log.)
    #[test]
    fn only_recovery_cuts_a_torn_tail() {
        let cut = &crate::obs::metrics().wal_torn_tail_bytes;
        let wal_path = tmpdir("torn").join("db.wal");
        commit(&reopen(&wal_path), &seed().1);
        let whole = std::fs::read(&wal_path).unwrap();
        let before = cut.get();
        assert_eq!(reopen(&wal_path).last_seq(), Some(5));
        assert_eq!(cut.get(), before, "a clean log was cut");
        let torn = [&whole[..], &whole[MAGIC.len()..MAGIC.len() + 11]].concat();
        std::fs::write(&wal_path, &torn).unwrap();
        assert_eq!(Wal::read_frames(&wal_path).unwrap().len(), 1);
        assert_eq!(std::fs::read(&wal_path).unwrap(), torn);
        assert_eq!(cut.get(), before, "reading cut the log");
        assert_eq!(reopen(&wal_path).last_seq(), Some(5));
        assert_eq!(std::fs::read(&wal_path).unwrap(), whole);
        assert_eq!(cut.get() - before, 11);
    }

    fn delete_u(id: i64) -> LogOp {
        LogOp::Delete { table: 1, id }
    }

    /// A snapshot cannot hold half a commit. A watermark that says it does —
    /// inside the first frame, so the next one starts past it, or inside the
    /// last, so the last number claimed lies past it — is refused before
    /// the log is touched, and the log stays usable.
    #[test]
    fn a_partly_covered_frame_is_refused_and_the_log_stays_usable() {
        let wal_path = tmpdir("partial").join("db.wal");
        let wal = reopen(&wal_path);
        commit(&wal, &seed().1);
        commit(&wal, &[insert(6, 9), delete_u(1)]);
        let before = std::fs::read(&wal_path).unwrap();
        let second = Wal::read_frames(&wal_path).unwrap()[1].offset;
        // Frames: 0..=5 at byte 8, 6-7 at `second`.
        for (watermark, at) in [(3, 8), (6, second)] {
            match wal.truncate_keeping(Some(watermark)) {
                Err(DbError::Corrupt(why)) => assert!(why.contains(&format!("wal byte {at}:"))),
                other => panic!("{other:?}"),
            }
            assert_eq!(std::fs::read(&wal_path).unwrap(), before);
        }
        assert_eq!(commit(&wal, &[insert(7, 9)]), 8);
        wal.truncate_keeping(Some(8)).unwrap();
        assert_eq!(std::fs::read(&wal_path).unwrap(), MAGIC);
    }

    /// The cut keeps every frame above the watermark as the bytes it was,
    /// in the order it was. A racing writer's commit is in the file it
    /// leaves whether it was claimed before the cut or after.
    #[test]
    fn the_log_cut_keeps_whole_frames_as_they_were_and_a_racing_writers_too() {
        let wal_path = tmpdir("cut").join("db.wal");
        let read = || std::fs::read(&wal_path).unwrap();
        let wal = reopen(&wal_path);
        commit(&wal, &seed().1);
        for id in 1..=3 {
            commit(&wal, &[delete_u(id), delete_u(-id)]);
            commit(&wal, &[insert(5 + id, id)]);
        }
        // Frames: 0..=5, 6-7, 8, 9-10, 11, 12-13, 14.
        let (before, frames) = (read(), Wal::read_frames(&wal_path).unwrap());
        let bytes = |i: usize| &before[frames[i].offset..frames[i].end];
        assert_eq!(wal.enqueue(&[delete_u(4)]).unwrap(), Some(15)); // not flushed
        wal.truncate_keeping(Some(10)).unwrap();
        let claimed_before = encode_frame(15, &[delete_u(4)]);
        let kept = [MAGIC, bytes(4), bytes(5), bytes(6), &claimed_before].concat();
        assert_eq!(read(), kept);
        assert_eq!(commit(&wal, &[insert(9, 9)]), 16);
        let claimed_after = encode_frame(16, &[insert(9, 9)]);
        assert_eq!(read(), [kept, claimed_after].concat());
    }

    #[test]
    fn snapshot_restores_indexes() {
        let dir = tmpdir("idx");
        let snap_path = dir.join("db.snap");
        let schema = TableSchema::new("t", vec![Column::new("name", ValueType::Text).unique()]);
        let mut table = Table::new(schema).unwrap();
        table.insert(vec!["a".into()]).unwrap();
        Snapshot::write([&table].into_iter(), None, &snap_path, false).unwrap();
        let (mut loaded, _) = Snapshot::load(&snap_path).unwrap();
        // unique index must be live after load
        let loaded = &mut loaded[0].table;
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
        // In table-number order, which the loader keeps: not name order.
        let tables = [
            wide_table,
            seed().0,
            table("empty", vec![text("s")]),
            sparse,
        ];
        let bytes = Snapshot::write(tables.iter(), Some(9), &path, false).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (loaded, applied_seq) = Snapshot::load(&path).unwrap();
        assert_eq!(applied_seq, Some(9));
        let names: Vec<&str> = loaded.iter().map(|r| &r.table.schema.name[..]).collect();
        assert_eq!(names, ["wide", "t", "empty", "sparse"]);
        for (was, is) in tables.iter().zip(&loaded) {
            assert_eq!(is.table.schema, was.schema);
            assert_eq!(is.table.next_id, was.next_id);
            let name = &was.schema.name;
            assert!(is.table.iter().eq(was.iter()), "{name}: rows differ");
            assert_eq!(is.version, 0);
        }
        let float = wide.iter().position(|v| *v == Value::Float(-0.0)).unwrap();
        let zero = loaded[0].table.get(1).unwrap()[float].as_float();
        assert!(zero.unwrap().is_sign_negative(), "-0.0 came back as 0.0");

        // No commit at all is not sequence number 0.
        for applied_seq in [None, Some(0)] {
            Snapshot::write(tables.iter(), applied_seq, &path, false).unwrap();
            assert_eq!(Snapshot::load(&path).unwrap().1, applied_seq);
        }
    }

    /// Loading a snapshot, a text cell equal to the same column's cell in
    /// the row listed just before it shares that row's allocation — across
    /// a frame boundary too — and any other text gets its own.
    #[test]
    fn a_loaded_text_cell_equal_to_the_previous_rows_shares_its_allocation() {
        let path = tmpdir("snapshare").join("db.snap");
        let text = |name| Column::new(name, ValueType::Text);
        let schema = TableSchema::new("job", vec![text("status"), text("site")]);
        let mut table = Table::new(schema).unwrap();
        let statuses = ["DONE", "DONE", "ACTIVE", "DONE", "DONE"];
        for status in statuses {
            table.insert(vec![status.into(), "kraken".into()]).unwrap();
        }
        // Id 256 starts the next storage chunk, so the next frame.
        table
            .insert_with_id(255, vec!["DONE".into(), "kraken".into()])
            .unwrap();
        table
            .insert_with_id(256, vec!["DONE".into(), "kraken".into()])
            .unwrap();
        Snapshot::write([&table].into_iter(), None, &path, false).unwrap();
        let (loaded, _) = Snapshot::load(&path).unwrap();
        let rows: Vec<&[Value]> = loaded[0].table.iter().map(|(_, r)| r).collect();
        let shared = |a: &[Value], b: &[Value], col: usize| match (&a[col], &b[col]) {
            (Value::Text(a), Value::Text(b)) => Arc::ptr_eq(a, b),
            _ => panic!("text cells"),
        };
        let status_shared: Vec<bool> = rows.windows(2).map(|w| shared(w[0], w[1], 0)).collect();
        assert_eq!(status_shared, [true, false, false, true, true, true]);
        assert!(
            rows.windows(2).all(|w| shared(w[0], w[1], 1)),
            "one site, one allocation"
        );
        // DONE after ACTIVE is a fresh allocation, not the DONE before it.
        assert!(!shared(rows[1], rows[3], 0));
        assert!(loaded[0]
            .table
            .iter()
            .map(|(_, r)| r)
            .eq(table.iter().map(|(_, r)| r)));
    }

    /// A snapshot has no legitimate torn tail and carries no unchecked
    /// byte: every cut and every flipped bit answers `Corrupt` with a byte
    /// offset, as do contents the checksums cannot vouch for.
    #[test]
    fn a_damaged_or_short_snapshot_is_corrupt() {
        let path = tmpdir("snapdamage").join("db.snap");
        let seeded = seed().0;
        Snapshot::write([&seeded].into_iter(), Some(6), &path, false).unwrap();
        let good = std::fs::read(&path).unwrap();
        let (loaded, applied_seq) = Snapshot::load(&path).unwrap();
        assert_eq!(applied_seq, Some(6));
        assert_eq!(loaded[0].table.len(), 5);

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
            while let Some(body) = snapshot_frame_at(&good, at) {
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
            rows.insert(id, Arc::new([cell]));
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
            // Rows set past the insert path's checks, as only a damaged
            // file could hold them.
            let mut table = Table::new(schema.clone()).unwrap();
            (table.rows, table.next_id) = (rows, 10);
            Snapshot::write([&table].into_iter(), None, &path, false).unwrap();
            assert_eq!(Snapshot::load(&path).is_ok(), fine);
        }

        // Row ids out of order in a chunk, every frame checksum-clean: the
        // writer lists them ascending, so only damage could. In order, the
        // same frames load.
        let two_rows = |ids: [i64; 2]| {
            let (mut header, mut rows) = (Vec::new(), Vec::new());
            put_schema(&mut header, &seeded.schema);
            put_int(&mut header, 3);
            put_varint(&mut header, 2);
            for id in ids {
                put_int(&mut rows, id);
                put_value(&mut rows, &Value::Int(id));
            }
            [&good[..frame_ends[0]], &framed(&header), &framed(&rows)].concat()
        };
        std::fs::write(&path, two_rows([1, 2])).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().0[0].table.len(), 2);
        corrupt(&two_rows([2, 1]), "ids 2 then 1".into());
        match Snapshot::load(&path) {
            Err(DbError::Corrupt(why)) => assert!(why.contains("not ascending"), "{why}"),
            other => panic!("ids 2 then 1: {:?}", other.map(|(_, seq)| seq)),
        }
    }

    /// A count the bytes after it cannot hold — 2^40 rows, tables or
    /// changed cells — in a checksum-clean frame is `Corrupt`, never an
    /// allocation of that size, and so is an insert whose cells run past
    /// its frame. The same frames with a count of one, or the last cell
    /// marked, decode.
    #[test]
    fn counts_past_the_bytes_left_are_corrupt_not_allocations() {
        const HUGE: u64 = 1 << 40;
        let dir = tmpdir("huge");
        let (snap, log) = (dir.join("db.snap"), dir.join("db.wal"));
        let snapshot = |tables: u64, rows: u64| {
            let (mut file, mut table, mut chunk) = (Vec::new(), Vec::new(), Vec::new());
            put_varint(&mut file, 0);
            put_varint(&mut file, tables);
            put_schema(&mut table, &seed().0.schema);
            put_int(&mut table, 2);
            put_varint(&mut table, rows);
            put_int(&mut chunk, 1);
            put_value(&mut chunk, &Value::Int(0));
            let frames = [framed(&file), framed(&table), framed(&chunk)];
            std::fs::write(&snap, [&SNAPSHOT_MAGIC[..], &frames.concat()].concat()).unwrap();
            Snapshot::load(&snap)
        };
        assert_eq!(snapshot(1, 1).unwrap().0[0].table.len(), 1);
        for (tables, rows) in [(HUGE, 1), (1, HUGE)] {
            match snapshot(tables, rows) {
                Err(DbError::Corrupt(why)) => assert!(why.starts_with("snapshot byte "), "{why}"),
                other => panic!("{tables}/{rows}: {:?}", other.map(|_| ())),
            }
        }

        // An update of table 0's row 1 that declares `count` changed cells
        // and holds one; an insert of one cell, its mark `last` or none.
        let update = |count: u64| {
            let mut op = vec![UPDATE, 0];
            put_int(&mut op, 1);
            put_varint(&mut op, count);
            put_varint(&mut op, 0);
            put_value(&mut op, &Value::Int(0));
            op
        };
        let insert = |last: u8| {
            let mut op = vec![INSERT, 0];
            put_int(&mut op, 1);
            put_value(&mut op, &Value::Int(0));
            op[3] |= last;
            op
        };
        let logged = |op: Vec<u8>| {
            let mut file = MAGIC.to_vec();
            push_frame(&mut file, 0, &op, crc32_update(!0, &op));
            std::fs::write(&log, file).unwrap();
            Wal::read_records(&log)
        };
        for (fine, damaged) in [(update(1), update(HUGE)), (insert(LAST_CELL), insert(0))] {
            assert_eq!(logged(fine).unwrap().len(), 1);
            match logged(damaged) {
                Err(DbError::Corrupt(why)) => assert!(why.starts_with("wal byte 8: "), "{why}"),
                other => panic!("{other:?}"),
            }
        }
    }

    /// A one-op commit spends at most 9 bytes on its frame while its number
    /// is below 2^21 and its body under 16 KiB (2 of length, 4 of CRC, 3 of
    /// number), and an op names any of the first 128 tables in one byte.
    /// Every header reads back, at each varint's edges too.
    #[test]
    fn a_one_op_frame_spends_at_most_nine_bytes_beyond_its_op() {
        let encoded = |op: &LogOp| {
            let mut bytes = Vec::new();
            put_op(&mut bytes, op);
            bytes
        };
        for text in [0, 100, 16 * 1024 - 40] {
            let row = vec![Value::from("x".repeat(text))];
            let op = LogOp::Insert {
                table: 127,
                id: 1 << 30,
                row,
            };
            let own = encoded(&op);
            for seq in [0, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1] {
                let frame = encode_frame(seq, std::slice::from_ref(&op));
                assert!(frame.len() - own.len() <= 9, "{text} B of text, seq {seq}");
                let read = log_frame_at(&frame, 0);
                assert_eq!(read, Some((seq, &own[..], frame.len())));
            }
        }
        let op = LogOp::Delete { table: 0, id: 0 };
        for seq in [1 << 21, 1 << 35, u64::MAX] {
            let frame = encode_frame(seq, std::slice::from_ref(&op));
            assert_eq!(log_frame_at(&frame, 0).map(|(seq, ..)| seq), Some(seq));
        }
        let table_bytes = |table| encoded(&LogOp::Delete { table, id: 0 }).len() - 2;
        assert_eq!([0, 127, 128].map(table_bytes), [1, 1, 2]);
    }

    /// The log file's creation is made durable with its first durable
    /// flush: one directory sync, then none; none for a file that was there.
    #[test]
    fn a_new_logs_first_durable_flush_syncs_the_directory_once() {
        let path = tmpdir("dirsync").join("db.wal");
        let dir_syncs = |wal: &Wal, ops: &[LogOp]| {
            let before = DIR_SYNCS.with(|n| n.get());
            commit(wal, ops);
            DIR_SYNCS.with(|n| n.get()) - before
        };
        let wal = reopen(&path);
        assert_eq!(dir_syncs(&wal, &seed().1), 0, "fsync is off");
        wal.set_fsync(true);
        let first = dir_syncs(&wal, &[insert(6, 6)]);
        assert_eq!(first, 1, "first durable flush of a created file");
        assert_eq!(dir_syncs(&wal, &[insert(7, 7)]), 0);
        drop(wal);
        let wal = reopen(&path);
        wal.set_fsync(true);
        assert_eq!(dir_syncs(&wal, &[insert(8, 8)]), 0, "the file was there");
    }
}
