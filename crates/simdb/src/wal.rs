//! Durability: a framed binary commit log and full snapshots.
//!
//! The central database is the only channel between AMP's portal and the
//! GridAMP daemon, so losing it loses all workflow state. The [`Wal`]
//! appends each commit as one checksummed frame; [`Snapshot`] serializes
//! the whole database. Recovery = load latest snapshot, then replay the
//! log's suffix.
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
//! says so in the flight recorder; [`Wal::read_frames`] only leaves the tail
//! out. A bad frame *followed by a valid one* is damage, never a torn tail,
//! and answers `Corrupt` with its byte offset.

use crate::db::{Database, LogOp};
use crate::error::DbError;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// The first bytes of every log file: format name and version.
pub const MAGIC: &[u8; 8] = b"AMPLOG\x00\x01";

/// The table a logged op targets (per-table WAL coverage accounting).
pub(crate) fn op_table(op: &LogOp) -> &str {
    match op {
        LogOp::CreateTable { schema } => &schema.name,
        LogOp::Insert { table, .. } | LogOp::Update { table, .. } | LogOp::Delete { table, .. } => {
            table
        }
    }
}

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) state continued over `bytes`: start from `!0`, invert the
/// final state.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
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

fn put_op(buf: &mut Vec<u8>, op: &LogOp) {
    let mut head = |tag: u8, table: &str, id: i64| {
        buf.push(tag);
        put_bytes(buf, table.as_bytes());
        put_int(buf, id);
    };
    match op {
        LogOp::CreateTable { schema } => {
            buf.push(0);
            put_bytes(
                buf,
                &serde_json::to_vec(schema).expect("schema JSON encode is infallible"),
            );
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

fn get_text(d: &mut &[u8]) -> Option<String> {
    let len = usize::try_from(get_varint(d)?).ok()?;
    String::from_utf8(d.split_off(..len)?.to_vec()).ok()
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

fn get_op(d: &mut &[u8]) -> Option<LogOp> {
    let tag = *d.split_off_first()?;
    if tag == 0 {
        let schema = serde_json::from_str(&get_text(d)?).ok()?;
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

/// Append the frame of a commit encoded by [`encode_commit`].
fn push_frame(buf: &mut Vec<u8>, (ops, crc): &(Vec<u8>, u32), first_seq: u64) {
    let seq = first_seq.to_le_bytes();
    buf.extend_from_slice(&((ops.len() + seq.len()) as u32).to_le_bytes());
    buf.extend_from_slice(&(!crc32_update(*crc, &seq)).to_le_bytes());
    buf.extend_from_slice(ops);
    buf.extend_from_slice(&seq);
}

/// One commit as the bytes of its frame, its ops numbered from `first_seq`:
/// for tests and tools that build a log file by hand (after [`MAGIC`]).
pub fn encode_frame(first_seq: u64, ops: &[LogOp]) -> Result<Vec<u8>, DbError> {
    let mut frame = Vec::new();
    push_frame(&mut frame, &encode_commit(ops)?, first_seq);
    Ok(frame)
}

/// The body of the whole, checksum-clean, non-empty frame that starts at
/// byte `at`.
fn frame_at(data: &[u8], at: usize) -> Option<&[u8]> {
    let mut rest = data.get(at..)?;
    let len = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let crc = u32::from_le_bytes(rest.split_off(..4)?.try_into().ok()?);
    let body = rest.split_off(..len as usize)?;
    (len > 8 && !crc32_update(!0, body) == crc).then_some(body)
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
    /// `next_seq`. The caller has read the file (see [`recover`]) and knows
    /// that no record in it, and no record a snapshot already covers,
    /// carries that number or a higher one.
    pub(crate) fn open_at(path: impl AsRef<Path>, next_seq: u64) -> Result<Self, DbError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // The first flush of a new file starts it with the header.
        let buf = if file.metadata()?.len() == 0 {
            MAGIC.to_vec()
        } else {
            Vec::new()
        };
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
        let encoded = encode_commit(ops)?;
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
        push_frame(&mut q.buf, &encoded, first_seq);
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
                    if self.fsync() {
                        file.writer.get_ref().sync_data()
                    } else {
                        Ok(())
                    }
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

        let (data, frames, _) = scan(&self.path)?;
        let mut out = MAGIC.to_vec();
        let covered = |r: &WalRecord| applied.get(op_table(&r.op)).is_some_and(|&s| s >= r.seq);
        for frame in frames {
            let keep = !covered(&frame.records[0]);
            if frame.records.iter().any(|rec| covered(rec) == keep) {
                return Err(DbError::Corrupt(format!(
                    "wal byte {}: frame partly covered by the snapshot",
                    frame.offset
                )));
            }
            if keep {
                out.extend_from_slice(&data[frame.offset..frame.end]);
            }
        }
        replace_file(&self.path, "wal.tmp", &out, self.fsync())?;
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

    /// Replay records into a database, skipping those the database's
    /// recorded per-table WAL coverage — seeded by [`Snapshot::load`] —
    /// already includes. Refreshes the per-table coverage as it goes.
    pub fn replay_into(db: &mut Database, records: &[WalRecord]) -> Result<usize, DbError> {
        let mut applied = 0;
        for rec in records {
            let table = op_table(&rec.op).to_string();
            if db.applied_seq(&table).is_some_and(|s| s >= rec.seq) {
                continue;
            }
            db.apply_log_op(&rec.op)?;
            db.note_applied(&table, rec.seq);
            applied += 1;
        }
        Ok(applied)
    }
}

/// Decode a log file in one pass, returning its bytes, its frames and the
/// length of its whole-frame prefix: anything after that is a torn tail.
/// Damage before the tail is `Corrupt`. Reads only.
fn scan(path: &Path) -> Result<(Vec<u8>, Vec<Frame>, usize), DbError> {
    let data = std::fs::read(path)?;
    let corrupt = |at: usize, why: &str| DbError::Corrupt(format!("wal byte {at}: {why}"));
    let mut at = MAGIC.len().min(data.len());
    if data[..at] != MAGIC[..at] {
        return Err(corrupt(0, "not a framed log"));
    }
    let (mut frames, mut next_seq) = (Vec::new(), 0);
    while let Some(body) = frame_at(&data, at) {
        let (mut ops, seq) = body.split_at(body.len() - 8);
        let first_seq = u64::from_le_bytes(seq.try_into().expect("eight bytes"));
        if first_seq < next_seq {
            return Err(corrupt(at, "sequence regression"));
        }
        let mut records = Vec::new();
        while !ops.is_empty() {
            let op = get_op(&mut ops).ok_or_else(|| corrupt(at, "undecodable op"))?;
            let seq = first_seq + records.len() as u64;
            records.push(WalRecord { seq, op });
        }
        next_seq = first_seq + records.len() as u64;
        let (offset, end) = (at, at + 8 + body.len());
        frames.push(Frame {
            offset,
            end,
            records,
        });
        at = end;
    }
    // A header cut short holds nothing; otherwise `at` ends the last whole frame.
    let whole = if data.len() < MAGIC.len() { 0 } else { at };
    if whole < data.len() {
        if let Some(later) = (at + 1..data.len()).find(|&p| frame_at(&data, p).is_some()) {
            return Err(corrupt(
                at,
                &format!("bad frame; a valid one follows at {later}"),
            ));
        }
    }
    Ok((data, frames, whole))
}

/// Recovery's read of the log it is about to append to: the records of
/// [`scan`], with a torn tail cut off the file and noted in the flight
/// recorder. Only [`Wal::open`] and [`recover_with_last_seq`] come here.
fn read_cutting_torn_tail(path: &Path) -> Result<Vec<WalRecord>, DbError> {
    let (data, frames, whole) = scan(path)?;
    if whole < data.len() {
        let (name, len) = (path.display(), data.len());
        amp_obs::flight().record(
            "simdb",
            format!("wal {name}: torn tail, {len} bytes cut to {whole}"),
        );
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(whole as u64)?;
    }
    Ok(frames.into_iter().flat_map(|f| f.records).collect())
}

/// Write-then-rename for atomicity. With `durable`, the new contents reach
/// the device before the rename does, and the rename before this returns:
/// `sync_all` on the temporary file, then on the directory.
fn replace_file(path: &Path, tmp_ext: &str, data: &[u8], durable: bool) -> Result<(), DbError> {
    let tmp = path.with_extension(tmp_ext);
    let mut file = File::create(&tmp)?;
    file.write_all(data)?;
    if durable {
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if durable {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// Full database snapshots.
pub struct Snapshot;

/// A snapshot file: database state, the highest WAL sequence number
/// claimed when it was taken, and the per-table coverage.
struct SnapshotFile {
    covered_seq: Option<u64>,
    /// Highest WAL seq whose effects each table's saved state includes.
    /// Required: without it replay cannot tell which records the state
    /// already contains, and applying the whole log over it would
    /// double-apply them.
    applied_seqs: BTreeMap<String, u64>,
    database: Database,
}

impl Serialize for SnapshotFile {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("covered_seq".to_string(), self.covered_seq.to_content()),
            ("applied_seqs".to_string(), self.applied_seqs.to_content()),
            ("database".to_string(), self.database.to_content()),
        ])
    }
}

impl SnapshotFile {
    /// Decode snapshot text without ever holding a parse tree of the whole
    /// file: the database streams in row by row (see
    /// [`Database::read_snapshot`]), so a reopen's peak is the text plus
    /// the tables, not the text plus a tree several times their size.
    fn read(text: &str) -> serde_json::Result<Self> {
        let (mut covered_seq, mut applied_seqs, mut database) = (None, None, None);
        let mut reader = serde_json::Reader::new(text);
        reader.object(|reader, key| {
            match key.as_str() {
                "covered_seq" => covered_seq = Some(Option::from_content(&reader.value()?)?),
                "applied_seqs" => applied_seqs = Some(BTreeMap::from_content(&reader.value()?)?),
                "database" => database = Some(Database::read_snapshot(reader)?),
                _ => drop(reader.value()?),
            }
            Ok(())
        })?;
        reader.end()?;
        let missing = |field| serde_json::Error(format!("snapshot: missing field `{field}`"));
        Ok(SnapshotFile {
            covered_seq: covered_seq.ok_or_else(|| missing("covered_seq"))?,
            applied_seqs: applied_seqs.ok_or_else(|| missing("applied_seqs"))?,
            database: database.ok_or_else(|| missing("database"))?,
        })
    }
}

impl Snapshot {
    /// Write the database (and the WAL seq it includes) to a file.
    pub fn save(
        db: &Database,
        covered_seq: Option<u64>,
        path: impl AsRef<Path>,
    ) -> Result<(), DbError> {
        // Single-threaded engine: everything is applied, so the global
        // coverage is also every table's coverage.
        let applied = match covered_seq {
            Some(cov) => db.table_names().map(|t| (t.to_string(), cov)).collect(),
            None => BTreeMap::new(),
        };
        Self::save_owned(db.clone(), covered_seq, applied, path)
    }

    fn save_owned(
        database: Database,
        covered_seq: Option<u64>,
        applied_seqs: BTreeMap<String, u64>,
        path: impl AsRef<Path>,
    ) -> Result<(), DbError> {
        let file = SnapshotFile {
            covered_seq,
            applied_seqs,
            database,
        };
        let data =
            serde_json::to_vec(&file).map_err(|e| DbError::Io(format!("snapshot encode: {e}")))?;
        replace_file(path.as_ref(), "tmp", &data, false)
    }

    /// Encode one table exactly as it appears as a value inside the
    /// snapshot file's `database.tables` map — the unit the compactor's
    /// clean-table cache stores and reuses.
    pub(crate) fn encode_table(table: &crate::table::Table) -> Vec<u8> {
        serde_json::to_vec(table).expect("table JSON encode is infallible")
    }

    /// Assemble and write a snapshot from per-table pre-encoded JSON.
    /// Byte-identical to encoding a whole [`SnapshotFile`] over the same
    /// cut (asserted by test), but a table whose published version has not
    /// moved since the last snapshot costs one buffer copy instead of a
    /// full content-tree build and re-serialization — on archive-dominated
    /// databases that is almost the entire snapshot. `durable`: see
    /// [`replace_file`].
    pub(crate) fn save_encoded(
        tables: &BTreeMap<String, std::sync::Arc<Vec<u8>>>,
        covered_seq: Option<u64>,
        applied_seqs: &BTreeMap<String, u64>,
        path: impl AsRef<Path>,
        durable: bool,
    ) -> Result<(), DbError> {
        let enc = |e| DbError::Io(format!("snapshot encode: {e}"));
        let covered = serde_json::to_string(&covered_seq).map_err(enc)?;
        let applied = serde_json::to_string(applied_seqs).map_err(enc)?;
        let body: usize = tables.iter().map(|(n, b)| n.len() + b.len() + 4).sum();
        let mut data = Vec::with_capacity(64 + covered.len() + applied.len() + body);
        data.extend_from_slice(b"{\"covered_seq\":");
        data.extend_from_slice(covered.as_bytes());
        data.extend_from_slice(b",\"applied_seqs\":");
        data.extend_from_slice(applied.as_bytes());
        data.extend_from_slice(b",\"database\":{\"tables\":{");
        for (i, (name, bytes)) in tables.iter().enumerate() {
            if i > 0 {
                data.push(b',');
            }
            let key = serde_json::to_string(name).map_err(enc)?;
            data.extend_from_slice(key.as_bytes());
            data.push(b':');
            data.extend_from_slice(bytes);
        }
        data.extend_from_slice(b"}}}");
        replace_file(path.as_ref(), "tmp", &data, durable)
    }

    /// Load a snapshot; returns the database (indexes rebuilt, per-table
    /// WAL coverage seeded from the recorded map) and the highest WAL seq
    /// claimed when it was taken.
    pub fn load(path: impl AsRef<Path>) -> Result<(Database, Option<u64>), DbError> {
        let corrupt = |e: &dyn std::fmt::Display| DbError::Corrupt(format!("snapshot decode: {e}"));
        let file = {
            let data = std::fs::read(path.as_ref())?;
            let text = std::str::from_utf8(&data).map_err(|e| corrupt(&e))?;
            SnapshotFile::read(text).map_err(|e| corrupt(&e))?
        };
        let mut db = file.database;
        db.rebuild_indexes()?;
        db.set_applied_seqs(file.applied_seqs);
        Ok((db, file.covered_seq))
    }
}

/// Recover a database from `snapshot` (if present) + `wal` (if present).
/// Replay filtering is per table: the snapshot's recorded coverage decides,
/// table by table, which records are already included (see
/// [`Wal::truncate_keeping`] for why a global threshold would be unsound
/// once compaction runs concurrently with writers). A torn tail is cut off
/// the log file (see the module docs).
pub fn recover(snapshot: Option<&Path>, wal: Option<&Path>) -> Result<Database, DbError> {
    recover_with_last_seq(snapshot, wal).map(|(db, _)| db)
}

/// [`recover`], plus the highest WAL sequence number the recovered state
/// has ever used: the maximum over the log's records, the snapshot's
/// `covered_seq` and every table's coverage. The log must continue above
/// it. After a compaction the file can be empty, or hold only one table's
/// tail, while the snapshot's coverage of other tables is higher; records
/// numbered from the file alone would sit at or below that coverage and
/// the next recovery would skip them as already applied.
pub(crate) fn recover_with_last_seq(
    snapshot: Option<&Path>,
    wal: Option<&Path>,
) -> Result<(Database, Option<u64>), DbError> {
    let (mut db, mut last_seq) = match snapshot {
        Some(p) if p.exists() => Snapshot::load(p)?,
        _ => (Database::new(), None),
    };
    if let Some(w) = wal {
        if w.exists() {
            let records = read_cutting_torn_tail(w)?;
            Wal::replay_into(&mut db, &records)?;
            last_seq = last_seq.max(records.last().map(|r| r.seq));
        }
    }
    let last_seq = last_seq.max(db.max_applied_seq());
    Ok((db, last_seq))
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

    fn seed_ops(db: &mut Database) -> Vec<LogOp> {
        let mut ops = Vec::new();
        ops.push(
            db.create_table(TableSchema::new(
                "t",
                vec![Column::new("v", ValueType::Int)],
            ))
            .unwrap(),
        );
        for i in 0..5 {
            let (_, op) = db.insert("t", &[("v", Value::Int(i))]).unwrap();
            ops.push(op);
        }
        ops
    }

    #[test]
    fn assembled_snapshot_matches_whole_file_encoding() {
        let mut db = Database::new();
        seed_ops(&mut db);
        db.create_table(TableSchema::new(
            "empty",
            vec![Column::new("s", ValueType::Text)],
        ))
        .unwrap();
        let covered = Some(9);
        let applied: BTreeMap<String, u64> = [("t".to_string(), 7u64)].into_iter().collect();
        let reference = serde_json::to_vec(&SnapshotFile {
            covered_seq: covered,
            applied_seqs: applied.clone(),
            database: db.clone(),
        })
        .unwrap();
        let parts: BTreeMap<String, std::sync::Arc<Vec<u8>>> = db
            .table_names()
            .map(|n| {
                let bytes = Snapshot::encode_table(db.table(n).unwrap());
                (n.to_string(), std::sync::Arc::new(bytes))
            })
            .collect();
        let dir = tmpdir("assembled");
        let path = dir.join("snap.json");
        Snapshot::save_encoded(&parts, covered, &applied, &path, false).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference,
            "stitched per-table snapshot must be byte-identical to a whole-file encode"
        );
        // And it must round-trip through the normal loader.
        let (loaded, cov) = Snapshot::load(&path).unwrap();
        assert_eq!(cov, covered);
        assert_eq!(loaded.count("t", &crate::query::Query::new()).unwrap(), 5);
        assert_eq!(
            loaded.count("empty", &crate::query::Query::new()).unwrap(),
            0
        );
    }

    /// Every op, every value type, the varint edges and text no escaping
    /// would survive, as one commit of five ops and as five commits of one.
    #[test]
    fn frames_round_trip_every_op_and_value_shape() {
        let crc = !crc32_update(!0, b"123456789");
        assert_eq!(crc, 0xCBF4_3926, "the CRC-32 check value");
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
        let mut db = Database::new();
        let ops = seed_ops(&mut db);
        let wal = Wal::open(&wal_path).unwrap();
        wal.append(&ops).unwrap();

        let recovered = recover(None, Some(&wal_path)).unwrap();
        assert_eq!(recovered.table("t").unwrap().len(), 5);
    }

    #[test]
    fn wal_reopen_continues_sequence() {
        let dir = tmpdir("seq");
        let wal_path = dir.join("db.wal");
        let mut db = Database::new();
        let ops = seed_ops(&mut db);
        {
            let wal = Wal::open(&wal_path).unwrap();
            assert_eq!(wal.append(&ops).unwrap(), (ops.len() - 1) as u64);
        }
        let wal = Wal::open(&wal_path).unwrap();
        let (_, op) = db.insert("t", &[("v", Value::Int(9))]).unwrap();
        let seq = wal.append(std::slice::from_ref(&op)).unwrap();
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

        let mut db = Database::new();
        let ops = seed_ops(&mut db);
        let last = wal.append(&ops).unwrap();
        Snapshot::save(&db, Some(last), &snap_path).unwrap();

        // post-snapshot activity
        let (_, op1) = db.insert("t", &[("v", Value::Int(100))]).unwrap();
        let rows = db.select("t", &crate::query::Query::new()).unwrap();
        let dels = db.delete("t", rows[0].0).unwrap();
        let mut tail = vec![op1];
        tail.extend(dels);
        wal.append(&tail).unwrap();

        let recovered = recover(Some(&snap_path), Some(&wal_path)).unwrap();
        assert_eq!(recovered.table("t").unwrap().len(), 5);
        let vals: Vec<i64> = recovered
            .select("t", &crate::query::Query::new())
            .unwrap()
            .iter()
            .map(|(_, r)| r[0].as_int().unwrap())
            .collect();
        assert!(vals.contains(&100));
        assert!(!vals.contains(&0));
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
    /// what cuts a torn tail.
    #[test]
    fn only_opening_the_log_cuts_a_torn_tail() {
        let wal_path = tmpdir("torn").join("db.wal");
        let mut db = Database::new();
        Wal::open(&wal_path)
            .unwrap()
            .append(&seed_ops(&mut db))
            .unwrap();
        let whole = std::fs::read(&wal_path).unwrap();
        let torn = [&whole[..], &whole[MAGIC.len()..MAGIC.len() + 11]].concat();
        std::fs::write(&wal_path, &torn).unwrap();
        assert_eq!(Wal::read_frames(&wal_path).unwrap().len(), 1);
        assert_eq!(std::fs::read(&wal_path).unwrap(), torn);
        assert_eq!(Wal::open(&wal_path).unwrap().last_seq(), Some(5));
        assert_eq!(std::fs::read(&wal_path).unwrap(), whole);
    }

    /// A snapshot cannot hold half a commit. Coverage that says it does is
    /// refused before the log is touched, and the log stays usable.
    #[test]
    fn a_partly_covered_frame_is_refused_and_the_log_stays_usable() {
        let wal_path = tmpdir("partial").join("db.wal");
        let wal = Wal::open(&wal_path).unwrap();
        let mut db = Database::new();
        wal.append(&seed_ops(&mut db)).unwrap();
        let before = std::fs::read(&wal_path).unwrap();
        let half: BTreeMap<String, u64> = [("t".to_string(), 3)].into_iter().collect();
        match wal.truncate_keeping(&half) {
            Err(DbError::Corrupt(why)) => assert!(why.contains("wal byte 8"), "{why}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(std::fs::read(&wal_path).unwrap(), before);
        let (_, op) = db.insert("t", &[("v", Value::Int(9))]).unwrap();
        assert_eq!(wal.append(&[op]).unwrap(), 6);
        wal.truncate_keeping(&[("t".to_string(), 6)].into_iter().collect())
            .unwrap();
        assert_eq!(std::fs::read(&wal_path).unwrap(), MAGIC);
    }

    #[test]
    fn snapshot_restores_indexes() {
        let dir = tmpdir("idx");
        let snap_path = dir.join("db.snap");
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![Column::new("name", ValueType::Text).unique()],
        ))
        .unwrap();
        db.insert("t", &[("name", "a".into())]).unwrap();
        Snapshot::save(&db, None, &snap_path).unwrap();
        let (mut loaded, _) = Snapshot::load(&snap_path).unwrap();
        // unique index must be live after load
        assert!(loaded.insert("t", &[("name", "a".into())]).is_err());
        assert!(loaded.insert("t", &[("name", "b".into())]).is_ok());
    }

    #[test]
    fn snapshot_load_takes_legacy_files_and_rejects_damage() {
        let dir = tmpdir("shapes");
        let path = dir.join("db.snap");
        let mut db = Database::new();
        seed_ops(&mut db);
        Snapshot::save(&db, Some(6), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        let (loaded, covered) = Snapshot::load(&path).unwrap();
        assert_eq!((covered, loaded.applied_seq("t")), (Some(6), Some(6)));
        assert_eq!(loaded.table("t").unwrap().len(), 5);

        // A snapshot from before per-table accounting has a `covered_seq`
        // but no coverage map: replaying the whole log over it would
        // double-apply, so it is refused, naming the field.
        let applied = "\"applied_seqs\":{\"t\":6},";
        assert!(text.contains(applied));
        std::fs::write(&path, text.replace(applied, "")).unwrap();
        match Snapshot::load(&path) {
            Err(DbError::Corrupt(why)) => assert!(why.contains("applied_seqs"), "{why}"),
            other => panic!("legacy snapshot accepted: {:?}", other.map(|(_, seq)| seq)),
        }

        // A duplicated unique cell, a missing field, a torn file, stray text.
        let unique = text.replace("\"unique\":false", "\"unique\":true");
        let twin = unique.replace("{\"Int\":1}", "{\"Int\":0}");
        std::fs::write(&path, unique).unwrap();
        assert!(Snapshot::load(&path).is_ok());
        for damaged in [
            twin,
            text.replace("\"covered_seq\":6,", ""),
            text.replace("\"next_id\":6", "\"next\":6"),
            text[..text.len() / 2].to_string(),
            format!("{text}]"),
        ] {
            std::fs::write(&path, damaged).unwrap();
            assert!(Snapshot::load(&path).is_err());
        }
    }
}
