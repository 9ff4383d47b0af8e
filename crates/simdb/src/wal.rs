//! Durability: JSON-lines write-ahead log and full snapshots.
//!
//! The central database is the only channel between AMP's portal and the
//! GridAMP daemon, so losing it loses all workflow state. The `Wal` appends
//! each committed mutation as one JSON line; `Snapshot` serializes the whole
//! database. Recovery = load latest snapshot, then replay the WAL suffix.

use crate::db::{Database, LogOp};
use crate::error::DbError;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// The table a logged op targets (per-table WAL coverage accounting).
pub(crate) fn op_table(op: &LogOp) -> &str {
    match op {
        LogOp::CreateTable { schema } => &schema.name,
        LogOp::Insert { table, .. } | LogOp::Update { table, .. } | LogOp::Delete { table, .. } => {
            table
        }
    }
}

/// Byte-exact fast encoder for the hot `LogOp` variants. The generic
/// serde path builds an intermediate content tree per record, which
/// dominates append cost; this writes the identical JSON straight into
/// the output buffer. `CreateTable` (cold: DDL only) falls back to serde.
/// `encoder_matches_serde` pins byte equality against `serde_json`.
fn encode_op(buf: &mut Vec<u8>, op: &LogOp) -> Result<(), DbError> {
    fn encode_str(buf: &mut Vec<u8>, s: &str) {
        buf.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0; // start of the current passthrough run
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue; // plain byte (incl. UTF-8 continuation): copied in bulk
            }
            buf.extend_from_slice(&bytes[run..i]);
            run = i + 1;
            match b {
                b'"' => buf.extend_from_slice(b"\\\""),
                b'\\' => buf.extend_from_slice(b"\\\\"),
                b'\n' => buf.extend_from_slice(b"\\n"),
                b'\t' => buf.extend_from_slice(b"\\t"),
                b'\r' => buf.extend_from_slice(b"\\r"),
                0x8 => buf.extend_from_slice(b"\\b"),
                0xc => buf.extend_from_slice(b"\\f"),
                c => buf.extend_from_slice(format!("\\u{:04x}", c as u32).as_bytes()),
            }
        }
        buf.extend_from_slice(&bytes[run..]);
        buf.push(b'"');
    }
    fn encode_i64(buf: &mut Vec<u8>, v: i64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let neg = v < 0;
        let mut v = (v as i128).unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if neg {
            buf.push(b'-');
        }
        buf.extend_from_slice(&digits[i..]);
    }
    fn encode_f64(buf: &mut Vec<u8>, v: f64) {
        if !v.is_finite() {
            buf.extend_from_slice(b"null");
            return;
        }
        let s = format!("{v}");
        buf.extend_from_slice(s.as_bytes());
        if !s.contains('.') && !s.contains('e') {
            buf.extend_from_slice(b".0");
        }
    }
    fn encode_value(buf: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => buf.extend_from_slice(b"\"Null\""),
            Value::Bool(true) => buf.extend_from_slice(b"{\"Bool\":true}"),
            Value::Bool(false) => buf.extend_from_slice(b"{\"Bool\":false}"),
            Value::Int(i) => {
                buf.extend_from_slice(b"{\"Int\":");
                encode_i64(buf, *i);
                buf.push(b'}');
            }
            Value::Float(f) => {
                buf.extend_from_slice(b"{\"Float\":");
                encode_f64(buf, *f);
                buf.push(b'}');
            }
            Value::Timestamp(t) => {
                buf.extend_from_slice(b"{\"Timestamp\":");
                encode_i64(buf, *t);
                buf.push(b'}');
            }
            Value::Text(s) => {
                buf.extend_from_slice(b"{\"Text\":");
                encode_str(buf, s);
                buf.push(b'}');
            }
        }
    }
    fn encode_header(buf: &mut Vec<u8>, variant: &str, table: &str, id: i64) {
        buf.push(b'{');
        encode_str(buf, variant);
        buf.extend_from_slice(b":{\"table\":");
        encode_str(buf, table);
        buf.extend_from_slice(b",\"id\":");
        encode_i64(buf, id);
    }
    fn encode_row_op(buf: &mut Vec<u8>, variant: &str, table: &str, id: i64, row: &[Value]) {
        encode_header(buf, variant, table, id);
        buf.extend_from_slice(b",\"row\":[");
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            encode_value(buf, v);
        }
        buf.extend_from_slice(b"]}}");
    }
    match op {
        LogOp::Insert { table, id, row } => encode_row_op(buf, "Insert", table, *id, row),
        LogOp::Update { table, id, row } => encode_row_op(buf, "Update", table, *id, row),
        LogOp::Delete { table, id } => {
            encode_header(buf, "Delete", table, *id);
            buf.extend_from_slice(b"}}");
        }
        LogOp::CreateTable { .. } => {
            let body =
                serde_json::to_string(op).map_err(|e| DbError::Io(format!("wal encode: {e}")))?;
            buf.extend_from_slice(body.as_bytes());
        }
    }
    Ok(())
}

/// The error every commit gets once a flush has failed (see
/// `CommitState::failed`).
fn dead_log(cause: &str) -> DbError {
    DbError::Io(format!("wal unusable after failed flush: {cause}"))
}

/// One WAL record: a monotonically increasing sequence number plus the op.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WalRecord {
    pub seq: u64,
    pub op: LogOp,
}

/// An append-only write-ahead log backed by a file, with **cross-writer
/// group commit**.
///
/// A commit has three phases: (1) serialize the ops to JSON — the expensive
/// part — entirely outside any lock; (2) take the cheap `queue` lock just
/// long enough to claim sequence numbers and splice the pre-encoded lines
/// into the shared in-memory buffer; (3) make the batch durable through the
/// leader/follower protocol in [`Self::sync_to`]. Phase 3 is the group
/// commit: at most one thread — the *leader* — is elected per flush window
/// under the `commit` mutex; it drains *everything* buffered so far
/// (including lines from writers that arrived while the previous flush was
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
    /// Encoded-but-unflushed records, in sequence order.
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
    /// Streams the file to find the tail record — only the last line is
    /// actually parsed, so reopening a long log costs one pass of IO, not
    /// a full JSON decode of every record.
    ///
    /// The file alone does not say where numbering must continue once
    /// compaction has truncated it: a database opens its log with
    /// [`Self::open_at`], past everything its snapshot covers.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let path = path.as_ref();
        let next_seq = if path.exists() {
            let f = File::open(path)?;
            let mut last_line: Option<(usize, String)> = None;
            for (lineno, line) in BufReader::new(f).lines().enumerate() {
                let line = line?;
                if !line.trim().is_empty() {
                    last_line = Some((lineno, line));
                }
            }
            match last_line {
                Some((lineno, line)) => {
                    let rec: WalRecord = serde_json::from_str(&line)
                        .map_err(|e| DbError::Corrupt(format!("wal line {}: {e}", lineno + 1)))?;
                    rec.seq + 1
                }
                None => 0,
            }
        } else {
            0
        };
        Self::open_at(path, next_seq)
    }

    /// Open (or create) a WAL file whose next record is numbered
    /// `next_seq`. The caller has read the file (see [`recover`]) and knows
    /// that no record in it, and no record a snapshot already covers,
    /// carries that number or a higher one.
    pub(crate) fn open_at(path: impl AsRef<Path>, next_seq: u64) -> Result<Self, DbError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            queue: Mutex::new(WalQueue {
                next_seq,
                buf: Vec::new(),
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

    /// Claim sequence numbers for `ops` and buffer the encoded records
    /// (phases 1–2 of a commit; no durability yet). Returns the last
    /// claimed sequence number, or `None` for an empty batch.
    ///
    /// The sharded engine calls this while still holding the table (or
    /// catalog) write guards covering the ops, so sequence order always
    /// matches apply order — replay cannot reorder ops on the same table.
    /// The flush ([`Self::sync_to`]) happens after the guards are
    /// released, where it group-commits with other tables' writers.
    pub fn enqueue(&self, ops: &[LogOp]) -> Result<Option<u64>, DbError> {
        // Phase 1: serialize before the queue lock (no serde tree).
        let mut encoded = Vec::with_capacity(ops.len());
        for op in ops {
            let mut body = Vec::with_capacity(160);
            encode_op(&mut body, op)?;
            encoded.push(body);
        }
        if encoded.is_empty() {
            return Ok(None);
        }
        // A failed flush lost records and nothing drains the buffer any
        // more: refuse, so the caller publishes nothing that can never be
        // made durable. (Records enqueued while the failing flush was in
        // flight are already published; their `sync_to` reports the error.)
        if let Some(e) = &self.commit.lock().expect("wal commit lock").failed {
            return Err(dead_log(e));
        }

        // Phase 2: claim sequence numbers and buffer the finished lines.
        let mut q = self.queue.lock().expect("wal queue lock");
        for body in &encoded {
            // `WalRecord` serializes as {"seq":N,"op":{...}} in field
            // order; emit the identical bytes by splicing the
            // pre-encoded op body around the freshly claimed seq.
            let seq = q.next_seq;
            q.buf.extend_from_slice(b"{\"seq\":");
            q.buf.extend_from_slice(seq.to_string().as_bytes());
            q.buf.extend_from_slice(b",\"op\":");
            q.buf.extend_from_slice(body);
            q.buf.extend_from_slice(b"}\n");
            q.next_seq += 1;
            q.pending += 1;
        }
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
                    if self.fsync.load(std::sync::atomic::Ordering::Relaxed) {
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
    pub(crate) fn truncate_keeping(&self, applied: &BTreeMap<String, u64>) -> Result<(), DbError> {
        let mut st = self.wait_no_flush();
        if let Some(e) = &st.failed {
            return Err(dead_log(e));
        }
        let mut file = self.file.lock().expect("wal file lock");
        // Flush whatever is buffered so the rewrite below sees every
        // claimed record. Lines enqueued after this point have sequence
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

        let mut out = Vec::new();
        for rec in Self::read_records(&self.path)? {
            let covered = applied
                .get(op_table(&rec.op))
                .is_some_and(|&s| s >= rec.seq);
            if !covered {
                let line = serde_json::to_string(&rec)
                    .map_err(|e| DbError::Io(format!("wal rewrite: {e}")))?;
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
        }
        let tmp = self.path.with_extension("wal.tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &self.path)?;
        file.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Read all records from a WAL file.
    pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<WalRecord>, DbError> {
        let f = File::open(path.as_ref())?;
        let mut out = Vec::new();
        for (lineno, line) in BufReader::new(f).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: WalRecord = serde_json::from_str(&line)
                .map_err(|e| DbError::Corrupt(format!("wal line {}: {e}", lineno + 1)))?;
            out.push(rec);
        }
        // Sequence numbers must be strictly increasing.
        for w in out.windows(2) {
            if w[1].seq <= w[0].seq {
                return Err(DbError::Corrupt(format!(
                    "wal sequence regression: {} then {}",
                    w[0].seq, w[1].seq
                )));
            }
        }
        Ok(out)
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
        Self::write_atomic(path, data)
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
    /// databases that is almost the entire snapshot.
    pub(crate) fn save_encoded(
        tables: &BTreeMap<String, std::sync::Arc<Vec<u8>>>,
        covered_seq: Option<u64>,
        applied_seqs: &BTreeMap<String, u64>,
        path: impl AsRef<Path>,
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
        Self::write_atomic(path, data)
    }

    /// Write-then-rename for atomicity.
    fn write_atomic(path: impl AsRef<Path>, data: Vec<u8>) -> Result<(), DbError> {
        let tmp = path.as_ref().with_extension("tmp");
        std::fs::write(&tmp, data)?;
        std::fs::rename(&tmp, path.as_ref())?;
        Ok(())
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
/// once compaction runs concurrently with writers).
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
            let records = Wal::read_records(w)?;
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
        Snapshot::save_encoded(&parts, covered, &applied, &path).unwrap();
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

    #[test]
    fn encoder_matches_serde() {
        let ops = vec![
            LogOp::Insert {
                table: "obs".into(),
                id: i64::MAX,
                row: vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Int(0),
                    Value::Int(i64::MIN),
                    Value::Float(1.5),
                    Value::Float(-0.0),
                    Value::Float(3.0),
                    Value::Float(0.1),
                    Value::Float(1e300),
                    Value::Float(f64::NAN),
                    Value::Float(f64::INFINITY),
                    Value::Timestamp(-123456789),
                    Value::Text(String::new()),
                    Value::Text("plain".into()),
                    Value::Text("quo\"te back\\slash\nnew\tline\r\u{8}\u{c}\u{1}".into()),
                    Value::Text("unicode: ∑ßé日本語🌀".into()),
                ],
            },
            LogOp::Update {
                table: "a\"b".into(),
                id: -7,
                row: vec![],
            },
            LogOp::Delete {
                table: "t".into(),
                id: 42,
            },
            LogOp::CreateTable {
                schema: TableSchema::new(
                    "x",
                    vec![Column::new("a", ValueType::Int).not_null().indexed()],
                ),
            },
        ];
        for op in &ops {
            let mut fast = Vec::new();
            encode_op(&mut fast, op).unwrap();
            let via_serde = serde_json::to_string(op).unwrap();
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                via_serde,
                "encoder diverged for {op:?}"
            );
        }
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
        std::fs::write(&wal_path, "not json\n").unwrap();
        assert!(matches!(
            Wal::read_records(&wal_path),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn sequence_regression_detected() {
        let dir = tmpdir("reg");
        let wal_path = dir.join("db.wal");
        let op = LogOp::Delete {
            table: "t".into(),
            id: 1,
        };
        let a = serde_json::to_string(&WalRecord {
            seq: 5,
            op: op.clone(),
        })
        .unwrap();
        let b = serde_json::to_string(&WalRecord { seq: 5, op }).unwrap();
        std::fs::write(&wal_path, format!("{a}\n{b}\n")).unwrap();
        assert!(matches!(
            Wal::read_records(&wal_path),
            Err(DbError::Corrupt(_))
        ));
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
