//! In-memory table storage: rows, primary keys, and one ordered index per
//! indexed column.
//!
//! Storage is **copy-on-write** so the MVCC layer ([`crate::version`]) can
//! publish immutable snapshots cheaply, and rows and indexes share one
//! shape: a spine of `Arc`-shared chunks.
//!
//! * **Rows** live in fixed-span chunks behind `Arc`s, and every row inside
//!   a chunk is *one* allocation of its own: an `Arc<[Value]>` whose text
//!   cells are `Arc<str>`. A point mutation re-links one chunk's row
//!   *pointers* (256 `Arc` bumps, no row data) and materializes exactly the
//!   row written; copying that row bumps its text cells' counts and copies
//!   no string.
//! * **Each indexed column** (unique, indexed, or foreign key) has one
//!   [`Index`]: every non-NULL cell as a `(value, row id)` entry, globally
//!   sorted, in chunks of at most [`INDEX_CHUNK_CAP`] entries. That one
//!   structure answers the unique probe, the equality posting list (already
//!   ascending by id) and index-ordered scans in both directions. A point
//!   mutation re-links the one chunk holding the entry, and only in the
//!   indexes whose cell actually changed.
//!
//! `Table::clone` is therefore a *structural* clone — the row spine plus
//! one `Arc` bump per index — and a committed write costs O(rows touched)
//! for rows **and** indexes, whatever the table's size or a posting list's
//! length. [`Table::take_copied`] drains what the mutations materialized so
//! the `simdb_rows_copied_per_write` and
//! `simdb_index_entries_copied_per_write` histograms can watch that
//! invariant in production.

use crate::error::DbError;
use crate::schema::TableSchema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A row as callers build and receive it: cell values aligned with
/// `TableSchema::columns` order. The primary key lives in the table's row
/// map, not in the row itself. Stored, a row is one `Arc<[Value]>`, and
/// the table lends it out as `&[Value]`.
pub type Row = Vec<Value>;

/// Rows per chunk = 2^CHUNK_SHIFT. 256 balances point-write cost (one
/// chunk copy) against spine size (rows/256 `Arc` bumps per table clone).
const CHUNK_SHIFT: u32 = 8;

type Chunk = BTreeMap<i64, Arc<[Value]>>;

/// Chunked copy-on-write row storage: `id >> CHUNK_SHIFT` keys a shared,
/// immutable-when-shared chunk of up to 256 row *pointers*. Iteration order
/// is ascending by id (non-negative ids sort identically chunked or flat).
///
/// Because each row sits behind its own `Arc`, re-materializing a shared
/// chunk via `Arc::make_mut` bumps reference counts instead of cloning row
/// data; the only row ever materialized per mutation is the one written.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    chunks: BTreeMap<i64, Arc<Chunk>>,
    len: usize,
}

impl Rows {
    fn chunk_key(id: i64) -> i64 {
        id >> CHUNK_SHIFT
    }

    /// Rows in strictly ascending id order, as a snapshot lists them: each
    /// 256-id span becomes one chunk, built whole, with no per-row lookup.
    fn from_ascending(rows: Vec<(i64, Arc<[Value]>)>) -> Rows {
        let len = rows.len();
        let mut rows = rows.into_iter().peekable();
        let chunks = std::iter::from_fn(|| {
            let key = Self::chunk_key(rows.peek()?.0);
            let span = std::iter::from_fn(|| rows.next_if(|(id, _)| Self::chunk_key(*id) == key));
            Some((key, Arc::new(span.collect())))
        });
        Rows {
            chunks: chunks.collect(),
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, id: i64) -> Option<&[Value]> {
        self.chunks
            .get(&Self::chunk_key(id))?
            .get(&id)
            .map(|r| &r[..])
    }

    /// The stored row `id`, writable: its chunk is re-linked if shared, the
    /// row itself is left shared for the caller's `Arc::make_mut`.
    fn get_mut(&mut self, id: i64) -> Option<&mut Arc<[Value]>> {
        let chunk = self.chunks.get_mut(&Self::chunk_key(id))?;
        if !chunk.contains_key(&id) {
            return None;
        }
        Arc::make_mut(chunk).get_mut(&id)
    }

    pub fn contains_key(&self, id: i64) -> bool {
        self.get(id).is_some()
    }

    /// Insert or replace. A shared destination chunk is re-linked (`Arc`
    /// bumps per resident row, no data copies); exactly one row — the one
    /// written — is materialized.
    pub fn insert(&mut self, id: i64, row: Arc<[Value]>) -> Option<Arc<[Value]>> {
        let chunk = self
            .chunks
            .entry(Self::chunk_key(id))
            .or_insert_with(|| Arc::new(Chunk::new()));
        let old = Arc::make_mut(chunk).insert(id, row);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove; re-links only the containing chunk if shared.
    pub fn remove(&mut self, id: i64) -> Option<Arc<[Value]>> {
        let key = Self::chunk_key(id);
        let chunk = self.chunks.get_mut(&key)?;
        if !chunk.contains_key(&id) {
            return None;
        }
        let out = Arc::make_mut(chunk).remove(&id);
        if chunk.is_empty() {
            self.chunks.remove(&key);
        }
        self.len -= 1;
        out
    }

    /// The storage chunks in id order, each its rows in id order: the unit
    /// a snapshot writes at a time.
    pub fn chunks(&self) -> impl Iterator<Item = impl Iterator<Item = (i64, &[Value])>> {
        self.chunks
            .values()
            .map(|c| c.iter().map(|(id, r)| (*id, &r[..])))
    }

    pub fn iter(&self) -> impl Iterator<Item = (i64, &[Value])> {
        self.chunks().flatten()
    }
}

/// Entries per index chunk, at most. A point write re-links one chunk per
/// index it changes, so this bounds the entries a write can materialize;
/// the spine an index clone bumps is entries/cap long.
pub(crate) const INDEX_CHUNK_CAP: usize = 512;

/// One chunk of an [`Index`]: row ids sorted by `(cell, id)`, with the
/// cells run-length encoded beside them. Re-linking a shared chunk clones
/// one cell per *distinct* value in it and block-copies the ids, so a
/// low-cardinality column (`status = "DONE"`) costs no more than an
/// integer one.
#[derive(Debug, Clone, Default)]
struct IndexChunk {
    /// Distinct cells, ascending, each with the end of its run in `ids`
    /// (its start is the previous run's end). No run is empty.
    runs: Vec<(Value, usize)>,
    ids: Vec<i64>,
}

impl IndexChunk {
    fn start(&self, run: usize) -> usize {
        if run == 0 {
            0
        } else {
            self.runs[run - 1].1
        }
    }

    fn last(&self) -> (&Value, i64) {
        let (cell, end) = self.runs.last().expect("index chunks are never empty");
        (cell, self.ids[end - 1])
    }

    /// Runs from the `first`-th on, in ascending cell order, each with its
    /// ascending ids.
    fn runs_from(&self, first: usize) -> impl DoubleEndedIterator<Item = (&Value, &[i64])> {
        (first..self.runs.len())
            .map(|r| (&self.runs[r].0, &self.ids[self.start(r)..self.runs[r].1]))
    }

    /// The run holding `cell`, or where a run for it would go.
    fn run_for(&self, cell: &Value) -> usize {
        self.runs
            .partition_point(|(c, _)| c.total_cmp(cell).is_lt())
    }

    /// Append an entry that sorts after every one present.
    fn push(&mut self, cell: &Value, id: i64) {
        match self.runs.last_mut() {
            Some((last, end)) if last == cell => *end += 1,
            _ => self.runs.push((cell.clone(), self.ids.len() + 1)),
        }
        self.ids.push(id);
    }

    /// `(run, offset in ids)` of the entry `(cell, id)`.
    fn find(&self, cell: &Value, id: i64) -> Option<(usize, usize)> {
        let run = self.run_for(cell);
        let (_, end) = self.runs.get(run).filter(|(c, _)| c == cell)?;
        let start = self.start(run);
        let at = self.ids[start..*end].binary_search(&id).ok()?;
        Some((run, start + at))
    }

    /// Add `(cell, id)`, which must not be present.
    fn insert(&mut self, cell: &Value, id: i64) {
        let run = self.run_for(cell);
        if self.runs.get(run).is_none_or(|(c, _)| c != cell) {
            self.runs.insert(run, (cell.clone(), self.start(run)));
        }
        let (start, end) = (self.start(run), self.runs[run].1);
        let at = self.ids[start..end].partition_point(|&other| other < id);
        debug_assert!(self.ids[start..end].get(at) != Some(&id));
        self.ids.insert(start + at, id);
        for (_, end) in &mut self.runs[run..] {
            *end += 1;
        }
    }

    /// Remove the entry [`Self::find`] located.
    fn remove(&mut self, (run, at): (usize, usize)) {
        self.ids.remove(at);
        for (_, end) in &mut self.runs[run..] {
            *end -= 1;
        }
        if self.runs[run].1 == self.start(run) {
            self.runs.remove(run);
        }
    }

    /// Keep the first half of the entries and return the rest; a run that
    /// straddles the middle continues in the returned chunk.
    fn split_off_half(&mut self) -> IndexChunk {
        let mid = self.ids.len() / 2;
        let run = self.runs.partition_point(|(_, end)| *end <= mid);
        let tail = IndexChunk {
            runs: self.runs[run..]
                .iter()
                .map(|(cell, end)| (cell.clone(), end - mid))
                .collect(),
            ids: self.ids.split_off(mid),
        };
        self.runs
            .truncate(if self.start(run) < mid { run + 1 } else { run });
        if let Some((_, end)) = self.runs.last_mut() {
            *end = mid;
        }
        tail
    }
}

/// Mutable access to a chunk, adding what re-linking a shared one
/// materializes to `copied`.
fn relink<'c>(chunk: &'c mut Arc<IndexChunk>, copied: &mut u64) -> &'c mut IndexChunk {
    if Arc::get_mut(chunk).is_none() {
        *copied += chunk.ids.len() as u64;
    }
    Arc::make_mut(chunk)
}

/// The persistent ordered index over one column: every non-NULL cell as a
/// `(cell, row id)` entry, sorted by cell then id, in `Arc`-shared chunks
/// that are never empty. Cloning shares every chunk; a mutation re-links
/// the one chunk it lands in. Chunks split in half past
/// [`INDEX_CHUNK_CAP`] and are dropped when their last entry goes; they are
/// never merged, since AMP's tables grow and its deletes (finished work
/// leaving a status, leases released) empty whole runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Index {
    chunks: Vec<Arc<IndexChunk>>,
}

impl Index {
    /// Bulk-load from entries already sorted by `(cell, id)`.
    fn from_sorted<'a>(entries: impl IntoIterator<Item = (&'a Value, i64)>) -> Index {
        let mut chunks = Vec::new();
        let mut chunk = IndexChunk::default();
        for (cell, id) in entries {
            if chunk.ids.len() == INDEX_CHUNK_CAP {
                chunks.push(Arc::new(std::mem::take(&mut chunk)));
            }
            chunk.push(cell, id);
        }
        if !chunk.ids.is_empty() {
            chunks.push(Arc::new(chunk));
        }
        Index { chunks }
    }

    /// The chunk an entry `(cell, id)` is in, or would go into.
    fn chunk_for(&self, cell: &Value, id: i64) -> usize {
        let chunk = self.chunks.partition_point(|c| {
            let (last, last_id) = c.last();
            last.total_cmp(cell).then(last_id.cmp(&id)).is_lt()
        });
        // Past every entry: the last chunk takes it.
        chunk.min(self.chunks.len().saturating_sub(1))
    }

    /// Every run in `(cell, id)` order: a cell with its ascending ids. A
    /// cell whose entries cross a chunk boundary comes as consecutive runs.
    pub fn runs(&self) -> impl DoubleEndedIterator<Item = (&Value, &[i64])> {
        self.chunks.iter().flat_map(|c| c.runs_from(0))
    }

    /// The runs holding `cell`: one, several when its entries cross chunk
    /// boundaries, none when no row holds it. One seek, then a walk.
    fn runs_of<'a>(&'a self, cell: &'a Value) -> impl Iterator<Item = (&'a Value, &'a [i64])> {
        let below = |c: &Value| c.total_cmp(cell).is_lt();
        let first = self.chunks.partition_point(|c| below(c.last().0));
        let skip = self
            .chunks
            .get(first)
            .map_or(0, |c| c.runs.partition_point(|(c, _)| below(c)));
        self.chunks[first..]
            .iter()
            .enumerate()
            .flat_map(move |(i, c)| c.runs_from(if i == 0 { skip } else { 0 }))
            .take_while(move |(c, _)| *c == cell)
    }

    /// Ids of the rows whose cell equals `cell`, ascending.
    pub fn ids_eq<'a>(&'a self, cell: &'a Value) -> impl Iterator<Item = i64> + 'a {
        self.runs_of(cell).flat_map(|(_, ids)| ids.iter().copied())
    }

    /// How many rows' cell equals `cell`: the lengths of its runs, summed
    /// without reading an id.
    pub fn count_eq(&self, cell: &Value) -> usize {
        self.runs_of(cell).map(|(_, ids)| ids.len()).sum()
    }

    /// Add `(cell, id)`, which must not be present. Returns the entries
    /// materialized: the new one, plus the chunk's if it was shared.
    fn insert(&mut self, cell: &Value, id: i64) -> u64 {
        if self.chunks.is_empty() {
            self.chunks = Index::from_sorted([(cell, id)]).chunks;
            return 1;
        }
        let at = self.chunk_for(cell, id);
        let mut copied = 1;
        let chunk = relink(&mut self.chunks[at], &mut copied);
        chunk.insert(cell, id);
        if chunk.ids.len() > INDEX_CHUNK_CAP {
            let tail = chunk.split_off_half();
            self.chunks.insert(at + 1, Arc::new(tail));
        }
        copied
    }

    /// Remove `(cell, id)` if present. Returns the entries materialized: a
    /// shared chunk's, or none when the chunk's last entry goes with it.
    fn remove(&mut self, cell: &Value, id: i64) -> u64 {
        let at = self.chunk_for(cell, id);
        let Some(found) = self.chunks.get(at).and_then(|c| c.find(cell, id)) else {
            return 0;
        };
        if self.chunks[at].ids.len() == 1 {
            self.chunks.remove(at);
            return 0;
        }
        let mut copied = 0;
        relink(&mut self.chunks[at], &mut copied).remove(found);
        copied
    }
}

/// What a table's mutations materialized since the last
/// [`Table::take_copied`] — the write-amplification numerators. A property
/// of one mutation stream, so a clone (a transaction write-buffer, a
/// published snapshot) starts its own count.
#[derive(Debug, Default)]
pub(crate) struct Copied {
    /// Rows allocated: ≈ rows touched; a return to chunk-granularity
    /// copying shows up as a 256x jump.
    pub rows: u64,
    /// Index entries allocated or re-linked: at most two chunks' worth per
    /// index whose cell changed, zero for a write that changes none.
    pub index_entries: u64,
}

impl Clone for Copied {
    fn clone(&self) -> Self {
        Copied::default()
    }
}

/// A single table: schema, row storage, and indexes.
///
/// A snapshot holds only the schema, the rows and `next_id`; loading one
/// builds the indexes ([`Self::from_ascending`]). Cloning shares all row
/// and index chunks structurally — see the module docs for the
/// copy-on-write granularity.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    pub(crate) rows: Rows,
    pub(crate) next_id: i64,
    /// Aligned with `schema.columns`: the index over each unique, indexed
    /// or foreign-key column, `None` for the rest. Behind an `Arc` so a
    /// write shares the spines of the indexes it leaves alone.
    indexes: Vec<Option<Arc<Index>>>,
    copied: Copied,
}

impl Table {
    pub fn new(schema: TableSchema) -> Result<Self, DbError> {
        schema.validate()?;
        let indexes = schema
            .columns
            .iter()
            .map(|c| c.has_index().then(Arc::default))
            .collect();
        Ok(Table {
            schema,
            rows: Rows::default(),
            next_id: 1,
            indexes,
            copied: Copied::default(),
        })
    }

    /// A table as a snapshot holds it: `rows` decoded, each already through
    /// [`TableSchema::check_cells`], in strictly ascending id order. Every
    /// index is built in one pass over them: each id is appended to its
    /// cell's bucket (kept in [`Value`]'s order), so a bucket is a
    /// `(cell, id)` run and nothing is sorted. A unique column holding a cell twice is a `UniqueViolation`.
    pub(crate) fn from_ascending(
        schema: TableSchema,
        next_id: i64,
        rows: Vec<(i64, Arc<[Value]>)>,
    ) -> Result<Table, DbError> {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        let mut buckets: Vec<Option<BTreeMap<&Value, Vec<i64>>>> = (schema.columns.iter())
            .map(|c| c.has_index().then(BTreeMap::new))
            .collect();
        for (id, row) in &rows {
            for (bucket, cell) in buckets.iter_mut().zip(row.iter()) {
                if let (Some(bucket), false) = (bucket, cell.is_null()) {
                    bucket.entry(cell).or_default().push(*id);
                }
            }
        }
        let indexes = (schema.columns.iter().zip(buckets))
            .map(|(col, bucket)| {
                let Some(bucket) = bucket else {
                    return Ok(None);
                };
                let twice = bucket.iter().find(|(_, ids)| col.unique && ids.len() > 1);
                if let Some((cell, _)) = twice {
                    return Err(DbError::UniqueViolation {
                        table: schema.name.clone(),
                        column: col.name.clone(),
                        value: (*cell).clone(),
                    });
                }
                let entries = bucket
                    .iter()
                    .flat_map(|(cell, ids)| ids.iter().map(|&id| (*cell, id)));
                Ok(Some(Arc::new(Index::from_sorted(entries))))
            })
            .collect::<Result<_, DbError>>()?;
        Ok(Table {
            schema,
            rows: Rows::from_ascending(rows),
            next_id,
            indexes,
            copied: Copied::default(),
        })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The id the next [`Self::insert`] assigns: above every id the table
    /// has ever held, deleted rows' included.
    pub fn next_id(&self) -> i64 {
        self.next_id
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn get(&self, id: i64) -> Option<&[Value]> {
        self.rows.get(id)
    }

    pub fn iter(&self) -> impl Iterator<Item = (i64, &[Value])> {
        self.rows.iter()
    }

    /// [`Self::get`], a missing row being the caller's error.
    pub(crate) fn row(&self, id: i64) -> Result<&[Value], DbError> {
        self.get(id).ok_or_else(|| DbError::NoSuchRow {
            table: self.schema.name.clone(),
            id,
        })
    }

    /// Column `col` may hold `val` beside the other rows: a unique column
    /// holds each non-NULL cell once, in row `own` (`None` for a new row)
    /// or in no row.
    fn check_unique(&self, col: usize, val: &Value, own: Option<i64>) -> Result<(), DbError> {
        let column = &self.schema.columns[col];
        if !column.unique || val.is_null() {
            return Ok(());
        }
        match self.find_unique(col, val) {
            Some(other) if Some(other) != own => Err(DbError::UniqueViolation {
                table: self.schema.name.clone(),
                column: column.name.clone(),
                value: val.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// Insert a row, assigning a fresh primary key. FK existence is checked
    /// by the database layer before calling this.
    pub fn insert(&mut self, row: impl Into<Arc<[Value]>>) -> Result<i64, DbError> {
        let id = self.next_id;
        self.insert_with_id(id, row)?;
        Ok(id)
    }

    /// Insert a row with an explicit id (WAL replay / snapshot restore).
    /// The row is stored as the one allocation `row` converts into: a
    /// slice is copied into it (its text shared), a `Vec` moved.
    pub fn insert_with_id(&mut self, id: i64, row: impl Into<Arc<[Value]>>) -> Result<(), DbError> {
        if self.rows.contains_key(id) {
            return Err(DbError::Schema(format!(
                "table {}: duplicate explicit id {}",
                self.schema.name, id
            )));
        }
        let row = row.into();
        self.schema.check_cells(&row)?;
        for (col, val) in row.iter().enumerate() {
            self.check_unique(col, val, None)?;
        }
        for (slot, val) in self.indexes.iter_mut().zip(row.iter()) {
            if let (Some(index), false) = (slot, val.is_null()) {
                self.copied.index_entries += Arc::make_mut(index).insert(val, id);
            }
        }
        self.rows.insert(id, row);
        self.copied.rows += 1;
        if id >= self.next_id {
            self.next_id = id + 1;
        }
        Ok(())
    }

    /// Set some cells of row `id`: the one update path, for a live write and
    /// a replayed log record alike. Only the named cells are checked — the
    /// column exists, type, NOT NULL, length, and uniqueness against the
    /// other rows — and all of them before anything changes, so a refused
    /// update leaves the table as it was. Only the indexes whose cell
    /// changed are re-linked. The cells are set through `Arc::make_mut`: a
    /// fresh row is made only while a published version still shares the
    /// stored one, and an unshared row (a transaction's second write of it,
    /// recovery's replay) is written in place.
    pub fn update_cells(&mut self, id: i64, cells: &[(usize, Value)]) -> Result<(), DbError> {
        let old = self.row(id)?;
        for (ci, now) in cells {
            let Some(column) = self.schema.columns.get(*ci) else {
                return Err(DbError::Schema(format!("no column {ci}")));
            };
            column.check_value(&self.schema.name, now)?;
        }
        for (ci, now) in cells {
            self.check_unique(*ci, now, Some(id))?;
        }
        if cells.iter().all(|(ci, now)| old[*ci] == *now) {
            return Ok(());
        }
        let stored = self.rows.get_mut(id).expect("the row was just read");
        if Arc::get_mut(stored).is_none() {
            self.copied.rows += 1;
        }
        let row = Arc::make_mut(stored);
        for (ci, now) in cells {
            let was = &mut row[*ci];
            if was == now {
                continue;
            }
            if let Some(index) = &mut self.indexes[*ci] {
                let index = Arc::make_mut(index);
                if !was.is_null() {
                    self.copied.index_entries += index.remove(was, id);
                }
                if !now.is_null() {
                    self.copied.index_entries += index.insert(now, id);
                }
            }
            *was = now.clone();
        }
        Ok(())
    }

    /// Delete a row. FK restrictions are handled by the database layer.
    pub fn delete(&mut self, id: i64) -> Result<(), DbError> {
        let row = self.rows.remove(id).ok_or_else(|| DbError::NoSuchRow {
            table: self.schema.name.clone(),
            id,
        })?;
        for (slot, val) in self.indexes.iter_mut().zip(row.iter()) {
            if let (Some(index), false) = (slot, val.is_null()) {
                self.copied.index_entries += Arc::make_mut(index).remove(val, id);
            }
        }
        Ok(())
    }

    /// Drain the write-amplification counters: what mutations materialized
    /// since the last call. The commit path calls this once per write
    /// transaction and feeds the two `simdb_*_copied_per_write` histograms.
    pub(crate) fn take_copied(&mut self) -> Copied {
        std::mem::take(&mut self.copied)
    }

    /// The index over `col` (unique, indexed, or FK columns have one).
    pub(crate) fn index(&self, col: usize) -> Option<&Index> {
        self.indexes.get(col)?.as_deref()
    }

    /// True if `col` is indexed.
    pub fn has_index(&self, col: usize) -> bool {
        self.index(col).is_some()
    }

    /// The lowest row id whose `col` cell equals `value` — on a unique
    /// column, *the* row. `None` also when `col` has no index.
    pub fn find_unique(&self, col: usize, value: &Value) -> Option<i64> {
        self.index(col)?.ids_eq(value).next()
    }

    /// Ids of the rows whose `col` cell equals `value`, ascending; `None`
    /// means no index on `col`.
    pub fn find_indexed(&self, col: usize, value: &Value) -> Option<Vec<i64>> {
        Some(self.index(col)?.ids_eq(value).collect())
    }

    /// Ids of every row whose `col` cell is not NULL, in the index's
    /// `(cell, id)` order: the whole index. `None` means no index on `col`.
    pub fn indexed_ids(&self, col: usize) -> Option<Vec<i64>> {
        let runs = self.index(col)?.runs();
        Some(runs.flat_map(|(_, ids)| ids.iter().copied()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "u",
            vec![
                Column::new("name", ValueType::Text).not_null().unique(),
                Column::new("age", ValueType::Int).indexed(),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        let b = t.insert(vec!["b".into(), Value::Int(2)]).unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unique_enforced_and_released_on_delete() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Null]).unwrap();
        assert!(matches!(
            t.insert(vec!["a".into(), Value::Null]),
            Err(DbError::UniqueViolation { .. })
        ));
        t.delete(id).unwrap();
        assert!(t.insert(vec!["a".into(), Value::Null]).is_ok());
    }

    #[test]
    fn unique_allows_self_update() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        t.update_cells(id, &[(0, "a".into()), (1, Value::Int(2))])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int(2));
    }

    #[test]
    fn update_reindexes() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        t.update_cells(id, &[(0, "b".into())]).unwrap();
        // old name must be free again
        assert!(t.insert(vec!["a".into(), Value::Int(9)]).is_ok());
        let name_col = 0;
        assert_eq!(t.find_unique(name_col, &"b".into()), Some(id));
        assert_eq!(t.find_unique(name_col, &"zzz".into()), None);
    }

    #[test]
    fn secondary_index_tracks_rows() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(30)]).unwrap();
        let b = t.insert(vec!["b".into(), Value::Int(30)]).unwrap();
        let hits = t.find_indexed(1, &Value::Int(30)).unwrap();
        assert_eq!(hits, [a, b]);
        t.delete(a).unwrap();
        assert_eq!(t.find_indexed(1, &Value::Int(30)).unwrap(), [b]);
        t.update_cells(b, &[(1, Value::Null)]).unwrap();
        assert!(t.find_indexed(1, &Value::Int(30)).unwrap().is_empty());
        assert!(t.find_indexed(1, &Value::Null).unwrap().is_empty());
    }

    /// The one update path copies a row only while a published version
    /// shares it: the first write after a clone makes one fresh row (text
    /// cells shared, not copied) and the clone keeps the old one; a second
    /// write of the now unshared row changes it in place. Every cell is
    /// checked before any is set.
    #[test]
    fn update_cells_copies_a_shared_row_once_and_writes_an_unshared_one_in_place() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        let at = |t: &Table| t.get(id).unwrap().as_ptr();
        let published = t.clone();
        t.take_copied();

        t.update_cells(id, &[(1, Value::Int(2))]).unwrap();
        assert_eq!(t.take_copied().rows, 1);
        assert_ne!(at(&t), at(&published), "a shared row was written in place");
        let (Value::Text(name), Value::Text(was)) =
            (&t.get(id).unwrap()[0], &published.get(id).unwrap()[0])
        else {
            panic!("text cells")
        };
        assert!(Arc::ptr_eq(name, was), "the copy copied the text");
        assert_eq!(published.get(id).unwrap()[1], Value::Int(1));

        let before = at(&t);
        t.update_cells(id, &[(1, Value::Int(3))]).unwrap();
        assert_eq!((t.take_copied().rows, at(&t)), (0, before));
        assert_eq!(t.find_indexed(1, &Value::Int(3)).unwrap(), [id]);
        assert!(t.find_indexed(1, &Value::Int(2)).unwrap().is_empty());

        // A refused update, its second cell bad, sets neither cell.
        let other = t.insert(vec!["b".into(), Value::Null]).unwrap();
        for bad in [
            (0, "b".into()),
            (1, "x".into()),
            (0, Value::Null),
            (9, Value::Int(0)),
        ] {
            assert!(t.update_cells(id, &[(1, Value::Int(4)), bad]).is_err());
            assert_eq!(t.get(id).unwrap(), &["a".into(), Value::Int(3)][..]);
            assert_eq!(t.find_unique(0, &"b".into()), Some(other));
        }
        assert!(t.update_cells(99, &[]).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        assert!(matches!(
            t.insert(vec!["a".into()]),
            Err(DbError::Schema(_))
        ));
    }

    #[test]
    fn ordered_index_lists_ids_by_cell_then_id() {
        let mut t = table();
        let mut ids = Vec::new();
        for age in [30, 10, 20, 30, 40] {
            ids.push(
                t.insert(vec![format!("u{}", ids.len()).into(), Value::Int(age)])
                    .unwrap(),
            );
        }
        // (value, id) order; a duplicate key lists ascending ids
        assert_eq!(
            t.indexed_ids(1).unwrap(),
            vec![ids[1], ids[2], ids[0], ids[3], ids[4]]
        );
        assert_eq!(
            t.find_indexed(1, &Value::Int(30)).unwrap(),
            vec![ids[0], ids[3]]
        );
        t.delete(ids[0]).unwrap();
        assert_eq!(
            t.indexed_ids(1).unwrap(),
            vec![ids[1], ids[2], ids[3], ids[4]]
        );
        // no ordered index on a plain column
        let plain = Table::new(TableSchema::new(
            "p",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
        assert!(plain.indexed_ids(0).is_none());
        assert!(!plain.has_index(0));
        assert!(t.has_index(1));
    }

    #[test]
    fn insert_with_id_advances_counter() {
        let mut t = table();
        t.insert_with_id(10, vec!["a".into(), Value::Null]).unwrap();
        let next = t.insert(vec!["b".into(), Value::Null]).unwrap();
        assert_eq!(next, 11);
        assert!(t.insert_with_id(10, vec!["c".into(), Value::Null]).is_err());
    }

    type Entries = Vec<(Value, i64)>;

    /// Every entry of the index over `col`, in index order.
    fn entries(t: &Table, col: usize) -> Entries {
        let index = t.index(col).expect("indexed column");
        index
            .runs()
            .flat_map(|(cell, ids)| ids.iter().map(move |&id| (cell.clone(), id)))
            .collect()
    }

    /// Ids of the rows whose `col` cell satisfies `keep`, in `(cell, id)`
    /// order, from a full scan.
    fn scan(t: &Table, col: usize, keep: impl Fn(&Value) -> bool) -> Vec<i64> {
        let mut hits: Vec<(&Value, i64)> = t
            .iter()
            .filter(|(_, r)| !r[col].is_null() && keep(&r[col]))
            .map(|(id, r)| (&r[col], id))
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(b.0).then(a.1.cmp(&b.1)));
        hits.into_iter().map(|(_, id)| id).collect()
    }

    /// Everything an index answers, held against a full scan of the same
    /// table: structure, the whole index, probes and counts, and the
    /// planner's `In` and index-ordered paths.
    fn assert_indexes_match_scan(t: &Table) {
        use crate::query::{Op, Plan, Query};
        for (col, column) in t.schema.columns.iter().enumerate() {
            let Some(index) = t.index(col) else { continue };
            for chunk in &index.chunks {
                assert!((1..=INDEX_CHUNK_CAP).contains(&chunk.ids.len()));
                assert_eq!(chunk.runs.last().unwrap().1, chunk.ids.len());
                assert!(chunk.runs.iter().all(|(_, end)| *end > 0));
                assert!(chunk
                    .runs
                    .windows(2)
                    .all(|w| w[0].0 != w[1].0 && w[0].1 < w[1].1));
            }
            // NULL cells stay unindexed; everything else is there, sorted.
            let all = scan(t, col, |_| true);
            assert_eq!(
                entries(t, col).iter().map(|e| e.1).collect::<Vec<_>>(),
                all,
                "{}",
                column.name
            );
            assert_eq!(t.indexed_ids(col).unwrap(), all, "{}", column.name);
            assert!(t.find_indexed(col, &Value::Null).unwrap().is_empty());

            // A dozen of the distinct cells, evenly spread, and a miss.
            let mut cells: Vec<Value> = entries(t, col).into_iter().map(|e| e.0).collect();
            cells.dedup();
            let mut cells: Vec<Value> = cells
                .iter()
                .step_by(cells.len() / 12 + 1)
                .cloned()
                .collect();
            cells.push(Value::Int(i64::MAX)); // above or below every cell
            for cell in &cells {
                let eq = scan(t, col, |c| c == cell);
                assert_eq!(t.find_indexed(col, cell).unwrap(), eq);
                assert_eq!(t.find_unique(col, cell), eq.first().copied());
                assert_eq!(index.count_eq(cell), eq.len());
            }

            let some: Vec<Value> = cells.iter().step_by(2).cloned().collect();
            let mut expected = scan(t, col, |c| some.contains(c));
            expected.sort_unstable();
            let q = Query::new().filter(&column.name, Op::In(some), Value::Null);
            let got: Vec<i64> = q.execute(t).unwrap().into_iter().map(|r| r.0).collect();
            assert_eq!(got, expected);

            if column.not_null {
                for descending in [false, true] {
                    let q = if descending {
                        Query::new().order_by_desc(&column.name)
                    } else {
                        Query::new().order_by(&column.name)
                    };
                    let q = q.offset(3).limit(all.len() / 2 + 1);
                    let name = column.name.clone();
                    assert_eq!(
                        q.explain(t).unwrap(),
                        Plan::IndexOrderedScan { column: name }
                    );
                    let mut rows: Vec<(&Value, i64)> =
                        t.iter().map(|(id, r)| (&r[col], id)).collect();
                    rows.sort_by(|a, b| {
                        let by_cell = a.0.total_cmp(b.0);
                        (if descending {
                            by_cell.reverse()
                        } else {
                            by_cell
                        })
                        .then(a.1.cmp(&b.1))
                    });
                    let expected: Vec<i64> = rows
                        .iter()
                        .map(|r| r.1)
                        .skip(3)
                        .take(all.len() / 2 + 1)
                        .collect();
                    let got: Vec<i64> = q.execute(t).unwrap().into_iter().map(|r| r.0).collect();
                    assert_eq!(got, expected, "{} descending={descending}", column.name);
                }
            }
        }
    }

    #[test]
    fn index_chunks_split_past_the_cap_and_vanish_when_emptied() {
        let mut t = table();
        let chunks = |t: &Table| t.index(1).unwrap().chunks.len();
        let ids: Vec<i64> = (0..INDEX_CHUNK_CAP)
            .map(|i| {
                t.insert(vec![format!("n{i}").into(), Value::Int(7)])
                    .unwrap()
            })
            .collect();
        assert_eq!(chunks(&t), 1, "exactly the cap fits one chunk");
        let extra = t.insert(vec!["extra".into(), Value::Int(7)]).unwrap();
        assert_eq!(chunks(&t), 2, "cap + 1 splits");
        // One cell's entries now span both chunks.
        let index = t.index(1).unwrap();
        assert_eq!(index.chunks[0].last().0, &index.chunks[1].runs[0].0);
        assert_eq!(
            t.find_indexed(1, &Value::Int(7)).unwrap().len(),
            INDEX_CHUNK_CAP + 1
        );
        assert_indexes_match_scan(&t);

        // Emptying the first chunk drops it from the spine; a published
        // clone keeps its own.
        let published = t.clone();
        let first_chunk = t.index(1).unwrap().chunks[0].ids.clone();
        for id in &first_chunk {
            t.delete(*id).unwrap();
        }
        assert_eq!(chunks(&t), 1);
        assert_eq!(chunks(&published), 2);
        assert_indexes_match_scan(&t);
        assert_indexes_match_scan(&published);
        for id in ids.into_iter().chain([extra]) {
            if !first_chunk.contains(&id) {
                t.delete(id).unwrap();
            }
        }
        assert_eq!(chunks(&t), 0);
        assert!(t.find_indexed(1, &Value::Int(7)).unwrap().is_empty());
        assert_eq!(published.len(), INDEX_CHUNK_CAP + 1);
        assert_indexes_match_scan(&published);
    }

    /// The write-cost invariant, on counts: with a published version
    /// outstanding, a one-row write materializes at most two chunks' worth
    /// of entries per index whose cell changed — the chunk it leaves and
    /// the chunk it enters — whatever the table's size, and none when no
    /// indexed cell changed.
    #[test]
    fn index_entries_copied_per_write_do_not_grow_with_the_table() {
        for rows in [1_000, 30_000] {
            let mut t = Table::new(TableSchema::new(
                "job",
                vec![
                    Column::new("simulation_id", ValueType::Int)
                        .not_null()
                        .indexed(),
                    Column::new("status", ValueType::Text).not_null().indexed(),
                    Column::new("detail", ValueType::Text),
                ],
            ))
            .unwrap();
            for i in 0..rows {
                let status = if i % 10 == 0 { "ACTIVE" } else { "DONE" };
                t.insert(vec![Value::Int(i / 100), status.into(), Value::Null])
                    .unwrap();
            }
            let id = rows / 2 + 2; // a DONE row in the middle of the table
            let row = |status: &str, detail: &str| -> Row {
                vec![Value::Int((id - 1) / 100), status.into(), detail.into()]
            };
            let set = |status: &str, detail: &str| [(1, status.into()), (2, detail.into())];
            let per_index = 2 * INDEX_CHUNK_CAP as u64 + 1;

            let published = t.clone();
            t.take_copied();
            t.update_cells(id, &set("ACTIVE", "")).unwrap();
            let copied = t.take_copied();
            assert_eq!(copied.rows, 1);
            assert!(
                (1..=per_index).contains(&copied.index_entries),
                "{rows} rows: status update copied {} index entries",
                copied.index_entries
            );

            // The same write again, now that its chunks are private: only
            // the entry itself.
            t.update_cells(id, &set("DONE", "")).unwrap();
            assert_eq!(t.take_copied().index_entries, 1);

            let published_again = t.clone();
            t.update_cells(id, &set("DONE", "polled")).unwrap();
            let copied = t.take_copied();
            assert_eq!((copied.rows, copied.index_entries), (1, 0));

            let republished = t.clone();
            t.delete(id).unwrap();
            assert!(t.take_copied().index_entries <= 2 * INDEX_CHUNK_CAP as u64);
            t.insert(row("DONE", "")).unwrap();
            assert!(t.take_copied().index_entries <= 2 * (INDEX_CHUNK_CAP as u64 + 1));

            // The published versions never saw any of it.
            let done = |t: &Table| t.find_indexed(1, &"DONE".into()).unwrap();
            assert!(done(&published).contains(&id));
            assert!(done(&published_again).contains(&id) && done(&republished).contains(&id));
            assert!(!done(&t).contains(&id));
        }
    }

    /// xorshift64: a seeded stream for the property test below.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Index snapshot isolation: random insert / update / delete /
    /// cascade-delete streams through the engine, with the published
    /// version pinned every few hundred operations. Each pin must answer
    /// as a full scan of *itself* does, when taken, a few hundred writes
    /// later and at the end; unique violations must be reported exactly
    /// when a scan predicts one; and the stream must have split chunks,
    /// spread one cell over two, and emptied some.
    #[test]
    fn index_snapshots_stay_isolated_under_random_writes() {
        use crate::schema::OnDelete;
        use crate::version::TableVersion;
        const CLONE_EVERY: usize = 400;

        for seed in [1u64, 7919] {
            let mut rng = Stream(seed);
            let engine = crate::Db::in_memory();
            engine.define_role(crate::Role::superuser("admin"));
            let db = engine.connect("admin").unwrap();
            let pin = |table: &str| Arc::clone(engine.shared.slot.pin().get(table).unwrap());
            db.create_table(TableSchema::new(
                "parent",
                vec![Column::new("name", ValueType::Text).not_null().unique()],
            ))
            .unwrap();
            db.create_table(TableSchema::new(
                "child",
                vec![
                    Column::new("parent_id", ValueType::Int)
                        .not_null()
                        .references("parent", OnDelete::Cascade),
                    Column::new("tag", ValueType::Text).indexed(),
                    Column::new("serial", ValueType::Int).unique(),
                ],
            ))
            .unwrap();
            let ids =
                |table: &str| -> Vec<i64> { pin(table).table.iter().map(|(id, _)| id).collect() };
            let child = |rng: &mut Stream, parents: &[i64]| -> Row {
                let tag = match rng.below(5) {
                    0 => Value::Null,
                    n => format!("t{n}").into(),
                };
                let serial = match rng.below(4) {
                    0 => Value::Null,
                    _ => Value::Int(rng.below(4_000) as i64),
                };
                vec![Value::Int(parents[rng.below(parents.len())]), tag, serial]
            };
            // What a scan says about a candidate row's uniqueness.
            let collides = |row: &Row, own: Option<i64>| {
                let children = pin("child");
                let mut rows = children.table.iter();
                !row[2].is_null() && rows.any(|(id, r)| r[2] == row[2] && Some(id) != own)
            };

            let mut clones: Vec<(Arc<TableVersion>, Vec<Entries>)> = Vec::new();
            let (mut most_chunks, mut violations, mut straddles) = (0, 0, false);
            for op in 0..6_000 {
                let parents = ids("parent");
                let children = ids("child");
                match rng.below(200) {
                    _ if parents.is_empty() => {
                        db.insert("parent", &[("name", format!("p{op}").into())])
                            .unwrap();
                    }
                    0..=5 => {
                        db.insert("parent", &[("name", format!("p{op}").into())])
                            .unwrap();
                    }
                    // Cascade: takes the parent's children with it.
                    6 => {
                        db.delete("parent", parents[rng.below(parents.len())])
                            .unwrap();
                    }
                    7..=129 => {
                        let row = child(&mut rng, &parents);
                        let predicted = collides(&row, None);
                        let result = db.insert_row("child", row);
                        assert_eq!(
                            matches!(result, Err(DbError::UniqueViolation { .. })),
                            predicted,
                            "{result:?}"
                        );
                        violations += predicted as usize;
                    }
                    130..=169 if !children.is_empty() => {
                        let id = children[rng.below(children.len())];
                        let row = child(&mut rng, &parents);
                        let predicted = collides(&row, Some(id));
                        let result = db.update_row("child", id, row);
                        assert_eq!(
                            matches!(result, Err(DbError::UniqueViolation { .. })),
                            predicted,
                            "{result:?}"
                        );
                        violations += predicted as usize;
                    }
                    _ if !children.is_empty() => {
                        db.delete("child", children[rng.below(children.len())])
                            .unwrap();
                    }
                    _ => {}
                }

                let tip = pin("child");
                let table = &tip.table;
                let tags = &table.index(1).unwrap().chunks;
                most_chunks = most_chunks.max(tags.len());
                straddles |= tags.windows(2).any(|w| w[0].last().0 == &w[1].runs[0].0);
                if op % CLONE_EVERY == CLONE_EVERY - 1 {
                    assert_indexes_match_scan(table);
                    let frozen = (0..3).map(|col| entries(table, col)).collect();
                    // The clone before this one, after the writes since.
                    if let Some((clone, frozen)) = clones.last() {
                        assert_indexes_match_scan(&clone.table);
                        for (col, was) in frozen.iter().enumerate() {
                            assert_eq!(&entries(&clone.table, col), was);
                        }
                    }
                    clones.push((tip, frozen));
                }
            }
            assert!(most_chunks >= 3, "seed {seed}: no chunk ever split");
            assert!(straddles, "seed {seed}: no cell ever spanned two chunks");
            assert!(violations > 0, "seed {seed}: no unique violation met");

            // Emptying the table empties every index, chunk by chunk, and
            // leaves the clones whole.
            for id in ids("parent") {
                db.delete("parent", id).unwrap();
            }
            let tip = pin("child");
            let table = &tip.table;
            assert!(table.is_empty());
            assert!((0..3).all(|col| table.index(col).unwrap().chunks.is_empty()));
            for (clone, frozen) in &clones {
                assert_indexes_match_scan(&clone.table);
                assert_eq!(&entries(&clone.table, 0), &frozen[0]);
            }
        }
    }
}
