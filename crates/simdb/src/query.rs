//! Query descriptions: filters, ordering, pagination.
//!
//! The equivalent of Django's queryset surface that AMP's views and the
//! GridAMP daemon used (`filter`, `exclude`-style negation via `Ne`,
//! `order_by`, slicing).

use crate::error::DbError;
use crate::schema::TableSchema;
use crate::table::{Row, Table};
use crate::value::Value;
use std::cmp::Ordering;

/// Comparison operators available in filters.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Case-sensitive substring match (Text columns).
    Contains,
    /// Case-insensitive substring match. ASCII cell and needle compare in
    /// place, nothing allocated per row; a non-ASCII byte on either side
    /// lowercases both into fresh `String`s (Unicode case mapping).
    IContains,
    /// Prefix match (Text columns).
    StartsWith,
    /// Membership in a value list.
    In(Vec<Value>),
    IsNull,
    NotNull,
}

/// A single column predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    pub column: String,
    pub op: Op,
    pub value: Value,
}

impl Filter {
    pub fn new(column: &str, op: Op, value: impl Into<Value>) -> Self {
        Filter {
            column: column.to_string(),
            op,
            value: value.into(),
        }
    }

    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Self::new(column, Op::Eq, value)
    }

    /// Whether row `id`, whose cells are `row`, passes the filter, its
    /// column resolved to `ci` (`None`: the primary key, tested against
    /// the row id itself).
    fn passes(&self, ci: Option<usize>, id: i64, row: &[Value]) -> bool {
        match ci {
            Some(ci) => self.matches(&row[ci]),
            None => self.matches(&Value::Int(id)),
        }
    }

    fn matches(&self, cell: &Value) -> bool {
        match &self.op {
            Op::IsNull => cell.is_null(),
            Op::NotNull => !cell.is_null(),
            Op::In(vals) => vals.iter().any(|v| v.key_eq(cell)),
            op => {
                if cell.is_null() {
                    // SQL semantics: NULL matches no ordinary comparison.
                    return false;
                }
                match op {
                    Op::Eq => cell.key_eq(&self.value),
                    Op::Ne => !cell.key_eq(&self.value),
                    Op::Lt => cell.total_cmp(&self.value).is_lt(),
                    Op::Le => cell.total_cmp(&self.value).is_le(),
                    Op::Gt => cell.total_cmp(&self.value).is_gt(),
                    Op::Ge => cell.total_cmp(&self.value).is_ge(),
                    Op::Contains => match (cell, &self.value) {
                        (Value::Text(c), Value::Text(n)) => c.contains(&**n),
                        _ => false,
                    },
                    Op::IContains => match (cell, &self.value) {
                        (Value::Text(c), Value::Text(n)) => icontains(c, n),
                        _ => false,
                    },
                    Op::StartsWith => match (cell, &self.value) {
                        (Value::Text(c), Value::Text(n)) => c.starts_with(&**n),
                        _ => false,
                    },
                    Op::In(_) | Op::IsNull | Op::NotNull => unreachable!(),
                }
            }
        }
    }
}

/// `Op::IContains`. Out of line: `Filter::matches` is also the loop the
/// daemon's `Eq` / `In` worklists run through.
#[inline(never)]
fn icontains(cell: &str, needle: &str) -> bool {
    if !(cell.is_ascii() && needle.is_ascii()) {
        // `K` U+212A lowercases to ASCII `k`, `İ` to two chars: only
        // the full mapping gives those their answers.
        return cell.to_lowercase().contains(&needle.to_lowercase());
    }
    let (cell, needle) = (cell.as_bytes(), needle.as_bytes());
    needle.is_empty()
        || cell
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle))
}

/// Sort key: column name + direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub column: String,
    pub descending: bool,
}

/// A complete query over one table. Filters are conjunctive (AND).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    pub filters: Vec<Filter>,
    pub order_by: Vec<OrderBy>,
    pub limit: Option<usize>,
    pub offset: usize,
}

impl Query {
    pub fn new() -> Self {
        Query::default()
    }

    pub fn filter(mut self, column: &str, op: Op, value: impl Into<Value>) -> Self {
        self.filters.push(Filter::new(column, op, value));
        self
    }

    pub fn eq(self, column: &str, value: impl Into<Value>) -> Self {
        self.filter(column, Op::Eq, value)
    }

    pub fn order_by(mut self, column: &str) -> Self {
        self.order_by.push(OrderBy {
            column: column.to_string(),
            descending: false,
        });
        self
    }

    pub fn order_by_desc(mut self, column: &str) -> Self {
        self.order_by.push(OrderBy {
            column: column.to_string(),
            descending: true,
        });
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    pub fn offset(mut self, n: usize) -> Self {
        self.offset = n;
        self
    }

    /// Check every referenced column exists; returns resolved column indexes
    /// for filters (parallel to `self.filters`; `None` is the primary key,
    /// `"id"`, as in [`Self::order_keys`]).
    fn resolve(&self, schema: &TableSchema) -> Result<Vec<Option<usize>>, DbError> {
        let column = |name: &str| match schema.column_index(name) {
            None if name != "id" => Err(DbError::NoSuchColumn {
                table: schema.name.clone(),
                column: name.to_string(),
            }),
            ci => Ok(ci),
        };
        for o in &self.order_by {
            column(&o.column)?;
        }
        self.filters.iter().map(|f| column(&f.column)).collect()
    }

    /// Execute against a table, returning (id, row) pairs.
    ///
    /// Access path selection is cost-based (see [`Self::explain`]): unique
    /// probes beat secondary probes beat full scans, and every
    /// index-drivable filter's candidate set is intersected before any row
    /// is touched; every other filter is tested on the rows. Rows are
    /// filtered *borrowed*; only the final page is cloned. Results without
    /// `order_by` come back in primary-key order.
    pub fn execute(&self, table: &Table) -> Result<Vec<(i64, Row)>, DbError> {
        Ok(self
            .run(table)?
            .into_iter()
            .map(|(id, row)| (id, row.to_vec()))
            .collect())
    }

    /// Execute against a table, returning only `(id, <column cell>)` pairs
    /// (`"id"` projects the primary key itself). Planning, filter, ordering
    /// and pagination semantics are identical to [`Self::execute`], but no
    /// row is cloned — only the single projected cell — so hot worklist
    /// queries (e.g. the GridAMP daemon's per-tick scans) skip the full
    /// fetch/decode for rows whose bodies they don't need yet.
    pub fn project(&self, table: &Table, column: &str) -> Result<Vec<(i64, Value)>, DbError> {
        let pci = if column == "id" {
            None
        } else {
            Some(
                table
                    .schema
                    .column_index(column)
                    .ok_or_else(|| DbError::NoSuchColumn {
                        table: table.schema.name.clone(),
                        column: column.to_string(),
                    })?,
            )
        };
        Ok(self
            .run(table)?
            .into_iter()
            .map(|(id, row)| {
                (
                    id,
                    match pci {
                        Some(ci) => row[ci].clone(),
                        None => Value::Int(id),
                    },
                )
            })
            .collect())
    }

    /// Number of rows the query matches (honouring `offset`/`limit`
    /// arithmetic) without materializing, ordering, or cloning anything.
    ///
    /// A lone `Eq`/`In` filter over an index is counted off the index's
    /// runs. Otherwise a row is fetched only to test the filters the plan's
    /// index sets did not answer: when they answered every filter the count
    /// is the candidate set's length (the table's, with no filter at all),
    /// and a walk stops at `offset + limit` matches.
    pub fn count(&self, table: &Table) -> Result<usize, DbError> {
        let idx = self.resolve(&table.schema)?;
        let wanted = self
            .limit
            .map_or(usize::MAX, |l| self.offset.saturating_add(l));
        let matched = match self.lone_probe(table, &idx) {
            Some((plan, matched)) => {
                record_plan(&plan);
                matched
            }
            None => {
                let planned = self.plan_access(table, &idx);
                record_plan(&planned.plan);
                let rest: Vec<(&Filter, Option<usize>)> = self
                    .filters
                    .iter()
                    .zip(idx.iter().copied())
                    .enumerate()
                    .filter(|(i, _)| planned.answered & filter_bit(*i) == 0)
                    .map(|(_, pair)| pair)
                    .collect();
                let matches =
                    |id: i64, row: &[Value]| rest.iter().all(|(f, ci)| f.passes(*ci, id, row));
                match &planned.candidates {
                    Some(ids) if rest.is_empty() => ids.len(),
                    None if rest.is_empty() => table.len(),
                    Some(ids) => ids
                        .iter()
                        .filter(|&&id| table.get(id).is_some_and(|r| matches(id, r)))
                        .take(wanted)
                        .count(),
                    None => table
                        .iter()
                        .filter(|(id, r)| matches(*id, r))
                        .take(wanted)
                        .count(),
                }
            }
        };
        let after_offset = matched.saturating_sub(self.offset);
        Ok(match self.limit {
            Some(l) => after_offset.min(l),
            None => after_offset,
        })
    }

    /// The count of a query whose one filter is an `Eq` or an `In` over an
    /// indexed column, summed from the index's runs (each distinct `In`
    /// member once) without building the id list, and the plan
    /// [`Self::plan_access`] would have named for it. `None` for any other
    /// query (one on the primary key included: its id set is the count).
    fn lone_probe(&self, table: &Table, idx: &[Option<usize>]) -> Option<(Plan, usize)> {
        let ([f], &[Some(ci)]) = (self.filters.as_slice(), idx) else {
            return None;
        };
        let index = table.index(ci)?;
        let matched = match &f.op {
            Op::Eq => index.count_eq(&f.value),
            Op::In(vals) if !vals.iter().any(Value::is_null) => {
                let mut members: Vec<&Value> = vals.iter().collect();
                members.sort_by(|a, b| a.total_cmp(b));
                members.dedup();
                members.into_iter().map(|v| index.count_eq(v)).sum()
            }
            _ => return None,
        };
        let column = f.column.clone();
        let plan = if matched == 0 {
            Plan::Empty
        } else if f.op == Op::Eq && table.schema.columns[ci].unique {
            Plan::UniqueProbe { column }
        } else {
            Plan::IndexProbe {
                columns: vec![column],
            }
        };
        Some((plan, matched))
    }

    /// The access path the planner would choose for this query — an
    /// `EXPLAIN`. Consults the table's live index cardinalities, so the
    /// answer can change as data changes.
    pub fn explain(&self, table: &Table) -> Result<Plan, DbError> {
        let idx = self.resolve(&table.schema)?;
        Ok(self.plan_access(table, &idx).plan)
    }

    /// Sort keys resolved against a schema; `None` column index = primary key.
    fn order_keys(&self, schema: &TableSchema) -> Vec<(Option<usize>, bool)> {
        self.order_by
            .iter()
            .map(|o| (schema.column_index(&o.column), o.descending))
            .collect()
    }

    /// Plan + filter + order + paginate, returning borrowed rows.
    fn run<'t>(&self, table: &'t Table) -> Result<Vec<(i64, &'t [Value])>, DbError> {
        let idx = self.resolve(&table.schema)?;
        let planned = self.plan_access(table, &idx);
        record_plan(&planned.plan);
        let matches = |id: i64, row: &[Value]| {
            self.filters
                .iter()
                .zip(idx.iter())
                .all(|(f, &ci)| f.passes(ci, id, row))
        };

        // Rows the caller can actually receive; `Some(0)` short-circuits.
        let wanted = self.limit.map(|l| self.offset.saturating_add(l));
        if wanted == Some(0) {
            return Ok(Vec::new());
        }

        if !self.order_by.is_empty() {
            // Index-ordered scan: stream groups in key order, stopping as
            // soon as the page is full instead of sorting the world.
            if let (None, Some(ci)) = (&planned.candidates, planned.index_order) {
                return Ok(self.index_ordered_scan(table, ci, wanted, &matches));
            }

            let keys = self.order_keys(&table.schema);
            let cmp = |a: &(i64, &[Value]), b: &(i64, &[Value])| cmp_rows(&keys, a, b);
            let mut out = match &planned.candidates {
                Some(ids) => collect_filtered(
                    ids.iter().filter_map(|&id| table.get(id).map(|r| (id, r))),
                    &matches,
                ),
                None => collect_filtered(table.iter(), &matches),
            };
            if let Some(k) = wanted {
                top_k(&mut out, k, cmp);
            } else {
                out.sort_by(cmp);
            }
            return Ok(paginate(out, self.offset, self.limit));
        }

        // No ordering requested: candidates are sorted ascending and table
        // iteration is pk-ordered, so output is deterministically pk-ordered
        // and collection can stop at offset+limit rows.
        let mut out = Vec::new();
        match &planned.candidates {
            Some(ids) => {
                for &id in ids {
                    if let Some(r) = table.get(id) {
                        if matches(id, r) {
                            out.push((id, r));
                            if Some(out.len()) == wanted {
                                break;
                            }
                        }
                    }
                }
            }
            None => {
                for (id, r) in table.iter() {
                    if matches(id, r) {
                        out.push((id, r));
                        if Some(out.len()) == wanted {
                            break;
                        }
                    }
                }
            }
        }
        Ok(paginate(out, self.offset, self.limit))
    }

    /// Walk the index over `ci` group by group (backwards for descending),
    /// filtering each group and breaking ties with the remaining sort
    /// keys. Only legal when `ci` is `NOT NULL` (null cells
    /// are unindexed) — the planner enforces that.
    fn index_ordered_scan<'t>(
        &self,
        table: &'t Table,
        ci: usize,
        wanted: Option<usize>,
        matches: &dyn Fn(i64, &[Value]) -> bool,
    ) -> Vec<(i64, &'t [Value])> {
        let runs = table.index(ci).expect("planner checked index").runs();
        let out = if self.order_by[0].descending {
            self.collect_groups(runs.rev(), table, wanted, matches)
        } else {
            self.collect_groups(runs, table, wanted, matches)
        };
        paginate(out, self.offset, self.limit)
    }

    /// The matching rows of `runs` — an index's runs, in the order of the
    /// leading sort key — in full sort order, up to `wanted` of them.
    fn collect_groups<'t, 'i>(
        &self,
        runs: impl Iterator<Item = (&'i Value, &'i [i64])>,
        table: &'t Table,
        wanted: Option<usize>,
        matches: &dyn Fn(i64, &[Value]) -> bool,
    ) -> Vec<(i64, &'t [Value])> {
        let keys = self.order_keys(&table.schema);
        let mut out: Vec<(i64, &[Value])> = Vec::new();
        let mut runs = runs.peekable();
        while let Some((key, mut ids)) = runs.next() {
            // One group: every run sharing `key` (a key's entries may cross
            // an index chunk boundary and arrive as consecutive runs).
            let start = out.len();
            let mut pieces = 0;
            loop {
                out.extend(
                    ids.iter()
                        .filter_map(|&id| Some((id, table.get(id).filter(|r| matches(id, r))?))),
                );
                pieces += 1;
                match runs.next_if(|(k, _)| *k == key) {
                    Some((_, more)) => ids = more,
                    None => break,
                }
            }
            // Within a group the leading key ties, so the full comparator
            // reduces to the remaining keys + id. One run is already in
            // ascending-id order, the single-key tie-break; several may
            // have arrived last piece first.
            if self.order_by.len() > 1 || pieces > 1 {
                out[start..].sort_by(|a, b| cmp_rows(&keys, a, b));
            }
            if wanted.is_some_and(|k| out.len() >= k) {
                break;
            }
        }
        out
    }

    /// The cost-based access-path planner.
    ///
    /// Cost lattice (cheapest first): a unique `Eq` probe is one index
    /// seek and yields ≤ 1 row, so it always wins. Otherwise every
    /// probe-drivable filter (`Eq`/`In` over an indexed column, cost =
    /// posting size) contributes a sorted candidate set, and the sets are
    /// intersected, so each extra indexed filter only shrinks the rows
    /// that get touched. A filter proven empty at the index (unique miss,
    /// all-`In`-probes miss) short-circuits to [`Plan::Empty`] without
    /// touching a row. Every other filter (`Lt`/`Le`/`Gt`/`Ge` and the
    /// text operators included) is tested on the rows.
    ///
    /// Every set used answers its filters exactly (the index compares cells
    /// as `Filter::matches` does and holds every non-NULL one), so
    /// [`Planned::answered`] marks them. A filter on the primary key is
    /// answered by the ids themselves: `Eq` is a unique probe, `In` an id
    /// set, each id kept if the table holds its row.
    fn plan_access(&self, table: &Table, idx: &[Option<usize>]) -> Planned {
        // 1. Unique Eq probe: unbeatable when available.
        for (i, (f, &ci)) in self.filters.iter().zip(idx.iter()).enumerate() {
            let found = match ci {
                _ if f.op != Op::Eq => continue,
                None => held_id(table, &f.value),
                Some(ci) if table.schema.columns[ci].unique => table.find_unique(ci, &f.value),
                Some(_) => continue,
            };
            return match found {
                Some(id) => Planned {
                    plan: Plan::UniqueProbe {
                        column: f.column.clone(),
                    },
                    candidates: Some(vec![id]),
                    answered: filter_bit(i),
                    index_order: None,
                },
                None => Planned::empty(),
            };
        }

        // 2. Probe sets: Eq / In over indexed columns, In over the ids.
        let mut sets: Vec<(String, Vec<i64>)> = Vec::new();
        let mut answered = 0;
        for (i, (f, &ci)) in self.filters.iter().zip(idx.iter()).enumerate() {
            let ids = match (&f.op, ci) {
                // A posting list comes back ascending by id.
                (Op::Eq, Some(ci)) => table.find_indexed(ci, &f.value),
                // The primary key is never NULL, so a NULL member matches
                // no row and the id set answers the whole list.
                (Op::In(vals), None) => {
                    Some(vals.iter().filter_map(|v| held_id(table, v)).collect())
                }
                // An `In` list containing NULL matches null cells, which no
                // index covers — such filters are not index-drivable. Every
                // member missing the index ⇒ provably empty.
                (Op::In(vals), Some(ci)) if !vals.iter().any(|v| v.is_null()) => table
                    .index(ci)
                    .map(|index| vals.iter().flat_map(|v| index.ids_eq(v)).collect()),
                _ => None,
            };
            if let Some(mut ids) = ids {
                if matches!(f.op, Op::In(_)) {
                    ids.sort_unstable();
                    ids.dedup();
                }
                sets.push((f.column.clone(), ids));
                answered |= filter_bit(i);
            }
        }
        if sets.iter().any(|(_, s)| s.is_empty()) {
            return Planned::empty();
        }

        if !sets.is_empty() {
            // Intersect smallest-first so the working set only shrinks.
            sets.sort_by_key(|(_, s)| s.len());
            let columns: Vec<String> = sets.iter().map(|(c, _)| c.clone()).collect();
            let mut iter = sets.into_iter();
            let mut acc = iter.next().expect("nonempty").1;
            for (_, s) in iter {
                acc = intersect_sorted(&acc, &s);
                if acc.is_empty() {
                    break;
                }
            }
            return Planned {
                plan: Plan::IndexProbe { columns },
                candidates: Some(acc),
                answered,
                index_order: None,
            };
        }

        // 3. Full scan; in index order if that serves the leading sort key.
        let index_order = self.order_by.first().and_then(|o| {
            let ci = table.schema.column_index(&o.column)?;
            (table.has_index(ci) && table.schema.columns[ci].not_null).then_some(ci)
        });
        Planned {
            plan: match index_order {
                Some(_) => Plan::IndexOrderedScan {
                    column: self.order_by[0].column.clone(),
                },
                None => Plan::FullScan,
            },
            candidates: None,
            answered: 0,
            index_order,
        }
    }
}

/// A planner decision: the human-readable plan plus the machinery to run it.
struct Planned {
    plan: Plan,
    /// Sorted ascending candidate ids; `None` = scan every row.
    candidates: Option<Vec<i64>>,
    /// The filters every candidate is known to pass, as
    /// [`filter_bit`]s of their positions in `Query::filters`: a count
    /// need not test them again.
    answered: u64,
    /// Drive a full scan through this column's index.
    index_order: Option<usize>,
}

impl Planned {
    fn empty() -> Self {
        Planned {
            plan: Plan::Empty,
            candidates: Some(Vec::new()),
            answered: 0,
            index_order: None,
        }
    }
}

/// The row id `value` names, if it is an `Int` and the table holds that
/// row: what an `Eq` on the primary key matches.
fn held_id(table: &Table, value: &Value) -> Option<i64> {
    match *value {
        Value::Int(id) => table.get(id).is_some().then_some(id),
        _ => None,
    }
}

/// The bit of filter `i` in [`Planned::answered`]. Filters past the 64th
/// have none and are always tested again, which costs time, never a
/// wrong answer.
fn filter_bit(i: usize) -> u64 {
    u32::try_from(i)
        .ok()
        .and_then(|i| 1u64.checked_shl(i))
        .unwrap_or(0)
}

/// Count executed plans by kind in the global metrics registry (handles
/// resolved once; each execution is a single relaxed atomic increment).
fn record_plan(plan: &Plan) {
    static COUNTERS: std::sync::OnceLock<[amp_obs::Counter; 5]> = std::sync::OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        let c =
            |kind: &str| amp_obs::counter(&amp_obs::labeled("simdb_plan_total", &[("kind", kind)]));
        [
            c("empty"),
            c("unique_probe"),
            c("index_probe"),
            c("index_ordered_scan"),
            c("full_scan"),
        ]
    });
    let idx = match plan {
        Plan::Empty => 0,
        Plan::UniqueProbe { .. } => 1,
        Plan::IndexProbe { .. } => 2,
        Plan::IndexOrderedScan { .. } => 3,
        Plan::FullScan => 4,
    };
    counters[idx].inc();
}

/// The access path chosen by the query planner (`EXPLAIN` output).
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Proven empty from the indexes alone; no row is touched.
    Empty,
    /// Single unique-index probe (≤ 1 candidate).
    UniqueProbe { column: String },
    /// Index probe sets (Eq/In over indexed columns), intersected.
    IndexProbe { columns: Vec<String> },
    /// Full scan streamed in index order to serve `ORDER BY`.
    IndexOrderedScan { column: String },
    /// Filter every row in primary-key order.
    FullScan,
}

fn cmp_rows(keys: &[(Option<usize>, bool)], a: &(i64, &[Value]), b: &(i64, &[Value])) -> Ordering {
    let (aid, arow) = a;
    let (bid, brow) = b;
    for (ci, desc) in keys {
        let ord = match ci {
            Some(ci) => arow[*ci].total_cmp(&brow[*ci]),
            None => aid.cmp(bid),
        };
        let ord = if *desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    aid.cmp(bid)
}

fn collect_filtered<'t>(
    iter: impl Iterator<Item = (i64, &'t [Value])>,
    matches: &dyn Fn(i64, &[Value]) -> bool,
) -> Vec<(i64, &'t [Value])> {
    iter.filter(|(id, r)| matches(*id, r)).collect()
}

/// Keep the `k` smallest elements under `cmp` using a bounded buffer:
/// amortized O(n log k) time, O(k) extra space — the `ORDER BY … LIMIT`
/// top-k path.
fn top_k<T>(items: &mut Vec<T>, k: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if items.len() <= k {
        items.sort_by(&mut cmp);
        return;
    }
    let cap = (2 * k).max(64);
    let mut buf: Vec<T> = Vec::with_capacity(cap.min(items.len()));
    for item in items.drain(..) {
        buf.push(item);
        if buf.len() >= cap {
            buf.sort_by(&mut cmp);
            buf.truncate(k);
        }
    }
    buf.sort_by(&mut cmp);
    buf.truncate(k);
    *items = buf;
}

fn paginate<T>(mut items: Vec<T>, offset: usize, limit: Option<usize>) -> Vec<T> {
    let start = offset.min(items.len());
    let end = match limit {
        Some(l) => start.saturating_add(l).min(items.len()),
        None => items.len(),
    };
    items.truncate(end);
    items.drain(..start);
    items
}

fn intersect_sorted(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::ValueType;

    fn table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "star",
            vec![
                Column::new("name", ValueType::Text).not_null().unique(),
                Column::new("mass", ValueType::Float),
                Column::new("kind", ValueType::Text).indexed(),
            ],
        ))
        .unwrap();
        for (n, m, k) in [
            ("HD1", 1.0, "dwarf"),
            ("HD2", 1.5, "giant"),
            ("HD3", 0.8, "dwarf"),
            ("HD4", 2.0, "giant"),
        ] {
            t.insert(vec![n.into(), Value::Float(m), k.into()]).unwrap();
        }
        t
    }

    #[test]
    fn eq_via_unique_index() {
        let t = table();
        let rows = Query::new().eq("name", "HD3").execute(&t).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Value::Float(0.8));
    }

    #[test]
    fn eq_via_unique_index_no_match() {
        let t = table();
        assert!(Query::new()
            .eq("name", "HD99")
            .execute(&t)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn eq_via_secondary_index_with_extra_filter() {
        let t = table();
        let rows = Query::new()
            .eq("kind", "dwarf")
            .filter("mass", Op::Gt, Value::Float(0.9))
            .execute(&t)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], "HD1".into());
    }

    #[test]
    fn range_filter_and_order_desc() {
        let t = table();
        let rows = Query::new()
            .filter("mass", Op::Ge, Value::Float(1.0))
            .order_by_desc("mass")
            .execute(&t)
            .unwrap();
        let names: Vec<Value> = rows.into_iter().map(|(_, r)| r[0].clone()).collect();
        assert_eq!(names, vec!["HD4".into(), "HD2".into(), "HD1".into()]);
    }

    #[test]
    fn pagination() {
        let t = table();
        let rows = Query::new()
            .order_by("mass")
            .offset(1)
            .limit(2)
            .execute(&t)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1[0], "HD1".into());
    }

    #[test]
    fn contains_and_startswith() {
        let t = table();
        assert_eq!(
            Query::new()
                .filter("name", Op::StartsWith, "HD")
                .execute(&t)
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            Query::new()
                .filter("kind", Op::Contains, "warf")
                .execute(&t)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            Query::new()
                .filter("kind", Op::IContains, "DWARF")
                .execute(&t)
                .unwrap()
                .len(),
            2
        );
    }

    /// Every cell of up to three and needle of up to two characters of an
    /// alphabet whose non-ASCII members lowercase into ASCII (`K` U+212A),
    /// into two chars (`İ`), or by position (`Σ`): the in-place comparison
    /// answers what lowercasing both sides answers. The empty needle, a
    /// needle longer than its cell and the first and last windows are in.
    #[test]
    fn icontains_equals_lowercasing_both_sides() {
        let alphabet = [
            "a", "A", "k", "K", "i", "1", " ", "\u{212A}", "İ", "ß", "Σ", "σ", "ς",
        ];
        let words = |max: usize| {
            let mut all = vec![String::new()];
            let mut longest = all.clone();
            for _ in 0..max {
                longest = longest
                    .iter()
                    .flat_map(|w| alphabet.iter().map(move |c| format!("{w}{c}")))
                    .collect();
                all.extend(longest.iter().cloned());
            }
            all
        };
        let needles = words(2);
        for cell in words(3) {
            for needle in &needles {
                assert_eq!(
                    icontains(&cell, needle),
                    cell.to_lowercase().contains(&needle.to_lowercase()),
                    "{cell:?} icontains {needle:?}"
                );
            }
        }
        assert!(icontains("HD 52265", "hd 52265") && icontains("Kepler", "LER"));
        assert!(!icontains("HD 5", "HD 52"));
    }

    #[test]
    fn in_and_null_ops() {
        let mut t = table();
        t.insert(vec!["HD5".into(), Value::Null, "dwarf".into()])
            .unwrap();
        assert_eq!(
            Query::new()
                .filter(
                    "name",
                    Op::In(vec!["HD1".into(), "HD5".into()]),
                    Value::Null
                )
                .execute(&t)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            Query::new()
                .filter("mass", Op::IsNull, Value::Null)
                .execute(&t)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            Query::new()
                .filter("mass", Op::NotNull, Value::Null)
                .execute(&t)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn null_never_matches_comparisons() {
        let mut t = table();
        t.insert(vec!["HD5".into(), Value::Null, "dwarf".into()])
            .unwrap();
        assert_eq!(
            Query::new()
                .filter("mass", Op::Lt, Value::Float(100.0))
                .execute(&t)
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            Query::new()
                .filter("mass", Op::Ne, Value::Float(1.0))
                .execute(&t)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn unknown_column_is_error() {
        let t = table();
        assert!(matches!(
            Query::new().eq("nope", 1).execute(&t),
            Err(DbError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            Query::new().order_by("nope").execute(&t),
            Err(DbError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn order_by_id_explicit() {
        let t = table();
        let rows = Query::new().order_by_desc("id").execute(&t).unwrap();
        assert_eq!(rows[0].0, 4);
    }

    /// A filter on the primary key is tested against the row id: `Eq` is
    /// a unique probe, `In` an id set, and other operators compare the id.
    #[test]
    fn filters_on_the_primary_key_test_the_row_id() {
        let mut t = table();
        t.delete(2).unwrap();
        let ids = |q: &Query| -> Vec<i64> {
            let ids: Vec<i64> = q
                .execute(&t)
                .unwrap()
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            assert_eq!(q.count(&t).unwrap(), ids.len(), "{q:?}");
            ids
        };
        let probe = Query::new().eq("id", 3);
        assert_eq!(ids(&probe), [3]);
        assert_eq!(
            probe.explain(&t).unwrap(),
            Plan::UniqueProbe {
                column: "id".into()
            }
        );
        assert_eq!(
            probe.project(&t, "name").unwrap(),
            [(3, Value::from("HD3"))]
        );
        // a deleted row, an id never held, a value of another type
        for missing in [
            Value::Int(2),
            Value::Int(9),
            Value::from("3"),
            Value::Float(3.0),
        ] {
            let q = Query::new().eq("id", missing);
            assert_eq!(ids(&q), [] as [i64; 0]);
            assert_eq!(q.explain(&t).unwrap(), Plan::Empty);
        }
        let set = Query::new().filter(
            "id",
            Op::In(vec![
                Value::Int(4),
                Value::Int(2),
                Value::Null,
                Value::Int(1),
                Value::Int(4),
            ]),
            Value::Null,
        );
        assert_eq!(ids(&set), [1, 4]);
        assert_eq!(
            set.explain(&t).unwrap(),
            Plan::IndexProbe {
                columns: vec!["id".into()]
            }
        );
        assert_eq!(ids(&set.clone().eq("kind", "giant")), [4]);
        assert_eq!(ids(&Query::new().filter("id", Op::Gt, 1)), [3, 4]);
        assert_eq!(ids(&Query::new().filter("id", Op::Ne, 3)), [1, 4]);
        assert_eq!(
            ids(&Query::new().filter("id", Op::IsNull, Value::Null)),
            [] as [i64; 0]
        );
    }

    fn indexed_table(n: i64) -> Table {
        let mut t = Table::new(TableSchema::new(
            "obs",
            vec![
                Column::new("tag", ValueType::Text).not_null().unique(),
                Column::new("site", ValueType::Text).indexed().not_null(),
                Column::new("v", ValueType::Int).indexed(),
                Column::new("plain", ValueType::Int),
            ],
        ))
        .unwrap();
        for i in 0..n {
            t.insert(vec![
                format!("t{i}").into(),
                format!("s{}", i % 4).into(),
                Value::Int(i),
                Value::Int(i % 10),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn explain_picks_unique_probe() {
        let t = indexed_table(20);
        let plan = Query::new()
            .eq("site", "s1")
            .eq("tag", "t5")
            .explain(&t)
            .unwrap();
        assert_eq!(
            plan,
            Plan::UniqueProbe {
                column: "tag".into()
            }
        );
        // unique miss is proven empty without touching rows
        let plan = Query::new().eq("tag", "zzz").explain(&t).unwrap();
        assert_eq!(plan, Plan::Empty);
    }

    #[test]
    fn explain_intersects_secondary_probes() {
        let t = indexed_table(40);
        let q = Query::new().eq("site", "s1").eq("v", 5);
        match q.explain(&t).unwrap() {
            Plan::IndexProbe { columns } => {
                assert!(columns.contains(&"site".to_string()));
                assert!(columns.contains(&"v".to_string()));
            }
            p => panic!("expected IndexProbe, got {p:?}"),
        }
        let rows = q.execute(&t).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[2], Value::Int(5));
    }

    /// Range filters are tested on the rows, so contradictory bounds over
    /// an indexed column simply match nothing.
    #[test]
    fn inverted_range_matches_no_row() {
        let t = indexed_table(30);
        let q =
            Query::new()
                .filter("v", Op::Gt, Value::Int(20))
                .filter("v", Op::Lt, Value::Int(10));
        assert!(q.execute(&t).unwrap().is_empty());
        assert_eq!(q.count(&t).unwrap(), 0);
    }

    #[test]
    fn in_over_unique_probes_and_miss_shortcut() {
        let t = indexed_table(20);
        let q = Query::new().filter(
            "tag",
            Op::In(vec!["t3".into(), "t7".into(), "zzz".into()]),
            Value::Null,
        );
        match q.explain(&t).unwrap() {
            Plan::IndexProbe { columns } => assert_eq!(columns, vec!["tag".to_string()]),
            p => panic!("expected IndexProbe, got {p:?}"),
        }
        assert_eq!(q.execute(&t).unwrap().len(), 2);
        // all members miss the unique index ⇒ provably empty
        let q = Query::new().filter("tag", Op::In(vec!["x".into(), "y".into()]), Value::Null);
        assert_eq!(q.explain(&t).unwrap(), Plan::Empty);
        assert!(q.execute(&t).unwrap().is_empty());
    }

    #[test]
    fn in_with_null_member_falls_back_to_scan() {
        let t = indexed_table(10);
        // NULL in the list would match unindexed null cells; the planner
        // must not drive this from the index.
        let q = Query::new().filter("v", Op::In(vec![Value::Int(3), Value::Null]), Value::Null);
        assert_eq!(q.explain(&t).unwrap(), Plan::FullScan);
        assert_eq!(q.execute(&t).unwrap().len(), 1);
    }

    #[test]
    fn in_over_secondary_unions_postings() {
        let t = indexed_table(40);
        let q = Query::new().filter("site", Op::In(vec!["s0".into(), "s2".into()]), Value::Null);
        match q.explain(&t).unwrap() {
            Plan::IndexProbe { columns } => assert_eq!(columns, vec!["site".to_string()]),
            p => panic!("expected IndexProbe, got {p:?}"),
        }
        assert_eq!(q.execute(&t).unwrap().len(), 20);
    }

    #[test]
    fn index_ordered_scan_serves_order_by_limit() {
        let t = indexed_table(50);
        let q = Query::new().order_by("site").limit(5);
        assert_eq!(
            q.explain(&t).unwrap(),
            Plan::IndexOrderedScan {
                column: "site".into()
            }
        );
        let rows = q.execute(&t).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, r)| r[1] == "s0".into()));
        // descending + tie-break by id ascending within equal keys
        let rows = Query::new()
            .order_by_desc("site")
            .limit(3)
            .execute(&t)
            .unwrap();
        assert!(rows.iter().all(|(_, r)| r[1] == "s3".into()));
        let ids: Vec<i64> = rows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![4, 8, 12]);
        // nullable indexed column must NOT be index-order-driven
        let plan = Query::new().order_by("v").explain(&t).unwrap();
        assert_eq!(plan, Plan::FullScan);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let t = indexed_table(200);
        let full = Query::new()
            .order_by_desc("plain")
            .order_by("v")
            .execute(&t)
            .unwrap();
        for (offset, limit) in [(0, 7), (5, 10), (190, 50), (0, 0)] {
            let paged = Query::new()
                .order_by_desc("plain")
                .order_by("v")
                .offset(offset)
                .limit(limit)
                .execute(&t)
                .unwrap();
            let end = (offset + limit).min(full.len());
            let start = offset.min(full.len());
            assert_eq!(
                paged,
                full[start..end].to_vec(),
                "offset={offset} limit={limit}"
            );
        }
    }

    #[test]
    fn count_matches_execute_len() {
        let t = indexed_table(60);
        let queries = [
            Query::new(),
            Query::new().eq("site", "s2"),
            Query::new().filter("v", Op::Ge, Value::Int(30)),
            Query::new().eq("site", "s1").offset(3).limit(4),
            Query::new().eq("tag", "t9"),
            Query::new().offset(100),
            // A lone `In` naming a member twice, and a range filter
            // tested on the rows beside a probe.
            Query::new().filter("site", Op::In(vec!["s1".into(), "s1".into()]), Value::Null),
            Query::new()
                .eq("site", "s1")
                .filter("v", Op::Ge, Value::Int(30))
                .limit(3),
        ];
        for q in queries {
            assert_eq!(
                q.count(&t).unwrap(),
                q.execute(&t).unwrap().len(),
                "query {q:?}"
            );
        }
    }

    /// An offset a URL could ask for, next to `usize::MAX`: every access
    /// path pages past the end instead of overflowing `offset + limit`.
    #[test]
    fn an_offset_near_usize_max_pages_past_the_end() {
        let t = indexed_table(30);
        let far = |q: Query| q.offset(usize::MAX - 1).limit(25);
        assert_eq!(
            far(Query::new().order_by("site")).explain(&t).unwrap(),
            Plan::IndexOrderedScan {
                column: "site".into()
            }
        );
        for q in [
            Query::new(),
            Query::new().eq("site", "s1"),
            Query::new().order_by("site"),
            Query::new().order_by_desc("plain"),
        ] {
            let q = far(q);
            assert!(q.execute(&t).unwrap().is_empty(), "{q:?}");
            assert!(q.project(&t, "tag").unwrap().is_empty(), "{q:?}");
            assert_eq!(q.count(&t).unwrap(), 0, "{q:?}");
        }
    }
}
