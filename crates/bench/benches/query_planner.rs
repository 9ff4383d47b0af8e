//! Storage-engine fast path: the cost-based query planner against a
//! seed-replica baseline, and the WAL group commit.
//!
//! The `*/reference` ids reimplement the pre-planner engine inline — a
//! full scan that clones every row before filtering. The `*/planner` and
//! `*/group_commit` ids run the shipped code. (The seed's JSON-lines WAL
//! writer used to be replicated here too; it went with the format it wrote,
//! and `BENCH_simdb.json` keeps the last ratio measured against it.)

use amp_simdb::db::LogOp;
use amp_simdb::wal::Wal;
use amp_simdb::{Column, Database, Op, Query, Row, TableSchema, Value, ValueType};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const N: i64 = 10_000;

fn fixture() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "obs",
        vec![
            Column::new("tag", ValueType::Text).not_null().unique(),
            Column::new("site", ValueType::Text).indexed().not_null(),
            Column::new("v", ValueType::Int).indexed().not_null(),
            Column::new("payload", ValueType::Text).not_null(),
        ],
    ))
    .unwrap();
    for i in 0..N {
        db.insert(
            "obs",
            &[
                ("tag", format!("t{i}").into()),
                ("site", format!("s{}", i % 16).into()),
                ("v", Value::Int((i * 7919) % N)),
                // a fat column makes row clones honestly expensive,
                // like the simulation rows the daemon pages through
                ("payload", format!("{i:->96}").into()),
            ],
        )
        .unwrap();
    }
    db
}

/// The seed execution strategy: clone every row out of the table, then
/// filter/sort/slice the owned vector.
fn reference_select(db: &Database, q: &Query) -> Vec<(i64, Row)> {
    let mut rows = db.select("obs", &Query::new()).unwrap();
    let keep = |row: &Row, q: &Query| -> bool {
        q.filters.iter().all(|f| {
            let ci = ["tag", "site", "v", "payload"]
                .iter()
                .position(|c| *c == f.column)
                .unwrap();
            let cell = &row[ci];
            match &f.op {
                Op::Eq => cell.key_eq(&f.value),
                Op::Ge => !cell.is_null() && cell.total_cmp(&f.value).is_ge(),
                Op::Lt => !cell.is_null() && cell.total_cmp(&f.value).is_lt(),
                Op::In(vals) => vals.iter().any(|v| v.key_eq(cell)),
                _ => unimplemented!(),
            }
        })
    };
    rows.retain(|(_, row)| keep(row, q));
    if !q.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for o in &q.order_by {
                let ci = ["tag", "site", "v", "payload"]
                    .iter()
                    .position(|c| *c == o.column)
                    .unwrap();
                let ord = a.1[ci].total_cmp(&b.1[ci]);
                let ord = if o.descending { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            a.0.cmp(&b.0)
        });
    }
    let start = q.offset.min(rows.len());
    let end = q.limit.map_or(rows.len(), |l| (start + l).min(rows.len()));
    rows[start..end].to_vec()
}

fn bench_read_path(c: &mut Criterion) {
    let db = fixture();
    let mut g = c.benchmark_group("storage/read");
    g.sample_size(30);

    // ~1% selective range over the ordered index — the ISSUE headline
    let range =
        Query::new()
            .filter("v", Op::Ge, Value::Int(4_000))
            .filter("v", Op::Lt, Value::Int(4_100));
    g.bench_function("range_1pct_10k/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&range)).unwrap()))
    });
    g.bench_function("range_1pct_10k/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&range))))
    });

    let probe = Query::new().eq("tag", "t9000");
    g.bench_function("unique_probe/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&probe)).unwrap()))
    });
    g.bench_function("unique_probe/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&probe))))
    });

    let worklist =
        Query::new().filter("site", Op::In(vec!["s3".into(), "s11".into()]), Value::Null);
    g.bench_function("in_worklist/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&worklist)).unwrap()))
    });
    g.bench_function("in_worklist/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&worklist))))
    });

    let topk = Query::new().order_by_desc("v").limit(10);
    g.bench_function("topk_10_of_10k/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&topk)).unwrap()))
    });
    g.bench_function("topk_10_of_10k/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&topk))))
    });

    let half = Query::new().filter("v", Op::Ge, Value::Int(N / 2));
    g.bench_function("count_half_10k/planner", |b| {
        b.iter(|| black_box(db.count("obs", black_box(&half)).unwrap()))
    });
    g.bench_function("count_half_10k/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&half)).len()))
    });
    g.finish();
}

// An 8-op batch shaped like one transaction's worth of engine traffic:
// inserts carrying the same fat payload the read-path fixture uses.
fn sample_ops(n: usize) -> Vec<LogOp> {
    (0..n)
        .map(|i| LogOp::Insert {
            table: "obs".into(),
            id: i as i64 + 1,
            row: vec![
                format!("t{i}").into(),
                "s0".into(),
                Value::Int(i as i64),
                format!("{i:->96}").into(),
            ],
        })
        .collect()
}

fn bench_wal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("amp_bench_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ops = sample_ops(8);

    // Committing an 8-op batch: one encode pass, one frame, one write, one
    // flush.
    let mut g = c.benchmark_group("storage/wal_append_8ops");
    g.sample_size(200);
    let wal = Wal::open(dir.join("group.wal")).unwrap();
    g.bench_function("group_commit", |b| {
        b.iter(|| black_box(wal.append(black_box(&ops)).unwrap()))
    });
    g.finish();

    // concurrent committers: 16 threads x 25 batches per iteration (thread
    // spawn cost amortized over 200 appends). The group-commit leader
    // drains everyone's pre-encoded frames in one write+flush.
    let mut g = c.benchmark_group("storage/wal_concurrent_16x25");
    g.sample_size(20);
    const BATCHES_PER_THREAD: usize = 25;
    let wal = std::sync::Arc::new(Wal::open(dir.join("group_mt.wal")).unwrap());
    g.bench_function("group_commit", |b| {
        b.iter(|| {
            let mut handles = Vec::new();
            for _ in 0..16 {
                let wal = wal.clone();
                let ops = ops.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..BATCHES_PER_THREAD {
                        black_box(wal.append(&ops).unwrap());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_read_path, bench_wal);
criterion_main!(benches);
