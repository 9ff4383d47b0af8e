//! `store_churn`: simdb alone, on the real `amp_core` schema with a
//! 30,000-row job table. One writer thread commits the shapes the daemon
//! commits and checkpoints inline every 2,000 commits; one reader thread
//! loops the shapes the portal reads. After the timed part a fixed tail
//! of commits is left in the log, every handle is dropped, and reopening
//! the database is timed: the only workload that times recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use amp_core::models::{GridJobRecord, Lease, Notification, Simulation, Star};
use amp_core::roles::{ROLE_ADMIN, ROLE_DAEMON, ROLE_WEB};
use amp_core::{JobPurpose, JobStatus};
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Db, Query, Value};

use super::{
    insert_sample_stats, insert_share_within, insert_write_amp, quiet_median, reopen, trace_overhead, Cfg, Measured,
    Setups, StealMeter, Stretches,
};
use crate::counters;
use crate::inputs::{requests, Kind};
use crate::metrics::{insert, Values};
use crate::rng::{exact_mix, Rng};
use crate::speed::Speed;
use crate::stack::{seed_catalog, Catalog, Storage, SITE, STARS, USERS};
use crate::stats::{median, quantile};
use crate::trace::{SpanBuf, NO_PARENT};
use crate::{probes, procstat};

const SIMS: usize = 300;
const JOBS_PER_SIM: usize = 100;
const CHECKPOINT_EVERY: usize = 2_000;
const TAIL_COMMITS: usize = 2_000;
const TXN_ROWS: usize = 64;
const FSYNCS: &str = "simdb_wal_fsync_total";
/// Commits before the timed part. A count, not a time, so that the first
/// timed cycle writes the same rows whatever the box's speed.
const WARM_UP_COMMITS: usize = 1_000;
/// `slo_share` limit: the p99.5 of a commit on the reference box, just
/// above what the 64-row transaction takes (README, "slo_share").
const COMMIT_LIMIT_MS: f64 = 3.5;
/// Reopens after the tail; `recover_s` is their median.
const REOPENS: usize = 5;
/// The writer runs one speed unit per this many commits (every ~25 ms,
/// 0.6% of its time), and this many on either side of a checkpoint.
const UNIT_EVERY: usize = 50;
const UNITS_AROUND_CHECKPOINT: usize = 5;

#[derive(Clone, Copy)]
enum Write {
    SimUpdate,
    JobInsert,
    JobTxn,
    LeaseCas,
    Notify,
}

const WRITES: [(Write, f64); 5] = [
    (Write::SimUpdate, 50.0),
    (Write::JobInsert, 20.0),
    (Write::JobTxn, 10.0),
    (Write::LeaseCas, 10.0),
    (Write::Notify, 10.0),
];

struct Store {
    storage: Storage,
    db: Db,
    catalog: Catalog,
    sims: Vec<i64>,
    /// `(lease row, its simulation)`; epochs start at 1.
    leases: Vec<i64>,
    jobs: usize,
    catalog_ms: f64,
}

fn job(sim: i64, n: usize) -> GridJobRecord {
    let mut j = GridJobRecord::new(sim, (n % 4) as i64, JobPurpose::Work, (n / 4) as i64, SITE, 16, "curvefit");
    j.status = if n.is_multiple_of(10) { JobStatus::Active } else { JobStatus::Done };
    j.gram_handle = Some(format!("https://{SITE}/gram/{sim}/{n}"));
    j
}

fn build(rng: &mut Rng, jobs_per_sim: usize) -> Result<Store, String> {
    let err = |e: amp_simdb::DbError| e.to_string();
    let start = Instant::now();
    let storage = Storage::fresh();
    let db = storage.open_db().map_err(err)?;
    let catalog = seed_catalog(&db, rng).map_err(err)?;
    let catalog_ms = start.elapsed().as_secs_f64() * 1e3;
    let web = Manager::<Simulation>::new(db.connect(ROLE_WEB).map_err(err)?);
    let shares = [(Kind::CurvefitDirect, 1.0), (Kind::StellarDirect, 1.0)];
    let mut sims = Vec::with_capacity(SIMS);
    for (i, request) in requests(rng, &catalog, &shares, SIMS).iter().enumerate() {
        let owner = catalog.users[i % catalog.users.len()].id;
        sims.push(web.create(&mut request.as_row(owner, catalog.allocation)).map_err(err)?);
    }
    let admin = db.connect(ROLE_ADMIN).map_err(err)?;
    for &sim in &sims {
        admin
            .transaction(&[GridJobRecord::TABLE], |tx| {
                (0..jobs_per_sim).try_for_each(|n| tx.insert(GridJobRecord::TABLE, &job(sim, n).to_values()).map(drop))
            })
            .map_err(err)?;
    }
    let lease_rows = Manager::<Lease>::new(admin);
    let leases = sims
        .iter()
        .map(|&sim| lease_rows.create(&mut Lease::new(sim, "gridamp-0", "curvefit", 1, 1_800)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    Ok(Store { storage, db, catalog, sims, leases, jobs: SIMS * jobs_per_sim, catalog_ms })
}

/// The writer's side: one connection per role, as the daemon holds them.
struct Writer<'a> {
    store: &'a Store,
    daemon: amp_simdb::Connection,
    jobs: Manager<GridJobRecord>,
    notes: Manager<Notification>,
    rng: Rng,
    mix: Vec<Write>,
    epochs: Vec<i64>,
    commits: u64,
    jobs_stored: usize,
}

impl<'a> Writer<'a> {
    fn new(store: &'a Store, rng: Rng) -> Result<Writer<'a>, String> {
        let daemon = store.db.connect(ROLE_DAEMON).map_err(|e| e.to_string())?;
        Ok(Writer {
            store,
            jobs: Manager::new(daemon.clone()),
            notes: Manager::new(daemon.clone()),
            daemon,
            rng,
            mix: Vec::new(),
            epochs: vec![1; store.leases.len()],
            commits: 0,
            jobs_stored: store.jobs,
        })
    }

    /// One commit of the next shape in the mix.
    fn commit(&mut self) -> Result<(), String> {
        if self.mix.is_empty() {
            self.mix = exact_mix(&mut self.rng, &WRITES, 100);
        }
        let shape = self.mix.pop().expect("refilled");
        let pick = self.rng.below(self.store.sims.len());
        let sim = self.store.sims[pick];
        let n = self.commits;
        let done = match shape {
            Write::SimUpdate => self.daemon.update(
                Simulation::TABLE,
                sim,
                &[
                    ("progress", Value::from((n % 100) as f64 / 100.0)),
                    ("status_message", Value::from(format!("generation {n}"))),
                ],
            ),
            Write::JobInsert => {
                self.jobs_stored += 1;
                self.jobs.create(&mut job(sim, self.store.jobs + n as usize)).map(drop)
            }
            Write::JobTxn => {
                // 64 consecutive job rows, the way a tick marks one
                // simulation's finished jobs.
                let first = 1 + self.rng.below(self.store.jobs - TXN_ROWS) as i64;
                self.daemon.transaction(&[GridJobRecord::TABLE], |tx| {
                    (first..first + TXN_ROWS as i64).try_for_each(|id| {
                        tx.update(GridJobRecord::TABLE, id, &[("detail", Value::from(format!("polled {n}")))])
                    })
                })
            }
            Write::LeaseCas => {
                let epoch = self.epochs[pick];
                self.epochs[pick] += 1;
                match self.daemon.compare_and_swap(
                    Lease::TABLE,
                    self.store.leases[pick],
                    &[("epoch", Value::from(epoch))],
                    &[("epoch", Value::from(epoch + 1)), ("expires_at", Value::Timestamp(n as i64))],
                ) {
                    Ok(true) => Ok(()),
                    Ok(false) => {
                        return Err(format!("store_churn commit {n}: uncontended lease swap lost at epoch {epoch}"))
                    }
                    Err(e) => Err(e),
                }
            }
            Write::Notify => self
                .notes
                .create(&mut Notification::to_user(
                    self.store.catalog.users[pick % USERS].id,
                    Some(sim),
                    "progress",
                    &format!("commit {n}"),
                    0,
                ))
                .map(drop),
        };
        self.commits += 1;
        done.map_err(|e| format!("store_churn commit {n}: {e}"))
    }
}

/// One checkpoint cycle: a fixed number of commits, then the checkpoint.
struct Cycle {
    start: Instant,
    end: Instant,
    cpu_s: f64,
    /// Share of the CPU the hypervisor stole during the cycle.
    stolen: f64,
    /// Whether spans were recorded during it.
    traced: bool,
    /// The units the writer ran during it, all between `start` and `end`.
    speed: Speed,
    /// The checkpoint that ended it, and what the commits before it cost.
    compact_ms: f64,
    fsyncs: u64,
    wal_bytes: u64,
}

impl Cycle {
    /// Seconds the commits and the checkpoint took, at reference speed.
    fn seconds(&self) -> f64 {
        ((self.end - self.start).as_secs_f64() - self.speed.spent_s()) * self.speed.factor()
    }
}

#[derive(Default)]
struct WriterOut {
    commit_ms: Vec<(f64, Instant)>,
    cycles: Vec<Cycle>,
    window_s: f64,
}

#[derive(Default)]
struct ReaderOut {
    read_us: Vec<(f64, Instant)>,
    stalled_us: Vec<(f64, Instant)>,
}

/// The portal's read shapes, one after the other, until told to stop.
fn read_loop(
    store: &Store,
    mut rng: Rng,
    stop: &AtomicBool,
    recording: &AtomicBool,
    compacting: &AtomicBool,
    tracing: &AtomicBool,
    spans: &mut SpanBuf,
) -> Result<ReaderOut, String> {
    let web = store.db.connect(ROLE_WEB).map_err(|e| e.to_string())?;
    let active = Query::new().eq("status", "ACTIVE").limit(50);
    let done = Query::new().eq("status", "DONE");
    let pages = STARS / 25;
    let mut out = ReaderOut::default();
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let sim = store.sims[rng.below(store.sims.len())];
        let start = Instant::now();
        let rows = match n % 4 {
            0 => web.get(Simulation::TABLE, sim).map(|_| 1),
            1 => web.select(GridJobRecord::TABLE, &active).map(|r| r.len()),
            2 => web
                .select(Star::TABLE, &Query::new().order_by("identifier").offset(rng.below(pages) * 25).limit(25))
                .map(|r| r.len()),
            _ => web.count(GridJobRecord::TABLE, &done),
        }
        .map_err(|e| format!("store_churn read {n}: {e}"))?;
        let end = Instant::now();
        if rows == 0 {
            return Err(format!("store_churn read {n}: shape {} returned nothing", n % 4));
        }
        if recording.load(Ordering::Relaxed) {
            let us = (end - start).as_secs_f64() * 1e6;
            out.read_us.push((us, end));
            if compacting.load(Ordering::Relaxed) {
                out.stalled_us.push((us, end));
            }
            spans.set_on(tracing.load(Ordering::Relaxed));
            spans.leaf("store.read", n, NO_PARENT, start, end);
        }
        n += 1;
    }
    Ok(out)
}

pub fn run(cfg: &Cfg) -> Result<Measured, String> {
    let origin = Instant::now();
    let rng = Rng::new(cfg.seed);
    let (store, setups) = Setups::repeat(cfg.setup_repeats(), |i| {
        let store = build(&mut rng.fork(i), cfg.sized(JOBS_PER_SIM))?;
        let catalog_ms = store.catalog_ms;
        Ok((store, catalog_ms))
    })?;

    let (stop, recording, compacting) = (AtomicBool::new(false), AtomicBool::new(false), AtomicBool::new(false));
    let tracing = AtomicBool::new(false);
    let mut writer = Writer::new(&store, rng.fork(100))?;
    let mut writer_spans = SpanBuf::new(false, 1, origin);
    let mut marks = None;
    let checkpoint_every = cfg.sized(CHECKPOINT_EVERY);
    let (written, read, reader_spans) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut spans = SpanBuf::new(false, 2, origin);
            let out = read_loop(&store, rng.fork(200), &stop, &recording, &compacting, &tracing, &mut spans);
            (out, spans.into_spans())
        });
        let written = (|| -> Result<WriterOut, String> {
            for _ in 0..cfg.sized(WARM_UP_COMMITS) {
                writer.commit()?;
            }
            let mut out = WriterOut::default();
            marks = Some(counters::read());
            recording.store(true, Ordering::Relaxed);
            let start = Instant::now();
            // Whole checkpoint cycles, each a trial: a fixed number of
            // commits, then the checkpoint they made necessary.
            while start.elapsed().as_secs_f64() < cfg.seconds {
                let (cycle_start, cpu_start, wal_start) =
                    (Instant::now(), procstat::cpu_seconds(), store.storage.wal_len());
                let (steal, fsyncs_start) = (StealMeter::start(), amp_obs::counter(FSYNCS).get());
                // In a traced run every other cycle records spans.
                let traced = cfg.traced && out.cycles.len() % 2 == 1;
                writer_spans.set_on(traced);
                tracing.store(traced, Ordering::Relaxed);
                let mut speed = Speed::default();
                for i in 0..checkpoint_every {
                    let begin = Instant::now();
                    writer.commit()?;
                    let end = Instant::now();
                    writer_spans.leaf("store.commit", writer.commits, NO_PARENT, begin, end);
                    out.commit_ms.push(((end - begin).as_secs_f64() * 1e3, end));
                    if i % UNIT_EVERY == 0 {
                        speed.sample(1);
                    }
                }
                let wal_bytes = store.storage.wal_len() - wal_start;
                let fsyncs = amp_obs::counter(FSYNCS).get() - fsyncs_start;
                speed.sample(UNITS_AROUND_CHECKPOINT);
                let begin = Instant::now();
                compacting.store(true, Ordering::Relaxed);
                store.db.compact().map_err(|e| format!("store_churn compact: {e}"))?;
                compacting.store(false, Ordering::Relaxed);
                let compacted = Instant::now();
                writer_spans.leaf("store.compact", writer.commits, NO_PARENT, begin, compacted);
                let compact_ms = (compacted - begin).as_secs_f64() * 1e3;
                speed.sample(UNITS_AROUND_CHECKPOINT);
                let (cpu_s, stolen) = (procstat::cpu_seconds() - cpu_start, steal.share());
                out.cycles.push(Cycle {
                    start: cycle_start,
                    end: Instant::now(),
                    cpu_s,
                    stolen,
                    traced,
                    speed,
                    compact_ms,
                    fsyncs,
                    wal_bytes,
                });
            }
            out.window_s = start.elapsed().as_secs_f64();
            recording.store(false, Ordering::Relaxed);
            Ok(out)
        })();
        stop.store(true, Ordering::Relaxed);
        let (read, reader_spans) = reader.join().expect("reader thread panicked");
        (written, read, reader_spans)
    });
    let (written, read) = (written?, read?);
    let counted = counters::read().since(&marks.expect("marked before the timed part"));

    // A fixed tail with no checkpoint, so recovery always replays the same
    // number of commits; then drop every handle and time the reopen.
    for _ in 0..cfg.sized(TAIL_COMMITS) {
        writer.commit()?;
    }
    let jobs_stored = writer.jobs_stored;
    drop(writer);
    let Store { storage, db, catalog, .. } = store;
    writer_spans.set_on(cfg.traced);
    let reopened = reopen("store_churn", &storage, db, if cfg.smoke { 1 } else { REOPENS }, &mut writer_spans)?;
    if reopened.fingerprint[GridJobRecord::TABLE].0 != jobs_stored {
        return Err(format!(
            "store_churn: {} job rows stored, {jobs_stored} written",
            reopened.fingerprint[GridJobRecord::TABLE].0
        ));
    }
    let db = &reopened.db;

    let commits = written.commit_ms.len() as f64;
    let first = written.cycles.first().ok_or("store_churn: no checkpoint cycle completed")?;
    // Every time at reference speed, by the units the writer ran in the
    // same cycle.
    let quiet = Stretches::new(
        &written.cycles.iter().map(|c| (c.start, c.end, c.stolen, c.speed.factor())).collect::<Vec<_>>(),
    );
    let commit_ms = quiet.keep(&written.commit_ms);
    let read_ms: Vec<f64> = quiet.keep(&read.read_us).iter().map(|us| us / 1e3).collect();
    let mut values = Values::new();
    setups.insert_into(&mut values);
    let per_cycle =
        |f: &dyn Fn(&Cycle) -> f64| quiet_median(&written.cycles.iter().map(|c| (f(c), c.stolen)).collect::<Vec<_>>());
    insert(&mut values, "ops_per_s", per_cycle(&|c| checkpoint_every as f64 / c.seconds()));
    insert(&mut values, "op_p50_ms", median(&commit_ms));
    insert(&mut values, "harness.read_p50_ms", median(&read_ms));
    insert(&mut values, "harness.cpu_ms_per_op", per_cycle(&|c| c.cpu_s * 1e3 / checkpoint_every as f64));
    insert(&mut values, "harness.quiet_share", Some(quiet.quiet_share()));
    insert(
        &mut values,
        "harness.speed_factor",
        median(&written.cycles.iter().map(|c| c.speed.factor()).collect::<Vec<_>>()),
    );
    insert_share_within(&mut values, "slo_share", &[(&commit_ms, COMMIT_LIMIT_MS)]);
    insert_share_within(&mut values, "harness.slo_share_all", &[(&quiet.scaled(&written.commit_ms), COMMIT_LIMIT_MS)]);
    // The writer plays the daemon here, and the inline checkpoint is the
    // longest it is held up between two commits.
    insert(&mut values, "round_peak_ms", per_cycle(&|c| c.compact_ms * c.speed.factor()));
    insert(&mut values, "recover_s", quiet_median(&reopened.timings));
    // Counts of the first cycle's commits. Rows grow as they are updated,
    // so later cycles log more bytes, and how many of them a run fits
    // depends on the box; the first one is the same work every time.
    insert(&mut values, "fsyncs_per_op", Some(first.fsyncs as f64 / checkpoint_every as f64));
    insert(&mut values, "wal_bytes_per_op", Some(first.wal_bytes as f64 / checkpoint_every as f64));

    let wal_bytes = written.cycles.iter().map(|c| c.wal_bytes).sum::<u64>() as f64;
    insert(&mut values, "simdb.fsyncs", Some(counted.counter(FSYNCS) as f64));
    insert(&mut values, "simdb.wal_bytes", Some(wal_bytes));
    insert(&mut values, "simdb.compact_ms", per_cycle(&|c| c.compact_ms));
    insert(&mut values, "simdb.read_stall_p99_us", quantile(&quiet.keep(&read.stalled_us), 0.99));
    insert(&mut values, "simdb.reads_per_s", Some(read.read_us.len() as f64 / written.window_s));
    insert(
        &mut values,
        "simdb.recover_ms_per_mb",
        median(&reopened.timings.iter().map(|t| t.0 * 1e3 / reopened.files_mb).collect::<Vec<_>>()),
    );
    insert(&mut values, "simdb.rows_copied_per_write_mean", counted.mean("simdb_rows_copied_per_write"));
    insert(&mut values, "simdb.group_commit_writers_mean", counted.mean("simdb_group_commit_writers"));
    insert(&mut values, "simdb.scan_plan_share", counted.scan_plan_share());
    let rates: Vec<(f64, f64, bool)> =
        written.cycles.iter().map(|c| (checkpoint_every as f64 / c.seconds(), c.stolen, c.traced)).collect();
    insert(&mut values, "harness.trace_overhead_share", trace_overhead(&rates));
    insert_sample_stats(&mut values, storage.tmpfs, written.cycles.len(), &commit_ms, &read_ms);
    insert(
        &mut values,
        "harness.cpu_busy_cores",
        Some(written.cycles.iter().map(|c| c.cpu_s).sum::<f64>() / written.window_s),
    );

    let mut spans = Vec::new();
    if cfg.traced {
        let mut probe_spans = SpanBuf::new(true, 63, origin);
        probes::run(&mut values, &mut probe_spans, db, &storage, &catalog)?;
        insert_write_amp(&mut values, wal_bytes);
        spans = writer_spans.into_spans();
        spans.extend(reader_spans);
        spans.extend(probe_spans.into_spans());
    }
    Ok(Measured { attempted: (commits as usize + read.read_us.len()) as u64, timed_s: written.window_s, values, spans })
}
