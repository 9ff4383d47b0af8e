//! The four workloads. Each builds its deployment from the seed, runs its
//! timed part for the asked number of seconds, checks what the program
//! produced, and hands back what it measured.

pub mod backlog_drain;
pub mod browse;
pub mod store_churn;
pub mod submit_journey;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::metrics::{insert, Values};
use crate::stack::{Catalog, Storage};
use crate::stats::{median, quantile};
use crate::trace::{Span, SpanBuf, NO_PARENT};
use crate::{check, procstat, speed};

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    /// Run the per-layer probes and record spans in every other interval
    /// (slice, cycle, trial), so tracing overhead is measured in the run.
    pub traced: bool,
    /// `run --smoke`: a fifth of the data, one set-up, short warm-up.
    pub smoke: bool,
}

impl Cfg {
    /// A fixed size of the full run, scaled down for a smoke run.
    pub fn sized(&self, full: usize) -> usize {
        if self.smoke {
            full / 5
        } else {
            full
        }
    }

    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    pub fn warm_up(&self, full: std::time::Duration) -> std::time::Duration {
        if self.smoke {
            full / 5
        } else {
            full
        }
    }
}

pub struct Measured {
    /// Operations timed. None of them failed: a failed operation or a
    /// violated check ends the run with an error instead of a result.
    pub attempted: u64,
    /// Wall seconds of the timed part.
    pub timed_s: f64,
    pub values: Values,
    pub spans: Vec<Span>,
}

pub fn run(workload: &str, cfg: &Cfg) -> Result<Measured, String> {
    match workload {
        "browse" => browse::run(cfg),
        "submit_journey" => submit_journey::run(cfg),
        "backlog_drain" => backlog_drain::run(cfg),
        "store_churn" => store_churn::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The set-ups of a run, each with its seconds, the part of them that
/// seeded the catalogue (ms), both at reference speed, and the CPU share
/// stolen meanwhile.
#[derive(Default)]
pub struct Setups(Vec<(f64, f64, f64)>);

impl Setups {
    /// Time one set-up; `build` also says how long its catalogue took.
    pub fn time<T>(&mut self, build: impl FnOnce() -> Result<(T, f64), String>) -> Result<T, String> {
        let steal = StealMeter::start();
        let (built, timed) = speed::timed(build);
        let (built, catalog_ms) = built?;
        self.0.push((timed.seconds(), catalog_ms * timed.factor, steal.share()));
        Ok(built)
    }

    /// Set up `repeats` times over, each from its own fork of the seed,
    /// dropping each deployment before the next is built; the last one is
    /// the one measured.
    pub fn repeat<T>(
        repeats: usize,
        mut build: impl FnMut(u64) -> Result<(T, f64), String>,
    ) -> Result<(T, Setups), String> {
        let mut setups = Setups::default();
        let mut last = None;
        for i in 0..repeats as u64 {
            drop(last.take());
            last = Some(setups.time(|| build(i))?);
        }
        Ok((last.expect("set up at least once"), setups))
    }

    pub fn insert_into(&self, values: &mut Values) {
        let quiet =
            |f: &dyn Fn(&(f64, f64, f64)) -> f64| quiet_median(&self.0.iter().map(|s| (f(s), s.2)).collect::<Vec<_>>());
        insert(values, "setup_s", quiet(&|s| s.0));
        insert(values, "harness.setup_catalog_ms", quiet(&|s| s.1));
        insert(values, "harness.setup_work_ms", quiet(&|s| s.0 * 1e3 - s.1));
    }
}

/// What every workload says about its samples: how many operations are
/// behind `op_p50_ms`, over how many trials, and the tails.
pub fn insert_sample_stats(values: &mut Values, tmpfs: bool, trials: usize, op_ms: &[f64], read_ms: &[f64]) {
    insert(values, "harness.storage_tmpfs", Some(f64::from(tmpfs)));
    insert(values, "harness.trials", Some(trials as f64));
    insert(values, "harness.op_samples", Some(op_ms.len() as f64));
    insert(values, "harness.op_p99_ms", quantile(op_ms, 0.99));
    insert(values, "harness.read_p99_ms", quantile(read_ms, 0.99));
}

/// Bytes the log took per byte of the state it left, once the probes
/// have checkpointed that state: `wal_bytes` written to reach it over
/// `simdb.snapshot_bytes`.
pub fn insert_write_amp(values: &mut Values, wal_bytes: f64) {
    let snapshot = values.get("simdb.snapshot_bytes").copied();
    insert(values, "simdb.write_amp", snapshot.map(|bytes| wal_bytes / bytes));
}

/// The portal's own counters over the timed part.
pub fn insert_portal_counters(values: &mut Values, counted: &crate::counters::Reading) {
    let (hits, misses) = (counted.counter("portal_cache_hits_total"), counted.counter("portal_cache_misses_total"));
    insert(values, "portal.cache_hit_ratio", crate::counters::ratio(hits, hits + misses));
    insert(
        values,
        "portal.queue_wait_p99_us",
        counted.quantile("portal_conn_queue_wait_seconds", 0.99).map(|ns| ns / 1e3),
    );
}

/// The share of operations that came back within their class's limit;
/// `classes` pairs each class's samples with its limit. `slo_share` is
/// this over every operation timed in the intervals (slices, cycles,
/// trials) the hypervisor left alone, tail included: what it steals shows
/// up as tail latency at once (README, "slo_share"), and no change to the
/// program can move `/proc/stat`. `harness.slo_share_all` is the same over
/// every interval. A failed operation never gets here; it ends the run.
pub fn insert_share_within(values: &mut Values, name: &'static str, classes: &[(&[f64], f64)]) {
    let ok: usize = classes.iter().map(|(samples, limit)| samples.iter().filter(|s| *s <= limit).count()).sum();
    let all: usize = classes.iter().map(|(samples, _)| samples.len()).sum();
    insert(values, name, crate::counters::ratio(ok as u64, all as u64));
}

/// What a trial leaves behind for the probes: the reopened database, its
/// files, the catalogue and the grid the daemons ran on.
pub struct Kept {
    pub storage: Storage,
    pub db: amp_simdb::Db,
    pub catalog: Catalog,
    pub grid: amp_grid::Grid,
}

/// Restart: drop `db` (the caller has dropped every other handle), open
/// the files it left `times` over, and hold the reopened database against
/// the row counts and content hashes taken before the drop. Each reopen
/// comes back as `(seconds at reference speed, stolen CPU share)`.
pub struct Reopened {
    pub db: amp_simdb::Db,
    pub timings: Vec<(f64, f64)>,
    /// Bytes of snapshot and log that were read back.
    pub files_mb: f64,
    pub fingerprint: check::Fingerprint,
}

pub fn reopen(
    what: &str,
    storage: &Storage,
    db: amp_simdb::Db,
    times: usize,
    spans: &mut SpanBuf,
) -> Result<Reopened, String> {
    let expected = check::fingerprint(&db)?;
    drop(db);
    let files_mb = (storage.wal_len() + storage.snapshot_len()) as f64 / (1 << 20) as f64;
    let mut timings = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        drop(last.take());
        let steal = StealMeter::start();
        let (opened, timed) = speed::timed(|| storage.open_db());
        last = Some(opened.map_err(|e| format!("{what} reopen: {e}"))?);
        spans.leaf("store.recover", i as u64, NO_PARENT, timed.start, timed.end);
        timings.push((timed.seconds(), steal.share()));
    }
    let db = last.ok_or("reopen at least once")?;
    let recovered = check::fingerprint(&db)?;
    if let Some((table, _)) = expected.iter().find(|(t, v)| recovered.get(*t) != Some(v)) {
        return Err(format!(
            "{what}: table {table} after recovery is {:?}, was {:?} before the drop",
            recovered.get(table),
            expected[table]
        ));
    }
    Ok(Reopened { db, timings, files_mb, fingerprint: recovered })
}

/// An interval counts as quiet when the hypervisor stole at most this
/// share of the guest's CPU time during it. On the reference box a noisy
/// neighbour takes up to a third of the CPU for tens of seconds at a time
/// (README, "Steal"); what a workload does meanwhile measures the
/// neighbour, not the program.
const QUIET_STEAL_SHARE: f64 = 0.02;

/// The largest stolen share that still counts as quiet among intervals
/// with these shares: the fixed limit, raised as far as it takes to keep
/// the quietest third, so that a run made entirely under a neighbour's
/// load still reports its least disturbed part.
fn steal_limit(shares: &[f64]) -> f64 {
    let mut sorted = shares.to_vec();
    sorted.sort_by(f64::total_cmp);
    let third = sorted.get(sorted.len().div_ceil(3).saturating_sub(1)).copied().unwrap_or(0.0);
    third.max(QUIET_STEAL_SHARE)
}

/// Stolen CPU share of the interval since `start`.
pub struct StealMeter {
    start: Instant,
    stolen: f64,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter { start: Instant::now(), stolen: procstat::stolen_seconds() }
    }

    pub fn share(&self) -> f64 {
        stolen_share(procstat::stolen_seconds() - self.stolen, self.start.elapsed().as_secs_f64())
    }
}

fn stolen_share(stolen_s: f64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    stolen_s / (wall_s * cpus).max(1e-9)
}

/// Median of the values measured in quiet intervals, given each value
/// with the stolen share of its interval. `None` without values.
pub fn quiet_median(values: &[(f64, f64)]) -> Option<f64> {
    let limit = steal_limit(&values.iter().map(|v| v.1).collect::<Vec<_>>());
    median(&values.iter().filter(|v| v.1 <= limit).map(|v| v.0).collect::<Vec<_>>())
}

/// `1 - traced / untraced` throughput, from intervals that alternate
/// between the two: each `(rate, stolen share, traced)`. Interleaving
/// cancels the box's drift, which two runs one after the other do not.
pub fn trace_overhead(intervals: &[(f64, f64, bool)]) -> Option<f64> {
    let side = |traced: bool| {
        quiet_median(&intervals.iter().filter(|i| i.2 == traced).map(|i| (i.0, i.1)).collect::<Vec<_>>())
    };
    Some(1.0 - side(true)? / side(false)?)
}

/// Which of `shares` (stolen share per interval) count as quiet.
pub fn quiet_flags(shares: &[f64]) -> Vec<bool> {
    let limit = steal_limit(shares);
    shares.iter().map(|&s| s <= limit).collect()
}

/// The stretches a timed window was cut into (slices, checkpoint
/// cycles): which of them were quiet and the speed factor of each, for
/// operations that are judged by the moment they completed.
pub struct Stretches {
    /// Start, end, quiet, speed factor; in time order.
    stretches: Vec<(Instant, Instant, bool, f64)>,
}

impl Stretches {
    /// From stretches in time order, each with its stolen share and its
    /// speed factor.
    pub fn new(stretches: &[(Instant, Instant, f64, f64)]) -> Stretches {
        let flags = quiet_flags(&stretches.iter().map(|s| s.2).collect::<Vec<_>>());
        Stretches { stretches: stretches.iter().zip(flags).map(|(s, quiet)| (s.0, s.1, quiet, s.3)).collect() }
    }

    /// The stretch `t` falls into; the last one for a reply that came in
    /// after the window closed.
    fn at(&self, t: Instant) -> &(Instant, Instant, bool, f64) {
        &self.stretches[self.stretches.partition_point(|s| s.1 < t).min(self.stretches.len() - 1)]
    }

    /// Of `samples` (value, completion time), the values from quiet
    /// stretches, at reference speed.
    pub fn keep(&self, samples: &[(f64, Instant)]) -> Vec<f64> {
        samples.iter().filter(|s| self.at(s.1).2).map(|s| s.0 * self.at(s.1).3).collect()
    }

    /// Every one of `samples`, at reference speed.
    pub fn scaled(&self, samples: &[(f64, Instant)]) -> Vec<f64> {
        samples.iter().map(|s| s.0 * self.at(s.1).3).collect()
    }

    pub fn quiet_share(&self) -> f64 {
        self.stretches.iter().filter(|s| s.2).count() as f64 / self.stretches.len() as f64
    }
}

/// The timed window cut into half-second slices: operations completed,
/// process CPU used and CPU stolen in each. Throughput is reported as the
/// median quiet slice, which moves far less from run to run than the
/// window's total does.
pub struct Slices {
    /// Time, operations done, CPU used, CPU stolen, and whether spans
    /// were recorded during the slice that starts here.
    marks: Vec<(Instant, u64, f64, f64, bool)>,
    /// Speed factor of each slice.
    factors: Vec<f64>,
}

impl Slices {
    const EVERY: Duration = Duration::from_millis(500);

    /// Sample `ops` (a count of completed operations that other threads
    /// advance) from now for `seconds`, on the calling thread. With
    /// `tracing` given, flip it at every slice, so traced and untraced
    /// slices alternate.
    pub fn sample(ops: &AtomicU64, seconds: f64, tracing: Option<&AtomicBool>) -> Slices {
        let start = Instant::now();
        let mut marks: Vec<(Instant, u64, f64, f64, bool)> = Vec::new();
        loop {
            let now = Instant::now();
            let traced = tracing.is_some() && marks.len() % 2 == 1;
            if let Some(flag) = tracing {
                flag.store(traced, Ordering::Relaxed);
            }
            marks.push((now, ops.load(Ordering::Relaxed), procstat::cpu_seconds(), procstat::stolen_seconds(), traced));
            let left = Duration::from_secs_f64(seconds).saturating_sub(now - start);
            if left.is_zero() {
                let factors = vec![1.0; marks.len() - 1];
                return Slices { marks, factors };
            }
            std::thread::sleep(left.min(Self::EVERY));
        }
    }

    /// Give each slice the speed the generator threads ran their units
    /// at while it lasted: `units` are (seconds, when).
    pub fn paced(mut self, units: &[(f64, Instant)]) -> Slices {
        self.factors = self
            .marks
            .windows(2)
            .map(|w| {
                let mut speed = speed::Speed::default();
                units.iter().filter(|u| w[0].0 <= u.1 && u.1 < w[1].0).for_each(|u| speed.push(u.0));
                speed.factor()
            })
            .collect();
        self
    }

    fn stolen(w: &[(Instant, u64, f64, f64, bool)]) -> f64 {
        stolen_share(w[1].3 - w[0].3, (w[1].0 - w[0].0).as_secs_f64())
    }

    pub fn stretches(&self) -> Stretches {
        let slices = self.marks.windows(2).zip(&self.factors);
        Stretches::new(&slices.map(|(w, &factor)| (w[0].0, w[1].0, Self::stolen(w), factor)).collect::<Vec<_>>())
    }

    /// Operations per second of each slice at reference speed, its stolen
    /// share, and whether it was traced.
    fn rates(&self) -> Vec<(f64, f64, bool)> {
        let slices = self.marks.windows(2).zip(&self.factors);
        slices
            .map(|(w, factor)| {
                ((w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).as_secs_f64() / factor, Self::stolen(w), w[0].4)
            })
            .collect()
    }

    pub fn ops_per_s(&self) -> Option<f64> {
        quiet_median(&self.rates().iter().map(|r| (r.0, r.1)).collect::<Vec<_>>())
    }

    pub fn cpu_ms_per_op(&self) -> Option<f64> {
        quiet_median(
            &self
                .marks
                .windows(2)
                .filter(|w| w[1].1 > w[0].1)
                .map(|w| ((w[1].2 - w[0].2) * 1e3 / (w[1].1 - w[0].1) as f64, Self::stolen(w)))
                .collect::<Vec<_>>(),
        )
    }

    pub fn trace_overhead(&self) -> Option<f64> {
        trace_overhead(&self.rates())
    }

    /// The median slice's speed factor.
    pub fn speed_factor(&self) -> Option<f64> {
        median(&self.factors)
    }

    /// Process CPU seconds per wall second over the whole window.
    pub fn busy_cores(&self) -> Option<f64> {
        let (first, last) = (self.marks.first()?, self.marks.last()?);
        Some((last.2 - first.2) / (last.0 - first.0).as_secs_f64())
    }

    pub fn window_s(&self) -> f64 {
        (self.marks[self.marks.len() - 1].0 - self.marks[0].0).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_intervals_are_kept_and_disturbed_ones_dropped() {
        // two quiet intervals among five: only they count
        let values = [(10.0, 0.0), (30.0, 0.15), (12.0, 0.01), (50.0, 0.30), (40.0, 0.08)];
        assert_eq!(quiet_median(&values), Some(11.0));
        assert_eq!(quiet_flags(&[0.0, 0.15, 0.01, 0.30, 0.08]), [true, false, true, false, false]);
    }

    #[test]
    fn under_constant_disturbance_the_quietest_third_counts() {
        let values = [(10.0, 0.10), (30.0, 0.25), (12.0, 0.12), (50.0, 0.30), (40.0, 0.20), (45.0, 0.22)];
        assert_eq!(quiet_median(&values), Some(11.0));
        assert_eq!(quiet_median(&[(7.0, 0.5)]), Some(7.0));
        assert_eq!(quiet_median(&[]), None);
    }
}
