//! The daemon side of a deployment: the simulated grid plus the daemons,
//! driven round-robin by one thread. A round is every daemon's `tick`,
//! then one poll interval of simulated time on the grid; the caller adds
//! its own settle check between the two.

use std::collections::BTreeMap;
use std::time::Instant;

use amp_core::SimStatus;
use amp_grid::{Grid, SimDuration};
use amp_gridamp::GridAmp;

use crate::counters::Reading;
use crate::metrics::{insert, Values};
use crate::speed::Speed;
use crate::stack::ROUND_SECS;
use crate::stats::{mean, median, quantile, sorted};
use crate::trace::SpanBuf;

const TICK_SPAN: [&str; 2] = ["gridamp.tick[0]", "gridamp.tick[1]"];

pub struct Fleet {
    pub grid: Grid,
    pub daemons: Vec<GridAmp>,
    pub log: FleetLog,
}

/// What the rounds did, from the harness's own clock and the tick reports.
#[derive(Default)]
pub struct FleetLog {
    pub rounds: u64,
    /// Per tick, over all daemons.
    pub tick_ms: Vec<f64>,
    pub advance_us: Vec<f64>,
    /// Summed tick time and unfinished simulations at its start, per round.
    pub round_load: Vec<(f64, usize)>,
    pub transitions: u64,
    /// Rounds in which each simulation first moved and reached DONE.
    pub first_round: BTreeMap<i64, u64>,
    pub done_round: BTreeMap<i64, u64>,
    pub transient_retries: u64,
    pub holds: u64,
    pub daemon_errors: Vec<String>,
    /// The units the driving thread ran between rounds.
    pub speed: Speed,
}

impl FleetLog {
    /// Milliseconds each round took: its ticks plus the grid's advance.
    pub fn round_ms(&self) -> Vec<f64> {
        self.round_load.iter().zip(&self.advance_us).map(|(load, us)| load.0 + us / 1e3).collect()
    }

    /// Rounds each of `sims` took from its first transition to DONE.
    pub fn rounds_to_done(&self, sims: &[i64]) -> Vec<f64> {
        sims.iter().filter_map(|id| Some((self.done_round.get(id)? - self.first_round.get(id)? + 1) as f64)).collect()
    }
}

/// `round_peak_ms`: the mean of the five longest of `round_ms`. While a
/// round runs no simulation's state moves, so in production the longest
/// ones have to stay under the daemon's poll interval.
pub fn round_peak_ms(round_ms: &[f64]) -> Option<f64> {
    let s = sorted(round_ms.to_vec());
    mean(&s[s.len().saturating_sub(5)..])
}

impl Fleet {
    pub fn new(grid: Grid, daemons: Vec<GridAmp>) -> Fleet {
        assert!(daemons.len() <= TICK_SPAN.len());
        Fleet { grid, daemons, log: FleetLog::default() }
    }

    /// Tick every daemon once. `live` is how many simulations were
    /// unfinished when the round began (for cost per live simulation).
    pub fn tick_all(&mut self, spans: &mut SpanBuf, parent: u64, live: usize) {
        let round = self.log.rounds;
        let mut ticks_ms = 0.0;
        for (i, daemon) in self.daemons.iter_mut().enumerate() {
            let start = Instant::now();
            let report = daemon.tick(&self.grid);
            let end = Instant::now();
            spans.leaf(TICK_SPAN[i], round, parent, start, end);
            let ms = (end - start).as_secs_f64() * 1e3;
            ticks_ms += ms;
            self.log.tick_ms.push(ms);
            self.log.transitions += report.transitions.len() as u64;
            for (sim, _, to) in &report.transitions {
                self.log.first_round.entry(*sim).or_insert(round);
                if *to == SimStatus::Done {
                    self.log.done_round.insert(*sim, round);
                }
            }
            self.log.transient_retries += report.transient_errors as u64;
            self.log.holds += report.new_holds as u64;
            self.log.daemon_errors.extend(report.daemon_errors);
        }
        self.log.round_load.push((ticks_ms, live));
    }

    /// Let one poll interval of simulated time pass on the grid.
    pub fn advance(&mut self, spans: &mut SpanBuf, parent: u64) {
        let start = Instant::now();
        self.grid.advance(SimDuration(ROUND_SECS));
        let end = Instant::now();
        spans.leaf("grid.advance", self.log.rounds, parent, start, end);
        self.log.advance_us.push((end - start).as_secs_f64() * 1e6);
        self.log.rounds += 1;
    }

    /// Between two rounds: one speed unit on the thread that drives them.
    pub fn pace(&mut self) {
        self.log.speed.sample(1);
    }
}

/// What one or more campaigns (a drained backlog, a trial of journeys)
/// cost in the daemon, grid, GA and store layers: the fleets' logs, the
/// program's counters over the same stretch, the WAL bytes written, and
/// how many optimizations were among the simulations submitted.
pub struct Campaign<'a> {
    pub logs: Vec<&'a FleetLog>,
    pub counted: Vec<&'a Reading>,
    pub wal_bytes: f64,
    pub opt_sims: f64,
}

impl Campaign<'_> {
    pub fn insert_into(&self, values: &mut Values) {
        let counted = |f: &dyn Fn(&Reading) -> u64| self.counted.iter().map(|c| f(c) as f64).sum::<f64>();
        let logged = |f: &dyn Fn(&FleetLog) -> f64| self.logs.iter().map(|l| f(l)).sum::<f64>();
        let ticks: Vec<f64> = self.logs.iter().flat_map(|l| l.tick_ms.iter().copied()).collect();
        let advance_us: Vec<f64> = self.logs.iter().flat_map(|l| l.advance_us.iter().copied()).collect();
        let fsyncs = counted(&|c| c.counter("simdb_wal_fsync_total"));
        let (evals, skips) =
            (counted(&|c| c.family("ga_evals_total")), counted(&|c| c.family("ga_cached_skips_total")));
        let last = self.counted.last().expect("at least one campaign");
        insert(values, "gridamp.tick_p50_ms", median(&ticks));
        insert(values, "gridamp.tick_p99_ms", quantile(&ticks, 0.99));
        insert(values, "gridamp.commits_per_tick", Some(fsyncs / ticks.len() as f64));
        insert(values, "gridamp.lease_ops", Some(counted(&|c| c.prefix_sum("daemon_lease_"))));
        insert(values, "gridamp.transitions", Some(logged(&|l| l.transitions as f64)));
        insert(values, "gridamp.transient_retries", Some(logged(&|l| l.transient_retries as f64)));
        insert(values, "gridamp.holds", Some(logged(&|l| l.holds as f64)));
        insert(values, "gridamp.daemon_errors", Some(logged(&|l| l.daemon_errors.len() as f64)));
        insert(values, "grid.advance_us_p50", median(&advance_us));
        insert(values, "ga.evals_per_opt_sim", Some(evals / self.opt_sims));
        insert(values, "ga.cached_skip_ratio", Some(skips / (evals + skips)));
        insert(values, "simdb.fsyncs", Some(fsyncs));
        insert(values, "simdb.wal_bytes", Some(self.wal_bytes));
        insert(values, "simdb.rows_copied_per_write_mean", last.mean("simdb_rows_copied_per_write"));
        insert(values, "simdb.group_commit_writers_mean", last.mean("simdb_group_commit_writers"));
        insert(values, "simdb.scan_plan_share", last.scan_plan_share());
    }
}
