//! `backlog_drain`: a backlog of queued simulations, inserted through the
//! `web` role exactly as the portal writes them, drained by two daemons
//! that one thread ticks round-robin until every simulation is DONE.
//! There is no portal. One thread does everything, so the program's
//! counts repeat exactly for a seed.

use std::time::Instant;

use amp_core::models::Simulation;
use amp_core::roles::ROLE_WEB;
use amp_simdb::orm::Manager;
use amp_simdb::Query;

use super::{
    insert_sample_stats, insert_share_within, insert_write_amp, quiet_flags, quiet_median, reopen, trace_overhead, Cfg,
    Kept, Measured, Setups, StealMeter,
};
use crate::counters;
use crate::fleet::{round_peak_ms, Campaign, Fleet, FleetLog};
use crate::inputs::{requests, Kind};
use crate::metrics::{insert, Values};
use crate::rng::Rng;
use crate::stack::{grid_and_daemons, seed_catalog, Storage};
use crate::stats::{mean, median};
use crate::trace::{SpanBuf, NO_PARENT};
use crate::{check, probes, procstat, trace};

/// Simulations per trial: about ten times the two dozen that
/// `submit_journey` keeps live, which is where a tick's cost per live
/// simulation shows. Frozen: changing it changes every number.
pub const BACKLOG: usize = 250;
const SHARES: [(Kind, f64); 4] =
    [(Kind::CurvefitDirect, 60.0), (Kind::StellarDirect, 30.0), (Kind::CurvefitOpt, 7.5), (Kind::StellarOpt, 2.5)];
/// `slo_share` limit. A round is the daemon's poll cycle: while one runs,
/// no simulation's state moves. On the reference box a round's p98 is
/// ~85 ms and its p99 ~205 ms; only the first rounds of a drain, with the
/// whole backlog live, take longer than this (README, "slo_share").
const ROUND_LIMIT_MS: f64 = 200.0;
const MAX_ROUNDS: u64 = 5_000;

struct Trial {
    traced: bool,
    /// Share of the CPU the hypervisor stole during the drain.
    drain_stolen: f64,
    /// Wall seconds of the drain, without the speed units between rounds.
    drain_s: f64,
    cpu_s: f64,
    round_ms: Vec<f64>,
    /// Drain start to the end of each round, in ms.
    round_end_ms: Vec<f64>,
    settle_us: Vec<f64>,
    log: FleetLog,
    counted: counters::Reading,
    wal_bytes: u64,
    /// Reopening the drained database: seconds, stolen CPU share.
    recover: (f64, f64),
    recover_ms_per_mb: f64,
    opt_sims: usize,
    direct_sims: Vec<i64>,
    spans: Vec<trace::Span>,
    /// The deployment itself, reopened; kept for the last trial only,
    /// which the probes run on, so peak memory does not grow with the
    /// trial count.
    kept: Option<Kept>,
}

struct Deployed {
    storage: Storage,
    db: amp_simdb::Db,
    catalog: crate::stack::Catalog,
    fleet: Fleet,
    sims: Manager<Simulation>,
    direct_sims: Vec<i64>,
}

/// A fresh deployment with the backlog queued; also how long its
/// catalogue took (ms).
fn deploy(rng: &mut Rng, backlog_len: usize) -> Result<(Deployed, f64), String> {
    let err = |e: amp_simdb::DbError| e.to_string();
    let setup_start = Instant::now();
    let storage = Storage::fresh();
    let db = storage.open_db().map_err(err)?;
    let catalog = seed_catalog(&db, rng).map_err(err)?;
    let catalog_ms = setup_start.elapsed().as_secs_f64() * 1e3;
    let (grid, daemons) = grid_and_daemons(&db, 2).map_err(err)?;
    let fleet = Fleet::new(grid, daemons);
    let sims = Manager::<Simulation>::new(db.connect(ROLE_WEB).map_err(err)?);
    let backlog = requests(rng, &catalog, &SHARES, backlog_len);
    let mut direct_sims = Vec::new();
    for (i, request) in backlog.iter().enumerate() {
        let owner = catalog.users[i % catalog.users.len()].id;
        let id = sims.create(&mut request.as_row(owner, catalog.allocation)).map_err(err)?;
        if !request.kind.is_opt() {
            direct_sims.push(id);
        }
    }
    Ok((Deployed { storage, db, catalog, fleet, sims, direct_sims }, catalog_ms))
}

fn trial(
    rng: &mut Rng,
    trial_no: u64,
    backlog_len: usize,
    traced: bool,
    origin: Instant,
    setups: &mut Setups,
) -> Result<Trial, String> {
    let err = |e: amp_simdb::DbError| e.to_string();
    let Deployed { storage, db, catalog, mut fleet, sims, direct_sims } = setups.time(|| deploy(rng, backlog_len))?;

    let mut spans = SpanBuf::new(traced, trial_no + 1, origin);
    let done = Query::new().eq("status", "DONE");
    let held = Query::new().eq("status", "HOLD");
    let (before, wal_before, cpu_before) = (counters::read(), storage.wal_len(), procstat::cpu_seconds());
    let (mut round_ms, mut round_end_ms, mut settle_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = backlog_len;
    let (drain_start, drain_steal) = (Instant::now(), StealMeter::start());
    let drain = spans.open("drain", trial_no << 32, NO_PARENT, drain_start);
    while live > 0 {
        if fleet.log.rounds >= MAX_ROUNDS {
            return Err(format!("backlog_drain: {live} simulations unfinished after {MAX_ROUNDS} rounds"));
        }
        let round_start = Instant::now();
        let round = spans.open("round", trial_no << 32 | fleet.log.rounds, drain, round_start);
        fleet.tick_all(&mut spans, round, live);
        fleet.advance(&mut spans, round);
        let check_start = Instant::now();
        let finished = sims.count(&done).map_err(err)?;
        let on_hold = sims.count(&held).map_err(err)?;
        let check_end = Instant::now();
        spans.leaf("harness.settle_check", fleet.log.rounds, round, check_start, check_end);
        spans.close(round, check_end);
        settle_us.push((check_end - check_start).as_secs_f64() * 1e6);
        round_ms.push((check_end - round_start).as_secs_f64() * 1e3);
        round_end_ms.push(((check_end - drain_start).as_secs_f64() - fleet.log.speed.spent_s()) * 1e3);
        if on_hold > 0 {
            return Err(format!("backlog_drain: {on_hold} simulations on HOLD in round {}", fleet.log.rounds));
        }
        live = backlog_len - finished;
        fleet.pace();
    }
    let drain_end = Instant::now();
    spans.close(drain, drain_end);
    let (drain_stolen, cpu_s) = (drain_steal.share(), procstat::cpu_seconds() - cpu_before);
    let (counted, wal_bytes) = (counters::read().since(&before), storage.wal_len() - wal_before);
    // Daemons and managers go; the grid stays for its audit log.
    let Fleet { grid, log, .. } = fleet;
    drop(sims);
    check::verify_campaign(&check::campaign_facts(&db, &grid)?, backlog_len)
        .map_err(|e| format!("backlog_drain trial {trial_no}: {e}"))?;
    let reopened = reopen("backlog_drain", &storage, db, 1, &mut spans)?;
    Ok(Trial {
        traced,
        drain_stolen,
        drain_s: (drain_end - drain_start).as_secs_f64() - log.speed.spent_s(),
        cpu_s,
        round_ms,
        round_end_ms,
        settle_us,
        log,
        counted,
        wal_bytes,
        recover: reopened.timings[0],
        recover_ms_per_mb: reopened.timings[0].0 * 1e3 / reopened.files_mb,
        opt_sims: backlog_len - direct_sims.len(),
        direct_sims,
        spans: spans.into_spans(),
        kept: Some(Kept { storage, db: reopened.db, catalog, grid }),
    })
}

pub fn run(cfg: &Cfg) -> Result<Measured, String> {
    let origin = Instant::now();
    let rng = Rng::new(cfg.seed);
    let backlog = cfg.sized(BACKLOG);
    let mut trials: Vec<Trial> = Vec::new();
    let mut setups = Setups::default();
    let mut timed = 0.0;
    while timed < cfg.seconds {
        let n = trials.len() as u64;
        // In a traced run every other trial records spans.
        let t = trial(&mut rng.fork(n), n, backlog, cfg.traced && n % 2 == 1, origin, &mut setups)?;
        timed += t.drain_s;
        if let Some(previous) = trials.last_mut() {
            previous.kept = None;
        }
        trials.push(t);
    }

    // Medians over the trials the hypervisor left alone; every time at
    // reference speed, by the units its trial ran between rounds.
    let per_trial =
        |f: &dyn Fn(&Trial) -> f64| quiet_median(&trials.iter().map(|t| (f(t), t.drain_stolen)).collect::<Vec<_>>());
    let rate = |t: &Trial| backlog as f64 / (t.drain_s * t.log.speed.factor());
    let mut values = Values::new();
    setups.insert_into(&mut values);
    insert(&mut values, "ops_per_s", per_trial(&rate));
    // A queued direct simulation, from the start of the drain until the
    // settle check of the round that finished it.
    insert(
        &mut values,
        "op_p50_ms",
        per_trial(&|t| {
            let waits: Vec<f64> =
                t.direct_sims.iter().map(|id| t.round_end_ms[t.log.done_round[id] as usize]).collect();
            median(&waits).expect("direct simulations") * t.log.speed.factor()
        }),
    );
    insert(&mut values, "harness.read_p50_ms", per_trial(&|t| median(&t.settle_us).expect("rounds") / 1e3));
    insert(&mut values, "harness.cpu_ms_per_op", per_trial(&|t| t.cpu_s * 1e3 / backlog as f64));
    let quiet = quiet_flags(&trials.iter().map(|t| t.drain_stolen).collect::<Vec<_>>());
    insert(&mut values, "harness.quiet_share", Some(quiet.iter().filter(|q| **q).count() as f64 / trials.len() as f64));
    insert(
        &mut values,
        "harness.speed_factor",
        median(&trials.iter().map(|t| t.log.speed.factor()).collect::<Vec<_>>()),
    );
    let rounds_of = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        let kept = trials.iter().enumerate().filter(|(i, _)| keep(*i));
        kept.flat_map(|(_, t)| t.round_ms.iter().map(|ms| ms * t.log.speed.factor())).collect()
    };
    let (rounds, every_round) = (rounds_of(&|i| quiet[i]), rounds_of(&|_| true));
    insert_share_within(&mut values, "slo_share", &[(&rounds, ROUND_LIMIT_MS)]);
    insert_share_within(&mut values, "harness.slo_share_all", &[(&every_round, ROUND_LIMIT_MS)]);
    insert(
        &mut values,
        "round_peak_ms",
        per_trial(&|t| round_peak_ms(&t.round_ms).expect("rounds") * t.log.speed.factor()),
    );
    insert(&mut values, "recover_s", quiet_median(&trials.iter().map(|t| t.recover).collect::<Vec<_>>()));
    // Counts per simulation, over every trial: stolen CPU does not change
    // a count, and a trial's counts repeat exactly for the same inputs.
    let sims = (backlog * trials.len()) as f64;
    let fsyncs = trials.iter().map(|t| t.counted.counter("simdb_wal_fsync_total")).sum::<u64>();
    insert(&mut values, "fsyncs_per_op", Some(fsyncs as f64 / sims));
    insert(&mut values, "wal_bytes_per_op", Some(trials.iter().map(|t| t.wal_bytes).sum::<u64>() as f64 / sims));

    let sum = |f: &dyn Fn(&Trial) -> f64| trials.iter().map(f).sum::<f64>();
    let drain_s = sum(&|t| t.drain_s);
    let ticks: Vec<f64> = trials.iter().flat_map(|t| t.log.tick_ms.iter().copied()).collect();
    let tick_s = ticks.iter().sum::<f64>() / 1e3;
    let advance_us: Vec<f64> = trials.iter().flat_map(|t| t.log.advance_us.iter().copied()).collect();
    let advance_s = advance_us.iter().sum::<f64>() / 1e6;
    let settle_s = sum(&|t| t.settle_us.iter().sum::<f64>()) / 1e6;
    Campaign {
        logs: trials.iter().map(|t| &t.log).collect(),
        counted: trials.iter().map(|t| &t.counted).collect(),
        wal_bytes: sum(&|t| t.wal_bytes as f64),
        opt_sims: sum(&|t| t.opt_sims as f64),
    }
    .insert_into(&mut values);
    insert(&mut values, "gridamp.tick_busy_share", Some(tick_s / drain_s));
    // The first five rounds of each trial: the whole backlog is live.
    let (head_ms, head_live) = trials
        .iter()
        .flat_map(|t| t.log.round_load.iter().take(5))
        .fold((0.0, 0usize), |acc, r| (acc.0 + r.0, acc.1 + r.1));
    insert(&mut values, "gridamp.tick_us_per_live_sim", Some(head_ms * 1e3 / head_live as f64));
    insert(
        &mut values,
        "gridamp.rounds_per_direct_sim",
        mean(&trials.iter().flat_map(|t| t.log.rounds_to_done(&t.direct_sims)).collect::<Vec<_>>()),
    );
    insert(&mut values, "grid.advance_share", Some(advance_s / drain_s));
    let last = trials.last().expect("at least one trial");
    let kept = last.kept.as_ref().expect("the last trial keeps its deployment");
    let facts = check::campaign_facts(&kept.db, &kept.grid)?;
    insert(&mut values, "grid.gram_submits_per_sim", Some(facts.audit_submits as f64 / backlog as f64));
    insert(&mut values, "grid.jobs_per_sim", Some(facts.submitted_jobs.len() as f64 / backlog as f64));
    insert(&mut values, "harness.settle_check_share", Some(settle_s / drain_s));
    insert(&mut values, "harness.reconcile_error", Some((tick_s + advance_s + settle_s - drain_s).abs() / drain_s));
    let rates: Vec<(f64, f64, bool)> = trials.iter().map(|t| (rate(t), t.drain_stolen, t.traced)).collect();
    insert(&mut values, "harness.trace_overhead_share", trace_overhead(&rates));
    insert_sample_stats(&mut values, kept.storage.tmpfs, trials.len(), &rounds, &[]);
    insert(&mut values, "harness.cpu_busy_cores", Some(sum(&|t| t.cpu_s) / drain_s));
    insert(&mut values, "simdb.recover_ms_per_mb", per_trial(&|t| t.recover_ms_per_mb));

    let mut spans = Vec::new();
    if cfg.traced {
        let mut probe_spans = SpanBuf::new(true, 63, origin);
        probes::run(&mut values, &mut probe_spans, &kept.db, &kept.storage, &kept.catalog)?;
        insert_write_amp(&mut values, last.wal_bytes as f64);
        for t in &mut trials {
            spans.append(&mut t.spans);
        }
        spans.extend(probe_spans.into_spans());
    }
    Ok(Measured { attempted: sims as u64, timed_s: drain_s, values, spans })
}
