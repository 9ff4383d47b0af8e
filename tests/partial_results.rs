//! The daemon interprets a partial result once per change of the job chain.
//!
//! A GA run's `restart.json` / `final.json` are written only when one of its
//! jobs ends, so the daemon remembers what it read under the chain it read
//! it under (`amp_gridamp::optimize::PartialResults`) and goes back to
//! GridFTP only when a Work job was added, removed or turned terminal — or
//! when it remembers nothing: a new process, a takeover, a resume from HOLD.
//! Asserted here from outside: by the grid's audit log, by an outage the
//! daemon has no reason to notice, and by runs interrupted mid-chain that
//! must end where the uninterrupted one does.

mod common;

use amp::gridamp::{deploy_cluster, seed_fixtures, small_spec};
use amp::prelude::*;
use common::{assert_no_duplicate_submissions, deployment, truth};

/// Queue one two-run optimization (three jobs a run at a 6 h walltime).
fn queue_ensemble(db: &Db) -> i64 {
    let (user, star, alloc, obs) = seed_fixtures(db, "kraken", &truth(), 1).unwrap();
    let web = db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_optimization(star, user, small_spec(5), obs, "kraken", alloc, 0);
    Manager::<Simulation>::new(web).create(&mut sim).unwrap()
}

fn sim_row(db: &Db, sim_id: i64) -> Simulation {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    Manager::<Simulation>::new(admin).get(sim_id).unwrap()
}

fn work_jobs(db: &Db, sim_id: i64) -> Vec<GridJobRecord> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    Manager::<GridJobRecord>::new(admin)
        .filter(
            &Query::new()
                .eq("simulation_id", sim_id)
                .eq("purpose", "WORK"),
        )
        .unwrap()
}

/// What a run leaves behind that an interruption must not change: the
/// stored result, and every distinct `progress` value in the order saved.
#[derive(Debug, PartialEq)]
struct Trail {
    result_json: Option<String>,
    progress: Vec<u64>,
}

/// Round by round, tick the daemons `before_round` names (it may replace
/// them first) until the simulation is DONE, recording its progress after
/// every round.
fn drive(
    db: &Db,
    grid: &amp::grid::Grid,
    daemons: &mut [GridAmp],
    sim_id: i64,
    mut before_round: impl FnMut(usize, &mut [GridAmp]) -> Vec<usize>,
) -> Trail {
    let mut progress: Vec<u64> = Vec::new();
    for round in 0..10_000 {
        for i in before_round(round, daemons) {
            let report = daemons[i].tick(grid);
            assert_eq!(report.daemon_errors, Vec::<String>::new());
        }
        let sim = sim_row(db, sim_id);
        if progress.last() != Some(&sim.progress.to_bits()) {
            progress.push(sim.progress.to_bits());
        }
        match sim.status {
            SimStatus::Done => {
                assert_no_duplicate_submissions(db, grid);
                return Trail {
                    result_json: sim.result_json,
                    progress,
                };
            }
            SimStatus::Hold => panic!("held: {}", sim.status_message),
            _ => grid.advance(SimDuration::from_secs(300)),
        }
    }
    panic!("simulation {sim_id} did not finish");
}

fn cluster(n: usize) -> amp::gridamp::ClusterDeployment {
    let config = DaemonConfig {
        work_walltime_hours: 6.0,
        ..DaemonConfig::default()
    };
    deploy_cluster(amp::grid::systems::kraken(), config, n).unwrap()
}

/// The uninterrupted run every interrupted one is compared with.
fn reference_trail() -> Trail {
    let mut c = cluster(1);
    let sim_id = queue_ensemble(&c.db);
    let trail = drive(&c.db, &c.grid, &mut c.daemons, sim_id, |_, _| vec![0]);
    assert!(trail.result_json.is_some());
    assert!(trail.progress.len() > 4, "progress was saved along the way");
    trail
}

/// True once the ensemble is mid-chain: a continuation has been submitted
/// and is still queued or running.
fn mid_chain(db: &Db, sim_id: i64) -> bool {
    work_jobs(db, sim_id)
        .iter()
        .any(|j| j.continuation > 0 && !j.status.is_terminal())
}

/// GridFTP `get`s of one simulation's files, from the grid's audit log.
fn gets_of(grid: &amp::grid::Grid, sim_id: i64) -> usize {
    let prefix = format!("amp/sim{sim_id}/");
    let audit = grid.audit();
    audit
        .records()
        .iter()
        .filter(|r| r.action == "get" && r.detail.starts_with(&prefix))
        .count()
}

/// (a) What a drain fetches is bounded by what happened to the job chain,
/// not by how many rounds the daemon looked on: polling five times as often
/// fetches no more.
#[test]
fn gets_are_bounded_by_chain_events_not_by_rounds() {
    for poll_interval_secs in [300, 60] {
        let mut dep = amp::gridamp::deploy(
            amp::grid::systems::kraken(),
            DaemonConfig {
                work_walltime_hours: 6.0,
                poll_interval_secs,
                ..DaemonConfig::default()
            },
            None,
        )
        .unwrap();
        let sim_id = queue_ensemble(&dep.db);
        let rounds = dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
        assert_eq!(sim_row(&dep.db, sim_id).status, SimStatus::Done);

        let work = work_jobs(&dep.db, sim_id);
        let runs = small_spec(5).ga_runs as usize;
        let continuations = work.iter().filter(|j| j.continuation > 0).count();
        assert!(continuations >= runs, "each run needed a continuation");
        // A look fetches at most final.json + restart.json per run. The
        // daemon looks once when the work starts, once per tick in which a
        // Work job turned terminal (at most one each), and once more after
        // a look that submitted a continuation, which is not remembered.
        // Then every run's final.json for the solution evaluation, and the
        // results tar.
        let looks = 1 + work.len() + continuations;
        let bound = 2 * runs * looks + runs + 1;
        let gets = gets_of(&dep.grid, sim_id);
        assert!(
            gets <= bound,
            "{gets} gets for {} work jobs, bound {bound}",
            work.len()
        );
        // Before the daemon remembered, every RUNNING round fetched at
        // least one file per run.
        assert!(
            rounds > 2 * bound,
            "{rounds} rounds make the bound mean something"
        );
    }
}

/// (b) A run waiting on its jobs has no reason to touch GridFTP, so an
/// outage of GridFTP alone, over rounds in which its chain does not change,
/// passes unnoticed: no transient, no administrator notification.
#[test]
fn a_waiting_run_does_not_notice_a_gridftp_outage() {
    let mut dep = deployment(6.0);
    let sim_id = queue_ensemble(&dep.db);
    // Up to the first look at the running work (which is remembered)...
    while sim_row(&dep.db, sim_id).status != SimStatus::Running {
        dep.daemon.tick(&dep.grid);
        dep.grid.advance(SimDuration::from_secs(300));
    }
    dep.daemon.tick(&dep.grid);
    dep.grid.advance(SimDuration::from_secs(300));
    // ...then two hours without GridFTP, well inside the first jobs' six.
    let from = dep.grid.now();
    let to = from + SimDuration::from_hours(2.0);
    dep.grid
        .faults
        .add_outage("kraken", Service::GridFtp, from, to);
    let terminal = |db: &Db| {
        work_jobs(db, sim_id)
            .iter()
            .filter(|j| j.status.is_terminal())
            .count()
    };
    let mut rounds = 0;
    while dep.grid.now() < to {
        let report = dep.daemon.tick(&dep.grid);
        assert_eq!(report.transient_errors, 0, "at t={:?}", dep.grid.now());
        assert_eq!(terminal(&dep.db), 0, "the chain was to stay as it is");
        rounds += 1;
        dep.grid.advance(SimDuration::from_secs(300));
    }
    assert_eq!(rounds, 24);

    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let done = sim_row(&dep.db, sim_id);
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
    assert_eq!(
        to_admins(&dep.db, sim_id),
        0,
        "nobody was told about an outage nobody met"
    );
}

/// Notifications about `sim_id` addressed to the administrators.
fn to_admins(db: &Db, sim_id: i64) -> usize {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    Manager::<Notification>::new(admin)
        .filter(&Query::new().eq("simulation_id", sim_id))
        .unwrap()
        .into_iter()
        .filter(|n| n.user_id.is_none())
        .count()
}

/// Tick one daemon round by round, 300 simulated seconds apart, until the
/// simulation is DONE; `after` sees each round's number and report.
fn run_to_done(
    dep: &mut amp::gridamp::Deployment,
    sim_id: i64,
    mut after: impl FnMut(usize, &amp::gridamp::TickReport, &Db),
) -> Simulation {
    for round in 0..10_000 {
        let report = dep.daemon.tick(&dep.grid);
        assert_eq!(report.daemon_errors, Vec::<String>::new());
        after(round, &report, &dep.db);
        let sim = sim_row(&dep.db, sim_id);
        match sim.status {
            SimStatus::Done => return sim,
            SimStatus::Hold => panic!("held: {}", sim.status_message),
            _ => dep.grid.advance(SimDuration::from_secs(300)),
        }
    }
    panic!("simulation {sim_id} did not finish");
}

/// (b) The other side: an outage over a chain change — the first Work
/// jobs ending, when the daemon must read the runs' files — is met and
/// retried as before: a transient every round until GridFTP is back, one
/// administrator notification, and then the run goes on to the result of
/// the fault-free run. The outage opens six rounds before the change,
/// while the run waits, and those rounds notice nothing.
#[test]
fn an_outage_over_a_chain_change_is_met_and_retried() {
    const AROUND: usize = 6;
    // Fault-free: the round in which the daemon first sees a Work job end.
    let mut dep = deployment(6.0);
    let sim_id = queue_ensemble(&dep.db);
    let mut change = None;
    let fault_free = run_to_done(&mut dep, sim_id, |round, _, db| {
        let ended = work_jobs(db, sim_id).iter().any(|j| j.status.is_terminal());
        if ended && change.is_none() {
            change = Some(round);
        }
    });
    let change = change.expect("a Work job ended");
    assert!(change > AROUND, "the work ran before the outage opens");

    // The same run, GridFTP out from `AROUND` rounds before the change
    // until `AROUND` rounds after it.
    let mut dep = deployment(6.0);
    let sim_id = queue_ensemble(&dep.db);
    let round_at = |round: usize| dep.grid.now() + SimDuration::from_secs(300 * round as u64);
    let (from, to) = (round_at(change - AROUND), round_at(change + AROUND));
    dep.grid
        .faults
        .add_outage("kraken", Service::GridFtp, from, to);
    let (mut transients, mut told_before_change) = (Vec::new(), None);
    let faulted = run_to_done(&mut dep, sim_id, |round, report, db| {
        transients.push(report.transient_errors);
        if round + 1 == change {
            told_before_change = Some(to_admins(db, sim_id));
        }
    });
    assert_eq!(
        transients[change - AROUND..change],
        [0; AROUND],
        "the waiting run noticed the outage"
    );
    assert_eq!(told_before_change, Some(0));
    assert!(
        transients[change..change + AROUND].iter().all(|&t| t > 0),
        "every round from the change to the end of the outage meets it: {transients:?}"
    );
    assert!(transients[change + AROUND..].iter().all(|&t| t == 0));
    assert_eq!(
        to_admins(&dep.db, sim_id),
        1,
        "one notification for the streak"
    );
    assert_no_duplicate_submissions(&dep.db, &dep.grid);
    assert!(fault_free.result_json.is_some());
    assert_eq!(faulted.result_json, fault_free.result_json);
}

/// (c) A daemon replaced mid-chain by a new process remembers nothing,
/// fetches, and ends where the uninterrupted run does.
#[test]
fn a_daemon_recreated_mid_chain_ends_like_the_uninterrupted_run() {
    let mut c = cluster(1);
    let sim_id = queue_ensemble(&c.db);
    let db = c.db.clone();
    let mut restarts = 0;
    let trail = drive(&c.db, &c.grid, &mut c.daemons, sim_id, |round, daemons| {
        // Every 20th round from the first continuation on: same identity,
        // so its lease is still its own, but an empty memory.
        if round % 20 == 0 && mid_chain(&db, sim_id) {
            daemons[0] = GridAmp::new(&db, daemons[0].config.clone()).unwrap();
            restarts += 1;
        }
        vec![0]
    });
    assert!(restarts >= 2, "{restarts} restarts fell inside the chain");
    assert_eq!(trail, reference_trail());
}

/// (c) A takeover mid-chain, and the lease coming back later: the peer
/// starts from nothing, the first owner drops what it knew with the lease,
/// and the stored result and progress values are the uninterrupted run's.
#[test]
fn a_takeover_mid_chain_ends_like_the_uninterrupted_run() {
    let mut c = cluster(2);
    let sim_id = queue_ensemble(&c.db);
    let db = c.db.clone();
    // Daemon 0 owns the simulation until it stalls mid-chain; daemon 1 takes
    // over when the lease runs out and drives it for 40 rounds, then dies,
    // and daemon 0, back since, takes it over in turn.
    let mut stalled_at = None;
    let mut holders: Vec<String> = Vec::new();
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let trail = drive(&c.db, &c.grid, &mut c.daemons, sim_id, |round, _| {
        if let Some(lease) = amp::gridamp::lease::current(&admin, sim_id).unwrap() {
            if holders.last() != Some(&lease.daemon_id) {
                holders.push(lease.daemon_id);
            }
        }
        if stalled_at.is_none() && mid_chain(&db, sim_id) {
            stalled_at = Some(round);
        }
        match stalled_at {
            None => vec![0],
            Some(at) if round < at + 12 => vec![1],
            Some(at) if round < at + 40 => vec![0, 1],
            Some(_) => vec![0],
        }
    });
    assert_eq!(holders, ["gridamp-0", "gridamp-1", "gridamp-0"]);
    assert_eq!(trail, reference_trail());
}

/// (f) With `job_chaining` the whole chain is submitted up front, so jobs
/// turn terminal without the daemon submitting anything in between; it
/// converges on the result sequential submission reaches.
#[test]
fn an_upfront_chain_converges_on_the_same_result() {
    let result_with = |job_chaining| {
        let mut dep = amp::gridamp::deploy(
            amp::grid::systems::kraken(),
            DaemonConfig {
                work_walltime_hours: 6.0,
                job_chaining,
                ..DaemonConfig::default()
            },
            None,
        )
        .unwrap();
        let sim_id = queue_ensemble(&dep.db);
        dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
        let sim = sim_row(&dep.db, sim_id);
        assert_eq!(sim.status, SimStatus::Done, "{}", sim.status_message);
        assert_no_duplicate_submissions(&dep.db, &dep.grid);
        sim.result_json.expect("a finished run has a result")
    };
    assert_eq!(result_with(true), result_with(false));
}
