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

use amp::gridamp::{seed_fixtures, small_spec};
use amp::prelude::*;
use common::{
    assert_no_duplicate_submissions, done, jobs_of, queue, sim as sim_row, truth, walltime, Fault,
    Schedule, Seen, World,
};

/// `n` daemons on `config` and one queued two-run optimization (three jobs
/// a run at a 6 h walltime).
fn ensemble(config: DaemonConfig, n: usize) -> (World, i64) {
    let world = World::kraken(n, config);
    let (user, star, alloc, obs) = seed_fixtures(&world.db, "kraken", &truth(), 1).unwrap();
    let opt = Simulation::new_optimization(star, user, small_spec(5), obs, "kraken", alloc, 0);
    let sim_id = queue(&world.db, opt);
    (world, sim_id)
}

/// What a run leaves behind that an interruption must not change: the
/// stored result, and every distinct `progress` value in the order saved.
#[derive(Debug, PartialEq)]
struct Trail {
    result_json: Option<String>,
    progress: Vec<u64>,
}

/// Run the world until the simulation is DONE, recording its progress
/// after every round; `begin` may apply faults as each round begins.
fn trail(world: &mut World, sim_id: i64, mut begin: impl FnMut(&mut World, u64)) -> Trail {
    let mut progress: Vec<u64> = Vec::new();
    world.run(&Schedule::none(), |w, seen| match seen {
        Seen::Begin(round) => begin(w, round),
        Seen::Ticked(..) => {}
        Seen::End(_) => {
            let bits = sim_row(&w.db, sim_id).progress.to_bits();
            if progress.last() != Some(&bits) {
                progress.push(bits);
            }
        }
    });
    let sim = done(&world.db, sim_id);
    assert_no_duplicate_submissions(&world.db, &world.grid);
    Trail {
        result_json: sim.result_json,
        progress,
    }
}

/// The uninterrupted run every interrupted one is compared with.
fn reference_trail() -> Trail {
    let (mut world, sim_id) = ensemble(walltime(6.0), 1);
    let trail = trail(&mut world, sim_id, |_, _| {});
    assert!(trail.result_json.is_some());
    assert!(trail.progress.len() > 4, "progress was saved along the way");
    trail
}

/// True once the ensemble is mid-chain: a continuation has been submitted
/// and is still queued or running.
fn mid_chain(db: &Db, sim_id: i64) -> bool {
    jobs_of(db, sim_id, "WORK")
        .iter()
        .any(|j| j.continuation > 0 && !j.status.is_terminal())
}

/// GridFTP `get`s of one simulation's files, from the grid's audit log.
fn gets_of(grid: &amp::grid::Grid, sim_id: i64) -> usize {
    let prefix = format!("amp/sim{sim_id}/");
    let audit = grid.audit();
    let gets = audit.records().iter().filter(|r| r.action == "get");
    gets.filter(|r| r.detail.starts_with(&prefix)).count()
}

/// (a) What a drain fetches is bounded by what happened to the job chain,
/// not by how many rounds the daemon looked on: polling five times as often
/// fetches no more.
#[test]
fn gets_are_bounded_by_chain_events_not_by_rounds() {
    for poll_interval_secs in [300, 60] {
        let config = DaemonConfig {
            poll_interval_secs,
            ..walltime(6.0)
        };
        let (mut world, sim_id) = ensemble(config, 1);
        let rounds = world.run(&Schedule::none(), |_, _| {}).unwrap() as usize;
        assert_eq!(sim_row(&world.db, sim_id).status, SimStatus::Done);

        let work = jobs_of(&world.db, sim_id, "WORK");
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
        let gets = gets_of(&world.grid, sim_id);
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
    let (mut world, sim_id) = ensemble(walltime(6.0), 1);
    let (daemon, grid) = (&mut world.daemons[0], &world.grid);
    // Up to the first look at the running work (which is remembered)...
    while sim_row(&world.db, sim_id).status != SimStatus::Running {
        daemon.tick(grid);
        grid.advance(SimDuration::from_secs(300));
    }
    daemon.tick(grid);
    grid.advance(SimDuration::from_secs(300));
    // ...then two hours without GridFTP, well inside the first jobs' six.
    let (from, to) = (grid.now(), grid.now() + SimDuration::from_hours(2.0));
    let terminal = |db: &Db| {
        jobs_of(db, sim_id, "WORK")
            .iter()
            .filter(|j| j.status.is_terminal())
            .count()
    };
    world.apply(Fault::Outage("kraken", Service::GridFtp, from, to));
    let mut rounds = 0;
    while world.grid.now() < to {
        let report = world.daemons[0].tick(&world.grid);
        assert_eq!(report.transient_errors, 0, "at t={:?}", world.grid.now());
        assert_eq!(terminal(&world.db), 0, "the chain was to stay as it is");
        rounds += 1;
        world.grid.advance(SimDuration::from_secs(300));
    }
    assert_eq!(rounds, 24);

    world.run(&Schedule::none(), |_, _| {});
    done(&world.db, sim_id);
    assert_eq!(
        to_admins(&world.db, sim_id),
        0,
        "nobody was told about an outage nobody met"
    );
}

/// Notifications about `sim_id` addressed to the administrators.
fn to_admins(db: &Db, sim_id: i64) -> usize {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let about = Query::new().eq("simulation_id", sim_id);
    let notes = Manager::<Notification>::new(admin).filter(&about).unwrap();
    notes.iter().filter(|n| n.user_id.is_none()).count()
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
    let (mut world, sim_id) = ensemble(walltime(6.0), 1);
    let mut change = None;
    world.run(&Schedule::none(), |w, seen| {
        if let Seen::End(round) = seen {
            let ended = jobs_of(&w.db, sim_id, "WORK")
                .iter()
                .any(|j| j.status.is_terminal());
            change = change.or(ended.then_some(round as usize));
        }
    });
    let fault_free = sim_row(&world.db, sim_id);
    let change = change.expect("a Work job ended");
    assert!(change > AROUND, "the work ran before the outage opens");

    // The same run, GridFTP out from `AROUND` rounds before the change
    // until `AROUND` rounds after it.
    let (mut world, sim_id) = ensemble(walltime(6.0), 1);
    let round_at = |round: usize| SimTime(300 * round as u64);
    let (from, to) = (round_at(change - AROUND), round_at(change + AROUND));
    let outage = Fault::Outage("kraken", Service::GridFtp, from, to);
    let (mut transients, mut told_before_change) = (Vec::new(), None);
    world.run(&Schedule::none().at(0, outage), |w, seen| {
        if let Seen::Ticked(_, report) = seen {
            transients.push(report.transient_errors);
            if transients.len() == change {
                told_before_change = Some(to_admins(&w.db, sim_id));
            }
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
        to_admins(&world.db, sim_id),
        1,
        "one notification for the streak"
    );
    assert_no_duplicate_submissions(&world.db, &world.grid);
    let faulted = done(&world.db, sim_id);
    assert!(fault_free.result_json.is_some());
    assert_eq!(faulted.result_json, fault_free.result_json);
}

/// (c) A daemon replaced mid-chain by a new process remembers nothing,
/// fetches, and ends where the uninterrupted run does.
#[test]
fn a_daemon_recreated_mid_chain_ends_like_the_uninterrupted_run() {
    let (mut world, sim_id) = ensemble(walltime(6.0), 1);
    let mut restarts = 0;
    let trail = trail(&mut world, sim_id, |w, round| {
        // Every 20th round from the first continuation on: same identity,
        // so its lease is still its own, but an empty memory.
        if round % 20 == 0 && mid_chain(&w.db, sim_id) {
            w.apply(Fault::Restart(0));
            restarts += 1;
        }
    });
    assert!(restarts >= 2, "{restarts} restarts fell inside the chain");
    assert_eq!(trail, reference_trail());
}

/// (c) A takeover mid-chain, and the lease coming back later: the peer
/// starts from nothing, the first owner drops what it knew with the lease,
/// and the stored result and progress values are the uninterrupted run's.
#[test]
fn a_takeover_mid_chain_ends_like_the_uninterrupted_run() {
    let (mut world, sim_id) = ensemble(walltime(6.0), 2);
    // Daemon 0 owns the simulation until it stalls mid-chain; daemon 1 takes
    // over when the lease runs out and drives it for 40 rounds, then dies,
    // and daemon 0, back since, takes it over in turn.
    let mut stalled_at = None;
    let mut holders: Vec<String> = Vec::new();
    let admin = world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let trail = trail(&mut world, sim_id, |w, round| {
        if let Some(lease) = amp::gridamp::lease::current(&admin, sim_id).unwrap() {
            if holders.last() != Some(&lease.daemon_id) {
                holders.push(lease.daemon_id);
            }
        }
        if round == 0 {
            w.apply(Fault::Pause(1, u64::MAX));
        }
        if stalled_at.is_none() && mid_chain(&w.db, sim_id) {
            stalled_at = Some(round);
            w.apply(Fault::Pause(0, 12));
            w.apply(Fault::Pause(1, 0)); // wakes
        }
        if stalled_at.is_some_and(|at| round == at + 40) {
            w.apply(Fault::Kill(1, u64::MAX));
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
        let config = DaemonConfig {
            job_chaining,
            ..walltime(6.0)
        };
        let (mut world, sim_id) = ensemble(config, 1);
        world.run(&Schedule::none(), |_, _| {});
        let sim = sim_row(&world.db, sim_id);
        assert_eq!(sim.status, SimStatus::Done, "{}", sim.status_message);
        assert_no_duplicate_submissions(&world.db, &world.grid);
        sim.result_json.expect("a finished run has a result")
    };
    assert_eq!(result_with(true), result_with(false));
}
