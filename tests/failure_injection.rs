//! §4.4 failure taxonomy, exercised end-to-end with injected faults:
//! anticipated transients retried silently, model failures held and
//! resumed, walltime kills absorbed by restart files, and external
//! services degrading gracefully.

mod common;

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

use amp::core::models::Allocation;
use amp::gridamp::StepPoint;
use amp::prelude::*;
use amp_grid::SimTime;
use amp_simdb::Op;
use common::{assert_no_duplicate_submissions, deployment, final_states, truth};

const POLL: u64 = 300;

/// Tick until every simulation is DONE, `before` each tick getting the grid
/// (to place a fault at the tick's instant). Returns the instant of each
/// `PostJob → Cleanup` transition.
fn drain(
    dep: &mut amp::gridamp::Deployment,
    mut before: impl FnMut(&mut Grid),
) -> Vec<(i64, SimTime)> {
    let mut charged_at = Vec::new();
    for _ in 0..5_000 {
        before(&mut dep.grid);
        let report = dep.daemon.tick(&dep.grid);
        assert!(report.daemon_errors.is_empty(), "{report:?}");
        assert_eq!(report.new_holds, 0, "{report:?}");
        for (sim, from, _) in &report.transitions {
            if *from == SimStatus::PostJob {
                charged_at.push((*sim, dep.grid.now()));
            }
        }
        if final_states(&dep.db).iter().all(|(_, s, _)| s == "DONE") {
            return charged_at;
        }
        dep.grid.advance(SimDuration::from_secs(POLL));
    }
    panic!("campaign did not drain");
}

fn su_used(db: &Db, alloc: i64) -> f64 {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    Manager::<Allocation>::new(admin)
        .get(alloc)
        .unwrap()
        .su_used
}

/// What the finished computational jobs of a database cost, summed the way
/// the daemon charges them.
fn su_owed(db: &Db, grid: &Grid) -> f64 {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let factor = grid.site("kraken").unwrap().profile.su_per_cpuh;
    let jobs = Manager::<GridJobRecord>::new(admin).all().unwrap();
    let computational = jobs
        .iter()
        .filter(|j| matches!(j.purpose, JobPurpose::Work | JobPurpose::SolutionEvaluation));
    computational
        .map(|j| j.run_secs().unwrap() as f64 / 3600.0 * j.cores as f64 * factor)
        .sum()
}

fn queue_direct(db: &Db, star: i64, user: i64, alloc: i64, mass: f64) -> i64 {
    let web = db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let params = StellarParams { mass, ..truth() };
    let mut sim = Simulation::new_direct(star, user, params, "kraken", alloc, 0);
    Manager::<Simulation>::new(web).create(&mut sim).unwrap()
}

/// `postprocess` used to commit the SU charge on the spot, with
/// `submit_cleanup` still to run in the same stage list: a GRAM outage
/// there failed the step and the next tick charged again. The charge now
/// commits with the transition.
#[test]
fn a_gram_outage_at_the_cleanup_submission_charges_once() {
    let run = |faulted_at: Option<SimTime>| {
        let mut dep = deployment(6.0);
        let (user, star, alloc, _obs) =
            amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 11).unwrap();
        let sim = queue_direct(&dep.db, star, user, alloc, 1.0);
        if let Some(at) = faulted_at {
            // The tick that would have made the transition cannot stage the
            // tar out; the next one can, charges, and cannot reach GRAM.
            let (next, after) = (
                at + SimDuration::from_secs(POLL),
                at + SimDuration::from_secs(2 * POLL),
            );
            dep.grid
                .faults
                .add_outage("kraken", Service::GridFtp, at, next);
            dep.grid
                .faults
                .add_outage("kraken", Service::Gram, next, after);
        }
        let charged_at = drain(&mut dep, |_| {});
        assert_eq!(charged_at.len(), 1);
        assert_eq!(charged_at[0].0, sim);
        let used = su_used(&dep.db, alloc);
        assert!(
            (used - su_owed(&dep.db, &dep.grid)).abs() < 1e-9,
            "{used} charged"
        );
        (charged_at[0].1, used)
    };
    let (at, clean) = run(None);
    assert!(clean > 0.0);
    let (delayed_to, faulted) = run(Some(at));
    assert_eq!(delayed_to, at + SimDuration::from_secs(2 * POLL));
    assert_eq!(faulted, clean, "the outage changed the charge");
}

/// The charge used to be a read-modify-write outside any transaction: two
/// writers finishing simulations of one allocation could lose an update.
/// The writers here are two daemons of a fleet, each ticking on its own
/// thread, whose eight identical runs reach the transition in one round.
#[test]
fn two_daemons_charging_one_allocation_charge_the_sum() {
    let kraken = amp::grid::systems::kraken();
    let mut fleet = amp::gridamp::deploy_cluster(kraken, DaemonConfig::default(), 2).unwrap();
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&fleet.db, "kraken", &truth(), 12).unwrap();
    // The first round: daemon A claims four runs, then B the four queued
    // after A's tick.
    for daemon in &mut fleet.daemons {
        for _ in 0..4 {
            queue_direct(&fleet.db, star, user, alloc, 1.0);
        }
        daemon.tick(&fleet.grid);
        assert_eq!(daemon.owned_sims().len(), 4);
    }
    // A run's charge commits right after its cleanup job is recorded: the
    // daemons meet there, k-th cleanup with k-th, so their charges race.
    let ((to_b, from_a), (to_a, from_b)) = (mpsc::channel(), mpsc::channel());
    let ends = [(to_b, from_b), (to_a, from_a)];
    for (daemon, (to_peer, from_peer)) in fleet.daemons.iter_mut().zip(ends) {
        daemon.step_point = Some(Box::new(move |point, job| {
            if point == StepPoint::Recorded && job.purpose == JobPurpose::Cleanup {
                to_peer.send(()).unwrap();
                let _ = from_peer.recv_timeout(Duration::from_secs(5));
            }
        }));
    }
    let (mut charged, mut instants) = ([0; 2], BTreeSet::new());
    for _ in 0..5_000 {
        fleet.grid.advance(SimDuration::from_secs(POLL));
        let grid = &fleet.grid;
        let reports: Vec<_> = std::thread::scope(|scope| {
            let daemons = fleet.daemons.iter_mut();
            let ticks: Vec<_> = daemons.map(|d| scope.spawn(|| d.tick(grid))).collect();
            ticks.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (daemon, report) in reports.iter().enumerate() {
            assert!(report.daemon_errors.is_empty(), "{report:?}");
            for (_, from, _) in &report.transitions {
                if *from == SimStatus::PostJob {
                    charged[daemon] += 1;
                    instants.insert(grid.now());
                }
            }
        }
        if final_states(&fleet.db).iter().all(|(_, s, _)| s == "DONE") {
            break;
        }
    }
    assert_eq!(charged, [4, 4], "charges per daemon");
    assert_eq!(instants.len(), 1, "{instants:?}");
    let (used, owed) = (su_used(&fleet.db, alloc), su_owed(&fleet.db, &fleet.grid));
    assert!(
        owed > 0.0 && (used - owed).abs() < 1e-9 * owed,
        "{used} charged of {owed}"
    );
}

/// GRAM accepts a submission and the reply is lost: the daemon sees an
/// outage and submits again. The first attempts of a seeded campaign are
/// lost this way, and each job still exists once, because the repeat carries the same
/// submission id and the site answers it with the job it has.
#[test]
fn lost_gram_replies_submit_nothing_twice() {
    let run = |lossy: bool| {
        let mut dep = deployment(1.0); // 1 h walltime: continuations too
        let (user, star, alloc, obs) =
            amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 13).unwrap();
        queue_direct(&dep.db, star, user, alloc, 0.95);
        let spec = OptimizationSpec {
            ga_runs: 2,
            population: 12,
            generations: 10,
            cores_per_run: 64,
            seed: 13,
        };
        let mut opt = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
        let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
        Manager::<Simulation>::new(web).create(&mut opt).unwrap();
        queue_direct(&dep.db, star, user, alloc, 1.15);

        // A tick loses its replies unless the one before it lost some.
        let (mut submissions, mut losing) = (0, false);
        drain(&mut dep, |grid| {
            let of_gram = |r: &&amp_grid::AuditRecord| r.action.ends_with("submit");
            let so_far = grid.audit().records().iter().filter(of_gram).count();
            let last_tick = so_far - std::mem::replace(&mut submissions, so_far);
            losing = lossy && !(losing && last_tick > 0);
            if losing {
                let now = grid.now();
                let until = now + SimDuration::from_secs(1);
                grid.faults.add_lost_replies("kraken", now, until);
            }
        });
        assert_no_duplicate_submissions(&dep.db, &dep.grid);
        let audit = dep.grid.audit();
        let repeats = audit.records().iter().filter(|r| r.action == "resubmit");
        // "<id> -> <handle>", the id ending in "/<purpose>/r<run>c<continuation>".
        let repeated: BTreeSet<String> = repeats
            .map(|r| r.detail.split(" -> ").next().unwrap().to_string())
            .collect();
        drop(audit);
        (final_states(&dep.db), su_used(&dep.db, alloc), repeated)
    };
    let (finals, used, repeated) = run(false);
    assert!(repeated.is_empty(), "a clean run repeated {repeated:?}");
    let (lossy_finals, lossy_used, repeated) = run(true);
    assert_eq!(lossy_finals, finals);
    assert!(
        (lossy_used - used).abs() < 1e-9 * used,
        "{lossy_used} vs {used}"
    );
    for purpose in ["PREJOB", "WORK", "POSTJOB", "CLEANUP", "SOLUTION"] {
        let hit = |id: &String| id.contains(&format!("/{purpose}/"));
        assert!(
            repeated.iter().any(hit),
            "no lost {purpose} reply in {repeated:?}"
        );
    }
    assert!(
        repeated.iter().any(|id| !id.ends_with("c0")),
        "no lost continuation"
    );
}

#[test]
fn random_outage_storm_is_survived_silently() {
    let mut dep = deployment(6.0);
    // ten random 45-minute GRAM/GridFTP outages over the first 3 days
    dep.grid.faults.add_random_outages(
        "kraken",
        Service::Both,
        10,
        SimDuration::from_minutes(45.0),
        amp_grid::SimTime(3 * 86_400),
        42,
    );
    // ...and one the daemon cannot miss: a run waiting on its jobs touches
    // GridFTP only when one of them ends, so the random windows may all pass
    // over rounds with nothing to fetch; the first submission cannot wait.
    dep.grid.faults.add_outage(
        "kraken",
        Service::Both,
        amp_grid::SimTime(0),
        amp_grid::SimTime(45 * 60),
    );
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 1).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = OptimizationSpec {
        ga_runs: 2,
        population: 20,
        generations: 30,
        cores_per_run: 128,
        seed: 5,
    };
    let mut sim = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let done = Manager::<Simulation>::new(admin.clone())
        .get(sim_id)
        .unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);

    // the user never heard about the outages; only completion mail
    let notes = Manager::<Notification>::new(admin).all().unwrap();
    let user_mail: Vec<_> = notes.iter().filter(|n| n.user_id == Some(user)).collect();
    assert_eq!(user_mail.len(), 1);
    assert!(user_mail[0].subject.contains("complete"));
    // admins saw the transients
    assert!(notes.iter().any(|n| n.user_id.is_none()));
}

#[test]
fn corrupt_restart_file_is_a_model_failure_then_recovers() {
    let mut dep = deployment(6.0);
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 2).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = OptimizationSpec {
        ga_runs: 1,
        population: 20,
        generations: 40,
        cores_per_run: 128,
        seed: 3,
    };
    let mut sim = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    // run until the first continuation job's restart file exists
    let restart = format!("amp/sim{sim_id}/run0/restart.json");
    for _ in 0..200 {
        dep.daemon.tick(&dep.grid);
        if dep.grid.site("kraken").unwrap().fs.exists(&restart) {
            break;
        }
        dep.grid.advance(SimDuration::from_secs(600));
    }
    assert!(dep.grid.site("kraken").unwrap().fs.exists(&restart));

    // corrupt it: the next continuation fails -> model failure -> HOLD
    dep.grid
        .site_mut("kraken")
        .unwrap()
        .fs
        .write(&restart, b"{corrupted".to_vec())
        .unwrap();
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let held = Manager::<Simulation>::new(admin.clone())
        .get(sim_id)
        .unwrap();
    assert_eq!(held.status, SimStatus::Hold, "{}", held.status_message);

    // administrator repairs: wipe the run directory + failed job records,
    // then resume — the workflow resubmits from scratch
    dep.grid
        .site_mut("kraken")
        .unwrap()
        .fs
        .remove_tree(&format!("amp/sim{sim_id}/run0"));
    // restage observations for the fresh chain
    let jobs = Manager::<GridJobRecord>::new(admin.clone());
    for j in jobs
        .filter(
            &Query::new()
                .eq("simulation_id", sim_id)
                .eq("purpose", "WORK"),
        )
        .unwrap()
    {
        jobs.delete(j.id.unwrap()).unwrap();
    }
    dep.daemon.resume_from_hold(&dep.grid, sim_id).unwrap();
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let done = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
}

#[test]
fn walltime_kill_recovers_via_restart_file() {
    // A GA run whose estimate is sabotaged: make the first continuation
    // overrun by giving the scheduler a very short walltime. The job is
    // killed at the limit, the checkpoint survives, the workflow submits a
    // continuation and still converges.
    let mut dep = deployment(1.0); // 1h walltime: ~2 iterations per job
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 3).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = OptimizationSpec {
        ga_runs: 1,
        population: 16,
        generations: 12,
        cores_per_run: 128,
        seed: 4,
    };
    let mut sim = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let done = Manager::<Simulation>::new(admin.clone())
        .get(sim_id)
        .unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
    // many short continuations were needed
    let work = Manager::<GridJobRecord>::new(admin)
        .filter(
            &Query::new()
                .eq("simulation_id", sim_id)
                .eq("purpose", "WORK"),
        )
        .unwrap();
    assert!(work.len() >= 4, "{} jobs", work.len());
}

#[test]
fn transient_storm_escalates_to_hold_after_cap() {
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            max_transient_retries: 3,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();
    // GRAM down forever
    dep.grid.faults.add_outage(
        "kraken",
        Service::Both,
        amp_grid::SimTime(0),
        amp_grid::SimTime(u64::MAX / 2),
    );
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 4).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    dep.daemon.run_until_settled(&dep.grid, 48.0);
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let held = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
    assert_eq!(held.status, SimStatus::Hold);
    assert!(held.status_message.contains("transient storm"));
}

#[test]
fn simbad_outage_degrades_search_gracefully() {
    use amp::portal::{Portal, PortalConfig, Request};
    let dep = deployment(6.0);
    let portal = Portal::new(&dep.db, PortalConfig::default()).unwrap();
    portal.simbad.set_available(false);
    let resp = portal.handle(&Request::get("/stars/search?q=HD+10700"));
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("No matching targets"));
    // back up: the import works
    portal.simbad.set_available(true);
    let resp = portal.handle(&Request::get("/stars/search?q=HD+10700"));
    assert!(resp.body_str().contains("added to the AMP catalog"));
}

#[test]
fn queue_contention_with_background_load_still_completes() {
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::lonestar(),
        DaemonConfig {
            site: "lonestar".into(),
            work_walltime_hours: 6.0,
            ..DaemonConfig::default()
        },
        Some(778),
    )
    .unwrap();
    dep.grid.advance(SimDuration::from_hours(24.0));
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "lonestar", &truth(), 5).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = OptimizationSpec {
        ga_runs: 2,
        population: 20,
        generations: 20,
        cores_per_run: 128,
        seed: 6,
    };
    let mut sim = Simulation::new_optimization(
        star,
        user,
        spec,
        obs,
        "lonestar",
        alloc,
        dep.grid.now().as_secs() as i64,
    );
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 60.0);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let done = Manager::<Simulation>::new(admin.clone())
        .get(sim_id)
        .unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
    // at least one job actually waited in the queue
    let waited = Manager::<GridJobRecord>::new(admin)
        .filter(
            &Query::new()
                .eq("simulation_id", sim_id)
                .filter("purpose", Op::Eq, "WORK"),
        )
        .unwrap()
        .iter()
        .filter_map(|j| j.wait_secs())
        .any(|w| w > 0);
    assert!(waited, "expected queue contention on busy lonestar");
}
