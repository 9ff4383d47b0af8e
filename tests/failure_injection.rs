//! §4.4 failure taxonomy, exercised end-to-end with injected faults:
//! anticipated transients retried silently, model failures held and
//! resumed, walltime kills absorbed by restart files, and external
//! services degrading gracefully.

mod common;

use amp::prelude::*;
use amp_simdb::Op;
use common::{deployment, truth};

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
    dep.daemon.resume_from_hold(sim_id).unwrap();
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
