//! F1/L1 integration: the executed optimization workflow has exactly the
//! shape of Figure 1, and simulations move through exactly the Listing-1
//! state sequence.

mod common;

use amp::prelude::*;
use common::{queue, spec, truth, walltime, Schedule, Seen, World};

fn deploy_kraken(walltime_hours: f64, chaining: bool) -> amp::gridamp::Deployment {
    amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            work_walltime_hours: walltime_hours,
            job_chaining: chaining,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap()
}

fn submit_opt(dep: &amp::gridamp::Deployment, spec: OptimizationSpec) -> i64 {
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 11).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
    Manager::<Simulation>::new(web).create(&mut sim).unwrap()
}

#[test]
fn figure1_shape_holds() {
    let mut dep = deploy_kraken(6.0, false);
    let spec = spec(4, 24, 40, 128, 5);
    let sim_id = submit_opt(&dep, spec.clone());
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let sim = Manager::<Simulation>::new(admin.clone())
        .get(sim_id)
        .unwrap();
    assert_eq!(sim.status, SimStatus::Done, "{}", sim.status_message);

    let jobs = Manager::<GridJobRecord>::new(admin)
        .filter(&Query::new().eq("simulation_id", sim_id))
        .unwrap();

    // N parallel GA runs, each a chain of >= 2 walltime-limited jobs.
    for r in 0..spec.ga_runs as i64 {
        let mut chain: Vec<&GridJobRecord> = jobs
            .iter()
            .filter(|j| j.purpose == JobPurpose::Work && j.ga_run == r)
            .collect();
        chain.sort_by_key(|j| j.continuation);
        assert!(chain.len() >= 2, "run {r}: {} jobs", chain.len());
        // chains are sequential: job c+1 starts after job c ends
        for w in chain.windows(2) {
            assert!(
                w[1].started_at.unwrap() >= w[0].ended_at.unwrap(),
                "run {r} continuation overlap"
            );
        }
        // every work job uses the configured 128 cores
        assert!(chain.iter().all(|j| j.cores == 128));
    }

    // the four lanes genuinely overlap (parallel, not serialized)
    let lane_start = |r: i64| {
        jobs.iter()
            .filter(|j| j.purpose == JobPurpose::Work && j.ga_run == r)
            .filter_map(|j| j.started_at)
            .min()
            .unwrap()
    };
    let lane_end = |r: i64| {
        jobs.iter()
            .filter(|j| j.purpose == JobPurpose::Work && j.ga_run == r)
            .filter_map(|j| j.ended_at)
            .max()
            .unwrap()
    };
    let latest_start = (0..4).map(lane_start).max().unwrap();
    let earliest_end = (0..4).map(lane_end).min().unwrap();
    assert!(latest_start < earliest_end, "GA lanes did not overlap");

    // exactly one solution evaluation, after all lanes end
    let solution: Vec<&GridJobRecord> = jobs
        .iter()
        .filter(|j| j.purpose == JobPurpose::SolutionEvaluation)
        .collect();
    assert_eq!(solution.len(), 1);
    assert!(solution[0].started_at.unwrap() >= (0..4).map(lane_end).max().unwrap());
    assert_eq!(solution[0].cores, 1);

    // fork stages: one each of prejob/postjob/cleanup
    for p in [JobPurpose::PreJob, JobPurpose::PostJob, JobPurpose::Cleanup] {
        assert_eq!(jobs.iter().filter(|j| j.purpose == p).count(), 1, "{p:?}");
    }
}

#[test]
fn listing1_state_sequence_exact() {
    let mut world = World::kraken(1, walltime(24.0));
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&world.db, "kraken", &truth(), 3).unwrap();
    let sun = Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0);
    let sim_id = queue(&world.db, sun);

    // collect every transition the daemon reports
    let mut transitions = Vec::new();
    world.run(&Schedule::none(), |_, seen| {
        if let Seen::Ticked(_, report) = seen {
            let of_sim = report.transitions.iter().filter(|t| t.0 == sim_id);
            transitions.extend(of_sim.map(|&(_, from, to)| (from, to)));
        }
    });
    assert_eq!(
        transitions,
        vec![
            (SimStatus::Queued, SimStatus::PreJob),
            (SimStatus::PreJob, SimStatus::Running),
            (SimStatus::Running, SimStatus::PostJob),
            (SimStatus::PostJob, SimStatus::Cleanup),
            (SimStatus::Cleanup, SimStatus::Done),
        ],
        "not the Listing-1 sequence"
    );
}

#[test]
fn chaining_submits_dependent_jobs_upfront() {
    let mut dep = deploy_kraken(6.0, true);
    let spec = spec(2, 24, 40, 128, 5);
    let sim_id = submit_opt(&dep, spec);
    // a couple of ticks: chains should already be fully submitted
    dep.daemon.tick(&dep.grid);
    dep.grid.advance(SimDuration::from_secs(300));
    dep.daemon.tick(&dep.grid);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let jobs = Manager::<GridJobRecord>::new(admin.clone())
        .filter(
            &Query::new()
                .eq("simulation_id", sim_id)
                .eq("purpose", "WORK"),
        )
        .unwrap();
    for r in 0..2 {
        let n = jobs.iter().filter(|j| j.ga_run == r).count();
        assert!(
            n >= 2,
            "run {r}: chaining should submit the whole chain up-front, saw {n}"
        );
        // later continuations are queued (pending), not running
        assert!(jobs
            .iter()
            .filter(|j| j.ga_run == r && j.continuation > 0)
            .all(|j| j.status == JobStatus::Pending));
    }

    // and the run still completes correctly
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let sim = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
    assert_eq!(sim.status, SimStatus::Done, "{}", sim.status_message);
}

#[test]
fn two_simulations_share_the_machine() {
    let mut dep = deploy_kraken(24.0, false);
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 9).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let sims = Manager::<Simulation>::new(web);
    let mut ids = Vec::new();
    for seed in [1u64, 2] {
        let spec = spec(2, 20, 20, 128, seed);
        let mut sim = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
        ids.push(sims.create(&mut sim).unwrap());
    }
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mgr = Manager::<Simulation>::new(admin);
    for id in ids {
        let s = mgr.get(id).unwrap();
        assert_eq!(s.status, SimStatus::Done, "sim {id}: {}", s.status_message);
        assert!(s.result_json.is_some());
    }
}
