//! F1/L1 integration: the executed optimization workflow has exactly the
//! shape of Figure 1, and simulations move through exactly the Listing-1
//! state sequence. And Listing 1 on its own, without a tick: over every
//! state × every outcome of the job it awaits, a decision is total, reads
//! only, repeats itself, is not repeated once applied, and moves a row only
//! to its next state in `workflow_table()`.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use amp::gridamp::workflow::{self, Decision, Effect, View};
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

/// Every table's version, the submission ids the site holds, and its files.
type Untouched = (Vec<u64>, Vec<String>, Vec<(String, Vec<u8>)>);

/// What a decision must not change: every table's version, what the site
/// holds under the simulations' submission ids, and its filesystem.
fn untouched(dep: &amp::gridamp::Deployment) -> Untouched {
    let names = dep.db.table_names();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let now = dep.grid.now();
    let proxy = dep
        .daemon
        .credential()
        .issue_proxy("astro1", now, SimDuration::from_hours(1.0));
    let held = dep.grid.gram_submissions("kraken", &proxy, "sim").unwrap();
    let site = dep.grid.site("kraken").unwrap();
    let files = site.fs.list_tree("");
    let files = files.into_iter().map(|f| {
        let data = site.fs.read(&f).unwrap().to_vec();
        (f, data)
    });
    let held = held.into_iter().map(|s| s.id).collect();
    (dep.db.table_versions(&names), held, files.collect())
}

/// The submission ids of a decision's submissions, in order.
fn submission_ids(d: &Decision) -> Vec<&str> {
    let ids = d.effects.iter().filter_map(|e| match e {
        Effect::Submit(sub) => sub.spec.submission_id.as_deref(),
        _ => None,
    });
    ids.collect()
}

/// The job a simulation in `state` waits on (QUEUED waits on none).
fn awaited(state: SimStatus) -> Option<JobPurpose> {
    match state {
        SimStatus::PreJob => Some(JobPurpose::PreJob),
        SimStatus::Running => Some(JobPurpose::Work),
        SimStatus::PostJob => Some(JobPurpose::PostJob),
        SimStatus::Cleanup => Some(JobPurpose::Cleanup),
        _ => None,
    }
}

/// Place a fresh simulation of `kind` (0 direct, 1 optimization) in `state`
/// with its awaited job — one per GA run for an optimization's Work — in
/// `outcome` (`None`: no row). Returns the simulation row.
fn placed(
    dep: &amp::gridamp::Deployment,
    kind: usize,
    state: SimStatus,
    outcome: Option<(JobStatus, &str)>,
) -> Simulation {
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 5).unwrap();
    let sim = match kind {
        0 => Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0),
        _ => {
            Simulation::new_optimization(star, user, spec(2, 8, 8, 16, 3), obs, "kraken", alloc, 0)
        }
    };
    let sim_id = queue(&dep.db, sim);
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let sims = Manager::<Simulation>::new(admin.clone());
    let mut sim = sims.get(sim_id).unwrap();
    sim.status = state;
    sims.save(&sim).unwrap();
    if let (Some(purpose), Some((status, detail))) = (awaited(state), outcome) {
        let runs = match (purpose, kind) {
            (JobPurpose::Work, 1) => vec![0, 1],
            _ => vec![-1],
        };
        for (k, ga_run) in runs.into_iter().enumerate() {
            let mut job = GridJobRecord::new(sim_id, ga_run, purpose, 0, "kraken", 16, &sim.app);
            job.gram_handle = Some(format!("gram://kraken/jobmanager-pbs/{}", 900 + k));
            (job.status, job.detail) = (status, detail.to_string());
            job.submitted_at = Some(0);
            if status.is_terminal() {
                (job.started_at, job.ended_at) = (Some(0), Some(3600));
            }
            Manager::<GridJobRecord>::new(admin.clone())
                .create(&mut job)
                .unwrap();
        }
    }
    sim
}

#[test]
fn listing_1_decides_every_state_and_job_outcome_from_reads_alone() {
    let outcomes = [
        None,
        Some((JobStatus::Pending, "")),
        Some((JobStatus::Active, "")),
        Some((JobStatus::Done, "")),
        Some((JobStatus::Failed, "exit status 1")),
        Some((JobStatus::Failed, "walltime exceeded")),
    ];
    let kinds = [(0, false), (1, false), (1, true)];
    let mut cases = 0;
    for (kind, chaining) in kinds {
        for &(state, stages, next) in workflow::workflow_table() {
            for outcome in outcomes {
                let walltime_kill = outcome.is_some_and(|(_, d)| d.contains("walltime"));
                let awaits = awaited(state);
                if (awaits.is_none() && outcome.is_some())
                    || (walltime_kill && awaits != Some(JobPurpose::Work))
                {
                    continue;
                }
                cases += 1;
                let case = format!("kind {kind} chaining {chaining} {state} {outcome:?}");
                let mut dep = deploy_kraken(6.0, chaining);
                let sim = placed(&dep, kind, state, outcome);

                // 1. Total: deciding never panics.
                let before = untouched(&dep);
                let decide = || dep.daemon.decide(&dep.grid, &sim);
                let first = catch_unwind(AssertUnwindSafe(decide))
                    .unwrap_or_else(|_| panic!("{case}: decide panicked"));
                // 2. Deciding twice decides the same, and writes nothing.
                let again = dep.daemon.decide(&dep.grid, &sim);
                assert_eq!(first, again, "{case}");
                assert_eq!(submission_ids(&first), submission_ids(&again), "{case}");
                assert_eq!(untouched(&dep), before, "{case}: deciding wrote");

                // 4. The row moves iff every stage of its row returns true,
                // and then to that row's next state.
                let conn = dep.db.connect(amp::core::roles::ROLE_DAEMON).unwrap();
                let cred = dep.daemon.credential().clone();
                let config = dep.daemon.config.clone();
                let view = View::new(&dep.grid, &conn, &config, &cred, &sim, None).unwrap();
                let mut scratch = Decision::new(&sim);
                let all = stages
                    .iter()
                    .all(|stage| (stage.run)(&view, &mut scratch) == Ok(true));
                let expected = if all { next } else { state };
                assert_eq!(first.sim.status, expected, "{case}: {:?}", first.failed);
                assert_eq!(workflow::decide(&view), first, "{case}");
                drop(view);

                // 3. Once applied, deciding again at the same instant asks
                // for none of the keys it just submitted.
                let (sim_id, now) = (sim.id.unwrap(), dep.grid.now().as_secs() as i64);
                let daemon_id = dep.daemon.daemon_id().to_string();
                let claim =
                    amp::gridamp::lease::claim(&conn, &daemon_id, sim_id, &sim.app, now, 1800);
                let epoch = claim.unwrap().held_epoch().unwrap();
                let mut report = amp::gridamp::TickReport::default();
                dep.daemon
                    .apply(&dep.grid, first.clone(), epoch, &mut report);
                assert!(report.daemon_errors.is_empty(), "{case}: {report:?}");
                let (_, held, _) = untouched(&dep);
                let submitted: Vec<&str> = submission_ids(&first)
                    .into_iter()
                    .filter(|id| held.iter().any(|h| h == id))
                    .collect();
                assert_eq!(
                    submitted.is_empty(),
                    first.failed.is_some() || submission_ids(&first).is_empty(),
                    "{case}"
                );
                let reloaded = common::sim(&dep.db, sim_id);
                let decided = dep.daemon.decide(&dep.grid, &reloaded);
                for id in submission_ids(&decided) {
                    assert!(!submitted.contains(&id), "{case}: {id} asked for twice");
                }
            }
        }
    }
    assert_eq!(cases, 3 * (1 + 5 + 6 + 5 + 5));
}
