//! §4.4 failure taxonomy, exercised end-to-end with injected faults:
//! anticipated transients retried silently, model failures held and
//! resumed, walltime kills absorbed by restart files, and external
//! services degrading gracefully.

mod common;

use std::collections::BTreeSet;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use amp::gridamp::{seed_fixtures, small_spec, OpOutcome, OpsEvent, StepPoint};
use amp::prelude::*;
use common::{
    assert_no_duplicate_submissions, done, final_states, jobs_of, queue, sim, spec, su_used, truth,
    walltime, Admin, Crash, Fault, Schedule, Seen, World,
};

const POLL: u64 = 300;

/// Run `world` under `schedule` until every simulation is DONE, `before`
/// each round getting the world (to place a fault at the round's instant).
/// Returns the instant of each `PostJob → Cleanup` transition.
fn drain(
    world: &mut World,
    schedule: &Schedule,
    mut before: impl FnMut(&mut World),
) -> Vec<(i64, SimTime)> {
    let mut charged_at = Vec::new();
    world.run(schedule, |w, seen| match seen {
        Seen::Begin(_) => before(w),
        Seen::Ticked(_, report) => {
            assert_eq!(report.new_holds, 0, "{report:?}");
            let charged = report
                .transitions
                .iter()
                .filter(|t| t.1 == SimStatus::PostJob);
            charged_at.extend(charged.map(|t| (t.0, w.grid.now())));
        }
        Seen::End(_) => {}
    });
    charged_at
}

/// Seed the fixtures of `seed` and queue one optimization of `spec` on
/// Kraken. Returns (user id, simulation id).
fn queue_optimization(db: &Db, seed: u64, spec: OptimizationSpec) -> (i64, i64) {
    let (user, star, alloc, obs) = seed_fixtures(db, "kraken", &truth(), seed).unwrap();
    let opt = Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0);
    (user, queue(db, opt))
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
    let params = StellarParams { mass, ..truth() };
    queue(
        db,
        Simulation::new_direct(star, user, params, "kraken", alloc, 0),
    )
}

/// `postprocess` used to commit the SU charge on the spot, with
/// `submit_cleanup` still to run in the same stage list: a GRAM outage
/// there failed the step and the next tick charged again. The charge now
/// commits with the transition.
#[test]
fn a_gram_outage_at_the_cleanup_submission_charges_once() {
    let run = |faulted_at: Option<SimTime>| {
        let mut world = World::kraken(1, walltime(6.0));
        let (user, star, alloc, _obs) = seed_fixtures(&world.db, "kraken", &truth(), 11).unwrap();
        let sim = queue_direct(&world.db, star, user, alloc, 1.0);
        let mut schedule = Schedule::none();
        if let Some(from) = faulted_at {
            // The tick that would have made the transition cannot stage the
            // tar out; the next one can, charges, and cannot reach GRAM.
            let at = |polls| from + SimDuration::from_secs(polls * POLL);
            schedule = schedule
                .at(0, Fault::Outage("kraken", Service::GridFtp, from, at(1)))
                .at(0, Fault::Outage("kraken", Service::Gram, at(1), at(2)));
        }
        let charged_at = drain(&mut world, &schedule, |_| {});
        assert_eq!(charged_at.len(), 1);
        assert_eq!(charged_at[0].0, sim);
        let used = su_used(&world.db)[0];
        let owed = su_owed(&world.db, &world.grid);
        assert!((used - owed).abs() < 1e-9, "{used} charged");
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
    let mut world = World::kraken(2, DaemonConfig::default());
    let (user, star, alloc, _obs) = seed_fixtures(&world.db, "kraken", &truth(), 12).unwrap();
    // The first round: daemon A claims four runs, then B the four queued
    // after A's tick.
    for daemon in &mut world.daemons {
        for _ in 0..4 {
            queue_direct(&world.db, star, user, alloc, 1.0);
        }
        daemon.tick(&world.grid);
        assert_eq!(daemon.owned_sims().len(), 4);
    }
    // A run's charge commits right after its cleanup job is recorded: the
    // daemons meet there, k-th cleanup with k-th, so their charges race.
    let ((to_b, from_a), (to_a, from_b)) = (mpsc::channel(), mpsc::channel());
    let ends = [(to_b, from_b), (to_a, from_a)];
    for (daemon, (to_peer, from_peer)) in world.daemons.iter_mut().zip(ends) {
        daemon.step_point = Some(Box::new(move |point: StepPoint<'_>| {
            let cleanup = point
                .job
                .is_some_and(|job| job.purpose == JobPurpose::Cleanup);
            if point.kind == "recorded" && cleanup {
                to_peer.send(()).unwrap();
                let _ = from_peer.recv_timeout(Duration::from_secs(5));
            }
        }));
    }
    let (mut charged, mut instants) = ([0; 2], BTreeSet::new());
    for _ in 0..5_000 {
        world.grid.advance(SimDuration::from_secs(POLL));
        let grid = &world.grid;
        let reports: Vec<_> = std::thread::scope(|scope| {
            let daemons = world.daemons.iter_mut();
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
        if final_states(&world.db).iter().all(|(_, s, _)| s == "DONE") {
            break;
        }
    }
    assert_eq!(charged, [4, 4], "charges per daemon");
    assert_eq!(instants.len(), 1, "{instants:?}");
    let (used, owed) = (su_used(&world.db)[0], su_owed(&world.db, &world.grid));
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
        let mut world = World::kraken(1, walltime(1.0)); // 1 h walltime: continuations too
        let (user, star, alloc, obs) = seed_fixtures(&world.db, "kraken", &truth(), 13).unwrap();
        queue_direct(&world.db, star, user, alloc, 0.95);
        let spec = spec(2, 12, 10, 64, 13);
        queue(
            &world.db,
            Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0),
        );
        queue_direct(&world.db, star, user, alloc, 1.15);

        // A tick loses its replies unless the one before it lost some.
        let (mut submissions, mut losing) = (0, false);
        drain(&mut world, &Schedule::none(), |w| {
            let of_gram = |r: &&amp_grid::AuditRecord| r.action.ends_with("submit");
            let so_far = w.grid.audit().records().iter().filter(of_gram).count();
            let last_tick = so_far - std::mem::replace(&mut submissions, so_far);
            losing = lossy && !(losing && last_tick > 0);
            if losing {
                let now = w.grid.now();
                w.apply(Fault::LostReplies(
                    "kraken",
                    now,
                    now + SimDuration::from_secs(1),
                ));
            }
        });
        assert_no_duplicate_submissions(&world.db, &world.grid);
        let audit = world.grid.audit();
        let repeats = audit.records().iter().filter(|r| r.action == "resubmit");
        // "<id> -> <handle>", the id ending in "/<purpose>/r<run>c<continuation>".
        let repeated: BTreeSet<String> = repeats
            .map(|r| r.detail.split(" -> ").next().unwrap().to_string())
            .collect();
        drop(audit);
        (final_states(&world.db), su_used(&world.db)[0], repeated)
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
    let mut world = World::kraken(1, walltime(6.0));
    let outage = |from, to| Fault::Outage("kraken", Service::Both, from, to);
    // ten random 45-minute GRAM/GridFTP outages over the first 3 days
    let (dur, horizon) = (SimDuration::from_minutes(45.0), SimTime(3 * 86_400));
    let schedule = Schedule::none()
        .random_windows(10, dur, horizon, 42, outage)
        // ...and one the daemon cannot miss: a run waiting on its jobs
        // touches GridFTP only when one of them ends, so the random windows
        // may all pass over rounds with nothing to fetch; the first
        // submission cannot wait.
        .at(0, outage(SimTime(0), SimTime(45 * 60)));
    let (user, sim_id) = queue_optimization(&world.db, 1, small_spec(5));

    world.run(&schedule, |_, _| {});
    done(&world.db, sim_id);

    // the user never heard about the outages; only completion mail
    let admin = world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let notes = Manager::<Notification>::new(admin).all().unwrap();
    let user_mail: Vec<_> = notes.iter().filter(|n| n.user_id == Some(user)).collect();
    assert_eq!(user_mail.len(), 1);
    assert!(user_mail[0].subject.contains("complete"));
    // admins saw the transients
    assert!(notes.iter().any(|n| n.user_id.is_none()));
}

/// The corrupt-restart scenario up to the operator's repair: an
/// optimization runs until its first continuation's restart file exists, the
/// file is corrupted, the next continuation fails — a model failure — and
/// the simulation is held. The operator wipes the run directory and deletes
/// the WORK job rows, so that the workflow resubmits from scratch. Returns
/// the simulation and the submission ids of the deleted rows.
fn hold_on_a_corrupt_restart_and_repair(world: &mut World) -> (i64, Vec<String>) {
    let (_, sim_id) = queue_optimization(&world.db, 2, spec(1, 20, 40, 128, 3));

    // run until the first continuation job's restart file exists
    let restart = format!("amp/sim{sim_id}/run0/restart.json");
    let written = |grid: &Grid| grid.site("kraken").unwrap().fs.exists(&restart);
    for _ in 0..200 {
        world.daemons[0].tick(&world.grid);
        if written(&world.grid) {
            break;
        }
        world.grid.advance(SimDuration::from_secs(600));
    }
    assert!(written(&world.grid));

    // corrupt it: the next continuation fails -> model failure -> HOLD
    let corrupt = b"{corrupted".to_vec();
    let write = world
        .grid
        .site("kraken")
        .unwrap()
        .fs
        .write(&restart, corrupt);
    write.unwrap();
    world.run(&Schedule::none(), |_, _| {});
    let held = sim(&world.db, sim_id);
    assert_eq!(held.status, SimStatus::Hold, "{}", held.status_message);

    let run_dir = format!("amp/sim{sim_id}/run0");
    world.grid.site("kraken").unwrap().fs.remove_tree(&run_dir);
    let jobs =
        Manager::<GridJobRecord>::new(world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap());
    let deleted = jobs_of(&world.db, sim_id, "WORK").into_iter().map(|j| {
        jobs.delete(j.id.unwrap()).unwrap();
        let run = format!("r{}c{}", j.ga_run, j.continuation);
        format!("sim{sim_id}/{}/WORK/{run}", j.app)
    });
    (sim_id, deleted.collect())
}

/// What the repaired run must come to: DONE, the deleted WORK jobs run
/// again as new jobs (nine jobs created, none answered from the site's
/// memory of the failed ones, whose two ids were released), and the
/// charge of the clean rerun.
fn assert_rerun_from_scratch(world: &World, sim_id: i64) {
    done(&world.db, sim_id);
    let audit = world.grid.audit();
    let count = |action| {
        audit
            .records()
            .iter()
            .filter(|r| r.action == action)
            .count()
    };
    let counts = (count("submit"), count("resubmit"), count("release"));
    assert_eq!(counts, (9, 0, 2), "(submit, resubmit, release)");
    let used = su_used(&world.db)[0];
    assert!((used - 3_175.315_645).abs() < 1e-6, "{used} charged");
}

#[test]
fn corrupt_restart_file_is_a_model_failure_then_recovers() {
    let mut world = World::kraken(1, walltime(6.0));
    let (sim_id, deleted) = hold_on_a_corrupt_restart_and_repair(&mut world);
    assert_eq!(deleted.len(), 2);

    // the operator resumes it from the admin page
    let admin = Admin::on(&world.db);
    let resume = format!("/admin/simulations/{sim_id}/resume");
    assert_eq!(admin.post(&resume, &[]).status, 302);
    let asked = sim(&world.db, sim_id);
    assert_eq!(asked.status, SimStatus::Running);
    // asked again before a daemon acted: refused, and nothing written
    assert_eq!(admin.post(&resume, &[]).status, 400);
    assert_eq!(sim(&world.db, sim_id), asked);

    world.run(&Schedule::none(), |_, _| {});
    assert_rerun_from_scratch(&world, sim_id);
    assert_eq!(sim(&world.db, sim_id).held_from, None);
    // each release is on the owner's §4.4 log, as the line that repeats it
    let log: Vec<OpsEvent> = world.daemons[0]
        .ops_log()
        .entries()
        .map(|e| e.event.clone())
        .collect();
    for id in &deleted {
        let command = amp::gridamp::clilog::gram_release_cmdline("kraken", id);
        let outcome = OpOutcome::Ok;
        assert!(
            log.contains(&OpsEvent::Command { command, outcome }),
            "{id}"
        );
    }
}

/// The daemon applies a resume in a tick of its own and submits nothing in
/// it, so a crash anywhere in that tick loses neither the operator's request
/// nor what the site was told: at its mid-tick instant, before anything is
/// released, between the first release and the second, or after the
/// releases, with the tick's flush lost.
#[test]
fn a_crash_in_the_tick_that_applies_a_resume_loses_nothing() {
    for crash in ["mid_tick", "first_release", "after_releases"] {
        let tag = format!("resume_crash_{crash}");
        let mut world = World::durable(&tag, walltime(6.0), 1);
        let (sim_id, deleted) = hold_on_a_corrupt_restart_and_repair(&mut world);
        assert_eq!(deleted.len(), 2);
        let resume = format!("/admin/simulations/{sim_id}/resume");
        assert_eq!(Admin::on(&world.db).post(&resume, &[]).status, 302);
        match crash {
            "mid_tick" => world.apply(Fault::Crash(Crash::MidTick(world.mid_ticks() + 1))),
            "first_release" => world.apply(Fault::Crash(Crash::InStep(1, "released"))),
            _ => {
                world.daemons[0].tick(&world.grid);
                assert_eq!(sim(&world.db, sim_id).held_from, None);
            }
        }
        if crash != "after_releases" {
            assert_eq!(world.run(&Schedule::none(), |_, _| {}), None, "{crash}");
        }
        let released = world
            .grid
            .audit()
            .records()
            .iter()
            .filter(|r| r.action == "release")
            .count();
        let expected = match crash {
            "mid_tick" => 0,
            "first_release" => 1,
            _ => 2,
        };
        assert_eq!(released, expected, "{crash}");
        world.recover();
        assert!(
            sim(&world.db, sim_id).held_from.is_some(),
            "{crash}: the request was lost"
        );
        world.run(&Schedule::none(), |_, _| {});
        assert_rerun_from_scratch(&world, sim_id);
    }
}

/// A HOLD row with no `held_from` — made here the one way there is, an
/// administrator's change-form edit of a DONE simulation — resumes from
/// QUEUED, and the resume makes the site forget every submission the
/// administrator deleted the row of: the run is done again from scratch,
/// each job a new one.
#[test]
fn a_resume_of_a_hold_with_no_held_from_reruns_from_scratch() {
    let mut world = World::kraken(1, walltime(6.0));
    let (user, star, alloc, _obs) = seed_fixtures(&world.db, "kraken", &truth(), 9).unwrap();
    let sim_id = queue_direct(&world.db, star, user, alloc, 1.0);
    world.run(&Schedule::none(), |_, _| {});
    let first = done(&world.db, sim_id);

    let admin = Admin::on(&world.db);
    let set = format!("/admin/table/simulation/{sim_id}/set");
    assert_eq!(
        admin
            .post(&set, &[("column", "status"), ("value", "HOLD")])
            .status,
        302
    );
    let held = sim(&world.db, sim_id);
    assert_eq!((held.status, held.held_from), (SimStatus::Hold, None));
    let jobs =
        Manager::<GridJobRecord>::new(world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap());
    let rows = jobs
        .filter(&Query::new().eq("simulation_id", sim_id))
        .unwrap();
    for row in &rows {
        jobs.delete(row.id.unwrap()).unwrap();
    }
    let resume = format!("/admin/simulations/{sim_id}/resume");
    assert_eq!(admin.post(&resume, &[]).status, 302);
    let asked = sim(&world.db, sim_id);
    assert_eq!(asked.status, SimStatus::Queued);
    assert_eq!(asked.held_from.as_deref(), Some("QUEUED"));

    world.run(&Schedule::none(), |_, _| {});
    let again = done(&world.db, sim_id);
    assert_eq!(again.result_json, first.result_json);
    assert_eq!(again.held_from, None);
    let audit = world.grid.audit();
    let count = |action| {
        audit
            .records()
            .iter()
            .filter(|r| r.action == action)
            .count()
    };
    let twice = 2 * rows.len();
    let counts = (count("submit"), count("resubmit"), count("release"));
    assert_eq!(
        counts,
        (twice, 0, rows.len()),
        "(submit, resubmit, release)"
    );
    assert_eq!(jobs_of(&world.db, sim_id, "WORK").len(), 1);
}

/// §4.4 model failure on a direct run: out-of-grid parameters fail the
/// model and the run is held. The operator fixes the parameters with the
/// change form, deletes the failed WORK job row and resumes the run from
/// the admin page, and it completes.
#[test]
fn a_held_run_fixed_and_resumed_through_the_portal_completes() {
    let mut world = World::kraken(1, walltime(6.0));
    let (user, star, alloc, _obs) = seed_fixtures(&world.db, "kraken", &truth(), 4).unwrap();
    let bad = StellarParams {
        mass: 1.75,
        age: 0.1,
        ..StellarParams::benchmark()
    };
    let sim_id = queue(
        &world.db,
        Simulation::new_direct(star, user, bad, "kraken", alloc, 0),
    );
    world.run(&Schedule::none(), |_, _| {});
    let held = sim(&world.db, sim_id);
    assert_eq!(held.status, SimStatus::Hold);
    assert_eq!(held.held_from.as_deref(), Some("RUNNING"));

    let admin = Admin::on(&world.db);
    let good = StellarParams::benchmark();
    let fixed = Simulation::new_direct(star, user, good, "kraken", alloc, 0).payload_json;
    let set = format!("/admin/table/simulation/{sim_id}/set");
    let form = [("column", "payload_json"), ("value", fixed.as_str())];
    assert_eq!(admin.post(&set, &form).status, 302);
    let jobs =
        Manager::<GridJobRecord>::new(world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap());
    for j in jobs_of(&world.db, sim_id, "WORK") {
        jobs.delete(j.id.unwrap()).unwrap();
    }
    let resume = format!("/admin/simulations/{sim_id}/resume");
    assert_eq!(admin.post(&resume, &[]).status, 302);

    world.run(&Schedule::none(), |_, _| {});
    assert_eq!(done(&world.db, sim_id).payload_json, fixed);
}

/// A daemon saves the whole simulation row it loaded, so a change-form edit
/// of a live simulation landing mid-step was undone by the step's save. The
/// form now edits a simulation only while it is HOLD or DONE. Here the edit
/// moves a simulation to a second allocation as its PREJOB submission is
/// accepted.
#[test]
fn the_change_form_leaves_a_live_simulation_to_its_daemon() {
    let mut world = World::kraken(1, walltime(6.0));
    let (user, star, alloc, _obs) = seed_fixtures(&world.db, "kraken", &truth(), 13).unwrap();
    let admin_conn = world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut second = Allocation::new("kraken", "TG-AST-CHANGE-FORM", 1_000.0);
    let second = Manager::<Allocation>::new(admin_conn)
        .create(&mut second)
        .unwrap();
    let sim_id = queue_direct(&world.db, star, user, alloc, 1.0);

    let admin = Arc::new(Admin::on(&world.db));
    let set = format!("/admin/table/simulation/{sim_id}/set");
    let to_second = second.to_string();
    let answers = Arc::new(Mutex::new(Vec::new()));
    let (hook_admin, hook_answers) = (Arc::clone(&admin), Arc::clone(&answers));
    world.daemons[0].step_point = Some(Box::new(move |point: StepPoint<'_>| {
        let prejob = point
            .job
            .is_some_and(|rec| rec.purpose == JobPurpose::PreJob);
        if point.kind == "accepted" && prejob {
            let form = [("column", "allocation_id"), ("value", to_second.as_str())];
            hook_answers
                .lock()
                .unwrap()
                .push(hook_admin.post(&set, &form).status);
        }
    }));
    world.run(&Schedule::none(), |_, _| {});
    assert_eq!(*answers.lock().unwrap(), [400]);
    assert_eq!(done(&world.db, sim_id).allocation_id, alloc);

    // settled, the simulation is the form's to edit
    let form = [("column", "allocation_id"), ("value", &second.to_string())];
    let set = format!("/admin/table/simulation/{sim_id}/set");
    assert_eq!(admin.post(&set, &form).status, 302);
    assert_eq!(sim(&world.db, sim_id).allocation_id, second);
}

#[test]
fn walltime_kill_recovers_via_restart_file() {
    // A GA run whose estimate is sabotaged: make the first continuation
    // overrun by giving the scheduler a very short walltime. The job is
    // killed at the limit, the checkpoint survives, the workflow submits a
    // continuation and still converges.
    let mut world = World::kraken(1, walltime(1.0)); // 1h walltime: ~2 iterations per job
    let (_, sim_id) = queue_optimization(&world.db, 3, spec(1, 16, 12, 128, 4));

    world.run(&Schedule::none(), |_, _| {});
    done(&world.db, sim_id);
    // many short continuations were needed
    let work = jobs_of(&world.db, sim_id, "WORK");
    assert!(work.len() >= 4, "{} jobs", work.len());
}

#[test]
fn transient_storm_escalates_to_hold_after_cap() {
    let config = DaemonConfig {
        max_transient_retries: 3,
        ..DaemonConfig::default()
    };
    let mut world = World::kraken(1, config);
    // GRAM down forever
    let forever = Fault::Outage("kraken", Service::Both, SimTime(0), SimTime(u64::MAX / 2));
    let (user, star, alloc, _obs) = seed_fixtures(&world.db, "kraken", &truth(), 4).unwrap();
    let sun = Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0);
    let sim_id = queue(&world.db, sun);

    world.run(&Schedule::none().at(0, forever), |_, _| {});
    let held = sim(&world.db, sim_id);
    assert_eq!(held.status, SimStatus::Hold);
    assert!(held.status_message.contains("transient storm"));
}

#[test]
fn simbad_outage_degrades_search_gracefully() {
    use amp::portal::{Portal, PortalConfig, Request};
    let world = World::kraken(1, walltime(6.0));
    let portal = Portal::new(&world.db, PortalConfig::default()).unwrap();
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
    let lonestar = vec![amp::grid::systems::lonestar()];
    let mut world = World::on(lonestar, Some(778), walltime(6.0), 1);
    world.grid.advance(SimDuration::from_hours(24.0));
    let (user, star, alloc, obs) = seed_fixtures(&world.db, "lonestar", &truth(), 5).unwrap();
    let (spec, now) = (spec(2, 20, 20, 128, 6), world.grid.now().as_secs() as i64);
    let opt = Simulation::new_optimization(star, user, spec, obs, "lonestar", alloc, now);
    let sim_id = queue(&world.db, opt);
    world.run(&Schedule::none(), |_, _| {});
    done(&world.db, sim_id);
    // at least one job actually waited in the queue
    let work = jobs_of(&world.db, sim_id, "WORK");
    let waited = work.iter().filter_map(|j| j.wait_secs()).any(|w| w > 0);
    assert!(waited, "expected queue contention on busy lonestar");
}
