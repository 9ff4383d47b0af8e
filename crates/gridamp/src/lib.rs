//! # amp-gridamp — the GridAMP workflow daemon
//!
//! The back end of the AMP gateway reproduction (Woitaszek et al., GCE
//! 2009): the daemon that reads simulation requests from the central
//! database, drives them across a (simulated) TeraGrid with plain GRAM +
//! GridFTP client calls, and writes statuses back — never talking to the
//! web portal directly (Figure 2).
//!
//! * [`workflow`] — the Listing-1 state machine (state → checks → next)
//!   plus the base-class stages shared by both job types;
//! * [`direct`] / [`optimize`] — the two small derived workflows (job
//!   definitions + postprocessing only, as the paper prescribes);
//! * [`apps`] — the remote executables (pre/post/cleanup scripts, the
//!   ASTEC forward model, the MPIKAIA GA with restart files);
//! * [`problem`] — the GA↔stellar-model fitness coupling;
//! * [`daemon`] — the poll loop, failure taxonomy (transient / model /
//!   daemon), hold-and-resume, notifications, heartbeat monitor;
//! * [`error`] — that taxonomy as [`WorkflowError`], plus the fenced step;
//! * [`clilog`] — the daemon's §4.4 operations log: every grid call as its
//!   copy-pasteable Globus command line, and beside it every transition,
//!   retry, hold, lease takeover, fence and reconciliation;
//! * [`lease`] — the multi-daemon lease protocol: CAS claim/renew/
//!   takeover with fencing epochs, so several daemons share one database
//!   without ever double-driving a simulation;
//! * [`gantt`] — the §6 queue-wait analysis tool;
//! * [`advisor`] — the §2 deployment decision: which system to run on;
//! * [`setup`] — deployment wiring for tests, examples, and benches.

pub mod advisor;
pub mod apps;
pub mod clilog;
pub mod daemon;
pub mod direct;
pub mod error;
pub mod gantt;
pub mod lease;
pub mod optimize;
pub mod problem;
pub mod setup;
pub mod workflow;

pub use advisor::{assess, recommend, Assessment};
pub use apps::GaRunResult;
pub use clilog::{OpOutcome, OpsEntry, OpsEvent, OpsLog};
pub use daemon::{DaemonMonitor, GridAmp, LeaseHealth, TickReport};
pub use error::WorkflowError;
pub use gantt::{chart_for, render_ascii, stats, GanttChart, GanttRow, WaitRunStats};
pub use lease::ClaimOutcome;
pub use optimize::OptimizationResult;
pub use problem::StellarFitProblem;
pub use setup::{deploy, seed_curvefit_fixtures, seed_fixtures, small_spec, Deployment};
pub use workflow::{workflow_table, DaemonConfig, StageCtx, StepPoint};

#[cfg(test)]
mod end_to_end {
    use super::*;
    use amp_core::models::{Notification, Simulation};
    use amp_core::status::{JobPurpose, SimStatus};
    use amp_core::{NotifyMode, SimKind};
    use amp_grid::systems::kraken;
    use amp_grid::{Service, SimDuration, SimTime};
    use amp_simdb::orm::Manager;
    use amp_simdb::Query;
    use amp_stellar::{ModelOutput, StellarParams};

    fn fast_config() -> DaemonConfig {
        DaemonConfig {
            site: "kraken".into(),
            work_walltime_hours: 6.0,
            poll_interval_secs: 300,
            ..DaemonConfig::default()
        }
    }

    fn truth() -> StellarParams {
        StellarParams {
            mass: 1.05,
            metallicity: 0.02,
            helium: 0.27,
            alpha: 2.0,
            age: 4.0,
        }
    }

    fn submit_direct(dep: &Deployment, star: i64, user: i64, alloc: i64) -> i64 {
        let web = dep.db.connect(amp_core::roles::ROLE_WEB).unwrap();
        let sims = Manager::<Simulation>::new(web);
        let mut sim = Simulation::new_direct(
            star,
            user,
            StellarParams::benchmark(),
            "kraken",
            alloc,
            dep.grid.now().as_secs() as i64,
        );
        sims.create(&mut sim).unwrap()
    }

    #[test]
    fn direct_run_end_to_end() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 1).unwrap();
        let sim_id = submit_direct(&dep, star, user, alloc);

        let ticks = dep.daemon.run_until_settled(&dep.grid, 48.0);
        assert!(ticks > 2);

        let admin = dep.db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let sims = Manager::<Simulation>::new(admin.clone());
        let sim = sims.get(sim_id).unwrap();
        assert_eq!(sim.status, SimStatus::Done, "msg: {}", sim.status_message);
        assert_eq!(sim.progress, 1.0);
        assert!(sim.completed_at.is_some());

        // result parses back into a model output
        let out: ModelOutput = serde_json::from_str(sim.result_json.as_ref().unwrap()).unwrap();
        assert!(out.frequencies.len() > 30);
        // §2: direct runs take minutes, not hours, of simulated time
        let elapsed = sim.completed_at.unwrap() - sim.created_at;
        assert!(elapsed < 3 * 3600, "direct run took {elapsed}s");

        // remote environment was cleaned up
        assert_eq!(
            dep.grid
                .site("kraken")
                .unwrap()
                .fs
                .list_tree(&format!("amp/sim{sim_id}"))
                .len(),
            0
        );

        // star flagged as having results
        let stars = Manager::<amp_core::models::Star>::new(admin.clone());
        assert!(stars.get(star).unwrap().has_results);

        // SUs were charged (1 core * ~24 min * 1.623)
        let allocs = Manager::<amp_core::models::Allocation>::new(admin);
        let a = allocs.get(alloc).unwrap();
        assert!(a.su_used > 0.1 && a.su_used < 5.0, "su_used {}", a.su_used);
    }

    #[test]
    fn optimization_run_end_to_end_with_continuations() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, obs) = seed_fixtures(&dep.db, "kraken", &truth(), 2).unwrap();

        let web = dep.db.connect(amp_core::roles::ROLE_WEB).unwrap();
        let sims = Manager::<Simulation>::new(web);
        let mut sim =
            Simulation::new_optimization(star, user, small_spec(5), obs, "kraken", alloc, 0);
        let sim_id = sims.create(&mut sim).unwrap();

        dep.daemon.run_until_settled(&dep.grid, 24.0 * 14.0);

        let admin = dep.db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let sims = Manager::<Simulation>::new(admin.clone());
        let done = sims.get(sim_id).unwrap();
        assert_eq!(done.status, SimStatus::Done, "msg: {}", done.status_message);

        let result: OptimizationResult =
            serde_json::from_str(done.result_json.as_ref().unwrap()).unwrap();
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.best.generations, 30);
        assert!(
            result.best.best_fitness
                >= result.runs[0].best_fitness.min(result.runs[1].best_fitness)
        );
        assert!(result.detail.frequencies.len() > 30);

        // Figure 1 shape: per-run job chains with continuations (30 gens x
        // ~24 min/gen = ~12h > 6h walltime -> at least 2 jobs per run),
        // plus the solution evaluation.
        let jobs = Manager::<amp_core::models::GridJobRecord>::new(admin);
        let work = jobs
            .filter(
                &Query::new()
                    .eq("simulation_id", sim_id)
                    .eq("purpose", "WORK"),
            )
            .unwrap();
        for r in 0..2 {
            let chain: Vec<_> = work.iter().filter(|j| j.ga_run == r).collect();
            assert!(chain.len() >= 2, "run {r} had {} jobs", chain.len());
        }
        let solution = jobs
            .filter(
                &Query::new()
                    .eq("simulation_id", sim_id)
                    .eq("purpose", "SOLUTION"),
            )
            .unwrap();
        assert_eq!(solution.len(), 1);
    }

    #[test]
    fn transient_outage_is_retried_silently() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 3).unwrap();
        // GRAM+GridFTP down for the first 2 simulated hours
        dep.grid
            .faults
            .add_outage("kraken", Service::Both, SimTime(0), SimTime(7200));
        let sim_id = submit_direct(&dep, star, user, alloc);

        dep.daemon.run_until_settled(&dep.grid, 48.0);

        let admin = dep.db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let sim = Manager::<Simulation>::new(admin.clone())
            .get(sim_id)
            .unwrap();
        assert_eq!(sim.status, SimStatus::Done, "msg: {}", sim.status_message);

        // admins were notified of the transient; the user only got the
        // completion mail (§4.4's silence guarantee)
        let notes = Manager::<Notification>::new(admin).all().unwrap();
        let admin_notes: Vec<_> = notes.iter().filter(|n| n.user_id.is_none()).collect();
        assert!(!admin_notes.is_empty());
        let user_notes: Vec<_> = notes.iter().filter(|n| n.user_id == Some(user)).collect();
        assert_eq!(user_notes.len(), 1);
        assert!(user_notes[0].subject.contains("complete"));
    }

    #[test]
    fn model_failure_holds_then_resumes() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 4).unwrap();

        // out-of-grid parameters: the model executable will fail
        let web = dep.db.connect(amp_core::roles::ROLE_WEB).unwrap();
        let sims = Manager::<Simulation>::new(web);
        let mut bad = StellarParams::benchmark();
        bad.mass = 1.75;
        bad.age = 0.1;
        let mut sim = Simulation::new_direct(star, user, bad, "kraken", alloc, 0);
        let sim_id = sims.create(&mut sim).unwrap();

        dep.daemon.run_until_settled(&dep.grid, 48.0);

        let admin = dep.db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let asims = Manager::<Simulation>::new(admin.clone());
        let held = asims.get(sim_id).unwrap();
        assert_eq!(held.status, SimStatus::Hold);
        assert_eq!(held.held_from.as_deref(), Some("RUNNING"));
        assert!(held.status_message.contains("model failure"));

        // both parties notified
        let notes = Manager::<Notification>::new(admin.clone()).all().unwrap();
        assert!(notes.iter().any(|n| n.user_id == Some(user)));
        assert!(notes.iter().any(|n| n.user_id.is_none()));

        // an admin "fixes the model" (here: fixes the parameters) and resumes
        let mut fixed = asims.get(sim_id).unwrap();
        fixed.payload_json = serde_json::to_string(&amp_core::SimPayload::Direct {
            params: serde_json::to_value(&StellarParams::benchmark()),
        })
        .unwrap();
        asims.save(&fixed).unwrap();
        // also clear the failed work job so the workflow resubmits
        let jobs = Manager::<amp_core::models::GridJobRecord>::new(admin.clone());
        for j in jobs
            .filter(&Query::new().eq("simulation_id", sim_id))
            .unwrap()
        {
            if j.purpose == JobPurpose::Work {
                jobs.delete(j.id.unwrap()).unwrap();
            }
        }
        let resumed_to = dep.daemon.resume_from_hold(&dep.grid, sim_id).unwrap();
        assert_eq!(resumed_to, SimStatus::Running);

        dep.daemon.run_until_settled(&dep.grid, 48.0);
        assert_eq!(asims.get(sim_id).unwrap().status, SimStatus::Done);
    }

    #[test]
    fn every_transition_mail_mode() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 6).unwrap();
        // flip the owner to every-transition mode
        let admin = dep.db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let users = Manager::<amp_core::models::AmpUser>::new(admin.clone());
        let mut u = users.get(user).unwrap();
        u.notify_mode = NotifyMode::EveryTransition;
        users.save(&u).unwrap();

        let sim_id = submit_direct(&dep, star, user, alloc);
        dep.daemon.run_until_settled(&dep.grid, 48.0);

        let notes = Manager::<Notification>::new(admin).all().unwrap();
        let mails: Vec<_> = notes
            .iter()
            .filter(|n| n.user_id == Some(user) && n.simulation_id == Some(sim_id))
            .collect();
        // five transitions: QUEUED->PREJOB->RUNNING->POSTJOB->CLEANUP->DONE
        assert_eq!(mails.len(), 5, "{mails:#?}");
    }

    #[test]
    fn daemon_heartbeat_monitoring() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let monitor = DaemonMonitor {
            max_silence_secs: 3600,
        };
        assert!(!monitor.healthy(&dep.daemon, 0), "no heartbeat yet");
        dep.daemon.tick(&dep.grid);
        assert!(monitor.healthy(&dep.daemon, dep.grid.now().as_secs() as i64));
        // daemon "crashes": no ticks while time passes
        dep.grid.advance(SimDuration::from_hours(2.0));
        assert!(!monitor.healthy(&dep.daemon, dep.grid.now().as_secs() as i64));
    }

    #[test]
    fn audit_log_attributes_jobs_to_gateway_users() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 8).unwrap();
        let _sim_id = submit_direct(&dep, star, user, alloc);
        dep.daemon.run_until_settled(&dep.grid, 48.0);

        let audit = dep.grid.audit();
        assert!(audit.fully_attributed());
        assert!(audit.by_user("astro1").count() >= 4, "submits + transfers");
    }

    #[test]
    fn ops_log_records_copy_pasteable_command_lines() {
        let mut dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 12).unwrap();
        // a GridFTP-only outage early on to produce a highlighted failure
        dep.grid
            .faults
            .add_outage("kraken", Service::GridFtp, SimTime(0), SimTime(1800));
        let _sim = submit_direct(&dep, star, user, alloc);
        dep.daemon.run_until_settled(&dep.grid, 48.0);

        let log = dep.daemon.ops_log();
        let commands: Vec<_> = log
            .entries()
            .filter_map(|e| match &e.event {
                OpsEvent::Command { command, outcome } => Some((command, outcome)),
                _ => None,
            })
            .collect();
        assert!(!commands.is_empty());
        // every command entry is a pasteable Globus CLI line
        for (command, _) in &commands {
            assert!(
                command.starts_with("globusrun")
                    || command.starts_with("globus-url-copy")
                    || command.starts_with("globus-job-status"),
                "{command}"
            );
        }
        // the outage produced highlighted transient entries with the exact
        // command to retry
        assert!(commands
            .iter()
            .any(|(_, outcome)| matches!(outcome, OpOutcome::Transient(_))));
        let tail = log.render_tail(log.len());
        assert!(tail.contains("WARN"));
        assert!(tail.contains("$ globus"));
        // successful submissions carry full RSL
        assert!(commands
            .iter()
            .any(|(c, outcome)| c.contains("jobmanager-fork") && **outcome == OpOutcome::Ok));
        assert!(commands
            .iter()
            .any(|(c, _)| c.contains("(executable=/amp/bin/astec)")));
    }

    #[test]
    fn direct_sim_kind_recorded() {
        let dep = deploy(kraken(), fast_config(), None).unwrap();
        let (user, star, alloc, _obs) = seed_fixtures(&dep.db, "kraken", &truth(), 9).unwrap();
        let sim_id = submit_direct(&dep, star, user, alloc);
        let admin = dep.db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let sim = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
        assert_eq!(sim.kind, SimKind::Direct);
    }
}
