//! Tick determinism: the daemon's tick must drive the exact same workflow
//! every time it is given the same campaign — identical final simulation
//! statuses, job records, notification outbox, and per-simulation
//! transition sequences and saved `progress` values tick by tick. Every
//! scenario carries a GA ensemble, so what the daemon remembers of partial
//! results between ticks (read by each step, replaced by the apply pass) is
//! in play.

use amp::prelude::*;
use std::collections::BTreeMap;

fn truth() -> StellarParams {
    StellarParams {
        mass: 1.05,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    }
}

/// A job record minus row id and GRAM handle: simulation_id, ga_run,
/// purpose, continuation, site, status, cores, submitted_at, started_at,
/// ended_at.
type JobKey = (
    i64,
    i64,
    String,
    i64,
    String,
    String,
    i64,
    Option<i64>,
    Option<i64>,
    Option<i64>,
);

/// A notification minus row id: user_id, simulation_id, audience,
/// subject, body, created_at.
type NoteKey = (Option<i64>, Option<i64>, String, String, String, i64);

/// Everything DB-observable about a finished scenario, canonicalized so
/// two equivalent runs compare equal:
/// * job records drop row id and GRAM handle and are sorted;
/// * notifications drop row id and are sorted by content;
/// * transitions are the per-simulation sequences accumulated across
///   ticks, in tick order;
/// * progress is each simulation's stored `progress`, with the tick that
///   first showed each new value.
#[derive(Debug, PartialEq)]
struct Outcome {
    statuses: BTreeMap<i64, String>,
    jobs: Vec<JobKey>,
    notifications: Vec<NoteKey>,
    transitions: BTreeMap<i64, Vec<(String, String)>>,
    progress: BTreeMap<i64, Vec<(usize, f64)>>,
    ticks: usize,
}

/// Four direct runs plus `ensembles` GA ensembles on kraken, through one
/// 90-minute outage, ticked to quiescence.
fn run_scenario(ensembles: u64) -> Outcome {
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            work_walltime_hours: 6.0,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();

    // one 90-minute two-service outage so the transient/retry path is
    // exercised too
    dep.grid.faults.add_outage(
        "kraken",
        Service::Both,
        amp_grid::SimTime(1_800),
        amp_grid::SimTime(7_200),
    );

    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 7).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let sims = Manager::<Simulation>::new(web);

    // four direct simulations with distinct parameters...
    for i in 0..4 {
        let params = StellarParams {
            mass: 0.9 + 0.05 * i as f64,
            ..StellarParams::sun()
        };
        let mut sim = Simulation::new_direct(star, user, params, "kraken", alloc, 0);
        sims.create(&mut sim).unwrap();
    }
    // ...plus the GA ensembles
    for seed in 11..11 + ensembles {
        let mut sim = Simulation::new_optimization(
            star,
            user,
            amp::gridamp::small_spec(seed),
            obs,
            "kraken",
            alloc,
            0,
        );
        sims.create(&mut sim).unwrap();
    }

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let all_sims = Manager::<Simulation>::new(admin.clone());
    let mut transitions: BTreeMap<i64, Vec<(String, String)>> = BTreeMap::new();
    let mut progress: BTreeMap<i64, Vec<(usize, f64)>> = BTreeMap::new();
    let mut ticks = 0;
    loop {
        let report = dep.daemon.tick(&dep.grid);
        ticks += 1;
        for (id, from, to) in &report.transitions {
            transitions
                .entry(*id)
                .or_default()
                .push((from.as_str().into(), to.as_str().into()));
        }
        let now = all_sims.all().unwrap();
        for sim in &now {
            let seen = progress.entry(sim.id.unwrap()).or_default();
            if seen.last().map(|&(_, p)| p) != Some(sim.progress) {
                seen.push((ticks, sim.progress));
            }
        }
        let settled = now
            .iter()
            .all(|s| matches!(s.status, SimStatus::Done | SimStatus::Hold));
        if settled {
            break;
        }
        assert!(ticks < 5_000, "scenario did not settle");
        dep.grid.advance(SimDuration::from_secs(300));
    }

    let statuses = all_sims
        .all()
        .unwrap()
        .into_iter()
        .map(|s| (s.id.unwrap(), s.status.as_str().to_string()))
        .collect();

    let mut jobs: Vec<_> = Manager::<GridJobRecord>::new(admin.clone())
        .all()
        .unwrap()
        .into_iter()
        .map(|j| {
            (
                j.simulation_id,
                j.ga_run,
                format!("{:?}", j.purpose),
                j.continuation,
                j.site,
                format!("{:?}", j.status),
                j.cores,
                j.submitted_at,
                j.started_at,
                j.ended_at,
            )
        })
        .collect();
    jobs.sort();

    let mut notifications: Vec<_> = Manager::<Notification>::new(admin)
        .all()
        .unwrap()
        .into_iter()
        .map(|n| {
            (
                n.user_id,
                n.simulation_id,
                n.audience.as_str().to_string(),
                n.subject,
                n.body,
                n.created_at,
            )
        })
        .collect();
    notifications.sort();

    Outcome {
        statuses,
        jobs,
        notifications,
        transitions,
        progress,
        ticks,
    }
}

/// The tick runs on its caller's thread, the one worker a daemon has (a
/// second core is a second daemon): two runs of the two-ensemble scenario
/// match in every observable.
#[test]
fn any_worker_count_reproduces_the_same_run_exactly() {
    let first = run_scenario(2);

    // sanity: the scenario exercised real work
    assert_eq!(first.statuses.len(), 6);
    assert!(
        first.statuses.values().all(|s| s == "DONE"),
        "{:?}",
        first.statuses
    );
    assert!(!first.jobs.is_empty());
    assert!(!first.notifications.is_empty());

    assert_eq!(run_scenario(2), first);
}

/// The cheapest scenario, one ensemble and five simulations, reproduces
/// exactly too.
#[test]
fn degenerate_pool_sizes_reproduce_the_same_run_exactly() {
    let first = run_scenario(1);
    assert_eq!(first.statuses.len(), 5);
    assert!(first.statuses.values().all(|s| s == "DONE"));
    // The ensemble's progress was saved on its way, not only at the end.
    assert!(first.progress.values().any(|seen| seen.len() > 3));

    assert_eq!(run_scenario(1), first);
}

#[test]
fn every_simulation_walks_the_listing_1_chain_in_order() {
    let run = run_scenario(2);
    let happy: Vec<(String, String)> = SimStatus::happy_path()
        .windows(2)
        .map(|w| (w[0].as_str().to_string(), w[1].as_str().to_string()))
        .collect();
    for (sim, seq) in &run.transitions {
        assert_eq!(seq, &happy, "sim {sim} transition sequence");
    }
}
