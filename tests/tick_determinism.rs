//! Tick determinism: the daemon's tick must drive the exact same workflow
//! every time it is given the same campaign — identical final simulation
//! statuses, job records, notification outbox, and per-simulation
//! transition sequences and saved `progress` values tick by tick. Every
//! scenario carries a GA ensemble, so what the daemon remembers of partial
//! results between ticks (read by each decision, replaced by the applier) is
//! in play.

mod common;

use amp::gridamp::{seed_fixtures, small_spec};
use amp::prelude::*;
use common::{final_states, queue, truth, walltime, Fault, Schedule, Seen, World};
use std::collections::BTreeMap;

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
    let mut world = World::kraken(1, walltime(6.0));
    let db = &world.db;
    let (user, star, alloc, obs) = seed_fixtures(db, "kraken", &truth(), 7).unwrap();
    // four direct simulations with distinct parameters...
    for i in 0..4 {
        let mass = 0.9 + 0.05 * i as f64;
        let params = StellarParams {
            mass,
            ..StellarParams::sun()
        };
        queue(
            db,
            Simulation::new_direct(star, user, params, "kraken", alloc, 0),
        );
    }
    // ...plus the GA ensembles
    for seed in 11..11 + ensembles {
        let spec = small_spec(seed);
        queue(
            db,
            Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0),
        );
    }

    // one 90-minute two-service outage so the transient/retry path is
    // exercised too
    let outage = Fault::Outage("kraken", Service::Both, SimTime(1_800), SimTime(7_200));
    let mut transitions: BTreeMap<i64, Vec<(String, String)>> = BTreeMap::new();
    let mut progress: BTreeMap<i64, Vec<(usize, f64)>> = BTreeMap::new();
    let mut ticks = 0;
    world.run(&Schedule::none().at(0, outage), |w, seen| {
        let Seen::Ticked(_, report) = seen else {
            return;
        };
        ticks += 1;
        for (id, from, to) in &report.transitions {
            let step = (from.as_str().into(), to.as_str().into());
            transitions.entry(*id).or_default().push(step);
        }
        let admin = w.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
        for sim in Manager::<Simulation>::new(admin).all().unwrap() {
            let seen = progress.entry(sim.id.unwrap()).or_default();
            if seen.last().map(|&(_, p)| p) != Some(sim.progress) {
                seen.push((ticks, sim.progress));
            }
        }
    });
    assert!(ticks <= 5_000, "scenario did not settle");

    let admin = world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let statuses = final_states(&world.db)
        .into_iter()
        .map(|(id, s, _)| (id, s))
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

/// Two runs of the two-ensemble scenario match in every observable.
#[test]
fn the_two_ensemble_scenario_reproduces_exactly() {
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
fn the_one_ensemble_scenario_reproduces_exactly() {
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
