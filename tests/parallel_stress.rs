//! Multi-worker stress: 64 simulations spread over four TeraGrid systems
//! (frost, kraken, lonestar, ranger) with injected faults — a permanent
//! GRAM/GridFTP outage on ranger (escalating to HOLD through the
//! transient-storm cap) and a recoverable outage window on lonestar.
//! With its shards on eight threads the tick engine must reach quiescence
//! in a bounded number of ticks (no deadlock), lose no transitions,
//! duplicate no submissions, and account transients/holds exactly as it
//! does with every shard inline (`workers: 1`).

use amp::prelude::*;
use std::collections::{BTreeMap, HashSet};

const SIMS: usize = 64;
const SYSTEMS: [&str; 4] = ["frost", "kraken", "lonestar", "ranger"];

struct StressOutcome {
    statuses: BTreeMap<i64, (String, Option<String>, String)>,
    transitions: BTreeMap<i64, Vec<(String, String)>>,
    transient_errors: usize,
    new_holds: usize,
    ticks: usize,
    jobs: Vec<GridJobRecord>,
}

fn run_stress(workers: usize) -> StressOutcome {
    let mut dep = amp::gridamp::deploy(
        vec![
            amp::grid::systems::frost(),
            amp::grid::systems::kraken(),
            amp::grid::systems::lonestar(),
            amp::grid::systems::ranger(),
        ],
        DaemonConfig {
            workers,
            max_transient_retries: 3,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();

    // ranger: down for good — its simulations must storm out to HOLD
    dep.grid.faults.add_outage(
        "ranger",
        Service::Both,
        amp_grid::SimTime(0),
        amp_grid::SimTime(u64::MAX / 2),
    );
    // lonestar: a 2.5-hour outage window — transient, must recover
    dep.grid.faults.add_outage(
        "lonestar",
        Service::Both,
        amp_grid::SimTime(1_800),
        amp_grid::SimTime(10_800),
    );

    let truth = StellarParams {
        mass: 1.0,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    };
    let (user, star, frost_alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "frost", &truth, 9).unwrap();

    // seed_fixtures granted frost; the other three systems get their own
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let allocs = Manager::<Allocation>::new(admin.clone());
    let mut alloc_by_system: BTreeMap<&str, i64> = BTreeMap::new();
    alloc_by_system.insert("frost", frost_alloc);
    for system in &SYSTEMS[1..] {
        let mut alloc = Allocation::new(system, &format!("TG-AST09003-{system}"), 10_000_000.0);
        allocs.create(&mut alloc).unwrap();
        alloc_by_system.insert(system, alloc.id.unwrap());
    }

    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let sims = Manager::<Simulation>::new(web);
    for i in 0..SIMS {
        let system = SYSTEMS[i % SYSTEMS.len()];
        let params = StellarParams {
            mass: 0.8 + 0.005 * i as f64,
            ..StellarParams::sun()
        };
        let mut sim =
            Simulation::new_direct(star, user, params, system, alloc_by_system[system], 0);
        sims.create(&mut sim).unwrap();
    }

    let all_sims = Manager::<Simulation>::new(admin.clone());
    let mut transitions: BTreeMap<i64, Vec<(String, String)>> = BTreeMap::new();
    let mut transient_errors = 0;
    let mut new_holds = 0;
    let mut ticks = 0;
    loop {
        let report = dep.daemon.tick(&dep.grid);
        ticks += 1;
        transient_errors += report.transient_errors;
        new_holds += report.new_holds;
        for (id, from, to) in &report.transitions {
            transitions
                .entry(*id)
                .or_default()
                .push((from.as_str().into(), to.as_str().into()));
        }
        let settled = all_sims
            .all()
            .unwrap()
            .iter()
            .all(|s| matches!(s.status, SimStatus::Done | SimStatus::Hold));
        if settled {
            break;
        }
        // the no-deadlock bound: quiescence or bust
        assert!(
            ticks < 3_000,
            "stress run did not settle (workers={workers})"
        );
        dep.grid.advance(SimDuration::from_secs(300));
    }

    let statuses = all_sims
        .all()
        .unwrap()
        .into_iter()
        .map(|s| {
            (
                s.id.unwrap(),
                (s.status.as_str().to_string(), s.held_from.clone(), s.system),
            )
        })
        .collect();
    let jobs = Manager::<GridJobRecord>::new(admin).all().unwrap();

    StressOutcome {
        statuses,
        transitions,
        transient_errors,
        new_holds,
        ticks,
        jobs,
    }
}

#[test]
fn sixty_four_sims_four_sites_with_faults_settle_correctly_in_parallel() {
    let out = run_stress(8);

    assert_eq!(out.statuses.len(), SIMS);
    for (sim, (status, _held_from, system)) in &out.statuses {
        if system == "ranger" {
            assert_eq!(status, "HOLD", "sim {sim} on downed ranger");
        } else {
            assert_eq!(status, "DONE", "sim {sim} on {system}");
        }
    }
    // every ranger sim burned through the transient cap: retries + the
    // escalating attempt, each counted once — nothing lost, nothing extra
    let ranger_sims = out
        .statuses
        .values()
        .filter(|(_, _, sys)| sys == "ranger")
        .count();
    assert_eq!(ranger_sims, SIMS / 4);
    assert_eq!(out.new_holds, ranger_sims);
    assert!(
        out.transient_errors >= ranger_sims * 4,
        "expected >= {} transient polls, saw {}",
        ranger_sims * 4,
        out.transient_errors
    );

    // no lost transitions: every completed simulation shows the full
    // Listing-1 chain, in order, exactly once
    let happy: Vec<(String, String)> = SimStatus::happy_path()
        .windows(2)
        .map(|w| (w[0].as_str().to_string(), w[1].as_str().to_string()))
        .collect();
    for (sim, (status, _, _)) in &out.statuses {
        if status == "DONE" {
            assert_eq!(
                out.transitions.get(sim),
                Some(&happy),
                "sim {sim} lost or duplicated a transition"
            );
        }
    }

    // no duplicate submissions: (sim, purpose, ga_run, continuation) is
    // unique across every job record the daemon wrote
    let mut seen = HashSet::new();
    for j in &out.jobs {
        let key = (
            j.simulation_id,
            format!("{:?}", j.purpose),
            j.ga_run,
            j.continuation,
        );
        assert!(seen.insert(key.clone()), "duplicate submission {key:?}");
    }
}

#[test]
fn hold_and_streak_accounting_is_the_same_inline_and_threaded() {
    let inline = run_stress(1);
    let threaded = run_stress(8);

    assert_eq!(threaded.ticks, inline.ticks, "tick counts diverged");
    assert_eq!(threaded.statuses, inline.statuses);
    assert_eq!(threaded.transitions, inline.transitions);
    assert_eq!(threaded.new_holds, inline.new_holds);
    assert_eq!(threaded.transient_errors, inline.transient_errors);
}

#[test]
fn transient_backoff_schedules_retries_exponentially() {
    // One simulation against a permanently-down site, backoff base 1:
    // attempts land on ticks 1, 2, 4 and 8 (streak s retries after
    // 1 << (s-1) ticks), and the fourth attempt crosses the cap of 3
    // into HOLD. Ticks in between must not count the sim as stepped.
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            max_transient_retries: 3,
            transient_backoff_base_ticks: 1,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();
    dep.grid.faults.add_outage(
        "kraken",
        Service::Both,
        amp_grid::SimTime(0),
        amp_grid::SimTime(u64::MAX / 2),
    );
    let truth = StellarParams::sun();
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth, 10).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_direct(star, user, StellarParams::sun(), "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    let mut stepped_on: Vec<usize> = Vec::new();
    for tick in 1..=12 {
        let report = dep.daemon.tick(&dep.grid);
        if report.sims_stepped > 0 {
            stepped_on.push(tick);
        }
        dep.grid.advance(SimDuration::from_secs(300));
    }
    assert_eq!(stepped_on, vec![1, 2, 4, 8], "backoff schedule");

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let held = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
    assert_eq!(held.status, SimStatus::Hold);
    assert!(
        held.status_message.contains("transient storm"),
        "{}",
        held.status_message
    );
}
