//! Stress: 64 simulations spread over four TeraGrid systems (frost,
//! kraken, lonestar, ranger) with injected faults — a permanent GRAM/GridFTP
//! outage on ranger (escalating to HOLD through the transient-storm cap)
//! and a recoverable outage window on lonestar. One daemon must reach
//! quiescence in a bounded number of ticks, lose no transitions, duplicate
//! no submissions, and account every transient and hold exactly once.

mod common;

use amp::prelude::*;
use common::{assert_no_duplicate_submissions, Fault, Schedule, Seen, World};
use std::collections::BTreeMap;

const SIMS: usize = 64;
const SYSTEMS: [&str; 4] = ["frost", "kraken", "lonestar", "ranger"];

#[test]
fn sixty_four_sims_four_sites_with_faults_settle_correctly() {
    let sites = vec![
        amp::grid::systems::frost(),
        amp::grid::systems::kraken(),
        amp::grid::systems::lonestar(),
        amp::grid::systems::ranger(),
    ];
    let config = DaemonConfig {
        max_transient_retries: 3,
        ..DaemonConfig::default()
    };
    let mut world = World::on(sites, None, config, 1);
    let outage = |site, from, to| Fault::Outage(site, Service::Both, SimTime(from), SimTime(to));
    let schedule = Schedule::none()
        // ranger: down for good — its simulations must storm out to HOLD
        .at(0, outage("ranger", 0, u64::MAX / 2))
        // lonestar: a 2.5-hour outage window — transient, must recover
        .at(0, outage("lonestar", 1_800, 10_800));

    let truth = StellarParams {
        mass: 1.0,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    };
    let (user, star, frost_alloc, _obs) =
        amp::gridamp::seed_fixtures(&world.db, "frost", &truth, 9).unwrap();

    // seed_fixtures granted frost; the other three systems get their own
    let admin = world.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let allocs = Manager::<Allocation>::new(admin.clone());
    let mut alloc_by_system: BTreeMap<&str, i64> = BTreeMap::new();
    alloc_by_system.insert("frost", frost_alloc);
    for system in &SYSTEMS[1..] {
        let mut alloc = Allocation::new(system, &format!("TG-AST09003-{system}"), 10_000_000.0);
        allocs.create(&mut alloc).unwrap();
        alloc_by_system.insert(system, alloc.id.unwrap());
    }

    let web = world.db.connect(amp::core::roles::ROLE_WEB).unwrap();
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

    let mut transitions: BTreeMap<i64, Vec<(String, String)>> = BTreeMap::new();
    let (mut transient_errors, mut new_holds) = (0, 0);
    let ended = world.run(&schedule, |_, seen| {
        if let Seen::Ticked(_, report) = seen {
            transient_errors += report.transient_errors;
            new_holds += report.new_holds;
            for (id, from, to) in &report.transitions {
                let step = (from.as_str().into(), to.as_str().into());
                transitions.entry(*id).or_default().push(step);
            }
        }
    });
    // the no-deadlock bound: quiescence or bust
    assert!(ended.unwrap() <= 3_000, "stress run did not settle");

    let finals = Manager::<Simulation>::new(admin).all().unwrap();

    assert_eq!(finals.len(), SIMS);
    for sim in &finals {
        let (id, system) = (sim.id.unwrap(), &sim.system);
        if system == "ranger" {
            assert_eq!(sim.status, SimStatus::Hold, "sim {id} on downed ranger");
            assert!(
                sim.status_message.contains("transient storm"),
                "sim {id}: {}",
                sim.status_message
            );
        } else {
            assert_eq!(sim.status, SimStatus::Done, "sim {id} on {system}");
        }
    }
    // every ranger sim burned through the transient cap: retries + the
    // escalating attempt, each counted once — nothing lost, nothing extra
    let ranger_sims = finals.iter().filter(|s| s.system == "ranger").count();
    assert_eq!(ranger_sims, SIMS / 4);
    assert_eq!(new_holds, ranger_sims);
    assert!(
        transient_errors >= ranger_sims * 4,
        "expected >= {} transient polls, saw {transient_errors}",
        ranger_sims * 4,
    );

    // no lost transitions: every completed simulation shows the full
    // Listing-1 chain, in order, exactly once
    let happy: Vec<(String, String)> = SimStatus::happy_path()
        .windows(2)
        .map(|w| (w[0].as_str().to_string(), w[1].as_str().to_string()))
        .collect();
    for sim in finals.iter().filter(|s| s.status == SimStatus::Done) {
        let sim = sim.id.unwrap();
        assert_eq!(
            transitions.get(&sim),
            Some(&happy),
            "sim {sim} lost or duplicated a transition"
        );
    }

    // no duplicate submissions: job-state keys are unique, and every GRAM
    // submit has its one job record
    assert_no_duplicate_submissions(&world.db, &world.grid);
}
