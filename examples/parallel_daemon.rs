//! Parallel daemon ticks: a four-site deployment (frost, kraken,
//! lonestar, ranger) with sixteen direct model runs, driven by the
//! GridAMP daemon's worker pool (`DaemonConfig::workers`). The same
//! scenario is run with a pool of 1 (every shard inline on the caller's
//! thread) and a pool of 8 (one thread per non-empty shard); both must
//! settle in the same number of ticks with every simulation DONE.
//!
//! Run: `cargo run --release --example parallel_daemon`

use amp::prelude::*;
use std::collections::BTreeMap;

const SYSTEMS: [&str; 4] = ["frost", "kraken", "lonestar", "ranger"];

fn run(workers: usize) -> (usize, BTreeMap<i64, String>) {
    let mut dep = amp::gridamp::deploy(
        vec![
            amp::grid::systems::frost(),
            amp::grid::systems::kraken(),
            amp::grid::systems::lonestar(),
            amp::grid::systems::ranger(),
        ],
        DaemonConfig {
            workers,
            ..DaemonConfig::default()
        },
        None,
    )
    .expect("deployment");

    let (user, star, frost_alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "frost", &StellarParams::sun(), 1).expect("fixtures");

    // seed_fixtures grants frost; the other systems get their own award
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).expect("admin");
    let allocs = Manager::<Allocation>::new(admin.clone());
    let mut alloc_by_system: BTreeMap<&str, i64> = BTreeMap::new();
    alloc_by_system.insert("frost", frost_alloc);
    for system in &SYSTEMS[1..] {
        let mut alloc = Allocation::new(system, &format!("TG-DEMO-{system}"), 1_000_000.0);
        allocs.create(&mut alloc).expect("allocation");
        alloc_by_system.insert(system, alloc.id.unwrap());
    }

    let web = dep
        .db
        .connect(amp::core::roles::ROLE_WEB)
        .expect("web role");
    let sims = Manager::<Simulation>::new(web);
    for i in 0..16 {
        let system = SYSTEMS[i % SYSTEMS.len()];
        let params = StellarParams {
            mass: 0.9 + 0.0125 * i as f64,
            ..StellarParams::sun()
        };
        let mut sim =
            Simulation::new_direct(star, user, params, system, alloc_by_system[system], 0);
        sims.create(&mut sim).expect("submit");
    }

    let ticks = dep.daemon.run_until_settled(&dep.grid, 48.0);
    let statuses = Manager::<Simulation>::new(admin)
        .all()
        .expect("sims")
        .into_iter()
        .map(|s| (s.id.unwrap(), s.status.as_str().to_string()))
        .collect();
    (ticks, statuses)
}

fn main() {
    let (inline_ticks, inline) = run(1);
    println!("inline shard (workers=1): settled in {inline_ticks} ticks");
    let (pool_ticks, pool) = run(8);
    println!("worker pool  (workers=8): settled in {pool_ticks} ticks");

    assert_eq!(inline, pool, "the pool size changed the outcome");
    assert_eq!(inline_ticks, pool_ticks, "tick counts diverged");
    let done = pool.values().filter(|s| *s == "DONE").count();
    println!(
        "identical outcomes, {done}/16 simulations DONE on {} sites",
        SYSTEMS.len()
    );
}
