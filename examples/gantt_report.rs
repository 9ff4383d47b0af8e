//! The §6 queue-wait analysis tool as a standalone example: run
//! optimization ensembles on a busy (background-loaded) TACC Lonestar,
//! then print per-simulation Gantt charts (`.` = queued, `#` = running)
//! and the aggregate wait/run statistics.
//!
//! Run: `cargo run --release --example gantt_report`

use amp::gridamp::{chart_for, gantt, render_ascii};
use amp::prelude::*;

fn main() {
    let config = DaemonConfig {
        work_walltime_hours: 6.0,
        ..DaemonConfig::default()
    };
    // background seed drives the synthetic competing load (§2's
    // "allocation oversubscription" on the TACC systems)
    let mut dep =
        amp::gridamp::deploy(amp::grid::systems::lonestar(), config, Some(20091114)).unwrap();
    dep.grid.advance(SimDuration::from_hours(24.0)); // let the queue fill

    let truth = StellarParams {
        mass: 1.02,
        metallicity: 0.019,
        helium: 0.27,
        alpha: 2.0,
        age: 4.8,
    };
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "lonestar", &truth, 6).unwrap();

    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let sims = Manager::<Simulation>::new(web);
    let mut ids = Vec::new();
    for i in 0..3 {
        let spec = OptimizationSpec {
            ga_runs: 2,
            population: 30,
            generations: 40,
            cores_per_run: 128,
            seed: 100 + i,
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
        ids.push(sims.create(&mut sim).unwrap());
    }
    println!(
        "submitted {} optimization runs on busy lonestar...",
        ids.len()
    );
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 60.0);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut all_rows = Vec::new();
    for id in ids {
        let chart = chart_for(&admin, id).unwrap();
        println!("{}", render_ascii(&chart, 70));
        all_rows.extend(chart.rows);
    }
    let stats = gantt::stats(&all_rows);
    println!("aggregate execution wait and run time statistics:");
    println!("  jobs:        {}", stats.jobs);
    println!("  mean wait:   {:.1} min", stats.mean_wait_secs / 60.0);
    println!("  median wait: {:.1} min", stats.median_wait_secs / 60.0);
    println!(
        "  max wait:    {:.1} min",
        stats.max_wait_secs as f64 / 60.0
    );
    println!("  mean run:    {:.1} min", stats.mean_run_secs / 60.0);
    println!("  wait/run:    {:.2}", stats.wait_to_run_ratio);
    println!(
        "\nfinal machine utilization: {:.0}%",
        dep.grid.site("lonestar").unwrap().scheduler.utilization() * 100.0
    );
}
