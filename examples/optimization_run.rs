//! A full optimization run (Figure 1): synthesize Kepler-like observations
//! of a hidden truth star, run an ensemble of independent GA runs as
//! chains of walltime-limited supercomputer jobs, evaluate the best
//! solution with a detail run, and compare the recovered parameters to the
//! truth.
//!
//! Run: `cargo run --release --example optimization_run`

use amp::gridamp::OptimizationResult;
use amp::prelude::*;

fn main() {
    let truth = StellarParams {
        mass: 1.08,
        metallicity: 0.021,
        helium: 0.268,
        alpha: 2.05,
        age: 4.4,
    };
    println!("hidden truth star: {truth:#?}\n");

    // 6-hour walltime forces several continuation jobs per GA run.
    let config = DaemonConfig {
        work_walltime_hours: 6.0,
        ..DaemonConfig::default()
    };
    let mut dep = amp::gridamp::deploy(amp::grid::systems::kraken(), config, None).unwrap();
    let (user, star, alloc, obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth, 42).unwrap();

    let spec = OptimizationSpec {
        ga_runs: 4,
        population: 64,
        generations: 80,
        cores_per_run: 128,
        seed: 7,
    };
    println!(
        "submitting optimization: {} GA runs x {} stars x {} iterations on {} cores total",
        spec.ga_runs,
        spec.population,
        spec.generations,
        spec.total_cores()
    );
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_optimization(star, user, spec.clone(), obs, "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    // Drive to completion, reporting the workflow transitions.
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let sims = Manager::<Simulation>::new(admin.clone());
    let mut last_status = String::new();
    loop {
        dep.daemon.tick(&dep.grid);
        let s = sims.get(sim_id).unwrap();
        let line = format!("{} ({:.0}%)", s.status, s.progress * 100.0);
        if line != last_status {
            println!("t={} status {line}", dep.grid.now());
            last_status = line;
        }
        if matches!(s.status, SimStatus::Done | SimStatus::Hold) {
            break;
        }
        dep.grid.advance(SimDuration::from_secs(600));
    }

    let done = sims.get(sim_id).unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
    let result: OptimizationResult =
        serde_json::from_str(done.result_json.as_ref().unwrap()).unwrap();

    println!("\nper-run converged results:");
    for (i, r) in result.runs.iter().enumerate() {
        println!(
            "  GA run {}: fitness {:.4}  mass {:.3}  age {:.2}  Z {:.4}",
            i + 1,
            r.best_fitness,
            r.best_params.mass,
            r.best_params.age,
            r.best_params.metallicity
        );
    }
    let b = &result.best.best_params;
    println!("\nbest-of-ensemble vs truth:");
    println!("  mass  {:.3}  (truth {:.3})", b.mass, truth.mass);
    println!(
        "  Z     {:.4} (truth {:.4})",
        b.metallicity, truth.metallicity
    );
    println!("  Y     {:.3}  (truth {:.3})", b.helium, truth.helium);
    println!("  alpha {:.3}  (truth {:.3})", b.alpha, truth.alpha);
    println!("  age   {:.2}   (truth {:.2})", b.age, truth.age);
    println!(
        "\nsolution detail run: Teff {:.0} K, L {:.3} L_sun, delta_nu {:.1} uHz",
        result.detail.teff, result.detail.luminosity, result.detail.delta_nu
    );

    // Show the Figure-1 structure that actually executed.
    let jobs = Manager::<GridJobRecord>::new(admin)
        .filter(&Query::new().eq("simulation_id", sim_id))
        .unwrap();
    println!("\nexecuted job graph:");
    for r in 0..spec.ga_runs as i64 {
        let n = jobs
            .iter()
            .filter(|j| j.purpose == JobPurpose::Work && j.ga_run == r)
            .count();
        println!("  GA run {}: {} chained jobs", r + 1, n);
    }
    println!(
        "  + 1 solution evaluation, {} fork stages",
        jobs.iter().filter(|j| j.cores == 0).count()
    );
}
