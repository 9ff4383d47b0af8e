//! Figure 1: the AMP asteroseismology workflow — input observables fan out
//! into N parallel GA runs, each a chain of sequential jobs, converging
//! into one solution evaluation. This report executes an optimization run
//! and prints the realized job graph next to the figure's expected shape.
//!
//! Usage: `cargo run --release -p amp-bench --bin report_figure1`

#![forbid(unsafe_code)]

use amp_bench::{load_jobs, load_sim, quiet_deployment, submit, target_star};
use amp_core::models::Simulation;
use amp_core::{JobPurpose, OptimizationSpec, SimStatus};
use amp_gridamp::seed_fixtures;

fn main() {
    let spec = OptimizationSpec {
        ga_runs: 4,
        population: 40,
        generations: 60,
        cores_per_run: 128,
        seed: 9,
    };
    // 6h walltime on Kraken forces multi-job chains (60 gens x ~20 min).
    let profile = amp_grid::systems::kraken();
    let mut dep = quiet_deployment(profile, 6.0);
    let (user, star, alloc, obs) =
        seed_fixtures(&dep.db, "kraken", &target_star(), 3).expect("fixtures");
    let sim_id = submit(
        &dep,
        Simulation::new_optimization(star, user, spec.clone(), obs, "kraken", alloc, 0),
    );
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let sim = load_sim(&dep, sim_id);
    assert_eq!(sim.status, SimStatus::Done, "{}", sim.status_message);

    let jobs = load_jobs(&dep, sim_id);
    let lanes: Vec<Vec<_>> = (0..spec.ga_runs as i64)
        .map(|r| {
            jobs.iter()
                .filter(|j| j.purpose == JobPurpose::Work && j.ga_run == r)
                .collect()
        })
        .collect();
    println!("== Figure 1: AMP asteroseismology workflow (executed trace) ==\n");
    println!("Input observables");
    for (r, chain) in lanes.iter().enumerate() {
        let boxes: String = chain
            .iter()
            .map(|j| {
                format!(
                    "[Job c{} {:>3}m]",
                    j.continuation,
                    j.run_secs().unwrap_or(0) / 60
                )
            })
            .collect::<Vec<_>>()
            .join(" -> ");
        println!("  GA Run {} : {}", r + 1, boxes);
    }
    let solution: Vec<_> = jobs
        .iter()
        .filter(|j| j.purpose == JobPurpose::SolutionEvaluation)
        .collect();
    println!(
        "         \\-> Solution Evaluation ({} job, {} min)",
        solution.len(),
        solution.first().and_then(|j| j.run_secs()).unwrap_or(0) / 60
    );
    let forks: Vec<_> = jobs
        .iter()
        .filter(|j| {
            matches!(
                j.purpose,
                JobPurpose::PreJob | JobPurpose::PostJob | JobPurpose::Cleanup
            )
        })
        .collect();
    println!("  (plus fork stages: {})", forks.len());

    println!("\nshape checks vs Figure 1:");
    let per_run: Vec<usize> = lanes.iter().map(Vec::len).collect();
    println!("  {} parallel GA runs        [figure: 4]", per_run.len());
    println!(
        "  jobs per run {:?} (chains)  [figure: '...' = several]",
        per_run
    );
    println!(
        "  exactly one solution eval: {}   [figure: single sink]",
        solution.len() == 1
    );
    // the GA runs genuinely overlapped in time
    let starts = lanes
        .iter()
        .filter_map(|l| l.iter().filter_map(|j| j.started_at).min());
    let ends: Vec<i64> = lanes
        .iter()
        .filter_map(|l| l.iter().filter_map(|j| j.ended_at).max())
        .collect();
    let overlap = starts.max().unwrap() < *ends.iter().min().unwrap();
    println!("  GA runs overlap in time:   {overlap}   [figure: parallel lanes]");
    // solution ran after every GA run finished
    let sol_start = solution[0].started_at.unwrap();
    println!(
        "  solution after all runs:   {}   [figure: join]",
        ends.iter().all(|e| *e <= sol_start)
    );
}
