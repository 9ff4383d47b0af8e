//! Regenerate Table 1: measured stellar benchmark + optimization run cost
//! for the four TeraGrid systems, side by side with the paper's numbers.
//!
//! Usage: `cargo run --release -p amp-bench --bin report_table1 [--quick]`
//! (`--quick` uses a reduced ensemble to finish in seconds).

#![forbid(unsafe_code)]

use amp_bench::table1;
use amp_core::OptimizationSpec;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = if quick {
        OptimizationSpec {
            ga_runs: 2,
            population: 30,
            generations: 40,
            cores_per_run: 128,
            seed: 1,
        }
    } else {
        OptimizationSpec::default() // the paper's 4 x 126 x 200
    };
    println!(
        "== Table 1 reproduction ({} GA runs x {} stars x {} iterations) ==\n",
        spec.ga_runs, spec.population, spec.generations
    );
    println!(
        "{}",
        table1::render(&table1::paper_rows(), "--- paper (GCE 2009) ---")
    );
    let measured = table1::measured_rows(spec);
    println!(
        "{}",
        table1::render(&measured, "--- measured (simulated TeraGrid) ---")
    );

    // Shape checks the paper's narrative draws from the table.
    let shape = table1::shape(&measured);
    println!("shape checks:");
    println!(
        "  fastest system:      {} ({:.1} h)   [paper: lonestar]",
        shape.fastest.system, shape.fastest.opt_hours
    );
    println!(
        "  fewest SUs:          {} ({:.0} SUs) [paper: lonestar]",
        shape.fewest_sus.system, shape.fewest_sus.sus
    );
    println!(
        "  frost/lonestar time: {:.1}x          [paper: {:.1}x]",
        shape.frost_over_lonestar,
        table1::shape(&table1::paper_rows()).frost_over_lonestar
    );
    println!(
        "  frost > 12 days:     {}            [paper: 'over 12 days']",
        shape.frost_over_12_days
    );

    // §2's deployment decision, recomputed from the measured landscape.
    let (best, ranked) = amp_gridamp::recommend(
        &amp_grid::systems::table1_systems(),
        &OptimizationSpec::default(),
    );
    println!(
        "
production recommendation: {}  [paper: kraken]",
        best.system
    );
    for a in &ranked {
        println!(
            "  {:<10} score {:>7.1} | predicted {:>6.1} h | concerns: {}",
            a.system,
            a.score,
            a.predicted_opt_hours,
            if a.concerns.is_empty() {
                "none".to_string()
            } else {
                a.concerns.join(", ")
            }
        );
    }
}
