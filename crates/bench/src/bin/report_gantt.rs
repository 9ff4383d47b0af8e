//! G1 — the §6 tool: "a graphical tool that plots job wait vs. execution
//! time on a Gantt chart for each AMP simulation, as well as calculating
//! aggregate execution wait and run time statistics, in order to
//! understand the impact of queue wait time on various systems."
//!
//! Usage: `cargo run --release -p amp-bench --bin report_gantt`

#![forbid(unsafe_code)]

use amp_bench::queue;
use amp_gridamp::render_ascii;

fn main() {
    println!("== G1: job wait vs execution time across systems ==\n");
    let mut summaries = Vec::new();
    for profile in amp_grid::systems::table1_systems() {
        let study = queue::gantt_study(profile);
        let name = study.system.clone();
        println!(
            "--- {} (offered background load {:.0}% of capacity) ---",
            name,
            study.offered_load * 100.0
        );
        // one chart per simulation
        for chart in &study.charts {
            println!("{}", render_ascii(chart, 64));
        }
        println!(
            "aggregate: {} jobs | mean wait {:.1} min | median {:.1} min | max {:.1} min | mean run {:.1} min | wait/run = {:.2}\n",
            study.stats.jobs,
            study.stats.mean_wait_secs / 60.0,
            study.stats.median_wait_secs / 60.0,
            study.stats.max_wait_secs as f64 / 60.0,
            study.stats.mean_run_secs / 60.0,
            study.stats.wait_to_run_ratio,
        );
        summaries.push((name, study.stats.wait_to_run_ratio, study.makespan_hours));
    }
    println!("--- summary: queue-wait impact per system ---");
    println!("{:<10} {:>10} {:>14}", "system", "wait/run", "makespan (h)");
    for (name, ratio, makespan) in &summaries {
        println!("{name:<10} {ratio:>10.2} {makespan:>14.1}");
    }
    println!(
        "\n(Lonestar shows the largest wait/run — the paper's §2 reason for\n\
         preferring Kraken despite TACC's faster processors)"
    );
}
