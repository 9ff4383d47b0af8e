//! Claim C2 (§2): "Direct model runs are trivial to configure and execute:
//! they require five floating-point parameters as input, take 10-15
//! minutes to execute on a single processor, and produce a few kilobytes
//! of output."
//!
//! Usage: `cargo run --release -p amp-bench --bin report_direct`

#![forbid(unsafe_code)]

use amp_bench::direct;

fn main() {
    println!("== C2: direct model runs (paper: 10-15 min, 1 processor, few kB) ==\n");
    println!(
        "{:<20} {:>12} {:>10} {:>14}",
        "star", "run (min)", "cores", "output (kB)"
    );
    let runs = direct::study();
    for run in &runs {
        println!(
            "{:<20} {:>12.1} {:>10} {:>14.1}",
            run.label, run.minutes, run.cores, run.output_kb
        );
    }
    let lo = runs.iter().map(|r| r.minutes).fold(f64::INFINITY, f64::min);
    let hi = runs.iter().map(|r| r.minutes).fold(0.0, f64::max);
    println!("\nrange {lo:.1}-{hi:.1} min on 1 processor  [paper: 10-15 min]");
}
