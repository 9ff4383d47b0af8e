//! Claim C1 (§2): "the 200 iterations can be performed in about 160x to
//! 180x of the first iteration's measured time" — because the iteration
//! blocks on the slowest star and the population's run times converge.
//!
//! Usage: `cargo run --release -p amp-bench --bin report_convergence`

#![forbid(unsafe_code)]

use amp_bench::convergence;

fn main() {
    println!("== C1: iteration-time convergence (paper: 160x-180x of first iteration) ==\n");
    let runs = convergence::study();
    for run in &runs {
        let (label, ratio, first, last50) = (run.label, run.ratio, run.first, run.last50_mean);
        println!(
            "{label:<18} first iter {first:>6.1} min | mean of last 50 iters {last50:>6.1} min | total/first = {ratio:>5.1}x"
        );
        // a compact sparkline of iteration cost every 10 generations
        let marks: String = run
            .series
            .iter()
            .step_by(10)
            .map(|(_, c)| {
                let t = (c - 0.5 * first) / (0.6 * first);
                match (t * 5.0) as i64 {
                    i64::MIN..=0 => '_',
                    1 => '.',
                    2 => '-',
                    3 => '=',
                    _ => '#',
                }
            })
            .collect();
        println!("{:<18} cost/10gen: [{marks}]", "");
    }
    let mean = convergence::mean_ratio(&runs);
    println!("\nmean ratio {mean:.1}x (paper: \"about 160x to 180x\")");
    println!(
        "all within the approximate band [140, 190]: {}",
        runs.iter().all(|r| convergence::BAND.contains(&r.ratio))
    );
}
