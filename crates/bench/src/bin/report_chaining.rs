//! G2 — the §6 proposal, implemented and measured: "Many schedulers ...
//! support job chaining ... such that multiple jobs can be submitted at
//! once and queued independently but declared eligible to run only after a
//! prior job has completed. This would be perfect for AMP jobs, as the
//! initial simulation submission could include the 4-8 jobs that are
//! always required ..., possibly reducing the cumulative queue wait time."
//!
//! Usage: `cargo run --release -p amp-bench --bin report_chaining`

#![forbid(unsafe_code)]

use amp_bench::queue;

fn main() {
    println!("== G2: sequential continuations vs job chaining (section 6) ==\n");
    println!(
        "{:<10} {:>12} {:>16} {:>16} {:>14}",
        "system", "mode", "mean wait (min)", "total wait (h)", "makespan (h)"
    );
    for profile in queue::chaining_systems() {
        let name = profile.name.clone();
        let mut studies = Vec::new();
        for chaining in [false, true] {
            let study = queue::chaining_study(profile.clone(), chaining);
            let total_wait_h = study.stats.mean_wait_secs * study.stats.jobs as f64 / 3600.0;
            println!(
                "{:<10} {:>12} {:>16.1} {:>16.1} {:>14.1}",
                name,
                if chaining { "chained" } else { "sequential" },
                study.stats.mean_wait_secs / 60.0,
                total_wait_h,
                study.makespan_hours,
            );
            studies.push(study);
        }
        println!(
            "{:<10} {:>12} makespan change {:+.1}% | cumulative wait includes overlapped queueing\n",
            name,
            "->",
            queue::makespan_change(&studies[0], &studies[1]) * 100.0,
        );
    }
    println!(
        "(chained continuation jobs queue while their predecessor runs, so the\n\
         per-continuation queue wait overlaps execution instead of extending the\n\
         makespan — the effect the paper hoped for)"
    );
}
