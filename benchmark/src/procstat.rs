//! What the kernel says about this process: CPU time used and peak
//! resident memory. Each workload runs in a process of its own, so both
//! are per workload.

/// User plus system CPU seconds of the whole process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: utime and stime are
    // the 12th and 13th, in clock ticks (100 per second on Linux).
    let after = stat.rsplit_once(')').map_or("", |x| x.1);
    let ticks: u64 = after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// CPU seconds the hypervisor took from this guest (`steal` in
/// `/proc/stat`), over all CPUs; 0 where the kernel does not report it.
pub fn stolen_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 =
        stat.lines().next().unwrap_or("").split_whitespace().nth(8).and_then(|f| f.parse().ok()).unwrap_or(0);
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 =
        status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_reports_both() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(super::cpu_seconds() > 0.0);
        assert!(super::rss_peak_mb().unwrap() > 1.0);
    }
}
