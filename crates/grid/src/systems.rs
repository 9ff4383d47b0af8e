//! TeraGrid system profiles, calibrated to the paper's Table 1.
//!
//! | System        | Model bench (min) | SUs/CPUh | notes                       |
//! |---------------|-------------------|----------|-----------------------------|
//! | NCAR Frost    | 110.0             | 0.558    | BlueGene/L, slow cores      |
//! | NICS Kraken   | 23.6              | 1.623    | production target, WS-GRAM  |
//! | TACC Lonestar | 15.1              | 1.935    | fastest; small disk         |
//! | TACC Ranger   | 21.1              | 1.644    | no WS-GRAM                  |

use crate::time::SimDuration;

/// Static description of one TeraGrid compute resource.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemProfile {
    /// Short site name used in GRAM/GridFTP contact strings.
    pub name: String,
    /// Operating organization (NCAR, NICS, TACC).
    pub provider: String,
    /// Total schedulable processor cores.
    pub cores: u32,
    /// Measured single-processor stellar-model benchmark time (Table 1).
    pub model_benchmark_minutes: f64,
    /// TeraGrid service-unit charge factor per CPU-hour (Table 1).
    pub su_per_cpuh: f64,
    /// Scheduler walltime limit per job \[hours] (§6: "usually 6 or 24").
    pub walltime_limit_hours: f64,
    /// WS-GRAM availability (Ranger lacked it, §2).
    pub has_ws_gram: bool,
    /// Scratch quota in bytes (Lonestar's "small disk space", §2).
    pub scratch_quota_bytes: u64,
    /// Scheduler supports job chaining / dependencies (§6).
    pub supports_job_chaining: bool,
    /// Mean background utilization from other users' jobs in [0,1)
    /// ("allocation oversubscription", §2) — drives queue wait.
    pub background_utilization: f64,
}

impl SystemProfile {
    pub fn walltime_limit(&self) -> SimDuration {
        SimDuration::from_hours(self.walltime_limit_hours)
    }

    /// SU charge for a job using `cores` for `dur`.
    pub fn su_charge(&self, cores: u32, dur: SimDuration) -> f64 {
        dur.as_hours() * cores as f64 * self.su_per_cpuh
    }
}

/// NCAR Frost (BlueGene/L).
pub fn frost() -> SystemProfile {
    SystemProfile {
        name: "frost".into(),
        provider: "NCAR".into(),
        cores: 8192,
        model_benchmark_minutes: 110.0,
        su_per_cpuh: 0.558,
        walltime_limit_hours: 24.0,
        has_ws_gram: true,
        scratch_quota_bytes: 2 << 40,
        supports_job_chaining: true,
        background_utilization: 0.35,
    }
}

/// NICS Kraken (Cray XT5) — AMP's production target.
pub fn kraken() -> SystemProfile {
    SystemProfile {
        name: "kraken".into(),
        provider: "NICS".into(),
        cores: 66_048,
        model_benchmark_minutes: 23.6,
        su_per_cpuh: 1.623,
        walltime_limit_hours: 24.0,
        has_ws_gram: true,
        scratch_quota_bytes: 4 << 40,
        supports_job_chaining: true,
        background_utilization: 0.55,
    }
}

/// TACC Lonestar — fastest per core, small disk, oversubscribed.
pub fn lonestar() -> SystemProfile {
    SystemProfile {
        name: "lonestar".into(),
        provider: "TACC".into(),
        cores: 5840,
        model_benchmark_minutes: 15.1,
        su_per_cpuh: 1.935,
        walltime_limit_hours: 24.0,
        has_ws_gram: true,
        scratch_quota_bytes: 256 << 30,
        supports_job_chaining: true,
        background_utilization: 0.80,
    }
}

/// TACC Ranger — fast, but no WS-GRAM and oversubscribed.
pub fn ranger() -> SystemProfile {
    SystemProfile {
        name: "ranger".into(),
        provider: "TACC".into(),
        cores: 62_976,
        model_benchmark_minutes: 21.1,
        su_per_cpuh: 1.644,
        walltime_limit_hours: 24.0,
        has_ws_gram: false,
        scratch_quota_bytes: 4 << 40,
        supports_job_chaining: true,
        background_utilization: 0.80,
    }
}

/// All four Table 1 systems, in the table's order.
pub fn table1_systems() -> Vec<SystemProfile> {
    vec![frost(), kraken(), lonestar(), ranger()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_calibration() {
        let systems = table1_systems();
        let bench: Vec<f64> = systems.iter().map(|s| s.model_benchmark_minutes).collect();
        assert_eq!(bench, vec![110.0, 23.6, 15.1, 21.1]);
        let su: Vec<f64> = systems.iter().map(|s| s.su_per_cpuh).collect();
        assert_eq!(su, vec![0.558, 1.623, 1.935, 1.644]);
    }

    #[test]
    fn su_charge_formula() {
        // Frost optimization run: 293.3 h on 512 cores -> ~83.8k SUs
        let f = frost();
        let charge = f.su_charge(512, SimDuration::from_hours(293.3));
        assert!((charge - 83_800.0).abs() < 300.0, "charge {charge}");
    }

    #[test]
    fn ranger_lacks_ws_gram() {
        assert!(!ranger().has_ws_gram);
        assert!(kraken().has_ws_gram);
    }

    #[test]
    fn lonestar_disk_is_smallest() {
        let systems = table1_systems();
        let min = systems
            .iter()
            .min_by_key(|s| s.scratch_quota_bytes)
            .unwrap();
        assert_eq!(min.name, "lonestar");
    }

    #[test]
    fn tacc_systems_most_oversubscribed() {
        assert!(lonestar().background_utilization > kraken().background_utilization);
        assert!(ranger().background_utilization > frost().background_utilization);
    }
}
