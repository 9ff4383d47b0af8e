//! The deployment advisor: §2's system-selection reasoning, executable.
//!
//! "For our production deployment, we have targeted the NICS Kraken system
//! due to its short solution time and support for WS-GRAM. The TACC
//! systems demonstrated better performance, but the small disk space
//! available on Lonestar and lack of WS-GRAM on Ranger, combined with the
//! current allocation oversubscription on those systems, discouraged their
//! use for this project."
//!
//! Given system profiles and an ensemble spec, the advisor scores each
//! system on exactly those axes and recommends a production target.

use amp_core::OptimizationSpec;
use amp_grid::SystemProfile;

/// Why a system was penalized (or not).
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    pub system: String,
    /// Predicted optimization run time \[h] (the astronomer's headline
    /// metric, §2).
    pub predicted_opt_hours: f64,
    /// Predicted SU charge for one optimization run.
    pub predicted_sus: f64,
    pub has_ws_gram: bool,
    /// Scratch space vs. what one simulation needs.
    pub disk_sufficient: bool,
    /// Background (competing) utilization — oversubscription proxy.
    pub oversubscription: f64,
    /// Lower is better; [`recommend`] picks the minimum.
    pub score: f64,
    /// Human-readable concerns, in the paper's vocabulary.
    pub concerns: Vec<String>,
}

/// Rough scratch footprint of one optimization run: input + restart +
/// final files per GA run, plus the consolidated tar (bytes).
pub fn scratch_footprint(spec: &OptimizationSpec) -> u64 {
    // restart files dominate: population x 5 genes x ~40 bytes, doubled
    // for history + logs, per run; generous 64 kB floor each.
    let per_run = ((spec.population as u64 * 5 * 40) * 4).max(64 << 10);
    (per_run * spec.ga_runs as u64) * 2 // plus the tar copy
}

/// Predict the optimization run time from the Table 1 relationship:
/// ~benchmark x generations x convergence factor (~0.85).
pub fn predict_opt_hours(profile: &SystemProfile, spec: &OptimizationSpec) -> f64 {
    profile.model_benchmark_minutes * spec.generations as f64 * 0.85 / 60.0
}

/// Assess one system for the given workload.
pub fn assess(profile: &SystemProfile, spec: &OptimizationSpec) -> Assessment {
    let predicted_opt_hours = predict_opt_hours(profile, spec);
    let predicted_sus = predicted_opt_hours * spec.total_cores() as f64 * profile.su_per_cpuh;
    // Production needs room for hundreds of concurrent simulation trees
    // plus staging copies; the paper judged Lonestar's scratch "small".
    const PRODUCTION_DISK_BAR: u64 = 1 << 40; // 1 TiB
    let disk_sufficient = profile.scratch_quota_bytes >= PRODUCTION_DISK_BAR
        && profile.scratch_quota_bytes >= scratch_footprint(spec) * 16;
    let mut concerns = Vec::new();
    if !profile.has_ws_gram {
        concerns.push("no WS-GRAM support".to_string());
    }
    if !disk_sufficient {
        concerns.push("small disk space".to_string());
    }
    if profile.background_utilization >= 0.7 {
        concerns.push("allocation oversubscription".to_string());
    }

    // Score: solution time with multiplicative penalties for each §2
    // concern. The paper weighs usability concerns above raw speed — the
    // TACC systems were faster but still lost.
    let mut score = predicted_opt_hours;
    if !profile.has_ws_gram {
        score *= 2.0;
    }
    if !disk_sufficient {
        score *= 2.0;
    }
    if profile.background_utilization >= 0.7 {
        score *= 2.5; // oversubscribed queues dominate turnaround in practice
    }

    Assessment {
        system: profile.name.clone(),
        predicted_opt_hours,
        predicted_sus,
        has_ws_gram: profile.has_ws_gram,
        disk_sufficient,
        oversubscription: profile.background_utilization,
        score,
        concerns,
    }
}

/// Rank all candidates (best first) and return the recommendation.
pub fn recommend(
    profiles: &[SystemProfile],
    spec: &OptimizationSpec,
) -> (Assessment, Vec<Assessment>) {
    let mut ranked: Vec<Assessment> = profiles.iter().map(|p| assess(p, spec)).collect();
    ranked.sort_by(|a, b| a.score.total_cmp(&b.score));
    (ranked[0].clone(), ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_grid::systems::{lonestar, ranger, table1_systems};

    #[test]
    fn production_recommendation_is_kraken() {
        // the paper's own conclusion from Table 1 + §2's concerns
        let (best, ranked) = recommend(&table1_systems(), &OptimizationSpec::default());
        assert_eq!(best.system, "kraken", "{ranked:#?}");
        assert!(best.concerns.is_empty());
    }

    #[test]
    fn ranger_penalized_for_missing_ws_gram() {
        let a = assess(&ranger(), &OptimizationSpec::default());
        assert!(!a.has_ws_gram);
        assert!(a.concerns.iter().any(|c| c.contains("WS-GRAM")));
        // despite being faster than Frost, it scores worse than Kraken
        let k = assess(&amp_grid::systems::kraken(), &OptimizationSpec::default());
        assert!(a.predicted_opt_hours < 60.0);
        assert!(a.score > k.score);
    }

    #[test]
    fn lonestar_flagged_for_oversubscription_and_fastest_raw_time() {
        let a = assess(&lonestar(), &OptimizationSpec::default());
        assert!(a.concerns.iter().any(|c| c.contains("oversubscription")));
        // TACC "demonstrated better performance" on raw time
        let times: Vec<f64> = table1_systems()
            .iter()
            .map(|p| assess(p, &OptimizationSpec::default()).predicted_opt_hours)
            .collect();
        assert!(
            a.predicted_opt_hours <= times.iter().cloned().fold(f64::INFINITY, f64::min) + 1e-9
        );
    }

    #[test]
    fn lonestar_disk_judged_small_for_production() {
        // the paper's exact concern: fast, but "small disk space"
        let a = assess(&lonestar(), &OptimizationSpec::default());
        assert!(!a.disk_sufficient);
        assert!(a.concerns.iter().any(|c| c.contains("disk")));
        // a roomy system has no disk concern
        let k = assess(&amp_grid::systems::kraken(), &OptimizationSpec::default());
        assert!(k.disk_sufficient);
    }

    #[test]
    fn predictions_match_table1_band() {
        for p in table1_systems() {
            let a = assess(&p, &OptimizationSpec::default());
            // predicted hours ~ benchmark x 170 (within the convergence band)
            let multiple = a.predicted_opt_hours * 60.0 / p.model_benchmark_minutes;
            assert!((150.0..190.0).contains(&multiple), "{}: {multiple}", p.name);
            assert!(a.predicted_sus > 10_000.0);
        }
    }

    #[test]
    fn footprint_scales_with_ensemble() {
        let small = scratch_footprint(&OptimizationSpec {
            ga_runs: 1,
            ..OptimizationSpec::default()
        });
        let big = scratch_footprint(&OptimizationSpec {
            ga_runs: 8,
            ..OptimizationSpec::default()
        });
        assert!(big > small * 4);
    }
}
