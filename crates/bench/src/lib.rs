//! The paper's evaluation. Each public module computes one table, figure or
//! claim of the paper; a `report_*` binary prints it and a test at the end
//! of this file holds it. `EXPERIMENTS.md` records paper-vs-measured values
//! and the tests pin the measured ones, so a change that moves a paper
//! number updates `EXPERIMENTS.md` in the same change.

#![forbid(unsafe_code)]

use amp_core::models::{GridJobRecord, Simulation};
use amp_core::roles::{ROLE_ADMIN, ROLE_WEB};
use amp_core::{JobPurpose, OptimizationSpec, SimStatus};
use amp_grid::SystemProfile;
use amp_gridamp::{deploy, seed_fixtures, DaemonConfig, Deployment};
use amp_simdb::orm::Manager;
use amp_simdb::Query;
use amp_stellar::StellarParams;

/// A mid-domain synthetic target star used across experiments.
pub fn target_star() -> StellarParams {
    StellarParams {
        mass: 1.05,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    }
}

/// Deploy a quiet (no background load) AMP installation on one system.
pub fn quiet_deployment(profile: SystemProfile, walltime_hours: f64) -> Deployment {
    let config = DaemonConfig {
        work_walltime_hours: walltime_hours,
        poll_interval_secs: 300,
        ..DaemonConfig::default()
    };
    deploy(profile, config, None).expect("deployment")
}

/// Submit one simulation row via the web role and return its id.
pub fn submit(dep: &Deployment, sim: Simulation) -> i64 {
    let web = dep.db.connect(ROLE_WEB).expect("web role");
    let mut sim = sim;
    Manager::<Simulation>::new(web)
        .create(&mut sim)
        .expect("submit")
}

/// Load a simulation with the admin role.
pub fn load_sim(dep: &Deployment, id: i64) -> Simulation {
    let admin = dep.db.connect(ROLE_ADMIN).expect("admin role");
    Manager::<Simulation>::new(admin)
        .get(id)
        .expect("simulation")
}

/// All grid-job records of a simulation.
pub fn load_jobs(dep: &Deployment, id: i64) -> Vec<GridJobRecord> {
    let admin = dep.db.connect(ROLE_ADMIN).expect("admin role");
    Manager::<GridJobRecord>::new(admin)
        .filter(&Query::new().eq("simulation_id", id).order_by("id"))
        .expect("jobs")
}

/// Table 1 — stellar benchmark + optimization run cost per TeraGrid system;
/// with it claim C3, the 512 processors an optimization holds.
pub mod table1 {
    use super::*;

    /// One row of Table 1.
    #[derive(Debug, Clone)]
    pub struct Row {
        pub system: String,
        /// Stellar model benchmark run time \[min].
        pub model_minutes: f64,
        /// Optimization run time \[h].
        pub opt_hours: f64,
        /// CPU-hours consumed (cores x hours over all GA + solution jobs).
        pub cpuh: f64,
        /// TeraGrid SU charge factor.
        pub su_per_cpuh: f64,
        /// Total SUs charged.
        pub sus: f64,
        /// Optimization time as a multiple of the benchmark time.
        pub multiple: f64,
        /// Most processors the optimization held at one instant.
        pub peak_cores: i64,
    }

    /// The paper's published Table 1. `peak_cores` is not a Table 1 column:
    /// the 512 is §1's "512 processors" that every optimization holds.
    pub fn paper_rows() -> Vec<Row> {
        let raw = [
            ("frost", 110.0, 293.3, 150_187.0, 0.558, 83_804.0),
            ("kraken", 23.6, 61.9, 31_723.0, 1.623, 51_486.0),
            ("lonestar", 15.1, 40.4, 20_670.0, 1.935, 39_996.0),
            ("ranger", 21.1, 56.2, 28_771.0, 1.644, 47_229.0),
        ];
        raw.iter()
            .map(|&(s, m, h, cpuh, f, sus)| Row {
                system: s.to_string(),
                model_minutes: m,
                opt_hours: h,
                cpuh,
                su_per_cpuh: f,
                sus,
                multiple: h * 60.0 / m,
                peak_cores: 512,
            })
            .collect()
    }

    /// The row of `system`.
    pub fn row<'a>(rows: &'a [Row], system: &str) -> &'a Row {
        rows.iter().find(|r| r.system == system).expect(system)
    }

    /// Measure the stellar-model benchmark by running a direct simulation
    /// end-to-end on a quiet system and reading the work job's run time.
    pub fn measure_stellar_benchmark(profile: SystemProfile) -> f64 {
        let mut dep = quiet_deployment(profile.clone(), 24.0);
        let (user, star, alloc, _obs) =
            seed_fixtures(&dep.db, &profile.name, &target_star(), 1).expect("fixtures");
        let sim_id = submit(
            &dep,
            Simulation::new_direct(
                star,
                user,
                StellarParams::benchmark(),
                &profile.name,
                alloc,
                0,
            ),
        );
        dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
        let jobs = load_jobs(&dep, sim_id);
        let work = jobs
            .iter()
            .find(|j| j.purpose == JobPurpose::Work)
            .expect("work job");
        work.run_secs().expect("completed") as f64 / 60.0
    }

    /// One measured row: the benchmark, then a full optimization on a quiet
    /// system whose cost is accounted from its job records.
    fn measure_row(profile: SystemProfile, spec: OptimizationSpec, seed: u64) -> Row {
        let model_minutes = measure_stellar_benchmark(profile.clone());
        let mut dep = quiet_deployment(profile.clone(), 24.0);
        let (user, star, alloc, obs) =
            seed_fixtures(&dep.db, &profile.name, &target_star(), seed).expect("fixtures");
        let sim_id = submit(
            &dep,
            Simulation::new_optimization(star, user, spec, obs, &profile.name, alloc, 0),
        );
        dep.daemon.run_until_settled(&dep.grid, 24.0 * 60.0);
        let sim = load_sim(&dep, sim_id);
        assert_eq!(
            sim.status,
            SimStatus::Done,
            "optimization did not finish: {}",
            sim.status_message
        );
        let opt_hours = (sim.completed_at.unwrap() - sim.started_at.unwrap()) as f64 / 3600.0;
        let computing: Vec<GridJobRecord> = load_jobs(&dep, sim_id)
            .into_iter()
            .filter(|j| matches!(j.purpose, JobPurpose::Work | JobPurpose::SolutionEvaluation))
            .collect();
        let cpuh: f64 = computing
            .iter()
            .filter_map(|j| j.run_secs().map(|r| r as f64 / 3600.0 * j.cores as f64))
            .sum();
        // cores taken (+) and let go (-); a job ending at `t` lets go first
        let mut edges: Vec<(i64, i64)> = computing
            .iter()
            .filter_map(|j| Some([(j.started_at?, j.cores), (j.ended_at?, -j.cores)]))
            .flatten()
            .collect();
        edges.sort_unstable();
        let held = edges.iter().scan(0, |held, &(_, delta)| {
            *held += delta;
            Some(*held)
        });
        Row {
            system: profile.name,
            model_minutes,
            opt_hours,
            cpuh,
            su_per_cpuh: profile.su_per_cpuh,
            sus: cpuh * profile.su_per_cpuh,
            multiple: opt_hours * 60.0 / model_minutes,
            peak_cores: held.max().unwrap_or(0),
        }
    }

    /// Regenerate the whole table with a configurable ensemble spec (the
    /// paper's 4x126x200 by default; smaller specs for quick checks).
    pub fn measured_rows(spec: OptimizationSpec) -> Vec<Row> {
        amp_grid::systems::table1_systems()
            .into_iter()
            .zip(100..)
            .map(|(profile, seed)| measure_row(profile, spec.clone(), seed))
            .collect()
    }

    /// What §2 reads off the table.
    pub struct Shape<'a> {
        pub fastest: &'a Row,
        pub fewest_sus: &'a Row,
        /// Frost's optimization time over Lonestar's.
        pub frost_over_lonestar: f64,
        /// Frost takes "over 12 days".
        pub frost_over_12_days: bool,
    }

    pub fn shape(rows: &[Row]) -> Shape<'_> {
        let least = |key: fn(&Row) -> f64| {
            rows.iter()
                .min_by(|a, b| key(a).total_cmp(&key(b)))
                .expect("rows")
        };
        let frost = row(rows, "frost").opt_hours;
        Shape {
            fastest: least(|r| r.opt_hours),
            fewest_sus: least(|r| r.sus),
            frost_over_lonestar: frost / row(rows, "lonestar").opt_hours,
            frost_over_12_days: frost > 12.0 * 24.0,
        }
    }

    /// Render rows in the paper's layout.
    pub fn render(rows: &[Row], title: &str) -> String {
        let mut out = format!(
            "{title}\n{:<10} {:>14} {:>14} {:>12} {:>10} {:>12} {:>9}\n",
            "System", "Model (min)", "Opt run (h)", "CPUh", "SUs/CPUh", "SUs", "multiple"
        );
        for r in rows {
            out.push_str(&format!(
                "{:<10} {:>14.1} {:>14.1} {:>12.0} {:>10.3} {:>12.0} {:>8.0}x\n",
                r.system, r.model_minutes, r.opt_hours, r.cpuh, r.su_per_cpuh, r.sus, r.multiple
            ));
        }
        out
    }
}

/// Claim C1 — 200 iterations complete in 160x–180x the first iteration's
/// measured time, because the iteration time is the population max and the
/// population converges.
pub mod convergence {
    use amp_ga::{Ga, GaConfig};
    use amp_gridamp::StellarFitProblem;
    use amp_stellar::{iteration_minutes, synthesize, Domain, StellarParams};
    use std::ops::Range;

    /// The report's approximate band around the paper's "about 160x to 180x".
    pub const BAND: Range<f64> = 140.0..190.0;

    /// Per-iteration simulated cost of one GA run: (generation, minutes).
    /// Generation 0 is the initial-population evaluation — the paper's
    /// "first iteration's measured time" yardstick.
    pub fn series(
        truth: &StellarParams,
        benchmark_minutes: f64,
        population: usize,
        generations: u32,
        seed: u64,
    ) -> Vec<(u32, f64)> {
        let domain = Domain::default();
        let observed = synthesize("C1", truth, &domain, 0.1, seed).expect("observable truth");
        let problem = StellarFitProblem::new(observed);
        let mut ga = Ga::new(
            &problem,
            GaConfig {
                population,
                generations,
                ..GaConfig::default()
            },
            seed,
        );
        let cost = |ga: &Ga<'_, StellarFitProblem>| {
            let params: Vec<StellarParams> = ga
                .population()
                .iter()
                .map(|i| problem.decode(&i.phenotype))
                .collect();
            iteration_minutes(params.iter(), benchmark_minutes)
        };
        let mut out = vec![(0, cost(&ga))];
        while !ga.finished() {
            ga.step();
            out.push((ga.generation(), cost(&ga)));
        }
        out
    }

    /// Total time as a multiple of the first iteration's time.
    pub fn ratio(series: &[(u32, f64)]) -> f64 {
        let first = series.first().map(|(_, c)| *c).unwrap_or(1.0);
        let total: f64 = series.iter().map(|(_, c)| c).sum();
        total / first
    }

    /// One target star's 200-iteration run.
    #[derive(Debug, Clone)]
    pub struct TargetRun {
        pub label: &'static str,
        pub series: Vec<(u32, f64)>,
        /// Total over first.
        pub ratio: f64,
        /// The first iteration's minutes.
        pub first: f64,
        /// Mean minutes of the last 50 iterations.
        pub last50_mean: f64,
    }

    /// C1 as `report_convergence` prints it: four target stars, 126-star
    /// populations, 200 iterations, costed at Kraken's benchmark (the
    /// production target).
    pub fn study() -> Vec<TargetRun> {
        let bench = amp_grid::systems::kraken().model_benchmark_minutes;
        let target = crate::target_star();
        [
            ("mid-domain target", target, 5),
            (
                "young 1.2 Msun",
                StellarParams {
                    mass: 1.2,
                    age: 2.0,
                    ..target
                },
                21,
            ),
            (
                "old subgiant",
                StellarParams {
                    mass: 0.9,
                    age: 8.0,
                    ..target
                },
                99,
            ),
            (
                "metal-poor dwarf",
                StellarParams {
                    metallicity: 0.008,
                    age: 5.5,
                    ..target
                },
                12,
            ),
        ]
        .into_iter()
        .map(|(label, truth, seed)| {
            let series = series(&truth, bench, 126, 200, seed);
            TargetRun {
                label,
                ratio: ratio(&series),
                first: series[0].1,
                last50_mean: series[151..].iter().map(|(_, c)| c).sum::<f64>() / 50.0,
                series,
            }
        })
        .collect()
    }

    /// Mean total/first ratio over the targets.
    pub fn mean_ratio(runs: &[TargetRun]) -> f64 {
        runs.iter().map(|r| r.ratio).sum::<f64>() / runs.len() as f64
    }
}

/// Claim C2 — a direct run takes 10–15 minutes on one processor and
/// produces a few kilobytes.
pub mod direct {
    use super::*;

    /// One direct run's cost and output.
    #[derive(Debug, Clone)]
    pub struct DirectRun {
        pub label: &'static str,
        pub minutes: f64,
        pub cores: i64,
        pub output_kb: f64,
    }

    /// C2 as `report_direct` prints it: four representative stars run one
    /// after another on a quiet Lonestar (the TACC systems are the 10–15
    /// minute reference: benchmark 15.1 / 21.1).
    pub fn study() -> Vec<DirectRun> {
        let mut dep = quiet_deployment(amp_grid::systems::lonestar(), 24.0);
        let (user, star, alloc, _obs) =
            seed_fixtures(&dep.db, "lonestar", &target_star(), 8).expect("fixtures");
        let young_dwarf = StellarParams {
            mass: 0.9,
            age: 2.0,
            ..target_star()
        };
        [
            ("young dwarf", young_dwarf),
            ("solar analogue", StellarParams::sun()),
            ("Kepler-like target", target_star()),
            ("evolved benchmark", StellarParams::benchmark()),
        ]
        .into_iter()
        .map(|(label, params)| {
            let now = dep.grid.now().as_secs() as i64;
            let sim_id = submit(
                &dep,
                Simulation::new_direct(star, user, params, "lonestar", alloc, now),
            );
            dep.daemon.run_until_settled(&dep.grid, 24.0);
            let sim = load_sim(&dep, sim_id);
            assert_eq!(sim.status, SimStatus::Done, "{}", sim.status_message);
            let work = load_jobs(&dep, sim_id)
                .into_iter()
                .find(|j| j.purpose == JobPurpose::Work)
                .expect("work job");
            let bytes = sim.result_json.as_ref().map(|r| r.len()).unwrap_or(0);
            DirectRun {
                label,
                minutes: work.run_secs().unwrap() as f64 / 60.0,
                cores: work.cores,
                output_kb: bytes as f64 / 1024.0,
            }
        })
        .collect()
    }
}

/// G1 — the section-6 Gantt/queue-wait study, and G2 — the job-chaining
/// ablation.
pub mod queue {
    use super::*;
    use amp_gridamp::{chart_for, gantt, GanttChart};

    /// Outcome of a batch of optimization runs on one (busy) system.
    #[derive(Debug, Clone)]
    pub struct QueueStudy {
        pub system: String,
        /// Competing load offered, as a share of the system's capacity.
        pub offered_load: f64,
        pub charts: Vec<GanttChart>,
        pub stats: amp_gridamp::WaitRunStats,
        /// Wall-clock (simulated) makespan of the whole batch \[h].
        pub makespan_hours: f64,
    }

    /// Run two small (2 x 30) optimization runs of `generations` against a
    /// background-loaded system, with or without job chaining (§6).
    /// `offered_load` overrides the profile's long-run competing load —
    /// §2's "allocation oversubscription" means offered load at or above
    /// capacity, which is what makes batch queues back up.
    fn run_study(
        mut profile: SystemProfile,
        generations: u32,
        spec_seed: u64,
        chaining: bool,
        bg_seed: u64,
        offered_load: f64,
    ) -> QueueStudy {
        profile.background_utilization = offered_load;
        let site = profile.name.clone();
        let config = DaemonConfig {
            work_walltime_hours: 6.0,
            job_chaining: chaining,
            poll_interval_secs: 300,
            ..DaemonConfig::default()
        };
        let mut dep = deploy(profile, config, Some(bg_seed)).expect("deployment");
        // warm the machine up so the queue has contention from t=0
        dep.grid.advance(amp_grid::SimDuration::from_hours(24.0));

        let (user, star, alloc, obs) =
            seed_fixtures(&dep.db, &site, &target_star(), 7).expect("fixtures");
        let ids: Vec<i64> = [spec_seed, spec_seed + 101]
            .into_iter()
            .map(|seed| {
                let spec = OptimizationSpec {
                    ga_runs: 2,
                    population: 30,
                    generations,
                    cores_per_run: 128,
                    seed,
                };
                let now = dep.grid.now().as_secs() as i64;
                submit(
                    &dep,
                    Simulation::new_optimization(star, user, spec, obs, &site, alloc, now),
                )
            })
            .collect();
        let t0 = dep.grid.now();
        dep.daemon.run_until_settled(&dep.grid, 24.0 * 90.0);
        let makespan_hours = (dep.grid.now() - t0).as_hours();

        let admin = dep.db.connect(ROLE_ADMIN).expect("admin");
        let charts: Vec<GanttChart> = ids
            .iter()
            .map(|&id| chart_for(&admin, id).expect("chart"))
            .collect();
        let rows: Vec<amp_gridamp::GanttRow> =
            charts.iter().flat_map(|c| c.rows.iter().cloned()).collect();
        QueueStudy {
            system: site,
            offered_load,
            charts,
            stats: gantt::stats(&rows),
            makespan_hours,
        }
    }

    /// G1 as `report_gantt` prints it for one system: 40 generations,
    /// sequential continuations, under the profile's background load plus
    /// 35 points (oversubscribed where the profile is already busy).
    pub fn gantt_study(profile: SystemProfile) -> QueueStudy {
        let load = profile.background_utilization + 0.35;
        run_study(profile, 40, 77, false, 1234, load)
    }

    /// The systems G2 compares: Kraken's queue absorbs AMP's jobs,
    /// Lonestar's backs up.
    pub fn chaining_systems() -> [SystemProfile; 2] {
        [amp_grid::systems::kraken(), amp_grid::systems::lonestar()]
    }

    /// G2 as `report_chaining` prints it for one system and mode: 60
    /// generations (several walltime-limited jobs per run) at 105% offered
    /// load.
    pub fn chaining_study(profile: SystemProfile, chaining: bool) -> QueueStudy {
        run_study(profile, 60, 13, chaining, 4242, 1.05)
    }

    /// Chaining's change to the makespan, as a fraction of the sequential one.
    pub fn makespan_change(sequential: &QueueStudy, chained: &QueueStudy) -> f64 {
        (chained.makespan_hours - sequential.makespan_hours) / sequential.makespan_hours
    }
}

#[cfg(test)]
mod tests {
    //! One test per claim id: the paper's claim as the reproduction holds
    //! it, then a pin on the values `EXPERIMENTS.md` records.

    use super::*;
    use std::sync::OnceLock;

    /// Table 1 at the paper's 4 x 126 x 200, shared by T1 and C3 (~15 s in
    /// a debug build, most of this file's time).
    fn table1_rows() -> &'static [table1::Row] {
        static ROWS: OnceLock<Vec<table1::Row>> = OnceLock::new();
        ROWS.get_or_init(|| table1::measured_rows(OptimizationSpec::default()))
    }

    fn c1_runs() -> &'static [convergence::TargetRun] {
        static RUNS: OnceLock<Vec<convergence::TargetRun>> = OnceLock::new();
        RUNS.get_or_init(convergence::study)
    }

    /// Drift pin: each measured value is within 1% of the one pinned here,
    /// which is what `EXPERIMENTS.md` records (with a digit more where the
    /// report rounds coarser than 1%).
    fn pin<S: std::fmt::Display, const N: usize>(
        id: &str,
        columns: [&str; N],
        measured: &[(S, [f64; N])],
        pinned: &[[f64; N]],
    ) {
        assert_eq!(measured.len(), pinned.len(), "{id}: rows");
        for ((subject, measured), pinned) in measured.iter().zip(pinned) {
            for ((column, m), p) in columns.iter().zip(measured).zip(pinned) {
                assert!(
                    (m - p).abs() <= 0.01 * p.abs(),
                    "{id} {subject} {column}: measured {m:.4}, pinned {p}. A change that moves \
                     a paper number updates EXPERIMENTS.md's {id} section and this pin with it"
                );
            }
        }
    }

    #[test]
    fn paper_table_multiples_are_near_160() {
        for row in table1::paper_rows() {
            let (system, multiple) = (row.system, row.multiple);
            assert!((150.0..170.0).contains(&multiple), "{system}: {multiple}");
        }
    }

    #[test]
    fn stellar_benchmark_measured_matches_calibration() {
        // Lonestar is the fastest: one direct run, quick to simulate.
        let minutes = table1::measure_stellar_benchmark(amp_grid::systems::lonestar());
        assert!((minutes - 15.1).abs() < 0.5, "{minutes}");
    }

    #[test]
    fn convergence_ratio_in_paper_band() {
        // the mid-domain target: Kraken's 23.6 min, 126 x 200, seed 5
        let s = &c1_runs()[0].series;
        assert_eq!(s.len(), 201);
        let r = convergence::ratio(s);
        assert!((150.0..195.0).contains(&r), "ratio {r} far outside 160-180");
        // first iteration is among the most expensive
        let (first, later) = (s[0].1, &s[150..]);
        let later_mean: f64 = later.iter().map(|(_, c)| c).sum::<f64>() / 51.0;
        assert!(
            later_mean < first,
            "no convergence: {later_mean} vs {first}"
        );
    }

    #[test]
    fn t1_lonestar_fastest_and_cheapest_frost_over_12_days() {
        let rows = table1_rows();
        let paper = table1::paper_rows();
        // Table 1's benchmark column, which the profiles are calibrated to
        for (m, p) in rows.iter().zip(&paper) {
            let (system, minutes) = (&m.system, m.model_minutes);
            assert!(
                (minutes - p.model_minutes).abs() < 0.5,
                "{system}: benchmark {minutes} min"
            );
            assert!(m.cpuh > 0.0, "{system}: no CPU-hours");
        }
        let shape = table1::shape(rows);
        assert_eq!(shape.fastest.system, "lonestar");
        assert_eq!(shape.fewest_sus.system, "lonestar");
        let ratio = shape.frost_over_lonestar;
        let paper_ratio = table1::shape(&paper).frost_over_lonestar; // 7.3x
        assert!((ratio / paper_ratio - 1.0).abs() < 0.05, "{ratio:.2}x");
        assert!(shape.frost_over_12_days);

        let measured: Vec<_> = rows
            .iter()
            .map(|r| (r.system.as_str(), [r.opt_hours, r.cpuh, r.sus]))
            .collect();
        pin(
            "T1",
            ["opt run (h)", "CPUh", "SUs"],
            &measured,
            &[
                [347.4, 165_211.0, 92_188.0],
                [76.4, 33_542.0, 54_439.0],
                [48.5, 21_819.0, 42_220.0],
                [69.0, 32_501.0, 53_432.0],
            ],
        );
    }

    #[test]
    fn c1_every_target_converges_inside_the_band() {
        let runs = c1_runs();
        for run in runs {
            // The young 1.2 Msun target reads 184.8x, above the paper's
            // 180x but inside the report's band.
            let (label, ratio) = (run.label, run.ratio);
            assert!(convergence::BAND.contains(&ratio), "{label}: {ratio:.1}x");
            assert!(run.last50_mean < run.first, "{label}: no convergence");
        }
        let mean = convergence::mean_ratio(runs);
        assert!((160.0..180.0).contains(&mean), "mean {mean:.1}x");
        // one point per generation plus the initial population's
        let sixty = convergence::series(&target_star(), 23.6, 126, 60, 5);
        assert_eq!(sixty.len(), 61);

        let measured: Vec<_> = runs
            .iter()
            .map(|r| (r.label, [r.first, r.last50_mean, r.ratio]))
            .collect();
        pin(
            "C1",
            ["first iter (min)", "last-50 mean (min)", "total/first"],
            &measured,
            &[
                [24.5, 19.9, 153.7],
                [24.5, 22.6, 184.8],
                [24.5, 21.8, 172.7],
                [24.5, 19.6, 170.0],
            ],
        );
        pin("C1", ["mean ratio"], &[("all targets", [mean])], &[[170.3]]);
    }

    #[test]
    fn c2_direct_runs_take_minutes_on_one_core_and_return_a_few_kb() {
        let runs = direct::study();
        for run in &runs {
            // the paper's 10-15 min; the young dwarf reads 9.3
            let (label, minutes, kb) = (run.label, run.minutes, run.output_kb);
            assert!((9.0..=15.5).contains(&minutes), "{label}: {minutes:.1} min");
            assert_eq!(run.cores, 1, "{label}");
            assert!(kb > 0.0 && kb < 10.0, "{label}: {kb:.1} kB");
        }
        let measured: Vec<_> = runs
            .iter()
            .map(|r| (r.label, [r.minutes, r.output_kb]))
            .collect();
        pin(
            "C2",
            ["run (min)", "output (kB)"],
            &measured,
            &[[9.3, 2.55], [11.4, 2.55], [10.9, 2.56], [15.1, 2.56]],
        );
    }

    #[test]
    fn c3_optimization_holds_512_cores_for_40_hours_to_12_days() {
        let rows = table1_rows();
        for r in rows {
            assert_eq!(r.peak_cores, 512, "{}", r.system);
        }
        let shape = table1::shape(rows);
        let fastest = shape.fastest.opt_hours;
        assert!((40.0..60.0).contains(&fastest), "fastest {fastest:.1} h");
        let frost = table1::row(rows, "frost").opt_hours;
        assert!(shape.frost_over_12_days, "frost {frost:.1} h");

        let measured = [("fastest", [fastest]), ("frost", [frost])];
        pin("C3", ["opt run (h)"], &measured, &[[48.5], [347.4]]);
    }

    #[test]
    fn g1_lonestar_waits_most_and_kraken_hardly_at_all() {
        let studies: Vec<queue::QueueStudy> = amp_grid::systems::table1_systems()
            .into_iter()
            .map(queue::gantt_study)
            .collect();
        let ratio = |system: &str| {
            let study = studies.iter().find(|s| s.system == system);
            study.expect(system).stats.wait_to_run_ratio
        };
        let lonestar = ratio("lonestar");
        for s in &studies {
            assert!(s.stats.jobs > 0, "{}: no jobs", s.system);
            let ok = s.system == "lonestar" || s.stats.wait_to_run_ratio < lonestar;
            assert!(ok, "{} waits as long as lonestar", s.system);
        }
        assert!(lonestar > 0.5, "lonestar {lonestar:.2}");
        assert!(ratio("kraken") < 0.05, "kraken {:.2}", ratio("kraken"));

        let measured: Vec<_> = studies
            .iter()
            .map(|s| {
                let (st, wait) = (&s.stats, s.stats.mean_wait_secs / 60.0);
                let row = [st.jobs as f64, wait, st.wait_to_run_ratio, s.makespan_hours];
                (s.system.as_str(), row)
            })
            .collect();
        pin(
            "G1",
            ["jobs", "mean wait (min)", "wait/run", "makespan (h)"],
            &measured,
            &[
                [59.0, 3.28, 0.0124, 75.7],
                [19.0, 1.35, 0.0076, 16.4],
                [16.0, 151.8, 1.13, 22.7],
                [19.0, 3.33, 0.0210, 14.7],
            ],
        );
    }

    #[test]
    fn g2_chaining_shortens_lonestar_and_leaves_kraken() {
        let mut measured = Vec::new();
        for profile in queue::chaining_systems() {
            let system = profile.name.clone();
            let sequential = queue::chaining_study(profile.clone(), false);
            let chained = queue::chaining_study(profile, true);
            let change = queue::makespan_change(&sequential, &chained) * 100.0;
            match system.as_str() {
                "lonestar" => assert!(change < -2.0, "lonestar {change:+.1}%"),
                _ => assert!(change.abs() < 1.0, "{system} {change:+.1}%"),
            }
            for (mode, study) in [("sequential", sequential), ("chained", chained)] {
                let wait = study.stats.mean_wait_secs / 60.0;
                measured.push((format!("{system} {mode}"), [study.makespan_hours, wait]));
            }
        }
        pin(
            "G2",
            ["makespan (h)", "mean wait (min)"],
            &measured,
            &[[18.8, 6.277], [18.8, 502.3], [18.9, 44.7], [17.6, 335.1]],
        );
    }
}
