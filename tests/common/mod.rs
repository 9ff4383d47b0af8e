//! Shared support for the integration suites: canonical fixtures plus
//! the deterministic chaos scheduler the failure-injection and
//! lease-failover tests drive their daemons with.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashSet};

use amp::prelude::*;
use amp::simdb::{Row, Value};
use amp_grid::{DaemonFault, DaemonFaultEvent, DaemonFaultPlan};

/// A naive model of a database of plain tables (no constraints, no foreign
/// keys): per table its rows by id and the next id to hand out. The storage
/// property tests compare the engine against it; it shares no code with
/// what it checks.
#[derive(Clone, Default)]
pub struct ModelDb {
    tables: BTreeMap<String, (BTreeMap<i64, Row>, i64)>,
}

impl ModelDb {
    pub fn create_table(&mut self, name: &str) {
        self.tables.insert(name.to_string(), (BTreeMap::new(), 1));
    }

    pub fn insert(&mut self, table: &str, row: Row) -> i64 {
        let (rows, next_id) = self.tables.get_mut(table).expect("model table");
        let id = *next_id;
        *next_id += 1;
        rows.insert(id, row);
        id
    }

    /// Set cell `column` of a row that exists.
    pub fn update(&mut self, table: &str, id: i64, column: usize, value: Value) {
        let (rows, _) = self.tables.get_mut(table).expect("model table");
        rows.get_mut(&id).expect("model row")[column] = value;
    }

    /// Remove a row that exists; its id is never handed out again.
    pub fn delete(&mut self, table: &str, id: i64) {
        let (rows, _) = self.tables.get_mut(table).expect("model table");
        rows.remove(&id).expect("model row");
    }

    /// Every row of `table`, ascending by id.
    pub fn rows(&self, table: &str) -> Vec<(i64, Row)> {
        let (rows, _) = &self.tables[table];
        rows.iter().map(|(id, row)| (*id, row.clone())).collect()
    }
}

/// The canonical "truth" star the failure suites synthesize observations
/// from.
pub fn truth() -> StellarParams {
    StellarParams {
        mass: 1.05,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    }
}

/// A single-daemon kraken deployment with the given work walltime.
pub fn deployment(walltime_hours: f64) -> amp::gridamp::Deployment {
    amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            work_walltime_hours: walltime_hours,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap()
}

/// `(sim id, status, result)` for every simulation — the timing-free
/// final state two runs of the same campaign must agree on.
pub fn final_states(db: &Db) -> Vec<(i64, String, Option<String>)> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut sims = Manager::<Simulation>::new(admin).all().unwrap();
    sims.sort_by_key(|s| s.id);
    sims.iter()
        .map(|s| {
            (
                s.id.unwrap(),
                s.status.as_str().to_string(),
                s.result_json.clone(),
            )
        })
        .collect()
}

/// The duplicate-submission oracle: job-state keys — including the
/// science application — are unique, and the grid saw exactly one GRAM
/// submit per recorded job handle.
pub fn assert_no_duplicate_submissions(db: &Db, grid: &amp::grid::Grid) {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let jobs = Manager::<GridJobRecord>::new(admin).all().unwrap();
    let mut keys = HashSet::new();
    for j in &jobs {
        assert!(
            keys.insert((
                j.app.as_str(),
                j.simulation_id,
                j.purpose.as_str(),
                j.ga_run,
                j.continuation
            )),
            "duplicate job-state row: app {} sim {} {} run {} cont {}",
            j.app,
            j.simulation_id,
            j.purpose.as_str(),
            j.ga_run,
            j.continuation
        );
    }
    let handles = jobs.iter().filter(|j| j.gram_handle.is_some()).count();
    let audit = grid.audit();
    let submits = audit
        .records()
        .iter()
        .filter(|r| r.action == "submit")
        .count();
    assert_eq!(
        submits, handles,
        "every GRAM submit must map to exactly one job record handle"
    );
}

/// Drives a fleet of daemons through kill / pause / restart / clock-skew
/// faults on a fixed, seeded schedule ([`DaemonFaultPlan`]). One
/// `begin_round` call per harness round: it applies the faults due that
/// round, restarts daemons whose downtime has ended (as fresh processes
/// with fresh identities and empty memory), and returns the indices of
/// the daemons allowed to tick.
pub struct ChaosScheduler {
    plan: DaemonFaultPlan,
    round: u64,
    /// First round at which each daemon may run again after a kill.
    down_until: Vec<u64>,
    /// First round at which each daemon may run again after a pause.
    paused_until: Vec<u64>,
    /// Killed daemons awaiting their restart-as-new-process.
    restart_pending: Vec<bool>,
    restarts: usize,
}

impl ChaosScheduler {
    pub fn new(n: usize, plan: DaemonFaultPlan) -> Self {
        ChaosScheduler {
            plan,
            round: 0,
            down_until: vec![0; n],
            paused_until: vec![0; n],
            restart_pending: vec![false; n],
            restarts: 0,
        }
    }

    /// The round the *next* `begin_round` call will execute.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// How many daemon processes have been killed and restarted so far.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Start the next round: restart revived daemons, apply this round's
    /// faults, and return the indices of the daemons that tick.
    pub fn begin_round(&mut self, db: &Db, daemons: &mut [GridAmp]) -> Vec<usize> {
        let round = self.round;
        self.round += 1;

        // Revive killed daemons whose downtime has ended. A restart is a
        // *new process*: fresh identity, empty ownership map, no memory
        // of prior streaks or leases — it must re-earn everything through
        // the lease table.
        for (i, daemon) in daemons.iter_mut().enumerate() {
            if self.restart_pending[i] && round >= self.down_until[i] {
                self.restarts += 1;
                let config = DaemonConfig {
                    daemon_id: format!("gridamp-{i}-r{}", self.restarts),
                    ..daemon.config.clone()
                };
                *daemon = GridAmp::new(db, config).expect("restart daemon");
                self.restart_pending[i] = false;
            }
        }

        let due: Vec<DaemonFaultEvent> = self.plan.at_round(round).cloned().collect();
        for event in due {
            let i = event.daemon;
            match event.fault {
                DaemonFault::Kill { down_ticks } => {
                    self.down_until[i] = round + u64::from(down_ticks);
                    self.restart_pending[i] = true;
                }
                DaemonFault::Pause { ticks } => {
                    self.paused_until[i] = round + u64::from(ticks);
                }
                DaemonFault::ClockSkew { offset_secs } => {
                    daemons[i].clock_skew_secs = offset_secs;
                }
            }
        }

        (0..daemons.len())
            .filter(|&i| round >= self.down_until[i] && round >= self.paused_until[i])
            .collect()
    }
}
