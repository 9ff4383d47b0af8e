//! Shared support for the integration suites: canonical fixtures, the naive
//! storage model the property tests check against, and the seeded world the
//! fault suites drive.
//!
//! A [`World`] is one deployment: a database (in memory, or durable with
//! fsync on in a temporary directory), the simulated grid with the AMP stack
//! on every site, and N daemons sharing both, each authorized. A
//! [`Schedule`] says what goes wrong in it and at which round of a run;
//! [`World::run`] is the one drive loop.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use amp::grid::systems::SystemProfile;
use amp::gridamp::{StepPoint, TickReport};
use amp::portal::{Request, Response};
use amp::prelude::*;
use amp::simdb::{Row, Value};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

/// The canonical "truth" star the suites synthesize observations from.
pub fn truth() -> StellarParams {
    StellarParams {
        mass: 1.05,
        metallicity: 0.02,
        helium: 0.27,
        alpha: 2.0,
        age: 4.0,
    }
}

/// Ground truth for the synthetic curve-fitting campaigns.
pub fn curve_truth() -> amp::core::app::curvefit::CurveParams {
    amp::core::app::curvefit::CurveParams {
        amplitude: 1.4,
        decay: 0.25,
        omega: 4.0,
        phase: 0.6,
        offset: 0.3,
    }
}

/// The default daemon with this work walltime.
pub fn walltime(hours: f64) -> DaemonConfig {
    DaemonConfig {
        work_walltime_hours: hours,
        ..DaemonConfig::default()
    }
}

/// An optimization of `ga_runs` GA runs of `population` × `generations`,
/// each on `cores_per_run` cores.
pub fn spec(
    ga_runs: u32,
    population: u32,
    generations: u32,
    cores: u32,
    seed: u64,
) -> OptimizationSpec {
    OptimizationSpec {
        ga_runs,
        population,
        generations,
        cores_per_run: cores,
        seed,
    }
}

/// Queue `sim` through the portal's connection; returns its id.
pub fn queue(db: &Db, mut sim: Simulation) -> i64 {
    let web = db.connect(amp::core::roles::ROLE_WEB).unwrap();
    Manager::<Simulation>::new(web).create(&mut sim).unwrap()
}

pub fn sim(db: &Db, sim_id: i64) -> Simulation {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    Manager::<Simulation>::new(admin).get(sim_id).unwrap()
}

/// The simulation's row, which must be DONE.
pub fn done(db: &Db, sim_id: i64) -> Simulation {
    let sim = sim(db, sim_id);
    assert_eq!(
        sim.status,
        SimStatus::Done,
        "sim {sim_id}: {}",
        sim.status_message
    );
    sim
}

/// Every job record of `purpose` ("WORK", …) of a simulation.
pub fn jobs_of(db: &Db, sim_id: i64, purpose: &str) -> Vec<GridJobRecord> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let of = Query::new()
        .eq("simulation_id", sim_id)
        .eq("purpose", purpose);
    Manager::<GridJobRecord>::new(admin).filter(&of).unwrap()
}

/// An administrator signed in to an admin-enabled portal on a database
/// (the portal of AMP's non-public deploys), to act as an operator would:
/// through the routes.
pub struct Admin {
    portal: Portal,
    cookie: String,
}

impl Admin {
    /// Make the administrator `ops` and sign in.
    pub fn on(db: &Db) -> Admin {
        let hash = amp::portal::hash_password("ops-password", "ops");
        let mut ops = AmpUser::new("ops", "ops@amp.example", &hash, 0);
        (ops.approved, ops.is_admin) = (true, true);
        let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
        Manager::<AmpUser>::new(admin).create(&mut ops).unwrap();
        let config = PortalConfig {
            admin_enabled: true,
            ..PortalConfig::default()
        };
        let portal = Portal::new(db, config).unwrap();
        let login = [("username", "ops"), ("password", "ops-password")];
        let resp = portal.handle(&Request::post("/accounts/login", &login));
        let cookie = resp.headers.iter().find(|(k, _)| k == "Set-Cookie");
        let cookie = cookie.expect("signed in").1.split(';').next().unwrap();
        let cookie = cookie.trim_start_matches("amp_session=").to_string();
        Admin { portal, cookie }
    }

    /// POST `form` to `path` in the administrator's session.
    pub fn post(&self, path: &str, form: &[(&str, &str)]) -> Response {
        let req = Request::post(path, form).with_cookie("amp_session", &self.cookie);
        self.portal.handle(&req)
    }
}

/// An empty directory of its own for one test: `amp_<tag>_<pid>` under the
/// system's temporary directory, wiped first.
pub fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amp_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable world's snapshot and log, in its directory.
pub const FILES: [&str; 2] = ["amp.snap", "amp.wal"];

/// Open (or create) the database in `dir`, fsync on. `initialize` defines
/// the roles, which live in memory, and creates only what is missing.
pub fn open_durable(dir: &Path) -> Db {
    let db = Db::open(dir.join(FILES[0]), dir.join(FILES[1])).unwrap();
    db.set_fsync(true);
    amp::core::setup::initialize(&db).unwrap();
    db
}

/// What a crash at this instant would leave: the two files, as they are.
pub fn copy_files(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for file in FILES {
        let _ = std::fs::remove_file(to.join(file));
        if from.join(file).exists() {
            std::fs::copy(from.join(file), to.join(file)).unwrap();
        }
    }
}

/// `(sim id, status, result)` for every simulation — the timing-free
/// final state two runs of the same campaign must agree on.
pub fn final_states(db: &Db) -> Vec<(i64, String, Option<String>)> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut sims = Manager::<Simulation>::new(admin).all().unwrap();
    sims.sort_by_key(|s| s.id);
    let state = |s: &Simulation| {
        (
            s.id.unwrap(),
            s.status.as_str().into(),
            s.result_json.clone(),
        )
    };
    sims.iter().map(state).collect()
}

/// Every allocation's `su_used`, in id order.
pub fn su_used(db: &Db) -> Vec<f64> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut allocations = Manager::<Allocation>::new(admin).all().unwrap();
    allocations.sort_by_key(|a| a.id);
    allocations.iter().map(|a| a.su_used).collect()
}

/// The duplicate-submission oracle: job-state keys — including the
/// science application — are unique, and the grid saw exactly one GRAM
/// submit per recorded job handle.
pub fn assert_no_duplicate_submissions(db: &Db, grid: &Grid) {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let jobs = Manager::<GridJobRecord>::new(admin).all().unwrap();
    let mut keys = HashSet::new();
    for j in &jobs {
        let key = (&j.app, j.simulation_id, j.purpose, j.ga_run, j.continuation);
        assert!(keys.insert(key), "duplicate job-state row {key:?}");
    }
    let handles = jobs.iter().filter(|j| j.gram_handle.is_some()).count();
    let audit = grid.audit();
    let submits = audit.records().iter().filter(|r| r.action == "submit");
    let why = "every GRAM submit must map to exactly one job record handle";
    assert_eq!(submits.count(), handles, "{why}");
}

/// One thing that goes wrong in a [`World`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// `(daemon, down)`: the process dies, and `down` rounds later a new one
    /// with a new identity and an empty memory takes its place, to re-earn
    /// its leases through the lease table.
    Kill(usize, u64),
    /// `(daemon, rounds)`: a stop-the-world pause. The daemon keeps its
    /// memory, stale beliefs about leases included, and resumes straight
    /// into the fencing guards. Zero rounds wakes a paused daemon.
    Pause(usize, u64),
    /// `(daemon, secs)`: the daemon's clock runs ahead of the grid's
    /// (behind, if negative), so it misjudges lease expiry.
    Skew(usize, i64),
    /// `(daemon)`: a new process under the same identity — its leases are
    /// still its own, its memory is empty.
    Restart(usize),
    /// `(site, service, from, to)`: `service` at `site` is down over
    /// `[from, to)`.
    Outage(&'static str, Service, SimTime, SimTime),
    /// `(site, from, to)`: over `[from, to)` GRAM at `site` does what a
    /// submission asks, and the reply is lost.
    LostReplies(&'static str, SimTime, SimTime),
    /// The database checkpoints (`Db::compact`).
    Checkpoint,
    /// The durable world crashes at this instant.
    Crash(Crash),
}

/// Where a durable world crashes: its files are copied to `<dir>/mid` as
/// they are, and the tick unwinds. Instants are counted from 1, over every
/// daemon.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Crash {
    /// At this mid-tick instant (`pause_point`).
    MidTick(usize),
    /// At the n-th step point of this kind (`step_point`, `StepPoint.kind`):
    /// right after the n-th effect of that kind a daemon performed.
    InStep(usize, &'static str),
}

/// What goes wrong in a world, and when: faults keyed by the round of a
/// [`World::run`] they strike at, applied in the order they were added.
/// Outages and lost replies are windows of grid time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    pub events: Vec<(u64, Fault)>,
}

impl Schedule {
    pub fn none() -> Schedule {
        Schedule::default()
    }

    pub fn at(mut self, round: u64, fault: Fault) -> Schedule {
        self.events.push((round, fault));
        self
    }

    /// `count` seeded faults over daemons `0..daemons` and rounds
    /// `0..rounds`: kills (down 1–5 rounds), pauses (1–4 rounds) and clock
    /// skews (under 15 minutes either way) in roughly equal measure.
    pub fn random_daemon_faults(self, daemons: u64, rounds: u64, count: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count).fold(self, |schedule, _| {
            let round = rng.random_range(0..rounds);
            let daemon = rng.random_range(0..daemons) as usize;
            let fault = match rng.random_range(0..3u32) {
                0 => Fault::Kill(daemon, rng.random_range(1..6u32).into()),
                1 => Fault::Pause(daemon, rng.random_range(1..5u32).into()),
                _ => Fault::Skew(daemon, rng.random_range(-900i64..900)),
            };
            schedule.at(round, fault)
        })
    }

    /// `count` seeded windows of `dur` starting in `[0, horizon)`, each made
    /// a fault by `window` and struck at round 0.
    pub fn random_windows(
        self,
        count: usize,
        dur: SimDuration,
        horizon: SimTime,
        seed: u64,
        window: impl Fn(SimTime, SimTime) -> Fault,
    ) -> Schedule {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count).fold(self, |schedule, _| {
            let from = SimTime(rng.random_range(0..horizon.as_secs().max(1)));
            schedule.at(0, window(from, from + dur))
        })
    }

    /// The faults that strike at `round`, in the order they were added.
    pub fn at_round(&self, round: u64) -> impl Iterator<Item = Fault> + '_ {
        let due = self.events.iter().filter(move |(at, _)| *at == round);
        due.map(|&(_, fault)| fault)
    }
}

/// What [`World::run`] shows its observer.
pub enum Seen<'r> {
    /// A round begins: its restarts are done and its faults applied.
    Begin(u64),
    /// Daemon `i` ticked, without a daemon error.
    Ticked(usize, &'r TickReport),
    /// Every runnable daemon of the round has ticked; the clock has not
    /// moved yet.
    End(u64),
}

/// The unwind payload of a scheduled crash.
struct Crashed;

/// What a durable world's daemons share with their hooks.
#[derive(Default)]
struct Instants {
    dir: PathBuf,
    crash: Mutex<Option<Crash>>,
    mid_ticks: AtomicUsize,
    /// Step points passed so far, by kind.
    step_points: Mutex<BTreeMap<&'static str, usize>>,
}

impl Instants {
    fn armed(&self, here: Crash) -> bool {
        *self.crash.lock().unwrap() == Some(here)
    }

    /// Copy the files as they are to `<dir>/mid`, and crash if `here` is
    /// the armed crash.
    fn pass(&self, here: Crash) {
        copy_files(&self.dir, &self.dir.join("mid"));
        if self.armed(here) {
            resume_unwind(Box::new(Crashed)); // unwinds without the panic hook
        }
    }
}

const MAX_ROUNDS: u64 = 20_000;

/// One deployment and the faults applied to it (see the module docs).
pub struct World {
    pub db: Db,
    pub grid: Grid,
    pub daemons: Vec<GridAmp>,
    dir: Option<PathBuf>,
    /// Set while a durable world has not crashed: its daemons copy the files
    /// to `<dir>/mid` at every mid-tick instant, and crash where told.
    instants: Option<Arc<Instants>>,
    round: u64,
    /// Per daemon: the round a killed one comes back at, and the first
    /// round a paused one ticks again.
    restart_at: Vec<Option<u64>>,
    paused_until: Vec<u64>,
    restarts: usize,
}

impl World {
    /// `n` daemons `gridamp-0..n` sharing an in-memory database and Kraken.
    pub fn kraken(n: usize, config: DaemonConfig) -> World {
        World::on(vec![amp::grid::systems::kraken()], None, config, n)
    }

    /// The same against `sites`, with background load from
    /// `background_seed` if there is one.
    pub fn on(sites: Vec<SystemProfile>, bg: Option<u64>, config: DaemonConfig, n: usize) -> World {
        let db = Db::in_memory();
        amp::core::setup::initialize(&db).unwrap();
        World::build(db, None, sites, bg, config, n)
    }

    /// `n` daemons on Kraken sharing a durable database in `tmpdir(tag)`,
    /// removed with the world.
    pub fn durable(tag: &str, config: DaemonConfig, n: usize) -> World {
        let dir = tmpdir(tag);
        let (db, sites) = (open_durable(&dir), vec![amp::grid::systems::kraken()]);
        World::build(db, Some(dir), sites, None, config, n)
    }

    fn build(
        db: Db,
        dir: Option<PathBuf>,
        sites: Vec<SystemProfile>,
        background_seed: Option<u64>,
        config: DaemonConfig,
        n: usize,
    ) -> World {
        let instants = dir.clone().map(|dir| {
            Arc::new(Instants {
                dir,
                ..Instants::default()
            })
        });
        let mut world = World {
            instants,
            db,
            grid: Grid::new(),
            daemons: Vec::new(),
            dir,
            round: 0,
            restart_at: Vec::new(),
            paused_until: Vec::new(),
            restarts: 0,
        };
        let configs = (0..n).map(|i| DaemonConfig {
            daemon_id: format!("gridamp-{i}"),
            ..config.clone()
        });
        world.daemons = configs.map(|config| world.spawn(config)).collect();
        for profile in sites {
            let site = profile.name.clone();
            match background_seed {
                Some(seed) => world.grid.add_site_with_background(profile, seed),
                None => world.grid.add_site(profile),
            }
            amp::gridamp::apps::install_amp_stack(&mut world.grid, &site);
            for daemon in &world.daemons {
                world.grid.authorize(&site, daemon.credential());
            }
        }
        world
    }

    /// A new daemon process on this world's database.
    fn spawn(&self, config: DaemonConfig) -> GridAmp {
        let mut daemon = GridAmp::new(&self.db, config).unwrap();
        let Some(instants) = &self.instants else {
            return daemon;
        };
        let shared = Arc::clone(instants);
        daemon.pause_point = Some(Box::new(move || {
            let instant = shared.mid_ticks.fetch_add(1, SeqCst) + 1;
            shared.pass(Crash::MidTick(instant));
        }));
        let shared = Arc::clone(instants);
        daemon.step_point = Some(Box::new(move |point: StepPoint<'_>| {
            let kind = point.kind;
            let nth = {
                let mut passed = shared.step_points.lock().unwrap();
                let nth = passed.entry(kind).or_insert(0);
                *nth += 1;
                *nth
            };
            if shared.armed(Crash::InStep(nth, kind)) {
                shared.pass(Crash::InStep(nth, kind));
            }
        }));
        daemon
    }

    /// Replace daemon `i` by a new process with a new identity.
    fn respawn(&mut self, i: usize) {
        self.restarts += 1;
        let daemon_id = format!("gridamp-{i}-r{}", self.restarts);
        let config = DaemonConfig {
            daemon_id,
            ..self.daemons[i].config.clone()
        };
        self.daemons[i] = self.spawn(config);
    }

    /// A durable world's directory.
    pub fn dir(&self) -> &Path {
        self.dir.as_deref().expect("a durable world")
    }

    /// What the last mid-tick instant, or the crash, left of the files.
    pub fn mid(&self) -> PathBuf {
        self.dir().join("mid")
    }

    fn instants(&self) -> &Instants {
        self.instants
            .as_deref()
            .expect("a durable world, not crashed")
    }

    /// Mid-tick instants passed so far, over every daemon.
    pub fn mid_ticks(&self) -> usize {
        self.instants().mid_ticks.load(SeqCst)
    }

    /// Step points passed so far over every daemon, by kind.
    pub fn step_points(&self) -> BTreeMap<&'static str, usize> {
        self.instants().step_points.lock().unwrap().clone()
    }

    /// `fault`, now.
    pub fn apply(&mut self, fault: Fault) {
        let round = self.round;
        match fault {
            Fault::Kill(i, down) => self.restart_at[i] = Some(round.saturating_add(down)),
            Fault::Pause(i, rounds) => self.paused_until[i] = round.saturating_add(rounds),
            Fault::Skew(i, secs) => self.daemons[i].clock_skew_secs = secs,
            Fault::Restart(i) => self.daemons[i] = self.spawn(self.daemons[i].config.clone()),
            Fault::Outage(site, service, from, to) => {
                self.grid.faults.add_outage(site, service, from, to)
            }
            Fault::LostReplies(site, from, to) => self.grid.faults.add_lost_replies(site, from, to),
            Fault::Checkpoint => self.db.compact().unwrap(),
            Fault::Crash(at) => *self.instants().crash.lock().unwrap() = Some(at),
        }
    }

    /// The world after its crash: the database reopened from what the crash
    /// left in `<dir>/mid`, every daemon a new process with a new identity.
    /// A world crashes once: the recovered one has no crash hooks.
    pub fn recover(&mut self) {
        self.instants = None;
        self.db = open_durable(&self.mid());
        (0..self.daemons.len()).for_each(|i| self.respawn(i));
    }

    /// Run round by round until every simulation is DONE or HOLD; returns
    /// the rounds that took, or `None` if a scheduled crash unwound a tick.
    /// A run starts at round 0 with every daemon runnable. A round restarts
    /// the killed daemons whose downtime is over, applies the schedule's
    /// faults for it, and ticks the daemons neither down nor paused, in an
    /// order rotated by the round so that no daemon keeps the first claim;
    /// no tick may report a daemon error. Then the clock advances one poll
    /// interval. `observe` sees the run as it goes.
    pub fn run(
        &mut self,
        schedule: &Schedule,
        mut observe: impl FnMut(&mut World, Seen<'_>),
    ) -> Option<u64> {
        let n = self.daemons.len();
        (self.restart_at, self.paused_until) = (vec![None; n], vec![0; n]);
        let poll = SimDuration::from_secs(self.daemons[0].config.poll_interval_secs);
        for round in 0..MAX_ROUNDS {
            self.round = round;
            for i in 0..n {
                if self.restart_at[i].is_some_and(|at| round >= at) {
                    self.restart_at[i] = None;
                    self.respawn(i);
                }
            }
            schedule.at_round(round).for_each(|fault| self.apply(fault));
            observe(self, Seen::Begin(round));
            let runs = |i: &usize| self.restart_at[*i].is_none() && round >= self.paused_until[*i];
            let runnable: Vec<usize> = (0..n).filter(runs).collect();
            for k in 0..runnable.len() {
                let i = runnable[(round as usize + k) % runnable.len()];
                let (daemon, grid) = (&mut self.daemons[i], &self.grid);
                let report = match catch_unwind(AssertUnwindSafe(|| daemon.tick(grid))) {
                    Ok(report) => report,
                    Err(payload) if payload.is::<Crashed>() => return None,
                    Err(payload) => resume_unwind(payload),
                };
                let errors = &report.daemon_errors;
                assert!(errors.is_empty(), "round {round} daemon {i}: {errors:?}");
                observe(self, Seen::Ticked(i, &report));
            }
            observe(self, Seen::End(round));
            let states = final_states(&self.db);
            if states.iter().all(|(_, s, _)| s == "DONE" || s == "HOLD") {
                return Some(round + 1);
            }
            self.grid.advance(poll);
        }
        panic!("the world did not settle in {MAX_ROUNDS} rounds");
    }
}

impl Drop for World {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
