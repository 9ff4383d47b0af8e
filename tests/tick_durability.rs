//! The tick is the daemon's commit: its writes are logged and visible as
//! they happen, but only the end of a tick flushes the log (DESIGN §9.9).
//! This suite checks what that leaves on the device, on a durable fsync-on
//! database that two daemons drain a mixed backlog from:
//!
//! * **every instant recovers** — a copy of snapshot + log taken at every
//!   tick boundary and in the middle of every tick (through the daemon's
//!   `pause_point`) opens, takes a write, and holds the job record of every
//!   GRAM handle the grid had handed out before that tick;
//! * **a tick boundary loses nothing** — a boundary copy's tables equal the
//!   live database's, row for row, and a mid-tick copy is a whole-commit
//!   prefix of the log at the boundary that follows;
//! * **a power cut mid-append loses nothing either** — the same boundary
//!   copy with part of one more frame after it recovers to the same tables;
//! * **a crash costs no submission, wherever it falls** — abandon the
//!   deployment in the middle of a tick, or inside a step right after the
//!   site accepted a submission, or after its job record was written and
//!   before the tick's flush; open fresh daemons on the copy (torn tail and
//!   all) against the same grid, and the campaign drains to all-DONE with no
//!   job key submitted twice, the same final state and the same service
//!   units charged as the run nobody interrupted;
//! * **nor does a long outage after it** — crash right after a GA run's last
//!   continuation is accepted, leave the grid alone until that run has
//!   converged, and the daemons that come back give the continuation its
//!   job record (nobody asks for it again: they ask the site what it
//!   accepted) and charge its CPU-hours.

mod common;

use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amp::core::models::Allocation;
use amp::gridamp::{seed_curvefit_fixtures, seed_fixtures, StepPoint};
use amp::prelude::*;
use amp::simdb::wal::{encode_frame, Wal, MAGIC};
use amp::simdb::LogOp;
use common::{assert_no_duplicate_submissions, final_states, truth};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

const FILES: [&str; 2] = ["amp.snap", "amp.wal"];
const DAEMONS: usize = 2;
const MAX_ROUNDS: usize = 5_000;

/// Open (or create) the database under `dir`, fsync on. `initialize`
/// defines the roles, which live in memory, and creates only what is
/// missing.
fn open(dir: &Path) -> Db {
    let db = Db::open(dir.join(FILES[0]), dir.join(FILES[1])).unwrap();
    db.set_fsync(true);
    amp::core::setup::initialize(&db).unwrap();
    db
}

/// What a crash at this instant would leave: the two files, as they are.
fn copy_files(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for file in FILES {
        let _ = std::fs::remove_file(to.join(file));
        if from.join(file).exists() {
            std::fs::copy(from.join(file), to.join(file)).unwrap();
        }
    }
}

/// Leave the first `keep % len` (at least one, never all) bytes of one more
/// frame after the copy's log: what a power cut in the middle of an append
/// leaves on the device.
fn tear_tail(copy: &Path, keep: usize) {
    let op = LogOp::Insert {
        table: "notification".into(),
        id: 1 << 40,
        row: vec!["lost to the power cut ".repeat(8).into()],
    };
    let frame = encode_frame(1 << 40, &[op]).unwrap();
    let keep = 1 + keep % (frame.len() - 1);
    let log = std::fs::File::options()
        .append(true)
        .open(copy.join(FILES[1]));
    log.unwrap().write_all(&frame[..keep]).unwrap();
}

fn daemons(db: &Db, grid: &mut Grid, generation: &str, walltime_hours: f64) -> Vec<GridAmp> {
    (0..DAEMONS)
        .map(|i| {
            let config = DaemonConfig {
                daemon_id: format!("gridamp-{generation}{i}"),
                work_walltime_hours: walltime_hours,
                ..DaemonConfig::default()
            };
            let daemon = GridAmp::new(db, config).unwrap();
            grid.authorize("kraken", daemon.credential());
            daemon
        })
        .collect()
}

/// Queue a seeded backlog of all four kinds — direct and optimization runs
/// of both applications — in a seeded order.
fn seed_backlog(db: &Db, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (user, star, alloc, obs) = seed_fixtures(db, "kraken", &truth(), seed).unwrap();
    let curve = amp::core::app::curvefit::CurveParams {
        amplitude: 1.4,
        decay: 0.25,
        omega: 4.0,
        phase: 0.6,
        offset: 0.3,
    };
    let (cf_star, cf_obs) = seed_curvefit_fixtures(db, user, &curve, seed).unwrap();
    let mut kinds = [0, 0, 1, 2, 2, 3];
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.random_range(0..=i));
    }
    let sims = Manager::<Simulation>::new(db.connect(amp::core::roles::ROLE_WEB).unwrap());
    for kind in kinds {
        let spec = OptimizationSpec {
            ga_runs: 2,
            population: 12,
            generations: 12,
            cores_per_run: 16,
            seed: rng.random_range(1..1_000),
        };
        let mut sim = match kind {
            0 => {
                let params = StellarParams {
                    mass: rng.random_range(0.9..1.2),
                    ..truth()
                };
                Simulation::new_direct(star, user, params, "kraken", alloc, 0)
            }
            1 => Simulation::new_optimization(star, user, spec, obs, "kraken", alloc, 0),
            2 => {
                let params = serde_json::json!({
                    "amplitude": rng.random_range(1.0..2.0), "decay": 0.25, "omega": 4.0,
                    "phase": 0.6, "offset": 0.3
                });
                Simulation::direct_for("curvefit", cf_star, user, params, "kraken", alloc, 0)
            }
            _ => Simulation::optimization_for(
                "curvefit", cf_star, user, spec, cf_obs, "kraken", alloc, 0,
            ),
        };
        sims.create(&mut sim).unwrap();
    }
}

/// Row count and content hash of every table.
fn fingerprint(db: &Db) -> BTreeMap<String, (usize, u64)> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    db.table_names()
        .into_iter()
        .map(|table| {
            let rows = admin.select(&table, &Query::new().order_by("id")).unwrap();
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            for (id, row) in &rows {
                id.hash(&mut hasher);
                format!("{row:?}").hash(&mut hasher);
            }
            (table, (rows.len(), hasher.finish()))
        })
        .collect()
}

/// Every GRAM handle the grid has handed out so far, from its audit log.
fn submitted_handles(grid: &Grid) -> Vec<String> {
    let audit = grid.audit();
    let submits = audit.records().iter().filter(|r| r.action == "submit");
    submits
        .map(|r| r.detail.rsplit(" -> ").next().unwrap().to_string())
        .collect()
}

/// Recover a copy (on a scratch copy of it, so the copy itself stays as the
/// crash left it): it opens, holds the job record of every handle in
/// `submitted`, and accepts a write. Returns its tables' fingerprint.
fn recover_copy(copy: &Path, submitted: &[String], at: &str) -> BTreeMap<String, (usize, u64)> {
    let scratch = copy.with_extension("check");
    copy_files(copy, &scratch);
    let db = open(&scratch);
    let tables = fingerprint(&db);
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let recorded: HashSet<String> = Manager::<GridJobRecord>::new(admin.clone())
        .all()
        .unwrap()
        .into_iter()
        .filter_map(|job| job.gram_handle)
        .collect();
    for handle in submitted {
        assert!(
            recorded.contains(handle),
            "{at}: GRAM handle {handle} has no job record in the copy"
        );
    }
    let notes = Manager::<Notification>::new(admin);
    let before = notes.all().unwrap().len();
    let mut note = Notification::to_admins(None, "recovered", at, 0);
    notes.create(&mut note).unwrap();
    assert_eq!(notes.all().unwrap().len(), before + 1, "{at}");
    tables
}

/// Every allocation's `su_used`, in id order.
fn su_used(db: &Db) -> Vec<f64> {
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut allocations = Manager::<Allocation>::new(admin).all().unwrap();
    allocations.sort_by_key(|a| a.id);
    allocations.iter().map(|a| a.su_used).collect()
}

/// The same charges, whatever order they were added up in.
fn assert_same_charges(charged: &[f64], reference: &[f64], tag: &str) {
    assert_eq!(charged.len(), reference.len(), "{tag}");
    for (used, expected) in charged.iter().zip(reference) {
        let close = (used - expected).abs() <= 1e-9 * expected.abs();
        assert!(close, "{tag}: charged {charged:?}, not {reference:?}");
    }
}

fn all_done(db: &Db) -> bool {
    final_states(db)
        .iter()
        .all(|(_, status, _)| status == "DONE")
}

/// How a campaign ended: drained, or abandoned in the middle of a tick with
/// the files as they were in `<dir>/mid`.
enum Ended {
    Drained,
    Crashed,
}

/// Where a campaign is abandoned, as a crash would.
#[derive(Clone, Copy)]
enum Crash {
    /// At this mid-tick instant (`pause_point`; counted from 1).
    MidTick(usize),
    /// At this point of this GRAM submission (counted from 1).
    InStep(usize, StepPoint),
    /// Right after the site accepted this Work job: `(simulation, ga_run,
    /// continuation)`.
    Accepting(i64, i64, i64),
}

/// One deployment: durable database in `dir`, simulated Kraken, two
/// daemons, the seeded backlog.
struct Campaign {
    dir: PathBuf,
    db: Db,
    grid: Grid,
    daemons: Vec<GridAmp>,
    walltime_hours: f64,
    /// Mid-tick instants passed so far, over both daemons.
    pauses: Arc<AtomicUsize>,
    /// GRAM handles handed out before each of them.
    submitted_at_pause: Vec<usize>,
}

impl Campaign {
    fn deploy(tag: &str, seed: u64, walltime_hours: f64, crash: Option<Crash>) -> Campaign {
        let dir = std::env::temp_dir().join(format!("amp_tickdur_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = open(&dir);
        let mut grid = Grid::new();
        grid.add_site(amp::grid::systems::kraken());
        amp::gridamp::apps::install_amp_stack(&mut grid, "kraken");
        let mut daemons = daemons(&db, &mut grid, "", walltime_hours);
        seed_backlog(&db, seed);
        let pauses = Arc::new(AtomicUsize::new(0));
        let submissions = Arc::new(AtomicUsize::new(0));
        for daemon in &mut daemons {
            let (at, pauses) = (dir.clone(), Arc::clone(&pauses));
            daemon.pause_point = Some(Box::new(move || {
                copy_files(&at, &at.join("mid"));
                let instant = pauses.fetch_add(1, Ordering::SeqCst) + 1;
                if matches!(crash, Some(Crash::MidTick(at)) if at == instant) {
                    resume_unwind(Box::new("crash")); // unwinds without the panic hook
                }
            }));
            let (dir, submissions) = (dir.clone(), Arc::clone(&submissions));
            daemon.step_point = Some(Box::new(move |point, job| {
                let accepted = usize::from(point == StepPoint::Accepted);
                let nth = submissions.fetch_add(accepted, Ordering::SeqCst) + accepted;
                let key = (job.simulation_id, job.ga_run, job.continuation);
                let here = match crash {
                    Some(Crash::InStep(n, at)) => (n, at) == (nth, point),
                    Some(Crash::Accepting(sim, run, c)) => {
                        (sim, run, c) == key && accepted == 1 && job.purpose == JobPurpose::Work
                    }
                    _ => false,
                };
                if here {
                    copy_files(&dir, &dir.join("mid"));
                    resume_unwind(Box::new("crash"));
                }
            }));
        }
        Campaign {
            dir,
            db,
            grid,
            daemons,
            walltime_hours,
            pauses,
            submitted_at_pause: Vec::new(),
        }
    }

    /// Tick the daemons round-robin until the backlog is drained or a tick
    /// crashes. With `check`, every mid-tick and boundary copy is recovered
    /// and compared; a crash copy always is.
    fn run(&mut self, seed: u64, check: bool) -> Ended {
        let compact_at = 3 + seed as usize % 5;
        let (mid, boundary) = (self.dir.join("mid"), self.dir.join("boundary"));
        for round in 0..MAX_ROUNDS {
            for k in 0..DAEMONS {
                let i = (round + k) % DAEMONS;
                let at = format!("round {round} daemon {i}");
                // The claim phase submits nothing, so the audit log at the
                // mid-tick instant is the audit log now.
                let submitted = submitted_handles(&self.grid);
                self.submitted_at_pause.push(submitted.len());
                let (daemon, grid) = (&mut self.daemons[i], &self.grid);
                let tick = catch_unwind(AssertUnwindSafe(|| daemon.tick(grid)));
                if check || tick.is_err() {
                    recover_copy(&mid, &submitted, &format!("{at}, mid-tick"));
                }
                let Ok(report) = tick else {
                    return Ended::Crashed;
                };
                assert!(report.daemon_errors.is_empty(), "{at}: {report:?}");
                if !check {
                    continue;
                }
                copy_files(&self.dir, &boundary);
                let copied = recover_copy(&boundary, &submitted_handles(&self.grid), &at);
                assert_eq!(copied, fingerprint(&self.db), "{at}: boundary copy != live");
                let log = |dir: &Path| std::fs::read(dir.join(FILES[1])).unwrap();
                let (early, late) = (log(&mid), log(&boundary));
                assert!(late.starts_with(&early), "{at}: mid-tick log is no prefix");
                let frames = Wal::read_frames(boundary.join(FILES[1])).unwrap();
                let ends = frames.iter().map(|f| f.end);
                let mut whole = [0, MAGIC.len()].into_iter().chain(ends);
                assert!(whole.any(|end| end == early.len()), "{at}: torn commit");
                tear_tail(&boundary, round * 31 + k * 17);
                assert!(log(&boundary).len() > late.len());
                let torn = recover_copy(&boundary, &submitted_handles(&self.grid), &at);
                assert_eq!(torn, copied, "{at}: torn boundary copy != clean one");
            }
            if all_done(&self.db) {
                return Ended::Drained;
            }
            if round == compact_at {
                self.db.compact().unwrap(); // so the copies carry a snapshot too
            }
            self.grid.advance(SimDuration::from_secs(300));
        }
        panic!("backlog did not drain in {MAX_ROUNDS} rounds");
    }
}

impl Campaign {
    /// Run to the crash, then recover what it left: fresh daemons on the
    /// `mid` copy — with the append the crash interrupted — against the grid
    /// that survived, left alone for `outage_hours` first. Returns the
    /// recovered database once it has drained.
    fn crash_and_recover(mut self, seed: u64, tag: &str, outage_hours: f64) -> Db {
        assert!(matches!(self.run(seed, false), Ended::Crashed), "{tag}");
        let Campaign { dir, mut grid, .. } = self;
        grid.advance(SimDuration::from_hours(outage_hours));
        tear_tail(&dir.join("mid"), tag.len());
        let db = open(&dir.join("mid"));
        let mut fresh = daemons(&db, &mut grid, "r", self.walltime_hours);
        let mut rounds = 0;
        while !all_done(&db) {
            rounds += 1;
            assert!(
                rounds < MAX_ROUNDS,
                "{tag}: recovered backlog did not drain"
            );
            for daemon in &mut fresh {
                let report = daemon.tick(&grid);
                assert!(report.daemon_errors.is_empty(), "{tag}: {report:?}");
            }
            grid.advance(SimDuration::from_secs(300));
        }
        assert_no_duplicate_submissions(&db, &grid);
        db
    }
}

fn tick_granular_recovery(seed: u64) {
    // The run nobody interrupts, with every instant of it recovered.
    let mut reference = Campaign::deploy(&format!("ref{seed}"), seed, 6.0, None);
    assert!(matches!(reference.run(seed, true), Ended::Drained));
    assert_no_duplicate_submissions(&reference.db, &reference.grid);
    let (finals, charged) = (final_states(&reference.db), su_used(&reference.db));
    assert_eq!(finals.len(), 6);
    assert!(charged.iter().all(|&used| used > 0.0), "{charged:?}");
    let _ = std::fs::remove_dir_all(&reference.dir);
    let submitted = reference.submitted_at_pause;
    assert_eq!(submitted.len(), reference.pauses.load(Ordering::SeqCst));
    let total = *submitted.last().unwrap();
    assert!(total >= 24, "only {total} GRAM submissions");

    // Nine crashes, three in each third of the run: at the mid-tick instant
    // after a tick that submitted something, right after the site accepted
    // a submission, and between its job record and the tick's flush.
    let after_submit: Vec<usize> = (1..submitted.len())
        .filter(|&p| submitted[p] > submitted[p - 1])
        .map(|p| p + 1) // instants count from 1
        .collect();
    assert!(after_submit.len() >= 9, "{after_submit:?}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut crashes = Vec::new();
    for third in after_submit.chunks(after_submit.len().div_ceil(3)) {
        let at = third[rng.random_range(0..third.len())];
        crashes.push((format!("mid{at}"), Crash::MidTick(at)));
    }
    for third in 0..3 {
        for (name, point) in [
            ("accepted", StepPoint::Accepted),
            ("recorded", StepPoint::Recorded),
        ] {
            let nth = 1 + third * total / 3 + rng.random_range(0..total / 3);
            crashes.push((format!("{name}{nth}"), Crash::InStep(nth, point)));
        }
    }
    for (name, crash) in crashes {
        let tag = format!("crash{seed}_{name}");
        let crashed = Campaign::deploy(&tag, seed, 6.0, Some(crash));
        let dir = crashed.dir.clone();
        let db = crashed.crash_and_recover(seed, &tag, 0.0);
        assert_eq!(final_states(&db), finals, "{tag}: finals diverged");
        assert_same_charges(&su_used(&db), &charged, &tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A GA run's last continuation is accepted, the daemons crash before its
/// job record is written, and nobody comes back until the run has
/// converged: no step asks for that continuation again, so re-derivation
/// cannot heal it. The daemons that take the simulation over ask the site
/// what it accepted, and the continuation gets its record and its charge.
#[test]
fn a_continuation_accepted_before_a_long_outage_is_reconciled_and_charged() {
    let seed = 1;
    let mut reference = Campaign::deploy("outage_ref", seed, 1.0, None);
    assert!(matches!(reference.run(seed, false), Ended::Drained));
    let (finals, charged) = (final_states(&reference.db), su_used(&reference.db));
    let admin = reference.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let work = Query::new().eq("purpose", "WORK").order_by("continuation");
    let last = Manager::<GridJobRecord>::new(admin).filter(&work).unwrap();
    let last = last.last().expect("work jobs");
    let key = (last.simulation_id, last.ga_run, last.continuation);
    assert!(
        last.continuation >= 1 && last.run_secs().unwrap() > 0,
        "{last:?}"
    );
    let _ = std::fs::remove_dir_all(&reference.dir);

    let crashed = Campaign::deploy(
        "outage",
        seed,
        1.0,
        Some(Crash::Accepting(key.0, key.1, key.2)),
    );
    let dir = crashed.dir.clone();
    let db = crashed.crash_and_recover(seed, "outage", 48.0);
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let of_key = Query::new()
        .eq("simulation_id", key.0)
        .eq("purpose", "WORK")
        .eq("ga_run", key.1)
        .eq("continuation", key.2);
    let rows = Manager::<GridJobRecord>::new(admin)
        .filter(&of_key)
        .unwrap();
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].run_secs(), last.run_secs());
    assert_eq!(final_states(&db), finals);
    assert_same_charges(&su_used(&db), &charged, "outage");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_tick_boundary_and_mid_tick_crash_recovers_seed_1() {
    tick_granular_recovery(1);
}

#[test]
fn every_tick_boundary_and_mid_tick_crash_recovers_seed_7919() {
    tick_granular_recovery(7919);
}
