//! The tick is the daemon's commit: its writes are logged and visible as
//! they happen, but only a GRAM submission's job record and the end of a
//! tick flush the log (DESIGN §9.9). This suite checks what that leaves on
//! the device, on a durable fsync-on database that two daemons drain a
//! mixed backlog from:
//!
//! * **every instant recovers** — a copy of snapshot + log taken at every
//!   tick boundary and in the middle of every tick (through the daemon's
//!   `pause_point`) opens, takes a write, and holds the job record of every
//!   GRAM handle the grid had handed out by then;
//! * **a tick boundary loses nothing** — a boundary copy's tables equal the
//!   live database's, row for row, and a mid-tick copy is a whole-commit
//!   prefix of the log at the boundary that follows;
//! * **a power cut mid-append loses nothing either** — the same boundary
//!   copy with part of one more frame after it recovers to the same tables;
//! * **a mid-tick crash costs no submission** — abandon the deployment in
//!   the middle of a tick, open fresh daemons on the copy (torn tail and
//!   all) against the same grid, and the campaign drains to all-DONE with no
//!   job key submitted twice and the same final state as the run nobody
//!   interrupted.

mod common;

use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amp::gridamp::{seed_curvefit_fixtures, seed_fixtures};
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

fn daemons(db: &Db, grid: &mut Grid, generation: &str) -> Vec<GridAmp> {
    (0..DAEMONS)
        .map(|i| {
            let config = DaemonConfig {
                daemon_id: format!("gridamp-{generation}{i}"),
                work_walltime_hours: 6.0,
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

/// One deployment: durable database in `dir`, simulated Kraken, two
/// daemons, the seeded backlog.
struct Campaign {
    dir: PathBuf,
    db: Db,
    grid: Grid,
    daemons: Vec<GridAmp>,
    /// Mid-tick instants passed so far, over both daemons.
    pauses: Arc<AtomicUsize>,
    /// GRAM handles handed out before each of them.
    submitted_at_pause: Vec<usize>,
}

impl Campaign {
    /// `crash_at`: the mid-tick instant (counted from 1) at which the tick
    /// is abandoned, as a crash would.
    fn deploy(tag: &str, seed: u64, crash_at: Option<usize>) -> Campaign {
        let dir = std::env::temp_dir().join(format!("amp_tickdur_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = open(&dir);
        let mut grid = Grid::new();
        grid.add_site(amp::grid::systems::kraken());
        amp::gridamp::apps::install_amp_stack(&mut grid, "kraken");
        let mut daemons = daemons(&db, &mut grid, "");
        seed_backlog(&db, seed);
        let pauses = Arc::new(AtomicUsize::new(0));
        for daemon in &mut daemons {
            let (dir, pauses) = (dir.clone(), Arc::clone(&pauses));
            daemon.pause_point = Some(Box::new(move || {
                copy_files(&dir, &dir.join("mid"));
                if Some(pauses.fetch_add(1, Ordering::SeqCst) + 1) == crash_at {
                    resume_unwind(Box::new("crash")); // unwinds without the panic hook
                }
            }));
        }
        Campaign {
            dir,
            db,
            grid,
            daemons,
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

fn tick_granular_recovery(seed: u64) {
    // The run nobody interrupts, with every instant of it recovered.
    let mut reference = Campaign::deploy(&format!("ref{seed}"), seed, None);
    assert!(matches!(reference.run(seed, true), Ended::Drained));
    assert_no_duplicate_submissions(&reference.db, &reference.grid);
    let finals = final_states(&reference.db);
    assert_eq!(finals.len(), 6);
    let _ = std::fs::remove_dir_all(&reference.dir);
    let submitted = reference.submitted_at_pause;
    assert_eq!(submitted.len(), reference.pauses.load(Ordering::SeqCst));
    let total = *submitted.last().unwrap();
    assert!(total >= 24, "only {total} GRAM submissions");

    // Three crashes, each at the mid-tick instant after a tick that
    // submitted something: one in each third of those instants.
    let after_submit: Vec<usize> = (1..submitted.len())
        .filter(|&p| submitted[p] > submitted[p - 1])
        .map(|p| p + 1) // instants count from 1
        .collect();
    assert!(after_submit.len() >= 9, "{after_submit:?}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    for third in after_submit.chunks(after_submit.len().div_ceil(3)) {
        let crash_at = third[rng.random_range(0..third.len())];
        let tag = format!("crash{seed}_{crash_at}");
        let mut crashed = Campaign::deploy(&tag, seed, Some(crash_at));
        assert!(matches!(crashed.run(seed, false), Ended::Crashed));
        assert_eq!(crashed.pauses.load(Ordering::SeqCst), crash_at);
        // The deployment is gone; what survives is the grid and the files,
        // here with the append the crash interrupted.
        let Campaign { dir, mut grid, .. } = crashed;
        tear_tail(&dir.join("mid"), crash_at);
        let db = open(&dir.join("mid"));
        let mut fresh = daemons(&db, &mut grid, "r");
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
        assert_eq!(final_states(&db), finals, "{tag}: finals diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_tick_boundary_and_mid_tick_crash_recovers_seed_1() {
    tick_granular_recovery(1);
}

#[test]
fn every_tick_boundary_and_mid_tick_crash_recovers_seed_7919() {
    tick_granular_recovery(7919);
}
