//! The tick is the daemon's commit: its writes are logged and visible as
//! they happen, but only the end of a tick flushes the log (DESIGN §9).
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
//!   daemon performed any one effect of its decision: a stage-in, the site's
//!   acceptance of a submission, a job record, a scratch tree's removal, the
//!   simulation row's write (each before the tick's flush); open fresh daemons on the copy (torn
//!   tail and all) against the same grid, and the campaign drains to
//!   all-DONE with no job key submitted twice, the same final state and the
//!   same service units charged as the run nobody interrupted;
//! * **nor does a long outage after it** — crash right after a GA run's last
//!   continuation is accepted, leave the grid alone until that run has
//!   converged, and the daemons that come back give the continuation its
//!   job record (nobody asks for it again: they ask the site what it
//!   accepted) and charge its CPU-hours.

mod common;

use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;

use amp::gridamp::{seed_curvefit_fixtures, seed_fixtures};
use amp::prelude::*;
use amp::simdb::wal::{encode_frame, Wal, MAGIC};
use amp::simdb::LogOp;
use common::{
    assert_no_duplicate_submissions, copy_files, curve_truth, final_states, jobs_of, open_durable,
    queue, spec, su_used, truth, walltime, Crash, Fault, Schedule, Seen, World, FILES,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Leave the first `keep % len` (at least one, never all) bytes of one more
/// frame after the copy's log: what a power cut in the middle of an append
/// leaves on the device. (A torn frame is never applied, so the table
/// number it names does not matter.)
fn tear_tail(copy: &Path, keep: usize) {
    let op = LogOp::Insert {
        table: 0,
        id: 1 << 40,
        row: vec!["lost to the power cut ".repeat(8).into()],
    };
    let frame = encode_frame(1 << 40, &[op]);
    let keep = 1 + keep % (frame.len() - 1);
    let log = std::fs::File::options()
        .append(true)
        .open(copy.join(FILES[1]));
    log.unwrap().write_all(&frame[..keep]).unwrap();
}

/// A durable world of two daemons with `walltime_hours` and a seeded
/// backlog of all four kinds — direct and optimization runs of both
/// applications — queued in a seeded order.
fn campaign(tag: &str, seed: u64, walltime_hours: f64) -> World {
    let world = World::durable(&format!("tickdur_{tag}"), walltime(walltime_hours), 2);
    let db = &world.db;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (user, star, alloc, obs) = seed_fixtures(db, "kraken", &truth(), seed).unwrap();
    let (cf_star, cf_obs) = seed_curvefit_fixtures(db, user, &curve_truth(), seed).unwrap();
    let mut kinds = [0, 0, 1, 2, 2, 3];
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.random_range(0..=i));
    }
    for kind in kinds {
        let spec = spec(2, 12, 12, 16, rng.random_range(1..1_000));
        let sim = match kind {
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
        queue(db, sim);
    }
    world
}

/// A checkpoint a few rounds in, so that the copies carry a snapshot too,
/// and the crash, if there is one.
fn schedule(seed: u64, crash: Option<Crash>) -> Schedule {
    let schedule = Schedule::none().at(4 + seed % 5, Fault::Checkpoint);
    match crash {
        Some(crash) => schedule.at(0, Fault::Crash(crash)),
        None => schedule,
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
    let db = open_durable(&scratch);
    let tables = fingerprint(&db);
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let jobs = Manager::<GridJobRecord>::new(admin.clone()).all().unwrap();
    let recorded: HashSet<String> = jobs.into_iter().filter_map(|j| j.gram_handle).collect();
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

/// The same charges, whatever order they were added up in.
fn assert_same_charges(charged: &[f64], reference: &[f64], tag: &str) {
    assert_eq!(charged.len(), reference.len(), "{tag}");
    for (used, expected) in charged.iter().zip(reference) {
        let close = (used - expected).abs() <= 1e-9 * expected.abs();
        assert!(close, "{tag}: charged {charged:?}, not {reference:?}");
    }
}

/// The `k`-th tick of `round`, by daemon `i`, has just ended; `submitted`
/// were the GRAM handles out before it. Recover its mid-tick copy and a
/// copy of the files now, whole and with a torn append after them.
fn check_tick(w: &World, submitted: &[String], (round, k, i): (usize, usize, usize)) {
    let at = format!("round {round} daemon {i}");
    let (mid, boundary) = (w.mid(), w.dir().join("boundary"));
    recover_copy(&mid, submitted, &format!("{at}, mid-tick"));
    copy_files(w.dir(), &boundary);
    let copied = recover_copy(&boundary, &submitted_handles(&w.grid), &at);
    assert_eq!(copied, fingerprint(&w.db), "{at}: boundary copy != live");
    let log = |dir: &Path| std::fs::read(dir.join(FILES[1])).unwrap();
    let (early, late) = (log(&mid), log(&boundary));
    assert!(late.starts_with(&early), "{at}: mid-tick log is no prefix");
    let frames = Wal::read_frames(boundary.join(FILES[1])).unwrap();
    let ends = frames.iter().map(|f| f.end);
    let mut whole = [0, MAGIC.len()].into_iter().chain(ends);
    assert!(whole.any(|end| end == early.len()), "{at}: torn commit");
    tear_tail(&boundary, round * 31 + k * 17);
    assert!(log(&boundary).len() > late.len());
    let torn = recover_copy(&boundary, &submitted_handles(&w.grid), &at);
    assert_eq!(torn, copied, "{at}: torn boundary copy != clean one");
}

/// Run a campaign until it drains (true) or crashes. The claim phase
/// submits nothing, so the GRAM handles out before a tick are the audit log
/// at its mid-tick instant: also returns how many there were before each
/// tick. With `check`, every tick's mid-tick and boundary copies are
/// recovered and compared; a crash's copy always is.
fn drive(world: &mut World, seed: u64, crash: Option<Crash>, check: bool) -> (bool, Vec<usize>) {
    let (mut submitted, mut before_tick) = (submitted_handles(&world.grid), Vec::new());
    let (mut round, mut k) = (0, 0);
    let ended = world.run(&schedule(seed, crash), |w, seen| match seen {
        Seen::Begin(r) => (round, k) = (r as usize, 0),
        Seen::Ticked(i, _) => {
            before_tick.push(submitted.len());
            if check {
                check_tick(w, &submitted, (round, k, i));
            }
            submitted = submitted_handles(&w.grid);
            k += 1;
        }
        Seen::End(_) => {}
    });
    if ended.is_none() {
        recover_copy(&world.mid(), &submitted, &format!("round {round}, crash"));
    }
    (ended.is_some(), before_tick)
}

/// Run to the crash, then recover what it left: fresh daemons on the `mid`
/// copy — with the append the crash interrupted — against the grid that
/// survived, left alone for `outage_hours` first. Returns the recovered
/// world once it has drained.
fn crash_and_recover(
    mut world: World,
    seed: u64,
    crash: Crash,
    tag: &str,
    outage_hours: f64,
) -> World {
    let (drained, _) = drive(&mut world, seed, Some(crash), false);
    assert!(!drained, "{tag}: no crash");
    world.grid.advance(SimDuration::from_hours(outage_hours));
    tear_tail(&world.mid(), tag.len());
    world.recover();
    world.run(&Schedule::none(), |_, _| {});
    assert_no_duplicate_submissions(&world.db, &world.grid);
    world
}

fn tick_granular_recovery(seed: u64) {
    // The run nobody interrupts, with every instant of it recovered.
    let mut reference = campaign(&format!("ref{seed}"), seed, 6.0);
    let (drained, submitted) = drive(&mut reference, seed, None, true);
    assert!(drained);
    assert_no_duplicate_submissions(&reference.db, &reference.grid);
    let (finals, charged) = (final_states(&reference.db), su_used(&reference.db));
    let points = reference.step_points();
    assert_eq!(finals.len(), 6);
    assert!(finals.iter().all(|(_, s, _)| s == "DONE"), "{finals:?}");
    assert!(charged.iter().all(|&used| used > 0.0), "{charged:?}");
    assert_eq!(submitted.len(), reference.mid_ticks());
    let total = *submitted.last().unwrap();
    assert!(total >= 24, "only {total} GRAM submissions");
    drop(reference);

    // Crashes in each third of the run: one at the mid-tick instant after a
    // tick that submitted something, and one right after an effect of each
    // kind the campaign's decisions perform — a stage-in, a submission the
    // site accepted, a job record, a scratch tree removed, a simulation row
    // written.
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
    let kinds: Vec<&str> = points.keys().copied().collect();
    assert_eq!(
        kinds,
        ["accepted", "recorded", "removed", "staged_in", "written"]
    );
    for third in 0..3 {
        for (&kind, &count) in &points {
            assert!(count >= 3, "{points:?}");
            let nth = 1 + third * count / 3 + rng.random_range(0..count / 3);
            crashes.push((format!("{kind}{nth}"), Crash::InStep(nth, kind)));
        }
    }
    for (name, crash) in crashes {
        let tag = format!("crash{seed}_{name}");
        let world = crash_and_recover(campaign(&tag, seed, 6.0), seed, crash, &tag, 0.0);
        assert_eq!(final_states(&world.db), finals, "{tag}: finals diverged");
        assert_same_charges(&su_used(&world.db), &charged, &tag);
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
    let mut reference = campaign("outage_ref", seed, 1.0);
    assert!(drive(&mut reference, seed, None, false).0);
    let (finals, charged) = (final_states(&reference.db), su_used(&reference.db));
    let admin = reference.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let work = Query::new().eq("purpose", "WORK").order_by("continuation");
    let last = Manager::<GridJobRecord>::new(admin).filter(&work).unwrap();
    let last = last.last().expect("work jobs").clone();
    assert!(
        last.continuation >= 1 && last.run_secs().unwrap() > 0,
        "{last:?}"
    );
    // Nothing is submitted twice in a run nobody interrupts: the accepted
    // submissions are the audit log's, in order.
    let handles = submitted_handles(&reference.grid);
    let nth = 1 + handles
        .iter()
        .position(|h| Some(h) == last.gram_handle.as_ref())
        .unwrap();
    drop(reference);

    let crash = Crash::InStep(nth, "accepted");
    let world = crash_and_recover(campaign("outage", seed, 1.0), seed, crash, "outage", 48.0);
    let rows = jobs_of(&world.db, last.simulation_id, "WORK");
    let of_key =
        |j: &&GridJobRecord| (j.ga_run, j.continuation) == (last.ga_run, last.continuation);
    let rows: Vec<_> = rows.iter().filter(of_key).collect();
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].run_secs(), last.run_secs());
    assert_eq!(final_states(&world.db), finals);
    assert_same_charges(&su_used(&world.db), &charged, "outage");
}

#[test]
fn every_tick_boundary_and_mid_tick_crash_recovers_seed_1() {
    tick_granular_recovery(1);
}

#[test]
fn every_tick_boundary_and_mid_tick_crash_recovers_seed_7919() {
    tick_granular_recovery(7919);
}

/// A crash right after every effect of seed 1's campaign, each on a campaign
/// of its own: every stage-in, acceptance, job record, removal and row
/// write. Each recovered world must drain to the uninterrupted run's finals
/// and charges.
#[test]
#[ignore = "nightly: one campaign per effect"]
fn a_crash_after_every_effect_of_seed_1_loses_nothing() {
    let seed = 1;
    let mut reference = campaign("every_ref", seed, 6.0);
    assert!(drive(&mut reference, seed, None, false).0);
    let (finals, charged) = (final_states(&reference.db), su_used(&reference.db));
    let points = reference.step_points();
    drop(reference);
    for (&kind, &count) in &points {
        for nth in 1..=count {
            let tag = format!("every{seed}_{kind}{nth}");
            let crash = Crash::InStep(nth, kind);
            let world = crash_and_recover(campaign(&tag, seed, 6.0), seed, crash, &tag, 0.0);
            assert_eq!(final_states(&world.db), finals, "{tag}: finals diverged");
            assert_same_charges(&su_used(&world.db), &charged, &tag);
        }
    }
}
