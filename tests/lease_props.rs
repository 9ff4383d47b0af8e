//! Property tests for the lease CAS protocol: under arbitrary
//! interleavings of claim attempts by competing daemons — with arbitrary
//! clock advances between them — ownership stays linearizable. At every
//! point at most one daemon's claim is valid, epochs never move
//! backwards, and a fenced-out claim can never pass the fencing check
//! again.

mod common;

use std::collections::{HashMap, HashSet};

use amp::gridamp::lease::{claim, current, ClaimOutcome};
use amp::prelude::*;
use amp_stellar::synthetic_sky;
use proptest::prelude::*;

const TTL: i64 = 1_000;

/// One scheduled claim attempt: `daemon` tries to claim at `dt` seconds
/// after the previous attempt.
#[derive(Debug, Clone)]
struct Attempt {
    daemon: u8,
    dt: i64,
}

fn arb_attempts() -> impl Strategy<Value = Vec<Attempt>> {
    proptest::collection::vec(
        (0u8..4, 0i64..1_500).prop_map(|(daemon, dt)| Attempt { daemon, dt }),
        1..40,
    )
}

/// A database with one simulation to fight over; returns the daemon-role
/// connection and the sim id.
fn db_with_sim() -> (Db, amp::simdb::Connection, i64) {
    let db = Db::in_memory();
    amp::core::setup::initialize(&db).unwrap();
    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let mut user = AmpUser::new("u", "u@x.edu", "h", 0);
    Manager::<AmpUser>::new(admin.clone())
        .create(&mut user)
        .unwrap();
    let sky = synthetic_sky(1, 1);
    let mut star = Star::from_catalog(&sky[0], "local");
    Manager::<Star>::new(admin.clone())
        .create(&mut star)
        .unwrap();
    let mut alloc = Allocation::new("kraken", "TG-1", 1000.0);
    Manager::<Allocation>::new(admin.clone())
        .create(&mut alloc)
        .unwrap();
    let mut sim = Simulation::new_direct(
        star.id.unwrap(),
        user.id.unwrap(),
        StellarParams::sun(),
        "kraken",
        alloc.id.unwrap(),
        0,
    );
    let sim_id = Manager::<Simulation>::new(admin).create(&mut sim).unwrap();
    let conn = db.connect(amp::core::roles::ROLE_DAEMON).unwrap();
    (db, conn, sim_id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Linearizability of the claim protocol over arbitrary sequential
    /// interleavings (every concurrent history of the CAS protocol is
    /// equivalent to one of these): no two daemons ever simultaneously
    /// hold passing fencing tokens, and the epoch is monotone.
    #[test]
    fn no_two_daemons_ever_hold_a_valid_epoch(attempts in arb_attempts()) {
        let (_db, conn, sim_id) = db_with_sim();
        let mut now = 0i64;
        let mut last_epoch = 0i64;
        // Each daemon's live belief: the (daemon, epoch) fencing token its
        // last successful claim granted, until an outcome revokes it.
        let mut beliefs: HashMap<String, i64> = HashMap::new();
        // Every fencing token that was ever superseded by a later claim.
        // Fencing safety == none of these ever matches the row again.
        let mut stale: HashSet<(String, i64)> = HashSet::new();

        for attempt in attempts {
            now += attempt.dt;
            let me = format!("d{}", attempt.daemon);
            let outcome = claim(&conn, &me, sim_id, "stellar", now, TTL).unwrap();
            match &outcome {
                ClaimOutcome::Claimed { epoch }
                | ClaimOutcome::Renewed { epoch }
                | ClaimOutcome::Kept { epoch }
                | ClaimOutcome::TakenOver { epoch, .. } => {
                    beliefs.insert(me.clone(), *epoch);
                }
                ClaimOutcome::Held { .. } | ClaimOutcome::Lost => {
                    // the protocol just told this daemon it owns nothing
                    beliefs.remove(&me);
                }
            }

            let row = current(&conn, sim_id).unwrap().expect("row exists after a claim");
            // whoever was told it holds the lease holds it for at least
            // half a TTL more (a renewal may have been skipped, not more)
            if outcome.held_epoch().is_some() {
                prop_assert!(row.expires_at - now >= TTL / 2, "short lease at t={now}");
            }
            // epochs never move backwards
            prop_assert!(row.epoch >= last_epoch, "epoch went backwards");
            last_epoch = row.epoch;
            // takeovers always bump the epoch
            if let ClaimOutcome::TakenOver { epoch, .. } = &outcome {
                prop_assert_eq!(*epoch, row.epoch);
            }

            // Any belief that no longer matches the row has been fenced
            // out — remember it forever.
            for (d, e) in &beliefs {
                if !(d == &row.daemon_id && *e == row.epoch) {
                    stale.insert((d.clone(), *e));
                }
            }

            // THE invariant: a superseded fencing token can never pass the
            // fencing check again. Holds because the epoch is bumped on
            // every ownership change and never reused — a GC-paused daemon
            // that wakes with a stale token is permanently locked out.
            prop_assert!(
                !stale.contains(&(row.daemon_id.clone(), row.epoch)),
                "a fenced-out token became valid again at t={now}: ({}, {})",
                row.daemon_id,
                row.epoch
            );
        }
    }

    /// First-claim exclusivity under true concurrency: for any number of
    /// racing daemons (2..=8) exactly one wins epoch 1. The thread
    /// interleaving is OS-chosen; the property must hold for all of them.
    #[test]
    fn concurrent_first_claim_single_winner(racers in 2usize..=8) {
        let (db, conn, sim_id) = db_with_sim();
        let winners: usize = std::thread::scope(|s| {
            (0..racers)
                .map(|i| {
                    let db = db.clone();
                    s.spawn(move || {
                        let c = db.connect(amp::core::roles::ROLE_DAEMON).unwrap();
                        let out = claim(&c, &format!("d{i}"), sim_id, "stellar", 0, TTL).unwrap();
                        matches!(out, ClaimOutcome::Claimed { .. }) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        prop_assert_eq!(winners, 1);
        let row = current(&conn, sim_id).unwrap().unwrap();
        prop_assert_eq!(row.epoch, 1);
    }
}
