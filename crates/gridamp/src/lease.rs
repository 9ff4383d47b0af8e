//! The lease protocol: claim, renew, takeover, release.
//!
//! Multi-daemon ownership follows the paper's architecture to its logical
//! end: since every component talks only through the central database,
//! daemon scale-out needs nothing but a coordination table. Each live
//! simulation has at most one `lease` row; a daemon may step a simulation
//! only while it holds an unexpired lease on it.
//!
//! The protocol is optimistic and entirely CAS-based:
//!
//! * **claim** — no row yet: plain insert at epoch 1. The unique
//!   constraint on `simulation_id` linearizes concurrent first claimers —
//!   the loser's insert fails and it backs off.
//! * **renew** — own row with half its TTL or less left: CAS on
//!   `(daemon_id, epoch)` pushing `expires_at` forward. The epoch does not
//!   change. With more than half left the row is read and nothing is
//!   written, so a lease is always good for at least `ttl / 2` after its
//!   holder's last tick, and for at most `ttl`.
//! * **takeover** — somebody else's *expired* row: CAS on the old
//!   `(daemon_id, epoch)` installing our identity at `epoch + 1`. Exactly
//!   one peer can win each epoch bump.
//! * **release** — own row, simulation settled: CAS-guarded delete.
//!
//! The epoch is a fencing token. A daemon that pauses (GC-style) past its
//! lease expiry and then resumes still *believes* it owns its simulations;
//! before any GRAM submission the daemon's applier re-reads the lease row
//! ([`crate::daemon`]) and refuses to submit when the epoch has moved — so
//! the new owner and the stale one can never both submit.

use amp_core::models::Lease;
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Connection, DbError, Query, Value};

/// Result of one claim attempt on one simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimOutcome {
    /// Fresh claim (no prior lease): we hold `epoch`.
    Claimed { epoch: i64 },
    /// Our own lease renewed; epoch unchanged.
    Renewed { epoch: i64 },
    /// Our own lease, with more than half its TTL left: nothing written.
    Kept { epoch: i64 },
    /// An expired peer lease taken over; epoch was bumped.
    TakenOver { epoch: i64, from: String },
    /// A peer holds a valid lease; leave the simulation alone.
    Held { by: String, until: i64 },
    /// Lost a race (insert collision or CAS miss); retry next tick.
    Lost,
}

impl ClaimOutcome {
    /// The epoch we hold after this outcome, if we hold the lease at all.
    pub fn held_epoch(&self) -> Option<i64> {
        match self {
            ClaimOutcome::Claimed { epoch }
            | ClaimOutcome::Renewed { epoch }
            | ClaimOutcome::Kept { epoch }
            | ClaimOutcome::TakenOver { epoch, .. } => Some(*epoch),
            ClaimOutcome::Held { .. } | ClaimOutcome::Lost => None,
        }
    }
}

/// Claim, renew, or take over the lease on `sim_id` for `daemon_id`.
///
/// `app` is the simulation's application id, recorded on the lease row so
/// operators can see per-application ownership at a glance. `now` is the
/// claimer's *own* clock (simulated seconds) — daemons with skewed clocks
/// disagree about expiry, which is exactly the hazard the epoch fencing
/// absorbs. The new expiry, when one is written, is `now + ttl_secs`.
pub fn claim(
    conn: &Connection,
    daemon_id: &str,
    sim_id: i64,
    app: &str,
    now: i64,
    ttl_secs: i64,
) -> Result<ClaimOutcome, DbError> {
    let leases = Manager::<Lease>::new(conn.clone());
    let existing = leases.first(&Query::new().eq("simulation_id", sim_id))?;
    match existing {
        None => {
            let mut lease = Lease::new(sim_id, daemon_id, app, 1, now + ttl_secs);
            match leases.create(&mut lease) {
                Ok(_) => Ok(ClaimOutcome::Claimed { epoch: 1 }),
                // Unique violation on simulation_id: a peer inserted
                // between our read and our write. That peer owns epoch 1.
                Err(DbError::UniqueViolation { .. }) => Ok(ClaimOutcome::Lost),
                Err(e) => Err(e),
            }
        }
        Some(lease) => {
            let id = lease.id.expect("selected lease has id");
            if lease.daemon_id == daemon_id {
                if lease.expires_at - now > ttl_secs / 2 {
                    return Ok(ClaimOutcome::Kept { epoch: lease.epoch });
                }
                // Renewal CAS: if the row changed under us (a peer took
                // over during our pause), the swap refuses and we have
                // effectively lost the simulation.
                let swapped = conn.compare_and_swap(
                    Lease::TABLE,
                    id,
                    &[
                        ("daemon_id", Value::from(daemon_id)),
                        ("epoch", Value::Int(lease.epoch)),
                    ],
                    &[("expires_at", Value::Timestamp(now + ttl_secs))],
                )?;
                if swapped {
                    Ok(ClaimOutcome::Renewed { epoch: lease.epoch })
                } else {
                    Ok(ClaimOutcome::Lost)
                }
            } else if !lease.valid_at(now) {
                // Expired peer lease: fence it out by bumping the epoch.
                let swapped = conn.compare_and_swap(
                    Lease::TABLE,
                    id,
                    &[
                        ("daemon_id", Value::from(lease.daemon_id.as_str())),
                        ("epoch", Value::Int(lease.epoch)),
                    ],
                    &[
                        ("daemon_id", Value::from(daemon_id)),
                        ("epoch", Value::Int(lease.epoch + 1)),
                        ("expires_at", Value::Timestamp(now + ttl_secs)),
                    ],
                )?;
                if swapped {
                    Ok(ClaimOutcome::TakenOver {
                        epoch: lease.epoch + 1,
                        from: lease.daemon_id,
                    })
                } else {
                    Ok(ClaimOutcome::Lost)
                }
            } else {
                Ok(ClaimOutcome::Held {
                    by: lease.daemon_id,
                    until: lease.expires_at,
                })
            }
        }
    }
}

/// Release our lease on `sim_id` (simulation settled). A no-op when the
/// lease is already gone or has been taken over — releasing is advisory;
/// expiry is the real cleanup path.
pub fn release(conn: &Connection, daemon_id: &str, sim_id: i64) -> Result<(), DbError> {
    let leases = Manager::<Lease>::new(conn.clone());
    if let Some(lease) = leases.first(&Query::new().eq("simulation_id", sim_id))? {
        if lease.daemon_id == daemon_id {
            // Benign race: a takeover between the read and this delete
            // removes a row the new owner immediately re-creates on its
            // next claim. Settled simulations leave the live set, so no
            // further submissions can ride on the recreated lease.
            leases.delete(lease.id.expect("selected lease has id"))?;
        }
    }
    Ok(())
}

/// Read the current lease on `sim_id`, if any.
pub fn current(conn: &Connection, sim_id: i64) -> Result<Option<Lease>, DbError> {
    Manager::<Lease>::new(conn.clone()).first(&Query::new().eq("simulation_id", sim_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::models::{Allocation, AmpUser, Simulation, Star};
    use amp_simdb::Db;
    use amp_stellar::StellarParams;

    fn db_with_sim() -> (Db, Connection, i64) {
        let db = Db::in_memory();
        amp_core::setup::initialize(&db).unwrap();
        let admin = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let mut user = AmpUser::new("u", "u@x.edu", "h", 0);
        Manager::<AmpUser>::new(admin.clone())
            .create(&mut user)
            .unwrap();
        let sky = amp_stellar::synthetic_sky(1, 1);
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
        let sim_id = Manager::<Simulation>::new(admin.clone())
            .create(&mut sim)
            .unwrap();
        let daemon = db.connect(amp_core::roles::ROLE_DAEMON).unwrap();
        (db, daemon, sim_id)
    }

    #[test]
    fn claim_renew_takeover_release_lifecycle() {
        let (_db, conn, sim) = db_with_sim();
        // fresh claim at epoch 1
        assert_eq!(
            claim(&conn, "d0", sim, "stellar", 0, 100).unwrap(),
            ClaimOutcome::Claimed { epoch: 1 }
        );
        // a valid lease repels peers
        assert_eq!(
            claim(&conn, "d1", sim, "stellar", 50, 100).unwrap(),
            ClaimOutcome::Held {
                by: "d0".into(),
                until: 100
            }
        );
        // with more than half the TTL left the owner writes nothing
        assert_eq!(
            claim(&conn, "d0", sim, "stellar", 49, 100).unwrap(),
            ClaimOutcome::Kept { epoch: 1 }
        );
        assert_eq!(current(&conn, sim).unwrap().unwrap().expires_at, 100);
        // at half it renews, without an epoch bump
        assert_eq!(
            claim(&conn, "d0", sim, "stellar", 50, 100).unwrap(),
            ClaimOutcome::Renewed { epoch: 1 }
        );
        assert_eq!(current(&conn, sim).unwrap().unwrap().expires_at, 150);
        // past expiry a peer takes over with a bumped epoch
        assert_eq!(
            claim(&conn, "d1", sim, "stellar", 200, 100).unwrap(),
            ClaimOutcome::TakenOver {
                epoch: 2,
                from: "d0".into()
            }
        );
        // the stale owner's renewal path CAS-misses
        assert_eq!(claim(&conn, "d0", sim, "stellar", 201, 100).unwrap(), {
            ClaimOutcome::Held {
                by: "d1".into(),
                until: 300,
            }
        });
        // only the holder's release removes the row
        release(&conn, "d0", sim).unwrap();
        assert!(current(&conn, sim).unwrap().is_some());
        release(&conn, "d1", sim).unwrap();
        assert!(current(&conn, sim).unwrap().is_none());
    }

    #[test]
    fn concurrent_first_claim_has_one_winner() {
        let (db, _conn, sim) = db_with_sim();
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let db = db.clone();
                    s.spawn(move || {
                        let c = db.connect(amp_core::roles::ROLE_DAEMON).unwrap();
                        let out = claim(&c, &format!("d{i}"), sim, "stellar", 0, 1000).unwrap();
                        matches!(out, ClaimOutcome::Claimed { .. }) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        let lease = current(&db.connect("daemon").unwrap(), sim)
            .unwrap()
            .unwrap();
        assert_eq!(lease.epoch, 1);
    }

    #[test]
    fn concurrent_takeover_bumps_epoch_exactly_once() {
        let (db, conn, sim) = db_with_sim();
        claim(&conn, "d0", sim, "stellar", 0, 10).unwrap();
        // lease expired at t=10; eight peers race the takeover at t=50
        let winners: usize = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let db = db.clone();
                    s.spawn(move || {
                        let c = db.connect(amp_core::roles::ROLE_DAEMON).unwrap();
                        let out = claim(&c, &format!("p{i}"), sim, "stellar", 50, 1000).unwrap();
                        matches!(out, ClaimOutcome::TakenOver { .. }) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1);
        let lease = current(&conn, sim).unwrap().unwrap();
        assert_eq!(lease.epoch, 2, "one epoch bump for one takeover");
    }
}
