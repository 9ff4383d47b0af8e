//! Fault injection: scheduled service outages.
//!
//! §4.4: "Anticipated transients, such as remote systems suddenly becoming
//! unreachable for GRAM or GridFTP requests, are handled silently" — to
//! exercise that machinery the simulator lets tests and benchmarks place
//! outage windows on either service of any site.

use crate::time::{SimDuration, SimTime};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which grid service an outage affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Service {
    Gram,
    GridFtp,
    Both,
}

impl Service {
    fn covers(self, other: Service) -> bool {
        self == Service::Both || self == other
    }
}

/// A half-open outage window `[from, to)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Site name, or "*" for all sites.
    pub site: String,
    pub service: Service,
    pub from: SimTime,
    pub to: SimTime,
}

/// The fault schedule consulted by every grid client call.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    windows: Vec<OutageWindow>,
    /// Windows in which GRAM does what a submission asks and the reply is
    /// lost on its way back ([`Self::add_lost_replies`]).
    #[serde(default)]
    lost_replies: Vec<OutageWindow>,
}

fn covered(windows: &[OutageWindow], site: &str, service: Service, now: SimTime) -> bool {
    windows.iter().any(|w| {
        (w.site == "*" || w.site == site)
            && w.service.covers(service)
            && now >= w.from
            && now < w.to
    })
}

impl FaultPlan {
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn add_outage(&mut self, site: &str, service: Service, from: SimTime, to: SimTime) {
        self.windows.push(OutageWindow {
            site: site.to_string(),
            service,
            from,
            to,
        });
    }

    /// Is `service` at `site` down at `now`?
    pub fn is_down(&self, site: &str, service: Service, now: SimTime) -> bool {
        covered(&self.windows, site, service, now)
    }

    /// Inside `[from, to)` GRAM at `site` accepts a submission, creates the
    /// job, audits it — and answers `ServiceUnreachable`: the failure a
    /// client cannot tell from an outage, and must be able to repeat.
    pub fn add_lost_replies(&mut self, site: &str, from: SimTime, to: SimTime) {
        self.lost_replies.push(OutageWindow {
            site: site.to_string(),
            service: Service::Gram,
            from,
            to,
        });
    }

    /// Is the reply to a GRAM submission at `site` lost at `now`?
    pub fn reply_lost(&self, site: &str, now: SimTime) -> bool {
        covered(&self.lost_replies, site, Service::Gram, now)
    }

    /// Sprinkle `count` random outages of `dur` over `[0, horizon)` for a
    /// site — used by failure-injection tests and the resilience bench.
    pub fn add_random_outages(
        &mut self,
        site: &str,
        service: Service,
        count: usize,
        dur: SimDuration,
        horizon: SimTime,
        seed: u64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..count {
            let from = SimTime(rng.random_range(0..horizon.as_secs().max(1)));
            self.add_outage(site, service, from, from + dur);
        }
    }

    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }
}

/// A control-plane fault aimed at one daemon *process* rather than at a
/// grid service — the failure modes a multi-daemon deployment must ride
/// out without losing or double-driving a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonFault {
    /// Process dies and is restarted `down_ticks` harness rounds later
    /// (losing all in-memory state; its leases expire and peers take
    /// over).
    Kill { down_ticks: u32 },
    /// GC-style stop-the-world pause for `ticks` rounds: the process
    /// keeps its memory — including its now-stale belief that it owns
    /// leases — and resumes straight into the fencing guards.
    Pause { ticks: u32 },
    /// The daemon's clock drifts by `offset_secs` relative to the grid
    /// clock, so it mis-judges lease expiry in either direction.
    ClockSkew { offset_secs: i64 },
}

/// One scheduled daemon fault: at harness round `at_round`, daemon
/// number `daemon` suffers `fault`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonFaultEvent {
    pub at_round: u64,
    pub daemon: usize,
    pub fault: DaemonFault,
}

/// A deterministic, seedable schedule of daemon faults, consulted by the
/// chaos harness once per round. The analogue of [`FaultPlan`] one layer
/// up: `FaultPlan` breaks the grid under the daemons, `DaemonFaultPlan`
/// breaks the daemons themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonFaultPlan {
    events: Vec<DaemonFaultEvent>,
}

impl DaemonFaultPlan {
    pub fn none() -> Self {
        DaemonFaultPlan::default()
    }

    pub fn add(&mut self, at_round: u64, daemon: usize, fault: DaemonFault) {
        self.events.push(DaemonFaultEvent {
            at_round,
            daemon,
            fault,
        });
    }

    /// The faults scheduled for `round`, in insertion order.
    pub fn at_round(&self, round: u64) -> impl Iterator<Item = &DaemonFaultEvent> {
        self.events.iter().filter(move |e| e.at_round == round)
    }

    /// Sprinkle `count` random faults over `daemons` processes and
    /// `[0, rounds)` harness rounds — kills, pauses, and clock skews in
    /// roughly equal measure. Same seed, same schedule.
    pub fn add_random_faults(&mut self, daemons: usize, rounds: u64, count: usize, seed: u64) {
        assert!(daemons > 0 && rounds > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..count {
            let at_round = rng.random_range(0..rounds);
            let daemon = rng.random_range(0..daemons as u64) as usize;
            let fault = match rng.random_range(0..3u32) {
                0 => DaemonFault::Kill {
                    down_ticks: rng.random_range(1..6u32),
                },
                1 => DaemonFault::Pause {
                    ticks: rng.random_range(1..5u32),
                },
                _ => DaemonFault::ClockSkew {
                    offset_secs: rng.random_range(-900i64..900),
                },
            };
            self.add(at_round, daemon, fault);
        }
    }

    pub fn events(&self) -> &[DaemonFaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_boundaries_half_open() {
        let mut p = FaultPlan::none();
        p.add_outage("kraken", Service::Gram, SimTime(100), SimTime(200));
        assert!(!p.is_down("kraken", Service::Gram, SimTime(99)));
        assert!(p.is_down("kraken", Service::Gram, SimTime(100)));
        assert!(p.is_down("kraken", Service::Gram, SimTime(199)));
        assert!(!p.is_down("kraken", Service::Gram, SimTime(200)));
    }

    #[test]
    fn service_and_site_scoping() {
        let mut p = FaultPlan::none();
        p.add_outage("kraken", Service::Gram, SimTime(0), SimTime(10));
        assert!(!p.is_down("kraken", Service::GridFtp, SimTime(5)));
        assert!(!p.is_down("frost", Service::Gram, SimTime(5)));

        p.add_outage("*", Service::Both, SimTime(20), SimTime(30));
        assert!(p.is_down("frost", Service::Gram, SimTime(25)));
        assert!(p.is_down("ranger", Service::GridFtp, SimTime(25)));
    }

    #[test]
    fn daemon_fault_plan_is_deterministic_and_round_scoped() {
        let mut a = DaemonFaultPlan::none();
        let mut b = DaemonFaultPlan::none();
        a.add_random_faults(4, 50, 12, 7);
        b.add_random_faults(4, 50, 12, 7);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 12);
        // every event lands inside the declared ranges
        for e in a.events() {
            assert!(e.at_round < 50);
            assert!(e.daemon < 4);
            match e.fault {
                DaemonFault::Kill { down_ticks } => assert!((1..6).contains(&down_ticks)),
                DaemonFault::Pause { ticks } => assert!((1..5).contains(&ticks)),
                DaemonFault::ClockSkew { offset_secs } => {
                    assert!((-900..900).contains(&offset_secs))
                }
            }
        }
        // at_round returns exactly the events scheduled for that round
        let mut p = DaemonFaultPlan::none();
        p.add(3, 0, DaemonFault::Pause { ticks: 2 });
        p.add(5, 1, DaemonFault::Kill { down_ticks: 1 });
        p.add(3, 2, DaemonFault::ClockSkew { offset_secs: -60 });
        assert_eq!(p.at_round(3).count(), 2);
        assert_eq!(p.at_round(4).count(), 0);
        assert_eq!(
            p.at_round(5).next().unwrap().fault,
            DaemonFault::Kill { down_ticks: 1 }
        );
    }

    #[test]
    fn random_outages_deterministic() {
        let mut a = FaultPlan::none();
        let mut b = FaultPlan::none();
        a.add_random_outages(
            "kraken",
            Service::Gram,
            5,
            SimDuration::from_minutes(30.0),
            SimTime(100_000),
            9,
        );
        b.add_random_outages(
            "kraken",
            Service::Gram,
            5,
            SimDuration::from_minutes(30.0),
            SimTime(100_000),
            9,
        );
        assert_eq!(a.windows(), b.windows());
        assert_eq!(a.windows().len(), 5);
    }
}
