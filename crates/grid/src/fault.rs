//! Fault injection: scheduled service outages.
//!
//! §4.4: "Anticipated transients, such as remote systems suddenly becoming
//! unreachable for GRAM or GridFTP requests, are handled silently" — to
//! exercise that machinery the simulator lets tests and benchmarks place
//! outage windows on either service of any site.

use crate::time::{SimDuration, SimTime};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Which grid service an outage affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct OutageWindow {
    /// Site name, or "*" for all sites.
    pub site: String,
    pub service: Service,
    pub from: SimTime,
    pub to: SimTime,
}

/// The fault schedule consulted by every grid client call.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<OutageWindow>,
    /// Windows in which GRAM does what a submission asks and the reply is
    /// lost on its way back ([`Self::add_lost_replies`]).
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
