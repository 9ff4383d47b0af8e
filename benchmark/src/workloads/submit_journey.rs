//! `submit_journey`: the paper's unit of work. Logged-in users submit a
//! simulation through the portal, poll its page until it shows DONE, then
//! read the results. One generator thread multiplexes all users over one
//! keep-alive connection (closed loop: a user's next request waits for
//! the reply to the previous one); one driver thread ticks two daemons
//! round-robin. Every request carries a session cookie, so the portal's
//! response cache is bypassed: the counter-case to `browse`.
//!
//! A trial is a fresh deployment and a fixed amount of work: exactly 300
//! simulations are submitted, and it is timed from the first submit until
//! the 276th journey completes, up to which moment every user still has a
//! next simulation to submit, so the load stays on. The program slows
//! down as its tables grow (journeys per second halve within ten
//! seconds), so a window of fixed length would measure a different
//! stretch of that curve whenever the speed changes; a fixed count walks
//! the same stretch every time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amp_core::models::Simulation;
use amp_core::roles::ROLE_ADMIN;
use amp_portal::{Portal, PortalConfig, Server, ServerConfig};
use amp_simdb::orm::Manager;
use amp_simdb::Query;

use super::{
    insert_portal_counters, insert_sample_stats, insert_share_within, insert_write_amp, quiet_flags, quiet_median,
    reopen, trace_overhead, Cfg, Kept, Measured, Setups, StealMeter,
};
use crate::counters::{self, ratio};
use crate::fleet::{round_peak_ms, Campaign, Fleet, FleetLog};
use crate::http::{self, Client, Reply};
use crate::inputs::{requests, Kind, SimRequest};
use crate::metrics::{insert, Values};
use crate::rng::Rng;
use crate::stack::{grid_and_daemons, seed_catalog, Catalog, Storage, PASSWORD};
use crate::stats::{mean, median, quantile};
use crate::trace::{self, SpanBuf, NO_PARENT};
use crate::{check, probes, procstat};

const CONCURRENT_USERS: usize = 24;
const POLL_EVERY: Duration = Duration::from_millis(10);
/// Simulations a trial submits: three blocks of 100 requests, each with
/// exactly `SHARES` of the four kinds, so the counts per simulation are
/// taken over the same population whatever the timing. The trial is timed
/// until all but `CONCURRENT_USERS` of them have completed their journey;
/// the rest are drained untimed. Frozen: changing it changes every number.
const SUBMITTED: usize = 300;
/// Users start a few milliseconds apart, not in lockstep.
const STAGGER: Duration = Duration::from_millis(4);
const SHARES: [(Kind, f64); 4] =
    [(Kind::CurvefitDirect, 70.0), (Kind::StellarDirect, 20.0), (Kind::CurvefitOpt, 8.0), (Kind::StellarOpt, 2.0)];
/// `slo_share` limits, each about the p99 of its class on the reference
/// box (README, "slo_share"): polls and result pages, submits, direct
/// journeys and optimization journeys, submit sent to DONE seen.
const PAGE_LIMIT_MS: f64 = 4.0;
const SUBMIT_LIMIT_MS: f64 = 5.0;
const DIRECT_LIMIT_MS: f64 = 250.0;
const OPT_LIMIT_MS: f64 = 600.0;

pub struct Deployment {
    pub storage: Storage,
    pub db: amp_simdb::Db,
    pub catalog: Catalog,
    pub server: Server,
    pub catalog_ms: f64,
}

/// Database, catalog, portal and server; the portal clock is set once, to
/// 0, and never fed the simulated time (README, "Portal clock").
pub fn deploy(rng: &mut Rng) -> Result<Deployment, String> {
    let err = |e: amp_simdb::DbError| e.to_string();
    let start = Instant::now();
    let storage = Storage::fresh();
    let db = storage.open_db().map_err(err)?;
    let catalog = seed_catalog(&db, rng).map_err(err)?;
    let catalog_ms = start.elapsed().as_secs_f64() * 1e3;
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).map_err(err)?);
    portal.set_now(0);
    let server = Server::spawn_with(portal.clone(), 0, ServerConfig { workers: 2, ..ServerConfig::default() })
        .map_err(|e| format!("server: {e}"))?;
    Ok(Deployment { storage, db, catalog, server, catalog_ms })
}

/// Log `name` in over `client` and return the session token.
pub fn login(client: &mut Client, name: &str) -> Result<String, String> {
    let form = format!("username={name}&password={PASSWORD}");
    let reply = client
        .round_trip(&http::post_form("/accounts/login", None, &form))
        .map_err(|e| format!("login {name}: {e}"))?;
    reply
        .header("set-cookie")
        .and_then(|c| c.strip_prefix("amp_session="))
        .and_then(|c| c.split(';').next())
        .map(str::to_string)
        .ok_or_else(|| format!("login {name}: status {} without a session cookie", reply.status))
}

#[derive(Clone, Copy, PartialEq)]
enum Step {
    Submit,
    Poll,
    Plots,
    List,
}

struct UserState {
    session: String,
    step: Step,
    due: Instant,
    waiting: bool,
    sim: i64,
    kind: Kind,
    submit_sent: Instant,
    journey_span: u64,
    journey: u64,
}

#[derive(Default)]
struct Samples {
    submit_ms: Vec<f64>,
    page_ms: Vec<f64>,
    direct_ms: Vec<f64>,
    opt_ms: Vec<f64>,
    reply_bytes: u64,
    replies: u64,
    submitted: usize,
    opt_submitted: usize,
    /// Journeys completed while recording, and when the last one did.
    journeys_done: usize,
    last_done: Option<Instant>,
}

struct Generator<'a> {
    client: Client,
    users: Vec<UserState>,
    outstanding: VecDeque<(usize, Instant)>,
    pending: VecDeque<SimRequest>,
    rng: Rng,
    catalog: &'a Catalog,
    in_flight: &'a AtomicUsize,
    spans: SpanBuf,
    next_journey: u64,
    /// Simulations the trial has yet to submit.
    to_submit: usize,
    /// Only while this is set do completed operations count.
    record: bool,
    samples: Samples,
}

impl Generator<'_> {
    fn next_request(&mut self) -> SimRequest {
        if self.pending.is_empty() {
            self.pending.extend(requests(&mut self.rng, self.catalog, &SHARES, 100));
        }
        self.pending.pop_front().expect("refilled")
    }

    fn send(&mut self, u: usize, now: Instant) -> Result<(), String> {
        let wire = match self.users[u].step {
            Step::Submit => {
                let request = self.next_request();
                let (path, form) = request.as_form(self.catalog.allocation);
                let user = &mut self.users[u];
                user.kind = request.kind;
                user.submit_sent = now;
                user.journey = self.next_journey;
                self.next_journey += 1;
                self.to_submit -= 1;
                user.journey_span = self.spans.open("journey", user.journey, NO_PARENT, now);
                http::post_form(&path, Some(&user.session), &form)
            }
            Step::Poll => http::get(&format!("/simulation/{}", self.users[u].sim), Some(&self.users[u].session)),
            Step::Plots => {
                http::get(&format!("/simulation/{}/plots.json", self.users[u].sim), Some(&self.users[u].session))
            }
            Step::List => http::get("/simulations", Some(&self.users[u].session)),
        };
        self.client.send(&wire).map_err(|e| format!("send: {e}"))?;
        self.users[u].waiting = true;
        self.outstanding.push_back((u, now));
        Ok(())
    }

    fn on_reply(&mut self, u: usize, sent: Instant, reply: Reply) -> Result<(), String> {
        let now = Instant::now();
        let ms = (now - sent).as_secs_f64() * 1e3;
        let record = self.record;
        if record {
            self.samples.reply_bytes += reply.wire_len() as u64;
            self.samples.replies += 1;
        }
        let user = &mut self.users[u];
        user.waiting = false;
        user.due = now;
        let what = |step: &str| format!("journey {} ({:?}) {step} sim {}", user.journey, user.kind, user.sim);
        match user.step {
            Step::Submit => {
                let location = reply.header("location").unwrap_or("");
                let id = location.strip_prefix("/simulation/").and_then(|s| s.parse::<i64>().ok());
                let (302, Some(id)) = (reply.status, id) else {
                    return Err(format!("{}: status {} location {location:?}", what("submit"), reply.status));
                };
                user.sim = id;
                user.step = Step::Poll;
                user.due = now + POLL_EVERY;
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                self.samples.submitted += 1;
                self.samples.opt_submitted += usize::from(user.kind.is_opt());
                self.spans.leaf("http.submit", user.journey, user.journey_span, sent, now);
                if record {
                    self.samples.submit_ms.push(ms);
                }
            }
            Step::Poll => {
                if reply.status != 200 {
                    return Err(format!("{}: status {}", what("poll"), reply.status));
                }
                if reply.body_has("<b>HOLD</b>") {
                    return Err(format!("{}: simulation is on HOLD", what("poll")));
                }
                self.spans.leaf("http.poll", user.journey, user.journey_span, sent, now);
                if record {
                    self.samples.page_ms.push(ms);
                }
                if reply.body_has("<b>DONE</b>") {
                    self.in_flight.fetch_sub(1, Ordering::Relaxed);
                    let journey_ms = (now - user.submit_sent).as_secs_f64() * 1e3;
                    if record {
                        if user.kind.is_opt() { &mut self.samples.opt_ms } else { &mut self.samples.direct_ms }
                            .push(journey_ms);
                    }
                    user.step = if user.kind.app() == "stellar" { Step::Plots } else { Step::List };
                } else {
                    user.due = now + POLL_EVERY;
                }
            }
            Step::Plots => {
                check::verify_page(&what("plots.json"), &reply, "\"hr_track\"")?;
                self.spans.leaf("http.result", user.journey, user.journey_span, sent, now);
                if record {
                    self.samples.page_ms.push(ms);
                }
                user.step = Step::List;
            }
            Step::List => {
                check::verify_page(&what("/simulations"), &reply, &format!("/simulation/{}\"", user.sim))?;
                self.spans.leaf("http.result", user.journey, user.journey_span, sent, now);
                self.spans.close(user.journey_span, now);
                if record {
                    self.samples.page_ms.push(ms);
                    self.samples.journeys_done += 1;
                    self.samples.last_done = Some(now);
                }
                user.step = Step::Submit;
            }
        }
        Ok(())
    }

    /// Run every user's loop, users submitting again as soon as they
    /// finish while the trial has simulations left to submit. With
    /// `journeys` given, until that many have completed; without, until
    /// every submitted simulation's journey has: the drain after the timed
    /// part. Either way `deadline` is an error, not an end.
    fn drive(&mut self, journeys: Option<usize>, deadline: Instant) -> Result<(), String> {
        loop {
            if journeys.is_some_and(|n| self.samples.journeys_done >= n) {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("submit_journey: {} journeys done at the deadline", self.samples.journeys_done));
            }
            for u in 0..self.users.len() {
                let user = &self.users[u];
                if !user.waiting && user.due <= now && (self.to_submit > 0 || user.step != Step::Submit) {
                    self.send(u, now)?;
                }
            }
            if let Some((u, sent)) = self.outstanding.pop_front() {
                let reply = self.client.recv().map_err(|e| format!("recv: {e}"))?;
                self.on_reply(u, sent, reply)?;
            } else {
                match self.users.iter().filter(|u| self.to_submit > 0 || u.step != Step::Submit).map(|u| u.due).min() {
                    None => return Ok(()),
                    Some(due) => std::thread::sleep(due.saturating_duration_since(now).min(POLL_EVERY)),
                }
            }
        }
    }
}

struct Trial {
    traced: bool,
    /// Share of the CPU the hypervisor stole during the timed part.
    stolen: f64,
    timed_s: f64,
    cpu_s: f64,
    samples: Samples,
    log: FleetLog,
    counted: counters::Reading,
    wal_bytes: u64,
    /// Reopening the database the trial left: seconds, stolen CPU share.
    recover: (f64, f64),
    recover_ms_per_mb: f64,
    spans: Vec<trace::Span>,
    /// The deployment, reopened; kept for the last trial only, which the
    /// probes run on.
    kept: Option<Kept>,
}

fn trial(
    rng: &Rng,
    n: u64,
    submitted: usize,
    traced: bool,
    origin: Instant,
    setups: &mut Setups,
) -> Result<Trial, String> {
    let (dep, mut fleet, client, sessions) = setups.time(|| {
        let dep = deploy(&mut rng.fork(2 * n))?;
        let (grid, daemons) = grid_and_daemons(&dep.db, 2).map_err(|e| e.to_string())?;
        let mut client = Client::connect(dep.server.addr()).map_err(|e| format!("connect: {e}"))?;
        let sessions = dep.catalog.users.iter().take(CONCURRENT_USERS);
        let sessions = sessions.map(|u| login(&mut client, &u.name)).collect::<Result<Vec<_>, _>>()?;
        let catalog_ms = dep.catalog_ms;
        Ok(((dep, Fleet::new(grid, daemons), client, sessions), catalog_ms))
    })?;

    let (stop, in_flight) = (AtomicBool::new(false), AtomicUsize::new(0));
    let (before, wal_before, cpu_before) = (counters::read(), dep.storage.wal_len(), procstat::cpu_seconds());
    let (start, steal) = (Instant::now(), StealMeter::start());
    let mut generator = Generator {
        client,
        users: sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| UserState {
                session,
                step: Step::Submit,
                due: start + STAGGER * i as u32,
                waiting: false,
                sim: 0,
                kind: Kind::CurvefitDirect,
                submit_sent: start,
                journey_span: NO_PARENT,
                journey: 0,
            })
            .collect(),
        outstanding: VecDeque::new(),
        pending: VecDeque::new(),
        rng: rng.fork(2 * n + 1),
        catalog: &dep.catalog,
        in_flight: &in_flight,
        spans: SpanBuf::new(traced, 2 * n + 1, origin),
        next_journey: n << 32 | 1,
        to_submit: submitted,
        record: true,
        samples: Samples::default(),
    };
    let (stop, in_flight) = (&stop, &in_flight);
    let (timed, fleet, driver_spans) = std::thread::scope(|scope| {
        let driver = scope.spawn(move || {
            let mut spans = SpanBuf::new(traced, 2 * n + 2, origin);
            while !stop.load(Ordering::Relaxed) {
                let round = spans.open("round", n << 32 | fleet.log.rounds, NO_PARENT, Instant::now());
                fleet.tick_all(&mut spans, round, in_flight.load(Ordering::Relaxed));
                fleet.advance(&mut spans, round);
                spans.close(round, Instant::now());
                fleet.pace();
            }
            (fleet, spans.into_spans())
        });
        let timed =
            generator.drive(Some(submitted - CONCURRENT_USERS), start + Duration::from_secs(120)).and_then(|()| {
                generator.record = false;
                let marks = (steal.share(), procstat::cpu_seconds() - cpu_before);
                // The rest is submitted and every journey finished, untimed.
                generator.drive(None, Instant::now() + Duration::from_secs(60))?;
                Ok(marks)
            });
        stop.store(true, Ordering::Relaxed);
        let (fleet, driver_spans) = driver.join().expect("daemon driver thread panicked");
        (timed, fleet, driver_spans)
    });
    let (stolen, cpu_s) = timed?;
    let Generator { samples, mut spans, .. } = generator;
    let (counted, wal_bytes) = (counters::read().since(&before), dep.storage.wal_len() - wal_before);
    // Daemons, server and portal go; the grid stays for its audit log.
    let Fleet { grid, log, .. } = fleet;
    let Deployment { storage, db, catalog, server, .. } = dep;
    server.stop();
    check::verify_campaign(&check::campaign_facts(&db, &grid)?, samples.submitted)
        .map_err(|e| format!("submit_journey trial {n}: {e}"))?;
    let reopened = reopen("submit_journey", &storage, db, 1, &mut spans)?;
    let mut spans = spans.into_spans();
    spans.extend(driver_spans);
    Ok(Trial {
        traced,
        stolen,
        timed_s: (samples.last_done.expect("journeys completed") - start).as_secs_f64(),
        cpu_s,
        counted,
        wal_bytes,
        recover: reopened.timings[0],
        recover_ms_per_mb: reopened.timings[0].0 * 1e3 / reopened.files_mb,
        samples,
        log,
        spans,
        kept: Some(Kept { storage, db: reopened.db, catalog, grid }),
    })
}

pub fn run(cfg: &Cfg) -> Result<Measured, String> {
    let origin = Instant::now();
    let err = |e: amp_simdb::DbError| e.to_string();
    let rng = Rng::new(cfg.seed);
    let submitted = cfg.sized(SUBMITTED);
    let journeys = submitted - CONCURRENT_USERS;
    let mut trials: Vec<Trial> = Vec::new();
    let mut setups = Setups::default();
    let mut timed = 0.0;
    while timed < cfg.seconds {
        // In a traced run every other trial records spans.
        let n = trials.len() as u64;
        let t = trial(&rng, n, submitted, cfg.traced && n % 2 == 1, origin, &mut setups)?;
        timed += t.timed_s;
        if let Some(previous) = trials.last_mut() {
            previous.kept = None;
        }
        trials.push(t);
    }

    // Medians over the trials the hypervisor left alone; pooled samples
    // come from the same trials. Every time is at reference speed, by the
    // units the daemon driver, the bottleneck, ran between its rounds.
    let quiet = quiet_flags(&trials.iter().map(|t| t.stolen).collect::<Vec<_>>());
    let per_trial = |f: &dyn Fn(&Trial) -> Option<f64>| {
        quiet_median(&trials.iter().filter_map(|t| Some((f(t)?, t.stolen))).collect::<Vec<_>>())
    };
    let factor = |t: &Trial| t.log.speed.factor();
    let scaled = |t: &Trial, ms: &[f64]| -> Vec<f64> { ms.iter().map(|ms| ms * factor(t)).collect() };
    let pooled = |f: &dyn Fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        trials.iter().zip(&quiet).filter(|(_, q)| **q).flat_map(|(t, _)| scaled(t, f(&t.samples))).collect()
    };
    let (submit_ms, page_ms) = (pooled(&|s| &s.submit_ms), pooled(&|s| &s.page_ms));
    let (direct_ms, opt_ms) = (pooled(&|s| &s.direct_ms), pooled(&|s| &s.opt_ms));
    let every = |f: &dyn Fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        trials.iter().flat_map(|t| scaled(t, f(&t.samples))).collect()
    };
    let rate = |t: &Trial| journeys as f64 / (t.timed_s * factor(t));

    let mut values = Values::new();
    setups.insert_into(&mut values);
    insert(&mut values, "ops_per_s", per_trial(&|t| Some(rate(t))));
    insert(&mut values, "op_p50_ms", per_trial(&|t| median(&t.samples.direct_ms).map(|ms| ms * factor(t))));
    insert(&mut values, "harness.speed_factor", median(&trials.iter().map(factor).collect::<Vec<_>>()));
    insert_share_within(
        &mut values,
        "slo_share",
        &[
            (&page_ms, PAGE_LIMIT_MS),
            (&submit_ms, SUBMIT_LIMIT_MS),
            (&direct_ms, DIRECT_LIMIT_MS),
            (&opt_ms, OPT_LIMIT_MS),
        ],
    );
    insert_share_within(
        &mut values,
        "harness.slo_share_all",
        &[
            (&every(&|s| &s.page_ms), PAGE_LIMIT_MS),
            (&every(&|s| &s.submit_ms), SUBMIT_LIMIT_MS),
            (&every(&|s| &s.direct_ms), DIRECT_LIMIT_MS),
            (&every(&|s| &s.opt_ms), OPT_LIMIT_MS),
        ],
    );
    insert(&mut values, "round_peak_ms", per_trial(&|t| round_peak_ms(&t.log.round_ms()).map(|ms| ms * factor(t))));
    insert(&mut values, "recover_s", quiet_median(&trials.iter().map(|t| t.recover).collect::<Vec<_>>()));
    // Counts per simulation submitted, over every trial (stolen CPU does
    // not change a count), the untimed rest of each included.
    let sims = trials.iter().map(|t| t.samples.submitted).sum::<usize>() as f64;
    let fsyncs = trials.iter().map(|t| t.counted.counter("simdb_wal_fsync_total")).sum::<u64>();
    insert(&mut values, "fsyncs_per_op", Some(fsyncs as f64 / sims));
    insert(&mut values, "wal_bytes_per_op", Some(trials.iter().map(|t| t.wal_bytes).sum::<u64>() as f64 / sims));

    let sum = |f: &dyn Fn(&Trial) -> f64| trials.iter().map(f).sum::<f64>();
    Campaign {
        logs: trials.iter().map(|t| &t.log).collect(),
        counted: trials.iter().map(|t| &t.counted).collect(),
        wal_bytes: sum(&|t| t.wal_bytes as f64),
        opt_sims: sum(&|t| t.samples.opt_submitted as f64),
    }
    .insert_into(&mut values);
    insert(&mut values, "harness.read_p50_ms", per_trial(&|t| median(&t.samples.page_ms).map(|ms| ms * factor(t))));
    insert(&mut values, "harness.cpu_ms_per_op", per_trial(&|t| Some(t.cpu_s * 1e3 / journeys as f64)));
    insert(&mut values, "harness.quiet_share", Some(quiet.iter().filter(|q| **q).count() as f64 / trials.len() as f64));
    insert(&mut values, "harness.journey_opt_p50_ms", median(&opt_ms));
    insert(&mut values, "portal.roundtrip_render_us", median(&page_ms).map(|ms| ms * 1e3));
    let all_ms: Vec<f64> = page_ms.iter().chain(&submit_ms).copied().collect();
    insert(&mut values, "portal.roundtrip_p99_us", quantile(&all_ms, 0.99).map(|ms| ms * 1e3));
    insert(
        &mut values,
        "portal.submit_p50_us",
        per_trial(&|t| median(&t.samples.submit_ms).map(|ms| ms * 1e3 * factor(t))),
    );
    insert(
        &mut values,
        "portal.bytes_per_page",
        ratio(sum(&|t| t.samples.reply_bytes as f64) as u64, sum(&|t| t.samples.replies as f64) as u64),
    );
    let last = trials.last().expect("at least one trial");
    insert_portal_counters(&mut values, &last.counted);
    let busy: Vec<&(f64, usize)> = trials.iter().flat_map(|t| t.log.round_load.iter()).filter(|r| r.1 > 0).collect();
    insert(
        &mut values,
        "gridamp.tick_us_per_live_sim",
        Some(busy.iter().map(|r| r.0).sum::<f64>() * 1e3 / busy.iter().map(|r| r.1).sum::<usize>() as f64),
    );
    let kept = last.kept.as_ref().expect("the last trial keeps its deployment");
    let direct = Manager::<Simulation>::new(kept.db.connect(ROLE_ADMIN).map_err(err)?)
        .ids(&Query::new().eq("kind", "direct"))
        .map_err(err)?;
    insert(&mut values, "gridamp.rounds_per_direct_sim", mean(&last.log.rounds_to_done(&direct)));
    let facts = check::campaign_facts(&kept.db, &kept.grid)?;
    insert(&mut values, "grid.gram_submits_per_sim", Some(facts.audit_submits as f64 / last.samples.submitted as f64));
    insert(&mut values, "grid.jobs_per_sim", Some(facts.submitted_jobs.len() as f64 / last.samples.submitted as f64));
    let rates: Vec<(f64, f64, bool)> = trials.iter().map(|t| (rate(t), t.stolen, t.traced)).collect();
    insert(&mut values, "harness.trace_overhead_share", trace_overhead(&rates));
    insert_sample_stats(&mut values, kept.storage.tmpfs, trials.len(), &direct_ms, &page_ms);
    insert(&mut values, "harness.cpu_busy_cores", Some(sum(&|t| t.cpu_s) / timed));
    insert(&mut values, "simdb.recover_ms_per_mb", per_trial(&|t| Some(t.recover_ms_per_mb)));

    let attempted = sum(&|t| (t.samples.submit_ms.len() + t.samples.page_ms.len()) as f64) as u64;
    let mut spans = Vec::new();
    if cfg.traced {
        for t in &trials {
            spans.extend(t.spans.iter().cloned());
        }
        let by_name = trace::totals(&spans);
        let of = |name: &str| by_name.get(name).copied().unwrap_or_default();
        let tick_ns = of("gridamp.tick[0]").total_ns + of("gridamp.tick[1]").total_ns;
        insert(&mut values, "gridamp.tick_busy_share", ratio(tick_ns, of("round").total_ns));
        insert(&mut values, "grid.advance_share", ratio(of("grid.advance").total_ns, of("round").total_ns));
        // A journey's self time is what no request covers: waiting for daemon rounds.
        insert(&mut values, "harness.journey_wait_share", ratio(of("journey").self_ns, of("journey").total_ns));
        let mut probe_spans = SpanBuf::new(true, 63, origin);
        probes::run(&mut values, &mut probe_spans, &kept.db, &kept.storage, &kept.catalog)?;
        insert_write_amp(&mut values, last.wal_bytes as f64);
        spans.extend(probe_spans.into_spans());
    }
    Ok(Measured { attempted, timed_s: timed, values, spans })
}
