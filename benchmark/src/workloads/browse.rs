//! `browse`: the read-only page mix of a community looking at a finished
//! catalog. Two keep-alive connections, one generator thread each, eight
//! requests outstanding per connection (HTTP/1.1 pipelining); a closed
//! loop, since a reply must come back before its slot is reused. The
//! anonymous pages are cacheable and their 2,081 keys fit the portal's
//! 4,096-entry response cache; the pages fetched with a session cookie
//! and the searches are rendered every time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use amp_core::models::Simulation;
use amp_core::roles::ROLE_WEB;
use amp_simdb::orm::Manager;
use amp_simdb::Query;

use super::submit_journey::{deploy, login, Deployment};
use super::{
    insert_portal_counters, insert_sample_stats, insert_share_within, quiet_median, reopen, Cfg, Measured, Setups,
    Slices,
};
use crate::counters;
use crate::fleet::{round_peak_ms, Fleet};
use crate::http::{self, Client};
use crate::inputs::{requests, Kind};
use crate::metrics::{insert, Values};
use crate::rng::{exact_mix, Rng};
use crate::stack::{grid_and_daemons, star_path};
use crate::stats::{median, quantile};
use crate::trace::{SpanBuf, NO_PARENT};
use crate::{check, probes, speed};

const CONNECTIONS: usize = 2;
const OUTSTANDING: usize = 8;
const WARM_UP: Duration = Duration::from_millis(1_000);
/// Finished simulations the results pages are served from, drained for
/// real during set-up, and the users who own them and hold sessions.
const FINISHED: usize = 120;
const SESSION_USERS: usize = 10;
const STAR_PAGES: usize = 80;
const REQUESTS_PER_CONNECTION: usize = 4_000;
/// `slo_share` limit: between the p98 and the p99 of a page with eight
/// outstanding on the reference box (README, "slo_share").
const PAGE_LIMIT_MS: f64 = 4.0;
/// Reopens of the database after the timed part; `recover_s` is their median.
const REOPENS: usize = 11;
/// A generator thread runs one speed unit per this many replies: every
/// ~15 ms, 1% of its time.
const UNIT_EVERY: u64 = 64;

#[derive(Clone, Copy)]
struct Class {
    span: &'static str,
    share: f64,
    cacheable: bool,
}

const CLASSES: [Class; 9] = [
    Class { span: "browse.request[star]", share: 35.0, cacheable: true },
    Class { span: "browse.request[stars_page]", share: 10.0, cacheable: true },
    Class { span: "browse.request[home]", share: 5.0, cacheable: true },
    Class { span: "browse.request[search]", share: 15.0, cacheable: false },
    Class { span: "browse.request[suggest]", share: 10.0, cacheable: false },
    Class { span: "browse.request[simulation]", share: 10.0, cacheable: false },
    Class { span: "browse.request[plots]", share: 5.0, cacheable: false },
    Class { span: "browse.request[simulations]", share: 5.0, cacheable: false },
    Class { span: "browse.request[star_session]", share: 5.0, cacheable: false },
];

struct Page {
    class: usize,
    wire: Vec<u8>,
    marker: String,
}

struct World {
    dep: Deployment,
    sessions: Vec<String>,
    clients: Vec<Client>,
    /// `(id, is stellar)` of the finished simulations.
    finished: Vec<(i64, bool)>,
}

/// What draining the finished simulations cost during set-up. `browse`
/// itself writes nothing and ticks no daemon, so its share of the
/// end-to-end metrics that count durable work comes from here.
struct Drain {
    round_peak_ms: f64,
    fsyncs_per_sim: f64,
    wal_bytes_per_sim: f64,
}

fn build(rng: &mut Rng, finished_len: usize) -> Result<(World, Drain), String> {
    let err = |e: amp_simdb::DbError| e.to_string();
    let dep = deploy(rng)?;
    let (grid, daemons) = grid_and_daemons(&dep.db, 2).map_err(err)?;
    let mut fleet = Fleet::new(grid, daemons);
    let sims = Manager::<Simulation>::new(dep.db.connect(ROLE_WEB).map_err(err)?);
    let mut finished = Vec::with_capacity(finished_len);
    let shares = [(Kind::StellarDirect, 1.0), (Kind::CurvefitDirect, 1.0)];
    for (i, request) in requests(rng, &dep.catalog, &shares, finished_len).iter().enumerate() {
        let owner = dep.catalog.users[i % SESSION_USERS].id;
        let id = sims.create(&mut request.as_row(owner, dep.catalog.allocation)).map_err(err)?;
        finished.push((id, request.kind == Kind::StellarDirect));
    }
    let mut spans = SpanBuf::new(false, 1, Instant::now());
    let done = Query::new().eq("status", "DONE");
    let (before, wal_before) = (counters::read(), dep.storage.wal_len());
    while sims.count(&done).map_err(err)? < finished_len {
        if fleet.log.rounds > 1_000 {
            return Err("browse set-up: the finished simulations did not drain".into());
        }
        fleet.tick_all(&mut spans, NO_PARENT, finished_len);
        fleet.advance(&mut spans, NO_PARENT);
        fleet.pace();
    }
    let drain = Drain {
        round_peak_ms: round_peak_ms(&fleet.log.round_ms()).ok_or("browse set-up: no round ran")?
            * fleet.log.speed.factor(),
        fsyncs_per_sim: counters::read().since(&before).counter("simdb_wal_fsync_total") as f64 / finished_len as f64,
        wal_bytes_per_sim: (dep.storage.wal_len() - wal_before) as f64 / finished_len as f64,
    };
    check::verify_campaign(&check::campaign_facts(&dep.db, &fleet.grid)?, finished_len)
        .map_err(|e| format!("browse set-up: {e}"))?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(dep.server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let sessions = dep
        .catalog
        .users
        .iter()
        .take(SESSION_USERS)
        .map(|u| login(&mut clients[0], &u.name))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((World { dep, sessions, clients, finished }, drain))
}

/// One connection's request list: each class in exactly its share.
fn pages(rng: &mut Rng, world: &World) -> Vec<Page> {
    let stars = &world.dep.catalog.stars;
    let stellar: Vec<i64> = world.finished.iter().filter(|f| f.1).map(|f| f.0).collect();
    let shares: Vec<(usize, f64)> = CLASSES.iter().enumerate().map(|(i, c)| (i, c.share)).collect();
    exact_mix(rng, &shares, REQUESTS_PER_CONNECTION)
        .into_iter()
        .map(|class| {
            let star = &stars[rng.below(stars.len())];
            let session = Some(world.sessions[rng.below(world.sessions.len())].as_str());
            let digits = &star.identifier[3..];
            let (path, session, marker) = match class {
                0 => (star_path(&star.identifier), None, star.identifier.clone()),
                1 => (format!("/stars?page={}", 1 + rng.below(STAR_PAGES)), None, "<h2>Star catalog (".into()),
                2 => ("/".into(), None, "View simulations".into()),
                // Half exact identifiers (a unique-index probe), half a
                // four-digit fragment (a substring scan). Both are in the
                // local catalog, so the SIMBAD import never writes.
                3 if rng.below(2) == 0 => (format!("/stars/search?q=HD+{digits}"), None, star.identifier.clone()),
                3 => (format!("/stars/search?q={}", &digits[..4]), None, "Search results for".into()),
                4 => (format!("/api/suggest?q={}", &digits[..4]), None, "\"identifier\"".into()),
                5 => (
                    format!("/simulation/{}", world.finished[rng.below(world.finished.len())].0),
                    session,
                    "<b>DONE</b>".into(),
                ),
                6 => (
                    format!("/simulation/{}/plots.json", stellar[rng.below(stellar.len())]),
                    session,
                    "\"hr_track\"".into(),
                ),
                7 => ("/simulations".into(), session, "<h2>Simulations</h2>".into()),
                _ => (star_path(&star.identifier), session, star.identifier.clone()),
            };
            Page { class, wire: http::get(&path, session), marker }
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    /// Round-trip milliseconds per class, with the moment of the reply.
    ms: [Vec<(f64, Instant)>; 9],
    bytes: u64,
    replies: u64,
    /// Speed units this thread ran between replies: seconds, when.
    units: Vec<(f64, Instant)>,
}

/// Keep `OUTSTANDING` requests in flight until `until`; then collect the
/// replies still due. Every reply is checked; only `record`ed ones count.
fn stream(
    client: &mut Client,
    list: &[Page],
    cursor: &mut usize,
    until: Instant,
    tally: Option<(&mut Tally, &AtomicU64, &AtomicBool)>,
    spans: &mut SpanBuf,
) -> Result<(), String> {
    let mut tally = tally;
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(OUTSTANDING);
    let mut send = |in_flight: &mut VecDeque<(usize, Instant)>, client: &mut Client| -> Result<(), String> {
        let i = *cursor % list.len();
        *cursor += 1;
        client.send(&list[i].wire).map_err(|e| format!("browse send: {e}"))?;
        in_flight.push_back((i, Instant::now()));
        Ok(())
    };
    for _ in 0..OUTSTANDING {
        send(&mut in_flight, client)?;
    }
    while let Some((i, sent)) = in_flight.pop_front() {
        let reply = client.recv().map_err(|e| format!("browse recv: {e}"))?;
        let now = Instant::now();
        let page = &list[i];
        check::verify_page(CLASSES[page.class].span, &reply, &page.marker)
            .map_err(|e| format!("{e} ({})", String::from_utf8_lossy(&page.wire).lines().next().unwrap_or("")))?;
        if let Some((t, replied, tracing)) = tally.as_mut() {
            replied.fetch_add(1, Ordering::Relaxed);
            spans.set_on(tracing.load(Ordering::Relaxed));
            t.ms[page.class].push(((now - sent).as_secs_f64() * 1e3, now));
            t.bytes += reply.wire_len() as u64;
            spans.leaf(CLASSES[page.class].span, i as u64, NO_PARENT, sent, now);
        }
        if now < until {
            send(&mut in_flight, client)?;
        }
        if let Some((t, ..)) = tally.as_mut() {
            t.replies += 1;
            if t.replies % UNIT_EVERY == 0 {
                t.units.push((speed::unit(), Instant::now()));
            }
        }
    }
    Ok(())
}

pub fn run(cfg: &Cfg) -> Result<Measured, String> {
    let origin = Instant::now();
    let rng = Rng::new(cfg.seed);
    let mut drains: Vec<Drain> = Vec::new();
    let (mut world, setups) = Setups::repeat(cfg.setup_repeats(), |i| {
        let (world, drain) = build(&mut rng.fork(i), cfg.sized(FINISHED))?;
        drains.push(drain);
        let catalog_ms = world.dep.catalog_ms;
        Ok((world, catalog_ms))
    })?;
    let lists: Vec<Vec<Page>> = (0..CONNECTIONS).map(|c| pages(&mut rng.fork(100 + c as u64), &world)).collect();
    let mut clients = std::mem::take(&mut world.clients);

    let mut marks = None;
    let (replied, tracing) = (AtomicU64::new(0), AtomicBool::new(false));
    let barrier = std::sync::Barrier::new(CONNECTIONS + 1);
    let per_thread: Vec<Result<(Tally, Vec<crate::trace::Span>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&lists)
            .enumerate()
            .map(|(c, (client, list))| {
                let (barrier, replied, tracing) = (&barrier, &replied, &tracing);
                scope.spawn(move || {
                    let mut spans = SpanBuf::new(false, c as u64 + 1, origin);
                    let (mut tally, mut cursor) = (Tally::default(), 0);
                    let warm =
                        stream(client, list, &mut cursor, Instant::now() + cfg.warm_up(WARM_UP), None, &mut spans);
                    barrier.wait();
                    barrier.wait();
                    warm?;
                    stream(
                        client,
                        list,
                        &mut cursor,
                        Instant::now() + Duration::from_secs_f64(cfg.seconds),
                        Some((&mut tally, replied, tracing)),
                        &mut spans,
                    )?;
                    Ok((tally, spans.into_spans()))
                })
            })
            .collect();
        // Both connections are warm: read the counters, then let them go.
        barrier.wait();
        let before = counters::read();
        barrier.wait();
        // In a traced run every other slice records spans.
        marks = Some((before, Slices::sample(&replied, cfg.seconds, cfg.traced.then_some(&tracing))));
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let (before, slices) = marks.expect("marked between the barriers");
    let counted = counters::read().since(&before);

    let (mut tally, mut spans) = (Tally::default(), Vec::new());
    for result in per_thread {
        let (t, s) = result?;
        for (all, part) in tally.ms.iter_mut().zip(t.ms) {
            all.extend(part);
        }
        tally.bytes += t.bytes;
        tally.units.extend(t.units);
        spans.extend(s);
    }
    let slices = slices.paced(&tally.units);
    let window_s = slices.window_s();
    let quiet = slices.stretches();
    let of = |cacheable: bool| -> Vec<f64> {
        CLASSES
            .iter()
            .zip(&tally.ms)
            .filter(|(c, _)| c.cacheable == cacheable)
            .flat_map(|(_, ms)| quiet.keep(ms))
            .collect()
    };
    let (cached, rendered) = (of(true), of(false));
    let all: Vec<f64> = cached.iter().chain(&rendered).copied().collect();
    let every: Vec<f64> = tally.ms.iter().flat_map(|ms| quiet.scaled(ms)).collect();
    let pages = every.len() as f64;

    let mut values = Values::new();
    setups.insert_into(&mut values);
    insert(&mut values, "ops_per_s", slices.ops_per_s());
    insert(&mut values, "op_p50_ms", median(&all));
    insert(&mut values, "harness.read_p50_ms", median(&rendered));
    insert(&mut values, "harness.cpu_ms_per_op", slices.cpu_ms_per_op());
    insert(&mut values, "harness.quiet_share", Some(quiet.quiet_share()));
    insert(&mut values, "harness.speed_factor", slices.speed_factor());
    insert_share_within(&mut values, "slo_share", &[(&all, PAGE_LIMIT_MS)]);
    insert_share_within(&mut values, "harness.slo_share_all", &[(&every, PAGE_LIMIT_MS)]);
    let per_drain = |f: &dyn Fn(&Drain) -> f64| median(&drains.iter().map(f).collect::<Vec<_>>());
    insert(&mut values, "round_peak_ms", per_drain(&|d| d.round_peak_ms));
    insert(&mut values, "fsyncs_per_op", per_drain(&|d| d.fsyncs_per_sim));
    insert(&mut values, "wal_bytes_per_op", per_drain(&|d| d.wal_bytes_per_sim));

    insert(&mut values, "portal.roundtrip_cached_us", median(&cached).map(|ms| ms * 1e3));
    insert(&mut values, "portal.roundtrip_render_us", median(&rendered).map(|ms| ms * 1e3));
    insert(&mut values, "portal.roundtrip_p99_us", quantile(&all, 0.99).map(|ms| ms * 1e3));
    insert_portal_counters(&mut values, &counted);
    insert(&mut values, "portal.bytes_per_page", Some(tally.bytes as f64 / pages));
    insert(&mut values, "simdb.scan_plan_share", counted.scan_plan_share());
    insert(&mut values, "simdb.fsyncs", Some(counted.counter("simdb_wal_fsync_total") as f64));
    insert(&mut values, "harness.trace_overhead_share", slices.trace_overhead());
    insert_sample_stats(&mut values, world.dep.storage.tmpfs, 1, &all, &rendered);
    insert(&mut values, "harness.cpu_busy_cores", slices.busy_cores());

    let mut probe_spans = SpanBuf::new(cfg.traced, 63, origin);
    let Deployment { storage, db, catalog, server, .. } = world.dep;
    let mut single = None;
    if cfg.traced {
        // One request at a time on a warm connection: what the socket,
        // the event loop and the worker hand-off add to the handler.
        let star = &catalog.stars[catalog.stars.len() / 2];
        let wire = http::get(&star_path(&star.identifier), None);
        check::verify_page(
            "probe.portal.roundtrip",
            &clients[0].round_trip(&wire).map_err(|e| e.to_string())?,
            &star.identifier,
        )?;
        single =
            probes::probe(&mut probe_spans, "probe.portal.roundtrip", 2_000, |_| clients[0].round_trip(&wire).is_ok());
    }
    // Restart: connections, server and portal go, then the files are read back.
    drop(clients);
    server.stop();
    let reopened = reopen("browse", &storage, db, if cfg.smoke { 1 } else { REOPENS }, &mut probe_spans)?;
    insert(&mut values, "recover_s", quiet_median(&reopened.timings));
    insert(
        &mut values,
        "simdb.recover_ms_per_mb",
        median(&reopened.timings.iter().map(|t| t.0 * 1e3 / reopened.files_mb).collect::<Vec<_>>()),
    );
    if cfg.traced {
        probes::run(&mut values, &mut probe_spans, &reopened.db, &storage, &catalog)?;
        let handler = values.get("portal.handle_cached_us").copied().unwrap_or(0.0);
        insert(&mut values, "portal.transport_us", single.map(|us| us - handler));
        spans.extend(probe_spans.into_spans());
    } else {
        spans.clear();
    }
    Ok(Measured { attempted: pages as u64, timed_s: window_s, values, spans })
}
