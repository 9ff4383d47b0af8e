//! Observability integration: the process-wide metrics registry is fed by
//! all three tiers (portal, simdb, gridamp daemon + GA), the portal's
//! `GET /metrics` route exposes them in Prometheus text format, a daemon's
//! own ops log tells one simulation's failure in order, and the keep-alive
//! server closes idle connections cleanly (idle timeout is bookkept as
//! `idle_timeout`, never as an I/O error). The documents are held to the
//! tree here too: the paths and design sections they cite exist, and the
//! metric families DESIGN.md lists are the ones a scrape shows.
//!
//! Metrics are cumulative per process, so every assertion here is a
//! "present / increased by" check, never an exact global count — except
//! on the log-flush and log-byte counters and the tick and checkpoint stage
//! timers; the tests that move any of them take turns on [`EXACT_DELTAS`].

use std::collections::BTreeSet;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

mod common;

use amp::grid::{Service, SimTime};
use amp::gridamp::{OpOutcome, OpsEvent};
use amp::obs;
use amp::portal::Request;
use amp::prelude::*;
use amp::simdb::{Db, Op};
use common::{spec, tmpdir, truth};

/// Held by a test while it flushes a write-ahead log or ticks a daemon, so
/// that another's deltas of `simdb_wal_fsync_total`, `simdb_wal_bytes_total`
/// and the `gridamp_tick_stage_seconds` / `simdb_checkpoint_seconds` sums are
/// its own.
static EXACT_DELTAS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Drive a small end-to-end workload through every tier, then assert the
/// portal's `/metrics` route renders series from each of them.
#[test]
fn metrics_endpoint_covers_all_three_tiers() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    // --- simdb tier (durable): WAL fsyncs, commit batches, lock holds ---
    let dir = tmpdir("metrics");
    {
        let db = Db::open(dir.join("amp.snap"), dir.join("amp.wal")).unwrap();
        amp::core::setup::initialize(&db).unwrap();
        let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
        let stars = Manager::<Star>::new(admin);
        for s in amp::stellar::famous_stars().iter().take(3) {
            let mut star = Star::from_catalog(s, "local");
            stars.create(&mut star).unwrap();
        }
        db.compact().unwrap();
    }

    // --- daemon + GA tier: a tiny optimization run on simulated Kraken ---
    let mut dep =
        amp::gridamp::deploy(amp::grid::systems::kraken(), DaemonConfig::default(), None).unwrap();
    let (user, star, alloc, obs_id) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 1).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let spec = spec(1, 10, 5, 128, 7);
    let mut sim = Simulation::new_optimization(star, user, spec, obs_id, "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();
    let partial_results = |outcome| {
        let name = obs::labeled("daemon_partial_results_total", &[("outcome", outcome)]);
        obs::counter(&name).get()
    };
    let (fetched, remembered) = (partial_results("fetched"), partial_results("remembered"));
    dep.daemon.run_until_settled(&dep.grid, 24.0 * 30.0);
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let done = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
    assert_eq!(done.status, SimStatus::Done, "{}", done.status_message);
    // The GA run's files were read when its job chain changed and answered
    // from memory on the rounds in between, which are most.
    let fetched = partial_results("fetched") - fetched;
    let remembered = partial_results("remembered") - remembered;
    assert!(fetched >= 2, "{fetched} fetched");
    assert!(
        remembered > fetched,
        "{remembered} remembered, {fetched} fetched"
    );

    // --- portal tier: a few routed requests, then scrape /metrics ---
    let portal = Arc::new(Portal::new(&dep.db, PortalConfig::default()).unwrap());
    // A miss that stores the page, then a hit on it.
    for _ in 0..2 {
        assert_eq!(portal.handle(&Request::get("/stars")).status, 200);
    }
    // ...one of them over a socket, so the serving layer has observed too
    let server =
        amp::portal::Server::spawn_with(portal.clone(), 0, amp::portal::ServerConfig::default())
            .unwrap();
    let resp = amp::portal::server::fetch(
        server.addr(),
        "GET /stars HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    server.stop();
    let scrape = portal.handle(&Request::get("/metrics"));
    assert_eq!(scrape.status, 200);
    let ct = scrape
        .headers
        .iter()
        .find(|(k, _)| k == "Content-Type")
        .map(|(_, v)| v.as_str())
        .unwrap_or_default();
    assert!(ct.starts_with("text/plain"), "Content-Type: {ct}");

    // The families on the scrape are the families DESIGN §11's table lists,
    // no more and no fewer, each with the type the table gives it.
    let body = scrape.body_str();
    let scraped: BTreeSet<(&str, &str)> = body
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|typed| typed.split_once(' '))
        .collect();
    let listed = design_metric_families();
    let unscraped: Vec<_> = listed.difference(&scraped).collect();
    assert!(
        unscraped.is_empty(),
        "listed, not on /metrics: {unscraped:?}\n{body}"
    );
    let unlisted: Vec<_> = scraped.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "on /metrics, not listed in DESIGN §11: {unlisted:?}"
    );
    // Spot-check the exposition shape: TYPE lines and histogram suffixes.
    assert!(body.contains("# TYPE portal_requests_total counter"));
    assert!(body.contains("# TYPE daemon_gram_poll_seconds histogram"));
    assert!(body.contains("daemon_gram_poll_seconds_bucket"));
    assert!(body.contains("site=\"kraken\""));
    // The route label is the pattern, not a raw path (bounded cardinality).
    assert!(body.contains("route=\"/stars\""));
    // The scrape itself must not be cached: two scrapes may differ.
    let again = portal.handle(&Request::get("/metrics"));
    assert_eq!(again.status, 200);
}

/// `simdb_wal_fsync_total` under a deferring connection, exactly: commits
/// move it by nothing, `flush()` by one, a second `flush()` by nothing —
/// and a daemon, whose connection defers, flushes at most once per tick
/// however many GRAM submissions it records, and not at all when idle. All
/// of a clean drain's submissions count as `accepted`.
#[test]
fn deferred_commits_flush_once_per_tick() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    let flushes = obs::counter("simdb_wal_fsync_total");
    let dir = tmpdir("flushes");
    let db = Db::open(dir.join("amp.snap"), dir.join("amp.wal")).unwrap();
    db.set_fsync(true);
    amp::core::setup::initialize(&db).unwrap();

    let admin = db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let deferring = admin.clone().deferred();
    let before = flushes.get();
    let stars = Manager::<Star>::new(deferring.clone());
    for s in amp::stellar::famous_stars().iter().take(3) {
        stars.create(&mut Star::from_catalog(s, "local")).unwrap();
    }
    assert_eq!(Manager::<Star>::new(admin.clone()).all().unwrap().len(), 3);
    assert_eq!(flushes.get(), before, "a deferred commit flushed");
    deferring.flush().unwrap();
    assert_eq!(flushes.get(), before + 1);
    deferring.flush().unwrap();
    assert_eq!(flushes.get(), before + 1, "nothing was left to flush");

    // A real daemon on the same durable database: one direct run and one
    // small optimization, tick by tick.
    let mut grid = amp::grid::Grid::new();
    grid.add_site(amp::grid::systems::kraken());
    amp::gridamp::apps::install_amp_stack(&mut grid, "kraken");
    let mut daemon = GridAmp::new(&db, DaemonConfig::default()).unwrap();
    grid.authorize("kraken", daemon.credential());
    let (user, star, alloc, obs_id) =
        amp::gridamp::seed_fixtures(&db, "kraken", &truth(), 1).unwrap();
    let sims = Manager::<Simulation>::new(db.connect(amp::core::roles::ROLE_WEB).unwrap());
    let mut direct = Simulation::new_direct(star, user, truth(), "kraken", alloc, 0);
    sims.create(&mut direct).unwrap();
    let spec = spec(1, 10, 5, 128, 7);
    let mut opt = Simulation::new_optimization(star, user, spec, obs_id, "kraken", alloc, 0);
    sims.create(&mut opt).unwrap();

    let submissions = ["accepted", "known", "reconciled"].map(|outcome| {
        let name = obs::labeled("daemon_gram_submissions_total", &[("outcome", outcome)]);
        obs::counter(&name)
    });
    let counted_before = submissions.clone().map(|c| c.get());
    let jobs = Manager::<GridJobRecord>::new(admin.clone());
    let settled = || {
        let all = Manager::<Simulation>::new(admin.clone()).all().unwrap();
        all.iter().all(|s| s.status == SimStatus::Done)
    };
    let (mut ticks, mut submitted) = (0, 0);
    while !settled() {
        ticks += 1;
        assert!(ticks < 2_000, "campaign did not settle");
        let (jobs_before, flushes_before) = (jobs.all().unwrap().len(), flushes.get());
        let report = daemon.tick(&grid);
        assert!(report.daemon_errors.is_empty(), "{report:?}");
        let created = (jobs.all().unwrap().len() - jobs_before) as u64;
        let spent = flushes.get() - flushes_before;
        // One flush, at the tick's end, however many records it wrote.
        assert!(
            spent <= 1,
            "tick {ticks}: {spent} flushes for {created} job records"
        );
        submitted += created;
        grid.advance(SimDuration::from_secs(300));
    }
    assert!(submitted >= 8, "only {submitted} job records");
    // A clean drain repeats no submission and has nothing to reconcile.
    let counted = [0, 1, 2].map(|i| submissions[i].get() - counted_before[i]);
    assert_eq!(counted, [submitted, 0, 0], "accepted, known, reconciled");
    // Nothing is live any more: the tick writes nothing and flushes nothing.
    let idle = flushes.get();
    daemon.tick(&grid);
    assert_eq!(flushes.get(), idle, "an idle tick flushed");
}

/// `simdb_wal_bytes_total` is the number the benchmark reports as
/// `wal_bytes_per_op`: over a 64-simulation drain on a durable database it
/// moves by exactly what the log file grew by.
#[test]
fn wal_bytes_counter_equals_the_logs_growth() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    let logged = obs::counter("simdb_wal_bytes_total");
    let dir = tmpdir("walbytes");
    let log_len = || std::fs::metadata(dir.join("amp.wal")).unwrap().len();
    let db = Db::open(dir.join("amp.snap"), dir.join("amp.wal")).unwrap();
    db.set_fsync(true);
    amp::core::setup::initialize(&db).unwrap();
    let mut grid = amp::grid::Grid::new();
    grid.add_site(amp::grid::systems::kraken());
    amp::gridamp::apps::install_amp_stack(&mut grid, "kraken");
    let mut daemon = GridAmp::new(&db, DaemonConfig::default()).unwrap();
    grid.authorize("kraken", daemon.credential());
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&db, "kraken", &truth(), 5).unwrap();
    let sims = Manager::<Simulation>::new(db.connect(amp::core::roles::ROLE_WEB).unwrap());
    for i in 0..64 {
        let params = StellarParams {
            mass: 0.8 + 0.005 * i as f64,
            ..StellarParams::sun()
        };
        let mut sim = Simulation::new_direct(star, user, params, "kraken", alloc, 0);
        sims.create(&mut sim).unwrap();
    }
    let (bytes_before, len_before) = (logged.get(), log_len());
    let done = Query::new().filter("status", Op::Eq, SimStatus::Done.as_str());
    let mut ticks = 0;
    while sims.count(&done).unwrap() < 64 {
        ticks += 1;
        assert!(ticks < 2_000, "drain did not settle");
        let report = daemon.tick(&grid);
        assert!(report.daemon_errors.is_empty(), "{report:?}");
        grid.advance(SimDuration::from_secs(300));
    }
    let (counted, grown) = (logged.get() - bytes_before, log_len() - len_before);
    assert!(grown > 0, "the drain logged nothing");
    assert_eq!(counted, grown, "counter vs file growth");
}

/// The four stage timers are contiguous: over a 64-simulation drain their
/// sums add up to the wall time spent inside `tick()`.
#[test]
fn tick_stage_timers_add_up_to_the_tick() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    let stage_nanos = || -> u64 {
        ["claim", "poll", "step", "flush"]
            .iter()
            .map(|stage| {
                let name = obs::labeled("gridamp_tick_stage_seconds", &[("stage", stage)]);
                let series = obs::registry().histogram(&name, obs::Unit::Seconds);
                series.snapshot().sum
            })
            .sum()
    };
    let mut dep =
        amp::gridamp::deploy(amp::grid::systems::kraken(), DaemonConfig::default(), None).unwrap();
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 3).unwrap();
    let sims = Manager::<Simulation>::new(dep.db.connect(amp::core::roles::ROLE_WEB).unwrap());
    for i in 0..64 {
        let params = StellarParams {
            mass: 0.8 + 0.005 * i as f64,
            ..StellarParams::sun()
        };
        let mut sim = Simulation::new_direct(star, user, params, "kraken", alloc, 0);
        sims.create(&mut sim).unwrap();
    }
    let done = Query::new().filter("status", Op::Eq, SimStatus::Done.as_str());
    let (staged_before, mut in_tick, mut ticks) = (stage_nanos(), Duration::ZERO, 0);
    while sims.count(&done).unwrap() < 64 {
        ticks += 1;
        assert!(ticks < 2_000, "drain did not settle");
        let started = std::time::Instant::now();
        dep.daemon.tick(&dep.grid);
        in_tick += started.elapsed();
        dep.grid.advance(SimDuration::from_secs(300));
    }
    let staged = Duration::from_nanos(stage_nanos() - staged_before);
    let gap = in_tick.abs_diff(staged).as_secs_f64() / in_tick.as_secs_f64();
    assert!(
        gap <= 0.10,
        "stages sum to {staged:?} of {in_tick:?} in tick()"
    );
}

/// A status poll that fails for good (the site never issued the handle)
/// fails the job: `daemon_job_transitions_total` counts that transition
/// like any other, and the ops log shows the command that failed.
#[test]
fn a_failed_status_poll_is_counted_and_logged() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    let mut dep =
        amp::gridamp::deploy(amp::grid::systems::kraken(), DaemonConfig::default(), None).unwrap();
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 4).unwrap();
    let sims = Manager::<Simulation>::new(dep.db.connect(amp::core::roles::ROLE_WEB).unwrap());
    let mut sim = Simulation::new_direct(star, user, truth(), "kraken", alloc, 0);
    let sim_id = sims.create(&mut sim).unwrap();
    // The first tick submits the pre-job script; its row is pending.
    dep.daemon.tick(&dep.grid);
    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let jobs = Manager::<GridJobRecord>::new(admin);
    let mut job = jobs.all().unwrap().pop().expect("a submitted job");
    assert_eq!(
        (job.simulation_id, job.status),
        (sim_id, JobStatus::Pending)
    );
    let handle = GramJobHandle::new("kraken", GramService::Fork, 999_999).0;
    job.gram_handle = Some(handle.clone());
    jobs.save(&job).unwrap();

    let counted = obs::counter("daemon_job_transitions_total");
    let before = counted.get();
    dep.grid.advance(SimDuration::from_secs(300));
    let report = dep.daemon.tick(&dep.grid);
    assert!(report.job_transitions >= 1, "{report:?}");
    assert_eq!(counted.get() - before, report.job_transitions as u64);
    assert_eq!(jobs.get(job.id.unwrap()).unwrap().status, JobStatus::Failed);
    let log = dep.daemon.ops_log();
    let tail = log.render_tail(log.len());
    let line = format!("ERROR $ globus-job-status {handle}");
    assert_eq!(tail.matches(&line).count(), 1, "{tail}");
}

/// The three checkpoint stage timers are contiguous: over a few compactions
/// of a 20,000-row durable table their sums add up to the wall time spent
/// inside `compact()`, and the gauge is the snapshot file's length.
#[test]
fn checkpoint_stage_timers_add_up_to_the_checkpoint() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    let stage_nanos = || -> u64 {
        ["pin", "encode_write", "truncate"]
            .iter()
            .map(|stage| {
                let name = obs::labeled("simdb_checkpoint_seconds", &[("stage", stage)]);
                let series = obs::registry().histogram(&name, obs::Unit::Seconds);
                series.snapshot().sum
            })
            .sum()
    };
    let dir = tmpdir("checkpoint");
    let db = Db::open(dir.join("amp.snap"), dir.join("amp.wal")).unwrap();
    db.set_fsync(true);
    db.define_role(amp::simdb::Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    let text = |name| amp::simdb::Column::new(name, amp::simdb::ValueType::Text);
    let schema = amp::simdb::TableSchema::new("job", vec![text("state").indexed(), text("handle")]);
    admin.create_table(schema).unwrap();
    let (staged_before, mut in_compact) = (stage_nanos(), Duration::ZERO);
    for round in 0..4 {
        admin
            .transaction(&["job"], |tx| {
                (0..5_000).try_for_each(|i| {
                    let handle = format!("https://kraken/gram/{round}/{i}");
                    let job = [("state", "DONE".into()), ("handle", handle.into())];
                    tx.insert("job", &job).map(drop)
                })
            })
            .unwrap();
        let started = std::time::Instant::now();
        db.compact().unwrap();
        in_compact += started.elapsed();
        let written = std::fs::metadata(dir.join("amp.snap")).unwrap().len();
        assert_eq!(obs::gauge("simdb_snapshot_bytes").get(), written as i64);
    }
    let staged = Duration::from_nanos(stage_nanos() - staged_before);
    let gap = in_compact.abs_diff(staged).as_secs_f64() / in_compact.as_secs_f64();
    assert!(
        gap <= 0.10,
        "stages sum to {staged:?} of {in_compact:?} in compact()"
    );
}

/// A transient storm past the retry cap escalates to HOLD, and the
/// daemon's own log tells it in order: a failed grid call, one transient
/// retry per step with its streak, then the hold, whose line names the storm.
#[test]
fn a_transient_storm_then_its_hold_are_told_on_the_daemons_log() {
    let _turn = EXACT_DELTAS.lock().unwrap_or_else(|e| e.into_inner());
    let mut dep = amp::gridamp::deploy(
        amp::grid::systems::kraken(),
        DaemonConfig {
            max_transient_retries: 3,
            ..DaemonConfig::default()
        },
        None,
    )
    .unwrap();
    // Permanent outage of both GRAM and GridFTP: every poll is transient.
    dep.grid
        .faults
        .add_outage("kraken", Service::Both, SimTime(0), SimTime(u64::MAX / 2));
    let (user, star, alloc, _obs) =
        amp::gridamp::seed_fixtures(&dep.db, "kraken", &truth(), 9).unwrap();
    let web = dep.db.connect(amp::core::roles::ROLE_WEB).unwrap();
    let mut sim = Simulation::new_direct(star, user, truth(), "kraken", alloc, 0);
    let sim_id = Manager::<Simulation>::new(web).create(&mut sim).unwrap();

    dep.daemon.run_until_settled(&dep.grid, 48.0);

    let admin = dep.db.connect(amp::core::roles::ROLE_ADMIN).unwrap();
    let held = Manager::<Simulation>::new(admin).get(sim_id).unwrap();
    assert_eq!(held.status, SimStatus::Hold, "{}", held.status_message);

    let log = dep.daemon.ops_log();
    let story: Vec<&OpsEvent> = log
        .entries()
        .filter(|e| e.simulation_id == Some(sim_id))
        .map(|e| &e.event)
        .collect();
    assert!(
        matches!(
            story[0],
            OpsEvent::Command {
                outcome: OpOutcome::Transient(_),
                ..
            }
        ),
        "{story:?}"
    );
    // Three retries are allowed; the fourth transient in a row holds.
    let streaks: Vec<u32> = story
        .iter()
        .filter_map(|e| match e {
            OpsEvent::Transient { streak, .. } => Some(*streak),
            _ => None,
        })
        .collect();
    assert_eq!(streaks, [1, 2, 3, 4], "{story:?}");
    assert!(
        matches!(story.last(), Some(OpsEvent::Hold { .. })),
        "the hold ends the story: {story:?}"
    );
    let tail = log.render_tail(log.len());
    assert!(
        tail.contains(&format!("ERROR sim {sim_id}: HOLD: transient storm")),
        "{tail}"
    );
    // And the metrics side agrees an escalation happened.
    assert!(obs::counter("daemon_holds_total").get() >= 1);
    assert!(obs::counter("daemon_transient_retries_total").get() >= 3);
}

/// A close the client negotiated (`Connection: close`) is counted as
/// `client_close`, and every close-reason series (and the serving gauges)
/// is registered the moment a server runs, so a scrape can always see the
/// full set.
#[test]
fn a_client_negotiated_close_is_counted_as_client_close() {
    let client_closes = obs::counter(&obs::labeled(
        "portal_connections_closed_total",
        &[("reason", "client_close")],
    ));
    let db = Db::in_memory();
    amp::core::setup::initialize(&db).unwrap();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());

    let c0 = client_closes.get();
    let server = amp::portal::Server::spawn_with(
        portal.clone(),
        0,
        amp::portal::ServerConfig {
            workers: 1,
            ..amp::portal::ServerConfig::default()
        },
    )
    .unwrap();
    let resp = amp::portal::server::fetch(
        server.addr(),
        "GET /stars HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while client_closes.get() == c0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        client_closes.get() > c0,
        "client-negotiated close not recorded"
    );

    let scrape = portal.handle(&Request::get("/metrics")).body_str();
    for family in [
        "reason=\"client_close\"",
        "reason=\"read_deadline\"",
        "reason=\"idle_timeout\"",
        "reason=\"too_large\"",
        "portal_open_connections",
        "portal_conn_queue_wait_seconds",
    ] {
        assert!(
            scrape.contains(family),
            "/metrics missing {family}:\n{scrape}"
        );
    }
    server.stop();
}

/// Regression for the idle-timeout bugfix: a keep-alive connection that
/// goes quiet is closed *cleanly* — the reader's `WouldBlock`/`TimedOut`
/// is mapped to an `idle_timeout` close, not surfaced as an I/O error.
#[test]
fn idle_keep_alive_connection_closes_cleanly_on_timeout() {
    let idle = obs::counter(&obs::labeled(
        "portal_connections_closed_total",
        &[("reason", "idle_timeout")],
    ));
    let errs = obs::counter(&obs::labeled(
        "portal_connections_closed_total",
        &[("reason", "error")],
    ));
    let idle_before = idle.get();
    let errs_before = errs.get();

    let db = Db::in_memory();
    amp::core::setup::initialize(&db).unwrap();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = amp::portal::Server::spawn_with(
        portal,
        0,
        amp::portal::ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(150),
            ..amp::portal::ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /stars HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    // One framed response arrives, then we go quiet and the server must
    // close the socket (EOF) rather than erroring or hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break, // clean close
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("expected clean close, got read error {e}"),
        }
    }
    assert!(buf.starts_with(b"HTTP/1.1 200"));
    server.stop();

    assert!(
        idle.get() > idle_before,
        "idle close was not recorded as idle_timeout"
    );
    assert_eq!(
        errs.get(),
        errs_before,
        "idle close was miscounted as a connection error"
    );
}

// --- The documents are held to the code -----------------------------------

const DESIGN: &str = include_str!("../DESIGN.md");

/// `(family, type)` of every row of the metric table in DESIGN §11: the
/// block of that section whose header starts `| family | type |`.
fn design_metric_families() -> BTreeSet<(&'static str, &'static str)> {
    let section = DESIGN
        .split("\n## ")
        .find(|s| s.starts_with("11. "))
        .expect("DESIGN.md has a section 11");
    let table = section
        .split("\n\n")
        .find(|block| block.starts_with("| family | type |"))
        .expect("section 11 has the metric family table");
    table
        .lines()
        .skip(2)
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`'), cells[2])
        })
        .collect()
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file, directory and test that DESIGN.md, README.md and
/// EXPERIMENTS.md cite under `crates/`, `tests/`, `examples/` or
/// `benchmark/` exists; a `tests/x.rs::name` citation names a function of
/// that file.
#[test]
fn the_documents_cite_only_paths_that_exist() {
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md", "EXPERIMENTS.md"] {
        let text = read(&repo_root().join(doc));
        for top in ["crates/", "tests/", "examples/", "benchmark/"] {
            for (at, _) in text.match_indices(top) {
                let inside_a_word = text[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || "/_-.".contains(c));
                if inside_a_word {
                    continue;
                }
                let rest = &text[at..];
                let len = rest
                    .find(|c: char| !(c.is_alphanumeric() || "_./-".contains(c)))
                    .unwrap_or(rest.len());
                let path = rest[..len].trim_end_matches(['.', '/']);
                let file = repo_root().join(path);
                if !file.exists() {
                    missing.push(format!("{doc}: {path}"));
                    continue;
                }
                let Some(item) = rest[len..].strip_prefix("::") else {
                    continue;
                };
                let name: String = item
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let defined = || read(&file).contains(&format!("fn {name}("));
                if top == "tests/" && path.ends_with(".rs") && !defined() {
                    missing.push(format!("{doc}: {path}::{name}"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "cited, not in the tree: {missing:#?}");
}

/// The text before a run of section numbers: from the `§` that `before`
/// leads up to, back over the list entries `§x, ` and `§x and `.
fn before_the_list(before: &str) -> &str {
    let list = (before.strip_suffix(", ")).or(before.strip_suffix(" and "));
    if let Some(list) = list {
        let number = list.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.');
        if let Some(earlier) = number
            .strip_suffix('§')
            .filter(|_| number.len() < list.len())
        {
            return before_the_list(earlier);
        }
    }
    before
}

/// DESIGN.md's sections are numbered 1..N, and each one's subsections
/// 1..k, with no gaps. Every reference to one of them names a heading that
/// exists: a `§x.y` inside DESIGN.md (which writes a section of the paper
/// as `paper §x`), and the document's name followed by `§x.y` in README.md,
/// EXPERIMENTS.md and every `.rs` and `.md` file below the root. The root's
/// other documents record changes, past and planned, and cite sections as
/// they were numbered then.
#[test]
fn design_section_references_name_headings_that_exist() {
    let headings: Vec<&str> = DESIGN
        .lines()
        .filter_map(|line| line.strip_prefix("## ").or(line.strip_prefix("### ")))
        .map(|title| title.split(' ').next().unwrap().trim_end_matches('.'))
        .collect();
    let (mut section, mut sub) = (0, 0);
    for number in &headings {
        let expected = if number.contains('.') {
            sub += 1;
            format!("{section}.{sub}")
        } else {
            (section, sub) = (section + 1, 0);
            section.to_string()
        };
        assert_eq!(*number, expected, "DESIGN.md headings: {headings:?}");
    }

    let mut sources = vec![("DESIGN.md".to_string(), DESIGN.to_string())];
    for doc in ["README.md", "EXPERIMENTS.md"] {
        sources.push((doc.to_string(), read(&repo_root().join(doc))));
    }
    let below_the_root = std::fs::read_dir(repo_root()).unwrap();
    let mut dirs: Vec<PathBuf> = below_the_root.map(|e| e.unwrap().path()).collect();
    while let Some(dir) = dirs.pop() {
        let skipped = dir.ends_with("target") || dir.ends_with(".git");
        if !dir.is_dir() || skipped {
            continue;
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
                let name = path.strip_prefix(repo_root()).unwrap().display();
                sources.push((name.to_string(), read(&path)));
            }
        }
    }

    let mut dangling = Vec::new();
    for (name, text) in &sources {
        for (at, _) in text.match_indices('§') {
            let owner = before_the_list(&text[..at]);
            let cites_design = if name == "DESIGN.md" {
                !(owner.ends_with("paper ") || owner.ends_with("Paper "))
            } else {
                owner.ends_with("DESIGN ") || owner.ends_with("DESIGN.md ")
            };
            if !cites_design {
                continue;
            }
            let after = &text[at + '§'.len_utf8()..];
            let end = after
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(after.len());
            let number = after[..end].trim_end_matches('.');
            if !headings.contains(&number) {
                dangling.push(format!("{name}: §{number}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "no such DESIGN.md section: {dangling:?}"
    );
}
