//! Serving-layer integration: concurrent keep-alive load over the
//! event-driven TCP server, the event-loop suite (idle-connection scale,
//! pipelining across readiness wakeups, slow-loris eviction, readable
//! 413s, graceful drain, byte-split arrival fuzz), the inline-hit suite
//! (a cache hit answered by the loop equals a worker's, on the wire and
//! in the counters), and the
//! cache-transparency property — a portal serving from the versioned
//! response cache is byte-identical to one rendering every request
//! fresh, under arbitrary write/read interleavings.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use amp::core::{roles, setup};
use amp::obs;
use amp::portal::server::{fetch, fetch_pipelined, read_framed_response};
use amp::portal::{hash_password, Portal, PortalConfig, Request, Response, Server, ServerConfig};
use amp::prelude::*;
use amp::simdb::Db;
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn fresh_db() -> Db {
    let db = Db::in_memory();
    setup::initialize(&db).unwrap();
    db
}

fn star(ident: &str) -> Star {
    Star {
        id: None,
        identifier: ident.to_string(),
        name: None,
        hd_number: None,
        kic_number: None,
        ra: 1.0,
        dec: 2.0,
        vmag: 5.0,
        in_kepler_field: false,
        source: "local".into(),
        has_results: false,
    }
}

/// Log a pre-approved user in through the portal and return the session
/// cookie value.
fn login(portal: &Portal, db: &Db, username: &str, password: &str) -> String {
    let admin = db.connect(roles::ROLE_ADMIN).unwrap();
    let mut u = AmpUser::new(
        username,
        &format!("{username}@x.edu"),
        &hash_password(password, "s"),
        0,
    );
    u.approved = true;
    Manager::<AmpUser>::new(admin).create(&mut u).unwrap();
    let resp = portal.handle(&Request::post(
        "/accounts/login",
        &[("username", username), ("password", password)],
    ));
    assert_eq!(resp.status, 302, "{}", resp.body_str());
    resp.headers
        .iter()
        .find(|(k, _)| k == "Set-Cookie")
        .map(|(_, v)| {
            v.split(';')
                .next()
                .unwrap()
                .trim_start_matches("amp_session=")
                .to_string()
        })
        .expect("session cookie")
}

/// N client threads, each pushing M pipelined keep-alive requests over a
/// single connection. Every response must be a well-formed HTTP/1.1 200,
/// and every response must match the requester's session — the anonymous
/// threads never see the logged-in user's page (i.e. the cache never
/// leaks a session-rendered response) and vice versa.
#[test]
fn concurrent_keep_alive_load_is_well_formed_and_session_consistent() {
    let db = fresh_db();
    let admin = db.connect(roles::ROLE_ADMIN).unwrap();
    let stars = Manager::<Star>::new(admin);
    for i in 0..12 {
        stars.create(&mut star(&format!("HD {i}"))).unwrap();
    }
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let cookie = login(&portal, &db, "alice", "pulsations");

    let server = Server::spawn_with(
        portal.clone(),
        0,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    const THREADS: usize = 8;
    const REQUESTS: usize = 25;
    let paths = ["/", "/stars", "/stars?page=2"];
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cookie = cookie.clone();
            std::thread::spawn(move || {
                // the last thread is alice; the rest are anonymous
                let logged_in = t == THREADS - 1;
                let requests: Vec<String> = (0..REQUESTS)
                    .map(|i| {
                        let path = paths[(t + i) % paths.len()];
                        if logged_in {
                            format!(
                                "GET {path} HTTP/1.1\r\nHost: t\r\nCookie: amp_session={cookie}\r\n\r\n"
                            )
                        } else {
                            format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = requests.iter().map(|s| s.as_str()).collect();
                let responses = fetch_pipelined(addr, &refs).expect("pipelined fetch");
                assert_eq!(responses.len(), REQUESTS);
                for r in &responses {
                    assert!(r.starts_with("HTTP/1.1 200"), "{}", &r[..60.min(r.len())]);
                    if logged_in {
                        assert!(r.contains("alice"), "logged-in response lost its session");
                        assert!(!r.contains(">log in<"));
                    } else {
                        assert!(r.contains(">log in<"), "anonymous response has a session");
                        assert!(!r.contains("alice"));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The anonymous traffic repeated 3 paths 7×25 times: the versioned
    // cache must have served the overwhelming majority of them.
    assert!(
        portal.cache().hits() > 100,
        "only {} cache hits",
        portal.cache().hits()
    );
    server.stop();
}

/// `Connection: close` clients (the seed behaviour) still work, and the
/// single-request `fetch` helper frames by Content-Length.
#[test]
fn close_and_keep_alive_clients_interoperate() {
    let db = fresh_db();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = Server::spawn(portal, 0).unwrap();
    let addr = server.addr();

    let closed = fetch(
        addr,
        "GET /stars HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    assert!(closed.starts_with("HTTP/1.1 200"));
    assert!(closed.to_ascii_lowercase().contains("connection: close"));

    let kept = fetch(addr, "GET /stars HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert!(kept.starts_with("HTTP/1.1 200"));
    assert!(kept.to_ascii_lowercase().contains("connection: keep-alive"));

    // HTTP/1.0 defaults to close
    let old = fetch(addr, "GET /stars HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
    assert!(old.to_ascii_lowercase().contains("connection: close"));
    server.stop();
}

// ---------------------------------------------------------------------------
// Event-loop suite: concurrency beyond the worker count, deadlines, drain.
// ---------------------------------------------------------------------------

fn closed_counter(reason: &str) -> obs::Counter {
    obs::counter(&obs::labeled(
        "portal_connections_closed_total",
        &[("reason", reason)],
    ))
}

/// The C10K shape in miniature: a crowd of mostly-idle keep-alive
/// connections parks on the event loop while a hot client hammers the
/// serving path. The old worker-pool server would have wedged — each
/// idle connection pinned a blocking worker thread — so with any crowd
/// larger than `workers` the hot path would starve. Here the crowd
/// costs a slab slot each, the hot path stays fast, and every parked
/// connection is still alive (and servable) afterwards.
#[test]
fn idle_keep_alive_crowd_does_not_starve_the_hot_path() {
    let db = fresh_db();
    let admin = db.connect(roles::ROLE_ADMIN).unwrap();
    let stars = Manager::<Star>::new(admin);
    for i in 0..6 {
        stars.create(&mut star(&format!("HD {i}"))).unwrap();
    }
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = Server::spawn_with(
        portal,
        0,
        ServerConfig {
            workers: 2,
            // The crowd must out-live the whole test without idling out.
            idle_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Park the crowd, scaled to share the process fd budget with the rest
    // of the suite (both ends of every connection live in this process).
    const IDLE: usize = 2000;
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    // Hot path: sequential keep-alive requests on one connection.
    let mut hot = TcpStream::connect(addr).unwrap();
    hot.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    let mut latencies = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        hot.write_all(b"GET /stars HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let resp = read_framed_response(&mut hot, &mut buf).unwrap();
        latencies.push(t.elapsed());
        assert!(resp.starts_with("HTTP/1.1 200"), "{}", &resp[..40]);
    }
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    // Generous bound (debug build, shared CI box): the point is that the
    // crowd doesn't turn microseconds into seconds.
    assert!(
        p99 < Duration::from_millis(250),
        "hot-path p99 {p99:?} with {IDLE} idle connections parked"
    );

    // Every parked connection is still live and servable.
    for mut conn in idle {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut b = Vec::new();
        let resp = read_framed_response(&mut conn, &mut b).expect("parked conn still serves");
        assert!(resp.starts_with("HTTP/1.1 200"));
    }
    server.stop();
}

/// Pipelining across readiness wakeups: multiple requests in one
/// segment are each answered (the parser buffer is re-polled after a
/// write completes, without waiting for new socket readiness), and a
/// request fragmented across many tiny writes still parses.
#[test]
fn pipelined_and_fragmented_requests_parse_across_wakeups() {
    let db = fresh_db();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = Server::spawn(portal, 0).unwrap();
    let addr = server.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Three pipelined requests in a single write.
    s.write_all(
        b"GET / HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /stars HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /stars?page=2 HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    let mut buf = Vec::new();
    for i in 0..3 {
        let resp = read_framed_response(&mut s, &mut buf).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "pipelined response {i}");
    }

    // One request dribbled in 7-byte fragments with pauses: each
    // fragment is a separate readiness wakeup.
    let raw = b"GET /stars HTTP/1.1\r\nHost: t\r\n\r\n";
    for chunk in raw.chunks(7) {
        s.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = read_framed_response(&mut s, &mut buf).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"));
    server.stop();
}

/// The slow-loris fix: a client trickling bytes forever used to pin a
/// blocking worker for the connection's lifetime, because the only
/// timeout was per-read (each byte reset it). The total per-request
/// read deadline evicts the trickler on schedule no matter how
/// diligently it feeds, and the close is attributed to `read_deadline`,
/// not `idle_timeout`.
#[test]
fn slow_loris_trickler_is_evicted_at_the_read_deadline() {
    let deadline_closes = closed_counter("read_deadline");
    let idle_closes = closed_counter("idle_timeout");
    let deadline_before = deadline_closes.get();
    let idle_before = idle_closes.get();

    let db = fresh_db();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = Server::spawn_with(
        portal,
        0,
        ServerConfig {
            workers: 1,
            // Idle timeout is long; only the total-request budget may fire.
            idle_timeout: Duration::from_secs(30),
            read_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(25))).unwrap();
    let start = Instant::now();
    s.write_all(b"GET / HTT").unwrap();
    // Trickle: every write lands well inside any per-read/idle window.
    let mut evicted_at = None;
    let mut b = [0u8; 256];
    while start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(50));
        if s.write_all(b"P").is_err() {
            evicted_at = Some(start.elapsed());
            break;
        }
        match s.read(&mut b) {
            Ok(0) => {
                evicted_at = Some(start.elapsed());
                break;
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                evicted_at = Some(start.elapsed());
                break;
            }
        }
    }
    let evicted_at = evicted_at.expect("trickling client was never evicted");
    assert!(
        evicted_at >= Duration::from_millis(400),
        "evicted before the read deadline: {evicted_at:?}"
    );
    assert!(
        evicted_at < Duration::from_secs(5),
        "eviction took far too long: {evicted_at:?}"
    );
    assert!(
        deadline_closes.get() > deadline_before,
        "close not attributed to read_deadline"
    );
    assert_eq!(
        idle_closes.get(),
        idle_before,
        "read-deadline close miscounted as idle_timeout"
    );
    server.stop();
}

/// Over-size rejection is a *readable* 413: the server answers
/// `413 Payload Too Large` (not a generic 400), half-closes its write
/// side, and drains the client, so the error arrives intact instead of
/// being destroyed by an RST. Both triggers are covered: a declared
/// Content-Length past the budget (rejected from the headers alone) and
/// actually-buffered bytes past the budget.
#[test]
fn oversized_requests_get_a_readable_413_not_a_reset() {
    let too_large = closed_counter("too_large");
    let before = too_large.get();

    let db = fresh_db();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = Server::spawn_with(
        portal,
        0,
        ServerConfig {
            workers: 1,
            max_request_bytes: 2048,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Write the payload, read the full error response to EOF, and drop
    // the connection (the server finishes its drain on our EOF).
    let send_and_read = |payload: &[u8]| -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(payload).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut resp = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => resp.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("expected a readable 413 then EOF, got {e}"),
            }
        }
        String::from_utf8_lossy(&resp).into_owned()
    };

    // Declared oversize: rejected as soon as the headers arrive, before
    // any body is transferred.
    let resp = send_and_read(b"POST /stars HTTP/1.1\r\nHost: t\r\nContent-Length: 500000\r\n\r\n");
    assert!(
        resp.starts_with("HTTP/1.1 413 Payload Too Large"),
        "{}",
        &resp[..60.min(resp.len())]
    );

    // Buffered oversize: an unterminated header section growing past the
    // budget.
    let mut huge = b"GET / HTTP/1.1\r\nX-Filler: ".to_vec();
    huge.extend_from_slice(&vec![b'a'; 4096]);
    let resp = send_and_read(&huge);
    assert!(
        resp.starts_with("HTTP/1.1 413"),
        "{}",
        &resp[..60.min(resp.len())]
    );

    // The close is accounted when the server finishes draining the
    // client (its EOF); give the loop a moment.
    let wait_until = Instant::now() + Duration::from_secs(5);
    while too_large.get() < before + 2 && Instant::now() < wait_until {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        too_large.get() >= before + 2,
        "oversize closes not attributed to too_large"
    );
    server.stop();
}

/// Graceful shutdown: `Server::stop` with requests mid-handler must
/// deliver every in-flight response completely (correct Content-Length
/// framing, then EOF) rather than snapping the sockets.
#[test]
fn graceful_shutdown_drains_in_flight_responses() {
    let db = fresh_db();
    let mut portal = Portal::new(&db, PortalConfig::default()).unwrap();
    // A slow view: it holds each request in the handler long enough that
    // stop() provably lands while they are in flight.
    portal.router_mut().get("/slow", |_, _, _| {
        std::thread::sleep(Duration::from_millis(300));
        Response::html("<p>done</p>")
    });
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with(Arc::new(portal), 0, config).unwrap();
    let addr = server.addr();

    let mut conns: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for c in &mut conns {
        c.write_all(b"GET /slow HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }
    // Give the loop time to dispatch all three to workers, then pull the
    // plug while the handlers are still sleeping.
    std::thread::sleep(Duration::from_millis(100));
    let stopper = std::thread::spawn(move || server.stop());

    for mut c in conns {
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut resp = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match c.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => resp.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("in-flight response was not drained: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&resp);
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "{}",
            &text[..40.min(text.len())]
        );
        // The framing must be complete: exactly header block + declared body.
        let header_end = resp
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("complete headers");
        let cl: usize = text
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().unwrap())
            })
            .expect("Content-Length header");
        assert_eq!(
            resp.len(),
            header_end + 4 + cl,
            "response truncated or over-read at shutdown"
        );
    }
    stopper.join().unwrap();
}

/// A handler that panics fails its own request, not the server: the worker
/// catches the unwind and answers 500 on the connection, which stays open,
/// and the pool keeps every worker. Each of `WORKERS` connections gets a
/// 500 at once, then the same connections' next requests only finish when
/// `WORKERS` handlers are running together — so no worker was lost.
#[test]
fn a_panicking_handler_gets_a_500_and_the_full_pool_keeps_serving() {
    const WORKERS: usize = 3;
    let db = fresh_db();
    let mut portal = Portal::new(&db, PortalConfig::default()).unwrap();
    portal
        .router_mut()
        .get("/boom", |_, _, _| panic!("a handler's bug"));
    let arrivals = Arc::new((Mutex::new(0), Condvar::new()));
    let gate = arrivals.clone();
    portal.router_mut().get("/together", move |_, _, _| {
        let (count, arrived) = &*gate;
        let mut here = count.lock().unwrap();
        *here += 1;
        arrived.notify_all();
        let (_here, waited) = arrived
            .wait_timeout_while(here, Duration::from_secs(10), |n| *n < WORKERS)
            .unwrap();
        Response::html(if waited.timed_out() {
            "alone"
        } else {
            "together"
        })
    });
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with(Arc::new(portal), 0, config).unwrap();
    let addr = server.addr();
    // Process-wide series, so the panics are counted as deltas.
    let route = [("route", "/boom")];
    let failed = obs::counter(&obs::labeled(
        "portal_requests_total",
        &[route[0], ("status", "500")],
    ));
    let timed = obs::registry().histogram(
        &obs::labeled("portal_request_seconds", &route),
        obs::Unit::Seconds,
    );
    let (failed_before, timed_before) = (failed.get(), timed.count());

    let answers: Vec<(String, String)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    conn.set_read_timeout(Some(Duration::from_secs(20)))
                        .unwrap();
                    let mut buf = Vec::new();
                    let mut ask = |path: &str| {
                        conn.write_all(get(path, "").as_bytes()).unwrap();
                        read_framed_response(&mut conn, &mut buf).expect("an answer")
                    };
                    (ask("/boom"), ask("/together"))
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (boom, together) in answers {
        assert!(boom.starts_with("HTTP/1.1 500"), "{boom}");
        assert!(together.starts_with("HTTP/1.1 200"), "{together}");
        assert!(
            together.ends_with("together"),
            "a worker was lost: {together}"
        );
    }
    // Each panic was recorded as its route's 500, and timed.
    assert_eq!(failed.get() - failed_before, WORKERS as u64);
    assert_eq!(timed.count() - timed_before, WORKERS as u64);
    server.stop();
}

/// Network-level byte-split fuzz: a seeded stream of request batches is
/// written in arbitrary fragments with arbitrary pauses (so the head,
/// the body, even the `\r\n\r\n` terminator land across different
/// readiness wakeups), and every request still gets exactly one
/// complete, correctly-framed response in order.
#[test]
fn arbitrarily_split_request_streams_serve_complete_responses() {
    let db = fresh_db();
    let admin = db.connect(roles::ROLE_ADMIN).unwrap();
    Manager::<Star>::new(admin)
        .create(&mut star("HD 5"))
        .unwrap();
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let server = Server::spawn_with(
        portal,
        0,
        ServerConfig {
            workers: 2,
            idle_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut rng = ChaCha8Rng::seed_from_u64(0xA3);
    for round in 0..30 {
        let n_requests = rng.random_range(1..5usize);
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..n_requests {
            match rng.random_range(0..3u8) {
                0 => {
                    wire.extend_from_slice(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n");
                    expected.push(200u16);
                }
                1 => {
                    wire.extend_from_slice(b"GET /stars HTTP/1.1\r\nHost: t\r\n\r\n");
                    expected.push(200);
                }
                _ => {
                    let body = vec![b'x'; rng.random_range(0..40usize)];
                    wire.extend_from_slice(
                        format!(
                            "POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        )
                        .as_bytes(),
                    );
                    wire.extend_from_slice(&body);
                    expected.push(404);
                }
            }
        }

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sent = 0;
        while sent < wire.len() {
            let n = rng.random_range(1..=(wire.len() - sent).min(23));
            s.write_all(&wire[sent..sent + n]).unwrap();
            sent += n;
            if rng.random_bool(0.3) {
                std::thread::sleep(Duration::from_millis(rng.random_range(0..3u64)));
            }
        }
        let mut buf = Vec::new();
        for (i, want) in expected.iter().enumerate() {
            let resp = read_framed_response(&mut s, &mut buf)
                .unwrap_or_else(|e| panic!("round {round} response {i}: {e}"));
            let status: u16 = resp
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            assert_eq!(status, *want, "round {round} response {i}: {resp}");
        }
    }
    server.stop();
}

// ---------------------------------------------------------------------------
// Inline cache hits: the loop answers them itself, everything else is the
// pool's. (That a hit needs no worker at all, the per-wakeup budget and the
// behaviour under a held cache lock are shown inside the crate, where a
// loop can run with no pool: `event_loop::tests`.)
// ---------------------------------------------------------------------------

fn get(path: &str, extra_headers: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n{extra_headers}\r\n")
}

/// What `portal` answers to `req`, as a keep-alive connection carries it.
fn wire(portal: &Portal, req: &Request) -> String {
    let mut bytes = Vec::new();
    portal.handle(req).write_into(&mut bytes, true);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A served portal over a small catalog, and a twin on the same database
/// that is only ever asked through `Portal::handle`.
fn served_with_twin(stars: usize) -> (Db, Arc<Portal>, Portal, Server) {
    let db = fresh_db();
    let mgr = Manager::<Star>::new(db.connect(roles::ROLE_ADMIN).unwrap());
    for i in 0..stars {
        mgr.create(&mut star(&format!("HD {i}"))).unwrap();
    }
    let portal = Arc::new(Portal::new(&db, PortalConfig::default()).unwrap());
    let twin = Portal::new(&db, PortalConfig::default()).unwrap();
    let server = Server::spawn(portal.clone(), 0).unwrap();
    (db, portal, twin, server)
}

/// The first request of a cacheable page is a miss, rendered by a worker;
/// the second is a hit the loop answers. On the wire they are the same
/// bytes, and a committed write to `star` in between makes the next
/// answer the fresh render.
#[test]
fn loop_hits_pool_misses_and_fresh_renders_agree_on_the_wire() {
    let (db, portal, twin, server) = served_with_twin(30);
    let addr = server.addr();
    for (n, path) in ["/", "/stars", "/stars?page=2", "/star/HD%207"]
        .iter()
        .enumerate()
    {
        let miss = fetch(addr, &get(path, "")).unwrap();
        let hit = fetch(addr, &get(path, "")).unwrap();
        assert_eq!(miss, hit, "{path}: hit and miss differ on the wire");
        assert_eq!(hit, wire(&twin, &Request::get(path)), "{path}");
        let cache = portal.cache();
        assert_eq!((cache.misses(), cache.hits()), (n as u64 + 1, n as u64 + 1));
    }
    Manager::<Star>::new(db.connect(roles::ROLE_ADMIN).unwrap())
        .create(&mut star("HD 00 fresh"))
        .unwrap();
    let fresh = fetch(addr, &get("/stars", "")).unwrap();
    assert!(fresh.contains("HD 00 fresh"), "stale page after a commit");
    assert_eq!(fresh, wire(&twin, &Request::get("/stars")));
    assert_eq!(fresh, fetch(addr, &get("/stars", "")).unwrap());
    server.stop();
}

/// One connection pipelines cacheable GETs (hits and misses), the same
/// pages under a session cookie and POSTs in a seeded order — runs of hits
/// longer than the loop's per-wakeup budget included — and gets every
/// response, in order, equal to the twin's `Portal::handle`.
#[test]
fn pipelined_mix_of_loop_and_pool_requests_stays_ordered() {
    let (_db, _portal, twin, server) = served_with_twin(30);
    let paths = [
        "/",
        "/stars",
        "/stars?page=2",
        "/star/HD%203",
        "/star/HD%20404",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x24);
    let mut raw = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..120 {
        let path = paths[rng.random_range(0..paths.len())];
        match rng.random_range(0..10u8) {
            0 => {
                raw.push(
                    "POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\na=b".to_string(),
                );
                expected.push(wire(&twin, &Request::post("/nope", &[("a", "b")])));
            }
            // any session cookie, valid or not, sends a page to the pool
            1 | 2 => {
                raw.push(get(path, "Cookie: amp_session=nobody\r\n"));
                expected.push(wire(
                    &twin,
                    &Request::get(path).with_cookie("amp_session", "nobody"),
                ));
            }
            _ => {
                raw.push(get(path, ""));
                expected.push(wire(&twin, &Request::get(path)));
            }
        }
    }
    let refs: Vec<&str> = raw.iter().map(|s| s.as_str()).collect();
    let got = fetch_pipelined(server.addr(), &refs).unwrap();
    for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "response {i} to {:?}", raw[i]);
    }
    server.stop();
}

/// `Connection: close` on a hit: the response says so, the server closes
/// after it, and the close is the client's.
#[test]
fn connection_close_on_a_hit_closes_after_the_response() {
    let (_db, portal, _twin, server) = served_with_twin(3);
    let client_closes = closed_counter("client_close");
    let kept = fetch(server.addr(), &get("/stars", "")).unwrap();
    let before = client_closes.get();

    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(get("/stars", "Connection: close\r\n").as_bytes())
        .unwrap();
    let mut all = Vec::new();
    s.read_to_end(&mut all).expect("EOF after the response");
    let closed = String::from_utf8_lossy(&all);
    assert_eq!(portal.cache().hits(), 1, "the second request was a hit");
    assert_eq!(
        closed,
        kept.replace("Connection: keep-alive", "Connection: close"),
        "exactly one response, then EOF"
    );
    drop(s);
    let wait_until = Instant::now() + Duration::from_secs(5);
    while client_closes.get() == before && Instant::now() < wait_until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        client_closes.get() > before,
        "close not counted as client_close"
    );
    server.stop();
}

/// A client pipelining 64 hits at a time cannot hold the loop: a second
/// connection's single requests keep their latency meanwhile.
#[test]
fn a_pipelining_client_does_not_starve_another_connection() {
    let (_db, _portal, _twin, server) = served_with_twin(30);
    let addr = server.addr();
    let page = fetch(addr, &get("/stars", "")).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let greedy = {
        let (stop, page) = (stop.clone(), page.clone());
        std::thread::spawn(move || {
            let burst = get("/stars", "").repeat(64);
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = Vec::new();
            let mut bursts = 0;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                s.write_all(burst.as_bytes()).unwrap();
                for _ in 0..64 {
                    assert_eq!(read_framed_response(&mut s, &mut buf).unwrap(), page);
                }
                bursts += 1;
            }
            bursts
        })
    };
    let mut other = TcpStream::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut worst = Duration::ZERO;
    for _ in 0..200 {
        let t = Instant::now();
        other.write_all(get("/", "").as_bytes()).unwrap();
        let resp = read_framed_response(&mut other, &mut buf).unwrap();
        worst = worst.max(t.elapsed());
        assert!(resp.starts_with("HTTP/1.1 200"));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    assert!(greedy.join().unwrap() > 0);
    // Generous (debug build, shared box): a burst is milliseconds of work.
    assert!(
        worst < Duration::from_millis(250),
        "worst round trip {worst:?}"
    );
    server.stop();
}

/// An inline hit is counted exactly once: per route and status, as a cache
/// hit, and never as a miss. The 404 of an unknown star is cacheable too,
/// and no other test of this binary produces that (route, status) series,
/// so its process-wide counter can be compared exactly.
#[test]
fn inline_hits_are_counted_once() {
    let (_db, portal, _twin, server) = served_with_twin(3);
    let requests = obs::counter(&obs::labeled(
        "portal_requests_total",
        &[("route", "/star/<ident>"), ("status", "404")],
    ));
    let hits = obs::counter("portal_cache_hits_total");
    let (requests_before, hits_before) = (requests.get(), hits.get());
    let raw = get("/star/no-such-star", "");
    let got = fetch_pipelined(server.addr(), &[raw.as_str(); 6]).unwrap();
    assert!(got
        .iter()
        .all(|r| r.starts_with("HTTP/1.1 404") && *r == got[0]));
    assert_eq!(requests.get() - requests_before, 6);
    assert_eq!((portal.cache().misses(), portal.cache().hits()), (1, 5));
    // process-wide, and other tests hit their caches meanwhile
    assert!(hits.get() - hits_before >= 5);
    server.stop();
}

/// Regression: `read_framed_response` used to treat an unparseable
/// `Content-Length` as 0, silently desyncing the client's framing (the
/// body bytes would be misread as the next pipelined response). It must
/// fail loudly with `InvalidData` instead.
#[test]
fn framed_reader_rejects_unparseable_content_length() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\nhello")
            .unwrap();
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    let err = read_framed_response(&mut stream, &mut buf)
        .expect_err("a garbage Content-Length must not frame as zero");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("banana"), "{err}");
    fake_server.join().unwrap();
}

/// A random step against the shared database / the two portals.
/// `WriteSimulation` creates a finished stellar simulation, rewrites one's
/// result or flips one between DONE and HOLD; a `Read` is asked with no
/// cookie, a live session or a bogus `amp_session`, as `who` says.
#[derive(Debug, Clone)]
enum Step {
    InsertStar(u16),
    RenameStar { pick: u8, name: u16 },
    ToggleResults { pick: u8 },
    WriteSimulation { pick: u8, what: u8 },
    Read { route: u8, who: u8 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let write_simulation =
        || (any::<u8>(), any::<u8>()).prop_map(|(pick, what)| Step::WriteSimulation { pick, what });
    let read = || (any::<u8>(), any::<u8>()).prop_map(|(route, who)| Step::Read { route, who });
    prop_oneof![
        (0u16..400).prop_map(Step::InsertStar),
        (any::<u8>(), 0u16..400).prop_map(|(pick, name)| Step::RenameStar { pick, name }),
        any::<u8>().prop_map(|pick| Step::ToggleResults { pick }),
        // as many writes to `simulation` as to `star`, so that a run of
        // steps often writes one table and not the other
        write_simulation(),
        write_simulation(),
        write_simulation(),
        // reads dominate, as they would in production traffic
        read(),
        read(),
        read(),
        read(),
    ]
}

/// Two different direct-run results of the stellar model, as the daemon
/// records them in `result_json`.
fn stellar_results() -> [String; 2] {
    [1.0, 1.1].map(|mass| {
        let params = StellarParams {
            mass,
            ..StellarParams::benchmark()
        };
        serde_json::to_string(&amp::stellar::evolve(&params, &Domain::default()).unwrap()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache transparency: a cache-enabled portal and a cache-disabled
    /// portal over the SAME database return byte-identical responses
    /// (status, headers, body) at every read, no matter how writes and
    /// reads interleave, and whoever asks: an entry stored for an
    /// anonymous request may be served to one with a session, and back.
    #[test]
    fn cached_responses_are_byte_identical_to_fresh_renders(
        steps in proptest::collection::vec(arb_step(), 1..60)
    ) {
        let db = fresh_db();
        let admin = db.connect(roles::ROLE_ADMIN).unwrap();
        let stars = Manager::<Star>::new(admin.clone());
        let star_id = stars.create(&mut star("HD 0")).unwrap();
        let mut owner = AmpUser::new("astro", "a@x.edu", "h", 0);
        owner.approved = true;
        let owner_id = Manager::<AmpUser>::new(admin.clone()).create(&mut owner).unwrap();
        let alloc_id = Manager::<Allocation>::new(admin.clone())
            .create(&mut Allocation::new("kraken", "TG-PROP", 1000.0))
            .unwrap();
        let sims = Manager::<Simulation>::new(admin);
        let results = stellar_results();

        let cached = Portal::new(&db, PortalConfig::default()).unwrap();
        let fresh = Portal::new(
            &db,
            PortalConfig { cache_enabled: false, ..PortalConfig::default() },
        )
        .unwrap();
        prop_assert!(cached.config.cache_enabled);
        // one live session per portal, for the same user
        let session = |p: &Portal| p.sessions.create(owner_id, "astro", false, p.now());
        let (cached_session, fresh_session) = (session(&cached), session(&fresh));

        let mut known: Vec<String> = vec!["HD 0".into()];
        let mut finished: Vec<i64> = Vec::new();
        for step in &steps {
            match step {
                Step::InsertStar(n) => {
                    let ident = format!("HD {n}");
                    if !known.contains(&ident) {
                        stars.create(&mut star(&ident)).unwrap();
                        known.push(ident);
                    }
                }
                Step::RenameStar { pick, name } => {
                    let ident = &known[*pick as usize % known.len()];
                    if let Some(mut s) =
                        stars.first(&Query::new().eq("identifier", ident.as_str())).unwrap()
                    {
                        s.name = Some(format!("Name {name}"));
                        stars.save(&s).unwrap();
                    }
                }
                Step::ToggleResults { pick } => {
                    let ident = &known[*pick as usize % known.len()];
                    if let Some(mut s) =
                        stars.first(&Query::new().eq("identifier", ident.as_str())).unwrap()
                    {
                        s.has_results = !s.has_results;
                        stars.save(&s).unwrap();
                    }
                }
                Step::WriteSimulation { pick, what } => match (finished.len(), what % 3) {
                    // a few simulations, so that reads of one often follow
                    // a write to it
                    (0, _) | (1..=2, 0) => {
                        let mut sim = Simulation::new_direct(
                            star_id,
                            owner_id,
                            StellarParams::benchmark(),
                            "kraken",
                            alloc_id,
                            0,
                        );
                        sim.status = SimStatus::Done;
                        sim.result_json = Some(results[*what as usize % 2].clone());
                        finished.push(sims.create(&mut sim).unwrap());
                    }
                    (n, flip) => {
                        let mut sim = sims.get(finished[*pick as usize % n]).unwrap();
                        if flip == 2 {
                            sim.status = match sim.status {
                                SimStatus::Done => SimStatus::Hold,
                                _ => SimStatus::Done,
                            };
                        } else {
                            // the other result: its plots differ
                            let other = results.iter().find(|r| sim.result_json.as_ref() != Some(*r));
                            sim.result_json = other.cloned();
                        }
                        sims.save(&sim).unwrap();
                    }
                },
                Step::Read { route, who } => {
                    let ident = &known[*route as usize % known.len()];
                    let detail = format!("/star/{}", ident.replace(' ', "%20"));
                    // the last 4 characters: "HD 7", " 123" (by identifier
                    // and by the name "Name 123"), "D 12" (by identifier)
                    let tail: String = ident.chars().skip(ident.chars().count() - 4).collect();
                    let suggest = format!("/api/suggest?q={}", tail.replace(' ', "+"));
                    // before the first simulation exists, a cacheable 404
                    let sim_id = finished.get(*route as usize / 6 % finished.len().max(1)).unwrap_or(&1);
                    let plots = format!("/simulation/{sim_id}/plots.json");
                    let path = match route % 6 {
                        0 => "/",
                        1 => "/stars",
                        2 => "/stars?page=2",
                        3 => suggest.as_str(),
                        4 => plots.as_str(),
                        _ => detail.as_str(),
                    };
                    let (a, b) = match who % 3 {
                        0 => (Request::get(path), Request::get(path)),
                        1 => (
                            Request::get(path).with_cookie("amp_session", &cached_session),
                            Request::get(path).with_cookie("amp_session", &fresh_session),
                        ),
                        _ => {
                            let bogus = Request::get(path).with_cookie("amp_session", "nobody");
                            (bogus.clone(), bogus)
                        }
                    };
                    let a = cached.handle(&a);
                    let b = fresh.handle(&b);
                    prop_assert_eq!(a.status, b.status, "status diverged on {}", path);
                    prop_assert_eq!(&a.headers, &b.headers, "headers diverged on {}", path);
                    prop_assert_eq!(&a.body, &b.body, "body diverged on {}", path);
                }
            }
        }
        // fresh portal never populated a cache
        prop_assert!(fresh.cache().is_empty());
    }
}
