//! Open-loop load instrument for the portal serving layer.
//!
//! Requests depart on a fixed arrival schedule whether or not earlier
//! ones have completed, and every latency is measured from the request's
//! *scheduled* arrival time — the coordinated-omission correction. A
//! closed-loop client self-throttles under overload and reports
//! flattering numbers; the overload phase here (offered rate 1.25x the
//! measured closed-loop capacity) shows the queueing delay a real burst
//! would see. The end-to-end benchmark's loops are closed and cannot show
//! it (ROADMAP item 7, "Bounded overload", is what this measures for).
//!
//! Three phases against the event-loop server, keep-alive, cached catalog
//! page: a closed-loop capacity probe, a moderate open-loop stream, and
//! the overload stream.
//!
//! Usage:
//!   cargo run --release -p amp-bench --bin report_http_load
//!
//! It prints; it gates nothing and CI does not run it.

#![forbid(unsafe_code)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amp_core::models::Star;
use amp_core::{roles, setup};
use amp_portal::server::read_framed_response;
use amp_portal::{Portal, PortalConfig, Server, ServerConfig};
use amp_simdb::orm::Manager;
use amp_simdb::Db;

const PATH: &str = "/stars";
const WORKERS: usize = 4;
const SENDERS: usize = 4;

fn portal() -> Arc<Portal> {
    let db = Db::in_memory();
    setup::initialize(&db).expect("schema");
    let admin = db.connect(roles::ROLE_ADMIN).expect("admin");
    let stars = Manager::<Star>::new(admin);
    for i in 0..40 {
        let mut s = Star {
            id: None,
            identifier: format!("HD {i}"),
            name: Some(format!("Bench {i}")),
            hd_number: Some(i),
            kic_number: None,
            ra: i as f64,
            dec: -(i as f64),
            vmag: 5.0,
            in_kepler_field: false,
            source: "local".into(),
            has_results: false,
        };
        stars.create(&mut s).expect("star");
    }
    Arc::new(Portal::new(&db, PortalConfig::default()).expect("portal"))
}

/// A fresh portal behind a fresh keep-alive server, so no phase inherits
/// another's connections or queue.
fn spawn_server() -> Server {
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    Server::spawn_with(portal(), 0, config).expect("spawn")
}

/// One keep-alive request/response on `stream`.
fn round_trip(stream: &mut TcpStream, buf: &mut Vec<u8>) {
    let raw = format!("GET {PATH} HTTP/1.1\r\nHost: b\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("write");
    let resp = read_framed_response(stream, buf).expect("response");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
}

fn percentile(latencies: &[u64], p: f64) -> u64 {
    let mut v = latencies.to_vec();
    v.sort_unstable();
    let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
    v[idx]
}

/// Closed-loop capacity: `threads` keep-alive clients, `per_thread`
/// requests each, every client sending its next request only after fully
/// reading the previous response. Returns requests per second.
fn closed_loop_capacity(addr: SocketAddr, threads: usize, per_thread: usize) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut buf = Vec::new();
                for _ in 0..per_thread {
                    round_trip(&mut stream, &mut buf);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    (threads * per_thread) as f64 / start.elapsed().as_secs_f64()
}

/// Open-loop result: latencies from the scheduled arrival (the
/// coordinated-omission-corrected number that includes queueing behind
/// a late schedule) and pure service time (write → full response).
struct OpenLoopMeasurement {
    elapsed: Duration,
    offered_rate: f64,
    sched_latencies_us: Vec<u64>,
    service_latencies_us: Vec<u64>,
}

/// Fixed-arrival-rate (open-loop) driver: `senders` keep-alive
/// connections share a global schedule of `total` requests at
/// `rate` req/s. A sender that falls behind does NOT slow the schedule —
/// its next scheduled times keep accruing, and the measured latency
/// (completion minus *scheduled* start) absorbs the backlog, which is
/// exactly the overload signal a closed loop hides.
fn drive_open_loop(
    addr: SocketAddr,
    rate: f64,
    senders: usize,
    total: usize,
) -> OpenLoopMeasurement {
    let per_thread = total / senders;
    // Small lead-in so every thread is ready before the first arrival.
    let base = Instant::now() + Duration::from_millis(20);
    let handles: Vec<_> = (0..senders)
        .map(|w| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut buf = Vec::new();
                let mut sched = Vec::with_capacity(per_thread);
                let mut service = Vec::with_capacity(per_thread);
                for k in 0..per_thread {
                    // Global arrival k*senders + w, at the offered rate.
                    let scheduled = base + Duration::from_secs_f64((k * senders + w) as f64 / rate);
                    let wait = scheduled.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    round_trip(&mut stream, &mut buf);
                    let done = Instant::now();
                    sched.push(done.duration_since(scheduled).as_micros() as u64);
                    service.push(done.duration_since(sent).as_micros() as u64);
                }
                (sched, service)
            })
        })
        .collect();
    let mut sched_latencies_us = Vec::new();
    let mut service_latencies_us = Vec::new();
    for h in handles {
        let (s, v) = h.join().expect("open-loop sender");
        sched_latencies_us.extend(s);
        service_latencies_us.extend(v);
    }
    OpenLoopMeasurement {
        elapsed: base.elapsed(),
        offered_rate: rate,
        sched_latencies_us,
        service_latencies_us,
    }
}

fn report_open(name: &str, m: &OpenLoopMeasurement) {
    println!(
        "{name:<20} offered {:>7.0} req/s  achieved {:>7.0}   service p50/p99 {:>5}/{:>6} us   sched p99 {:>7} us",
        m.offered_rate,
        m.sched_latencies_us.len() as f64 / m.elapsed.as_secs_f64(),
        percentile(&m.service_latencies_us, 0.50),
        percentile(&m.service_latencies_us, 0.99),
        percentile(&m.sched_latencies_us, 0.99),
    );
}

fn main() {
    println!("== portal open-loop load ({WORKERS} workers, {SENDERS} senders, GET {PATH}) ==\n");

    let server = spawn_server();
    let capacity = closed_loop_capacity(server.addr(), 8, 250);
    println!("closed_loop_capacity {capacity:>9.0} req/s  (8 keep-alive clients x 250 requests)");
    server.stop();

    println!("\nlatency measured from scheduled arrival:\n");
    let server = spawn_server();
    let m = drive_open_loop(server.addr(), 15_000.0, SENDERS, 45_000);
    report_open("open_loop_moderate", &m);
    server.stop();

    // Overload: offer more than the measured closed-loop capacity for two
    // seconds. The schedule cannot be met, so the sched-corrected p99
    // grows with the backlog — the number a closed loop never shows.
    let rate = capacity * 1.25;
    let server = spawn_server();
    let m = drive_open_loop(server.addr(), rate, SENDERS, (rate * 2.0) as usize);
    report_open("open_loop_overload", &m);
    server.stop();
}
