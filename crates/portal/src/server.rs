//! The TCP front end: an event-driven HTTP/1.1 server over the portal.
//!
//! Production AMP sat behind Apache; the seed reproduction used a
//! thread-per-connection loop, and the first rewrite a worker pool that
//! still parked one blocking thread per in-flight connection — capping
//! concurrency at `workers` and letting a slow-loris client pin a worker
//! forever. This version separates connection count from thread count:
//!
//! * one event-loop thread (`crate::event_loop`) owns every socket via
//!   OS readiness polling (epoll on Linux, `poll(2)` elsewhere, both
//!   zero-dependency), so tens of thousands of idle keep-alive
//!   connections cost a few bytes of state each and no threads;
//! * a fixed pool of [`ServerConfig::workers`] threads runs
//!   [`Portal::handle`] only — parsing, buffering, timeouts, and writes
//!   all happen on the loop, and so does the answer to a response-cache
//!   hit, which needs no view (`portal_conn_queue_wait_seconds` counts
//!   the requests that did go to the pool);
//! * a timer wheel enforces both the idle timeout between requests and a
//!   total per-request read deadline (the slow-loris fix), and every
//!   close is attributed: `portal_connections_closed_total{reason=...}`;
//! * backpressure is layered: per-connection (read interest off while a
//!   response is in flight), queue (accept pauses when the dispatch
//!   queue fills), and global (a fixed cap on open connections).
//!
//! The portal logic itself stays transport-independent
//! ([`Portal::handle`]), which is also how the integration tests drive it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use amp_obs::{Counter, Gauge, Histogram};

use crate::event_loop::{worker_main, CloseReason, Dispatcher, EventLoop, Poller};
use crate::portal::Portal;

/// Serving-layer metric handles, resolved once per process (the hot path
/// is then a single relaxed atomic op per observation).
pub(crate) struct ServerMetrics {
    /// Requests waiting for a worker (the dispatch queue).
    pub(crate) queue_depth: Gauge,
    /// How long a parsed request waited for a worker.
    pub(crate) queue_wait: Histogram,
    /// Currently open connections on the event loop.
    pub(crate) open_connections: Gauge,
    closed_idle: Counter,
    closed_read_deadline: Counter,
    closed_eof: Counter,
    closed_client: Counter,
    closed_bad_request: Counter,
    closed_too_large: Counter,
    closed_error: Counter,
    closed_shutdown: Counter,
}

impl ServerMetrics {
    /// The counter a given close reason increments — one reason, one
    /// series, every close accounted exactly once.
    pub(crate) fn closed(&self, reason: CloseReason) -> &Counter {
        match reason {
            CloseReason::IdleTimeout => &self.closed_idle,
            CloseReason::ReadDeadline => &self.closed_read_deadline,
            CloseReason::Eof => &self.closed_eof,
            CloseReason::ClientClose => &self.closed_client,
            CloseReason::BadRequest => &self.closed_bad_request,
            CloseReason::TooLarge => &self.closed_too_large,
            CloseReason::Error => &self.closed_error,
            CloseReason::Shutdown => &self.closed_shutdown,
        }
    }
}

pub(crate) fn metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let closed = |reason: &str| {
            amp_obs::counter(&amp_obs::labeled(
                "portal_connections_closed_total",
                &[("reason", reason)],
            ))
        };
        ServerMetrics {
            queue_depth: amp_obs::gauge("portal_conn_queue_depth"),
            queue_wait: amp_obs::histogram("portal_conn_queue_wait_seconds"),
            open_connections: amp_obs::gauge("portal_open_connections"),
            closed_idle: closed("idle_timeout"),
            closed_read_deadline: closed("read_deadline"),
            closed_eof: closed("eof"),
            closed_client: closed("client_close"),
            closed_bad_request: closed("bad_request"),
            closed_too_large: closed("too_large"),
            closed_error: closed("error"),
            closed_shutdown: closed("shutdown"),
        }
    })
}

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running [`Portal::handle`] (socket I/O is not
    /// theirs: the event loop owns every connection).
    pub workers: usize,
    /// How long a persistent connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Total time budget for receiving one request, headers and body,
    /// measured from its first byte. A client trickling a byte at a
    /// time extends the idle timeout forever but never this one.
    pub read_deadline: Duration,
    /// Reject requests whose buffered or declared size exceeds this
    /// (answered `413 Payload Too Large`).
    pub max_request_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            idle_timeout: Duration::from_secs(5),
            read_deadline: Duration::from_secs(10),
            max_request_bytes: 1 << 20,
        }
    }
}

/// A running server handle.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    poller: Arc<Poller>,
    dispatcher: Arc<Dispatcher>,
    loop_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and serve on 127.0.0.1 (port 0 = ephemeral) with default
    /// configuration. The portal is shared with the workers via `Arc`.
    pub fn spawn(portal: Arc<Portal>, port: u16) -> std::io::Result<Server> {
        Server::spawn_with(portal, port, ServerConfig::default())
    }

    /// Bind and serve with explicit serving-layer configuration.
    pub fn spawn_with(
        portal: Arc<Portal>,
        port: u16,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let poller = Arc::new(Poller::new()?);
        let dispatcher = Arc::new(Dispatcher::new());

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let portal = portal.clone();
                let dispatcher = dispatcher.clone();
                let poller = poller.clone();
                std::thread::spawn(move || worker_main(portal, dispatcher, poller))
            })
            .collect();

        let event_loop = EventLoop::new(
            listener,
            portal.clone(),
            poller.clone(),
            dispatcher.clone(),
            config,
            shutdown.clone(),
        )?;
        let loop_handle = std::thread::spawn(move || event_loop.run());

        Ok(Server {
            addr,
            shutdown,
            poller,
            dispatcher,
            loop_handle: Some(loop_handle),
            workers,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, close idle connections, let
    /// in-flight requests finish and flush, then join every thread.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.poller.wake();
        // The loop drains in-flight work before exiting, so workers must
        // stay alive until it has joined.
        if let Some(h) = self.loop_handle.take() {
            let _ = h.join();
        }
        self.dispatcher.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Read one Content-Length-framed response from `stream`, consuming from
/// (and refilling) `buf`, which may already hold pipelined bytes. Public
/// so load-generating clients (benches) can drive a keep-alive
/// connection request-by-request.
pub fn read_framed_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<String> {
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before response headers",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    // An unparseable Content-Length must fail loudly, not decay to 0:
    // a zero-length guess leaves the body bytes in `buf` to be misread
    // as the next pipelined response (silent framing desync).
    let content_length: usize = match head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().to_string())
    }) {
        Some(v) => v.parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable Content-Length: {v:?}"),
            )
        })?,
        None => 0,
    };
    let total = header_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let raw = String::from_utf8_lossy(&buf[..total]).into_owned();
    buf.drain(..total);
    Ok(raw)
}

/// A tiny blocking HTTP client for tests and examples: one request, one
/// response, framed by Content-Length (a keep-alive server no longer
/// closes the connection to delimit the body).
pub fn fetch(addr: SocketAddr, raw_request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw_request.as_bytes())?;
    let mut buf = Vec::new();
    read_framed_response(&mut stream, &mut buf)
}

/// Send several requests over ONE connection (written back-to-back, i.e.
/// pipelined) and read the same number of framed responses — the
/// keep-alive client the multi-request tests and benches use.
pub fn fetch_pipelined(addr: SocketAddr, raw_requests: &[&str]) -> std::io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    let mut wire = Vec::new();
    for r in raw_requests {
        wire.extend_from_slice(r.as_bytes());
    }
    stream.write_all(&wire)?;
    let mut buf = Vec::new();
    let mut out = Vec::with_capacity(raw_requests.len());
    for _ in raw_requests {
        out.push(read_framed_response(&mut stream, &mut buf)?);
    }
    Ok(out)
}
