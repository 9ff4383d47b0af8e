//! Readiness event loop: C10K keep-alive serving without a thread per
//! connection.
//!
//! A thread per in-flight connection caps concurrency at the thread
//! count, and a few thousand mostly-idle keep-alive clients starve
//! everyone else. This module owns the sockets instead (DESIGN.md §10):
//!
//! * a single event-loop thread runs nonblocking `accept`/`read`/`write`
//!   under an OS readiness poller ([`Poller`]: `epoll` on Linux via thin
//!   FFI, `poll(2)` elsewhere — zero external dependencies);
//! * each connection is a small state machine (read → parse → dispatch →
//!   buffered write → keep-alive or close) driven by the incremental
//!   [`RequestParser`]; rendering stays on the worker pool, so a slow
//!   view never stalls the loop. The one thing the loop answers itself
//!   is a response-cache hit ([`Portal::answer_cached`]: a key, a stamp
//!   from one version pin and a `try_read` lookup — it never waits for a
//!   lock a worker holds), `READS_PER_WAKEUP` of them per connection per
//!   wakeup; a miss, a page asked with a session cookie, a non-GET and a
//!   contended cache go to the pool;
//! * a hashed timer wheel enforces **two** deadlines: the idle timeout
//!   between requests, and a total per-request read deadline
//!   (headers+body) that evicts slow-loris tricklers no matter how
//!   diligently they feed one byte per interval;
//! * backpressure is structural: while a response is queued or being
//!   written, the connection's read interest is suspended (at most one
//!   request per connection is ever in flight), and the accept side
//!   pauses when the dispatch queue or the connection table fills;
//! * every close is attributed to exactly one reason
//!   (`portal_connections_closed_total{reason=...}`), and error responses
//!   half-close the write side and drain the client so the error is
//!   readable instead of being destroyed by an RST.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{Request, RequestParser, Response};
use crate::portal::Portal;
use crate::server::{metrics, ServerConfig};

/// How long a connection that owes nothing more may linger after the
/// server half-closes it (we keep reading so the peer's unread bytes
/// don't turn our final response into an RST).
const LINGER_DRAIN: Duration = Duration::from_secs(1);

/// Upper bound on graceful-shutdown draining: after this, remaining
/// connections are force-closed so `Server::stop` always returns.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Bytes read per `read` call on the shared scratch buffer.
const SCRATCH_BYTES: usize = 16 * 1024;

/// Max `read` calls, and max inline cache-hit answers, per connection per
/// wakeup — bounds how long one chatty connection can monopolize the loop
/// (level-triggered polling re-delivers readiness for the remainder; the
/// request after the last inline answer goes to the pool).
const READS_PER_WAKEUP: usize = 8;

/// Parsed requests waiting for a worker before `accept` pauses.
const QUEUE_DEPTH: usize = 128;

/// Concurrently open connections; past this, accept pauses and new clients
/// wait in the kernel backlog.
const MAX_CONNECTIONS: usize = 16_384;

// ---------------------------------------------------------------------------
// OS readiness poller: epoll (Linux FFI) with a portable poll(2) fallback.
// ---------------------------------------------------------------------------

mod sys {
    #![allow(non_camel_case_types, dead_code)]

    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel ABI packs `epoll_event` on x86/x86_64; other
    /// architectures use natural alignment.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: i32) -> i32;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut epoll_event) -> i32;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32)
            -> i32;
        #[cfg(target_os = "linux")]
        pub fn close(fd: i32) -> i32;
        pub fn poll(fds: *mut pollfd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// `EPOLLERR`/`EPOLLHUP`: the peer is gone (delivered even with no
    /// interest registered, which is how we notice an RST while a
    /// request is off being handled).
    pub hangup: bool,
}

/// Registered interest for one fd (the `poll(2)` backend keeps these in
/// a table; epoll keeps them in the kernel).
#[cfg(any(test, not(target_os = "linux")))]
#[derive(Clone, Copy)]
struct Interest {
    fd: RawFd,
    token: u64,
    readable: bool,
    writable: bool,
}

enum PollerImpl {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    /// Portable fallback (and a testable second implementation on
    /// Linux): interest table + `poll(2)`. O(n) per wait, which is why
    /// epoll is the default wherever it exists. On Linux only the unit
    /// tests build it.
    #[cfg(any(test, not(target_os = "linux")))]
    Poll { interest: Mutex<Vec<Interest>> },
}

/// Token the poller's internal wake channel reports on (filtered out
/// before events reach the caller).
const WAKE_TOKEN: u64 = u64::MAX;

/// OS readiness poller with a cross-thread wake channel.
pub(crate) struct Poller {
    imp: PollerImpl,
    /// Self-wake channel: any thread writes a byte, the loop drains it.
    wake_tx: std::os::unix::net::UnixStream,
    wake_rx: std::os::unix::net::UnixStream,
}

impl Poller {
    pub(crate) fn new() -> std::io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Poller::with_impl(PollerImpl::Epoll { epfd })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Poller::new_poll_backend()
        }
    }

    /// The `poll(2)` backend, constructible on every platform (unit
    /// tests exercise it even where epoll is the default).
    #[cfg(any(test, not(target_os = "linux")))]
    pub(crate) fn new_poll_backend() -> std::io::Result<Poller> {
        Poller::with_impl(PollerImpl::Poll {
            interest: Mutex::new(Vec::new()),
        })
    }

    fn with_impl(imp: PollerImpl) -> std::io::Result<Poller> {
        let (wake_tx, wake_rx) = std::os::unix::net::UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller {
            imp,
            wake_tx,
            wake_rx,
        };
        poller.add(poller.wake_rx.as_raw_fd(), WAKE_TOKEN, true, false)?;
        Ok(poller)
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> std::io::Result<()> {
        match &self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll { epfd } => {
                let mut ev = sys::epoll_event {
                    events: if readable { sys::EPOLLIN } else { 0 }
                        | if writable { sys::EPOLLOUT } else { 0 },
                    data: token,
                };
                if unsafe { sys::epoll_ctl(*epfd, op, fd, &mut ev) } < 0 {
                    return Err(std::io::Error::last_os_error());
                }
            }
            #[cfg(any(test, not(target_os = "linux")))]
            PollerImpl::Poll { interest } => {
                let mut table = interest.lock().expect("poller interest");
                match op {
                    sys::EPOLL_CTL_DEL => table.retain(|i| i.fd != fd),
                    _ => {
                        if let Some(i) = table.iter_mut().find(|i| i.fd == fd) {
                            *i = Interest {
                                fd,
                                token,
                                readable,
                                writable,
                            };
                        } else {
                            table.push(Interest {
                                fd,
                                token,
                                readable,
                                writable,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Register `fd`. A registration the kernel refuses (`ENOSPC` at
    /// `fs.epoll.max_user_watches`, `ENOMEM`) is the caller's to handle:
    /// the loop would never hear from that fd.
    pub(crate) fn add(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    // `modify` and `delete` stay best-effort: on a registered fd the only
    // realistic failure is EBADF after a racing close, and there is
    // nothing useful to do with it.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        let _ = self.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable);
    }

    pub(crate) fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false);
    }

    /// Wake a blocked [`Poller::wait`] from any thread. A full pipe
    /// means a wake is already pending — exactly what we need.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn drain_wake(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Block until readiness, a wake, or `timeout`; fills `out` with
    /// events (the internal wake channel is drained, never reported).
    pub(crate) fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) {
        out.clear();
        let timeout_ms: i32 = match timeout {
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            None => -1,
        };
        match &self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll { epfd } => {
                let mut events = [sys::epoll_event { events: 0, data: 0 }; 1024];
                let n = unsafe {
                    sys::epoll_wait(*epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                for ev in events.iter().take(n.max(0) as usize) {
                    let (bits, token) = (ev.events, ev.data);
                    if token == WAKE_TOKEN {
                        self.drain_wake();
                        continue;
                    }
                    out.push(PollEvent {
                        token,
                        readable: bits & sys::EPOLLIN != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
            }
            #[cfg(any(test, not(target_os = "linux")))]
            PollerImpl::Poll { interest } => {
                let snapshot: Vec<Interest> = interest.lock().expect("poller interest").clone();
                let mut fds: Vec<sys::pollfd> = snapshot
                    .iter()
                    .map(|i| sys::pollfd {
                        fd: i.fd,
                        events: if i.readable { sys::POLLIN } else { 0 }
                            | if i.writable { sys::POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                let n = unsafe {
                    sys::poll(
                        fds.as_mut_ptr(),
                        fds.len() as core::ffi::c_ulong,
                        timeout_ms,
                    )
                };
                if n <= 0 {
                    return;
                }
                for (i, pfd) in fds.iter().enumerate() {
                    if pfd.revents == 0 {
                        continue;
                    }
                    let token = snapshot[i].token;
                    if token == WAKE_TOKEN {
                        self.drain_wake();
                        continue;
                    }
                    out.push(PollEvent {
                        token,
                        readable: pfd.revents & sys::POLLIN != 0,
                        writable: pfd.revents & sys::POLLOUT != 0,
                        hangup: pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                    });
                }
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        match &self.imp {
            #[cfg(target_os = "linux")]
            PollerImpl::Epoll { epfd } => {
                unsafe { sys::close(*epfd) };
            }
            #[cfg(any(test, not(target_os = "linux")))]
            PollerImpl::Poll { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Close-reason accounting.
// ---------------------------------------------------------------------------

/// Why a connection was closed — every close increments exactly one
/// `portal_connections_closed_total{reason=...}` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Keep-alive connection sat idle past `idle_timeout` between
    /// requests.
    IdleTimeout,
    /// A partially received request blew its total read deadline
    /// (headers+body) — the slow-loris eviction.
    ReadDeadline,
    /// Clean EOF from the client.
    Eof,
    /// The client negotiated the close (`Connection: close` or
    /// HTTP/1.0 without keep-alive).
    ClientClose,
    /// Unparseable request; answered 400.
    BadRequest,
    /// Request exceeded `max_request_bytes`; answered 413.
    TooLarge,
    /// I/O error mid-connection (RST, write failure).
    Error,
    /// Graceful shutdown closed the connection.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Worker-pool dispatch.
// ---------------------------------------------------------------------------

struct Job {
    token: usize,
    generation: u64,
    request: Request,
    client_keep_alive: bool,
    enqueued: Instant,
}

pub(crate) struct Completion {
    token: usize,
    generation: u64,
    bytes: Vec<u8>,
    /// `None` keeps the connection alive; `Some(reason)` closes it
    /// after the response is flushed.
    close: Option<CloseReason>,
}

/// Bridge between the event loop (produces jobs, consumes completions)
/// and the worker pool (the reverse). Views run on workers only, so a
/// slow one never blocks socket I/O.
pub(crate) struct Dispatcher {
    jobs: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    stopping: AtomicBool,
    completions: Mutex<Vec<Completion>>,
}

impl Dispatcher {
    pub(crate) fn new() -> Dispatcher {
        Dispatcher {
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            stopping: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
        }
    }

    fn push_job(&self, job: Job) {
        let mut jobs = self.jobs.lock().expect("job queue");
        jobs.push_back(job);
        metrics().queue_depth.set(jobs.len() as i64);
        drop(jobs);
        self.job_ready.notify_one();
    }

    fn queue_len(&self) -> usize {
        self.jobs.lock().expect("job queue").len()
    }

    fn take_completions(&self, into: &mut Vec<Completion>) {
        let mut completions = self.completions.lock().expect("completions");
        into.append(&mut completions);
    }

    /// Wake every worker and let them exit once the queue is empty.
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.job_ready.notify_all();
    }
}

/// Serialize a handler's response and decide whether the connection
/// outlives it — shared by the workers and the loop's inline cache hits.
/// `None` keeps the connection alive; `Some(ClientClose)` closes it after
/// the flush, because the client asked (`Connection: close` / HTTP 1.0).
fn finish_response(response: &Response, client_keep_alive: bool) -> (Vec<u8>, Option<CloseReason>) {
    let close = (!client_keep_alive).then_some(CloseReason::ClientClose);
    let mut bytes = Vec::with_capacity(response.body.len() + 256);
    response.write_into(&mut bytes, client_keep_alive);
    (bytes, close)
}

/// Worker thread body: pop a job, run the handler, serialize the
/// response, hand it back to the loop, wake the loop.
pub(crate) fn worker_main(portal: Arc<Portal>, dispatcher: Arc<Dispatcher>, poller: Arc<Poller>) {
    loop {
        let job = {
            let mut jobs = dispatcher.jobs.lock().expect("job queue");
            loop {
                if let Some(job) = jobs.pop_front() {
                    metrics().queue_depth.set(jobs.len() as i64);
                    break job;
                }
                if dispatcher.stopping.load(Ordering::SeqCst) {
                    return;
                }
                jobs = dispatcher.job_ready.wait(jobs).expect("job queue");
            }
        };
        metrics()
            .queue_wait
            .observe_duration(job.enqueued.elapsed());
        // A view that panics is answered with a 500 inside `handle`, so the
        // worker lives on and the pool keeps its size.
        let response = portal.handle(&job.request);
        let (bytes, close) = finish_response(&response, job.client_keep_alive);
        dispatcher
            .completions
            .lock()
            .expect("completions")
            .push(Completion {
                token: job.token,
                generation: job.generation,
                bytes,
                close,
            });
        poller.wake();
    }
}

// ---------------------------------------------------------------------------
// Timer wheel.
// ---------------------------------------------------------------------------

const WHEEL_SLOTS: usize = 512;
const WHEEL_TICK: Duration = Duration::from_millis(20);

/// Hashed timing wheel with lazy cancellation: entries are (token,
/// expected-deadline) pairs; a connection whose authoritative deadline
/// moved later is simply reinserted when its slot comes up, and one
/// whose deadline was cleared is dropped. ~10s horizon (512 × 20 ms);
/// later deadlines park at the horizon and hop until they fit.
struct TimerWheel {
    slots: Vec<Vec<usize>>,
    cursor: usize,
    /// Time at which the cursor slot began.
    cursor_time: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: now,
        }
    }

    fn insert(&mut self, token: usize, deadline: Instant) {
        let delta = deadline.saturating_duration_since(self.cursor_time);
        let ticks = (delta.as_millis() as u64 / WHEEL_TICK.as_millis() as u64 + 1)
            .min(WHEEL_SLOTS as u64 - 1) as usize;
        let slot = (self.cursor + ticks) % WHEEL_SLOTS;
        self.slots[slot].push(token);
    }

    /// Advance to `now`, draining every passed slot into `out` as
    /// expiry *candidates* (the caller revalidates against the
    /// connection's authoritative deadline).
    fn advance(&mut self, now: Instant, out: &mut Vec<usize>) {
        while now.duration_since(self.cursor_time) >= WHEEL_TICK {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.cursor_time += WHEEL_TICK;
            out.append(&mut self.slots[self.cursor]);
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state machine.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request; read interest on.
    Reading,
    /// A request is on the worker pool; all interest off (backpressure:
    /// the socket may buffer, we won't read it).
    Dispatched,
    /// A serialized response is being flushed; write interest as
    /// needed.
    Writing,
    /// Response flushed, write half shut down; discarding client bytes
    /// until EOF (or a short deadline) so the close can't RST the
    /// response away. Carries the close reason to account on exit.
    Draining(CloseReason),
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    want_read: bool,
    want_write: bool,
    /// Set while a response that must end the connection is queued or
    /// being written.
    close_after_write: Option<CloseReason>,
    /// When the first byte of the current request arrived — the anchor
    /// for the total per-request read deadline. `None` between
    /// requests (idle timeout applies instead).
    request_started: Option<Instant>,
    last_activity: Instant,
    /// Authoritative deadline; wheel entries are hints.
    deadline: Option<Instant>,
    generation: u64,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant, generation: u64) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            want_read: false,
            want_write: false,
            close_after_write: None,
            request_started: None,
            last_activity: now,
            deadline: None,
            generation,
        }
    }
}

// ---------------------------------------------------------------------------
// Slab of connections (token = index, generation detects reuse).
// ---------------------------------------------------------------------------

struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

struct Slab {
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, make: impl FnOnce(u64) -> Conn) -> usize {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                let generation = self.slots[i].generation;
                self.slots[i].conn = Some(make(generation));
                i
            }
            None => {
                self.slots.push(Slot {
                    generation: 1,
                    conn: Some(make(1)),
                });
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, token: usize) -> Option<&mut Conn> {
        self.slots.get_mut(token)?.conn.as_mut()
    }

    fn remove(&mut self, token: usize) -> Option<Conn> {
        let slot = self.slots.get_mut(token)?;
        let conn = slot.conn.take()?;
        // Bump so stale completions for this token are dropped.
        slot.generation += 1;
        self.free.push(token);
        self.live -= 1;
        Some(conn)
    }

    fn tokens(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.conn.is_some())
            .map(|(i, _)| i)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX - 1;

pub(crate) struct EventLoop {
    listener: TcpListener,
    /// For cache hits only: the loop answers those itself, everything
    /// else runs `Portal::handle` on a worker.
    portal: Arc<Portal>,
    poller: Arc<Poller>,
    dispatcher: Arc<Dispatcher>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    slab: Slab,
    wheel: TimerWheel,
    scratch: Vec<u8>,
    accepting: bool,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    pub(crate) fn new(
        listener: TcpListener,
        portal: Arc<Portal>,
        poller: Arc<Poller>,
        dispatcher: Arc<Dispatcher>,
        config: ServerConfig,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let now = Instant::now();
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        Ok(EventLoop {
            listener,
            portal,
            poller,
            dispatcher,
            config,
            shutdown,
            slab: Slab::new(),
            wheel: TimerWheel::new(now),
            scratch: vec![0u8; SCRATCH_BYTES],
            accepting: true,
            draining: false,
            drain_deadline: None,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(1024);
        let mut completions: Vec<Completion> = Vec::new();
        let mut expired: Vec<usize> = Vec::new();
        loop {
            // Block only when nothing is timed: with live connections
            // (or a drain in progress) the wheel needs its tick.
            let timeout = if self.slab.live > 0 || self.draining {
                Some(WHEEL_TICK)
            } else {
                None
            };
            self.poller.wait(&mut events, timeout);
            let now = Instant::now();

            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.begin_drain(now);
            }

            self.dispatcher.take_completions(&mut completions);
            for c in completions.drain(..) {
                self.on_completion(c, now);
            }

            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready(now);
                } else {
                    self.on_io(ev, now);
                }
            }

            self.wheel.advance(now, &mut expired);
            for token in expired.drain(..) {
                self.on_timer(token, now);
            }

            if self.draining {
                if self.slab.live == 0 {
                    break;
                }
                if self.drain_deadline.is_some_and(|d| now >= d) {
                    for token in self.slab.tokens() {
                        self.close(token, CloseReason::Shutdown);
                    }
                    break;
                }
            }
            self.update_accept_interest();
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = Some(now + DRAIN_GRACE);
        // Connections that owe nothing (no request in flight, no
        // response pending) close immediately; the rest drain.
        for token in self.slab.tokens() {
            if self
                .slab
                .get_mut(token)
                .is_some_and(|c| c.state == ConnState::Reading)
            {
                self.close(token, CloseReason::Shutdown);
            }
        }
    }

    /// Accept every pending connection (level-triggered: whatever we
    /// leave in the backlog re-notifies).
    fn accept_ready(&mut self, now: Instant) {
        loop {
            if self.draining
                || self.slab.live >= MAX_CONNECTIONS
                || self.dispatcher.queue_len() >= QUEUE_DEPTH
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = self
                        .slab
                        .insert(|generation| Conn::new(stream, now, generation));
                    if self.poller.add(fd, token as u64, true, false).is_err() {
                        self.slab.remove(token);
                        continue;
                    }
                    let conn = self.slab.get_mut(token).expect("just inserted");
                    conn.want_read = true;
                    let deadline = now + self.config.idle_timeout;
                    conn.deadline = Some(deadline);
                    self.wheel.insert(token, deadline);
                    metrics().open_connections.set(self.slab.live as i64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failure (EMFILE, aborted handshake):
                // level-triggered readiness retries on the next pass.
                Err(_) => break,
            }
        }
        self.update_accept_interest();
    }

    /// Pause/resume accepting: the connection table and the dispatch
    /// queue are both bounded, and a full bound parks new clients in
    /// the kernel backlog instead of growing server state.
    fn update_accept_interest(&mut self) {
        let want = !self.draining
            && self.slab.live < MAX_CONNECTIONS
            && self.dispatcher.queue_len() < QUEUE_DEPTH;
        if want != self.accepting {
            self.accepting = want;
            self.poller
                .modify(self.listener.as_raw_fd(), LISTENER_TOKEN, want, false);
        }
    }

    fn on_io(&mut self, ev: PollEvent, now: Instant) {
        let token = ev.token as usize;
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if ev.hangup && !ev.readable {
            // RST / peer vanished with nothing readable. During
            // Reading this is just an unread EOF; mid-request it is an
            // error close.
            let reason = match conn.state {
                ConnState::Reading => CloseReason::Eof,
                ConnState::Draining(reason) => reason,
                _ => CloseReason::Error,
            };
            self.close(token, reason);
            return;
        }
        if ev.readable {
            self.conn_readable(token, now);
        }
        if ev.writable {
            self.conn_writable(token, now);
        }
    }

    fn conn_readable(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        match conn.state {
            ConnState::Draining(reason) => {
                loop {
                    match conn.stream.read(&mut self.scratch) {
                        Ok(0) => {
                            self.close(token, reason);
                            return;
                        }
                        Ok(_) => continue, // discard
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.close(token, reason);
                            return;
                        }
                    }
                }
            }
            ConnState::Reading => {}
            // Read interest is off in Dispatched/Writing; a stray
            // readiness event is ignored (bytes stay kernel-buffered).
            _ => return,
        }
        let mut read_any = false;
        for _ in 0..READS_PER_WAKEUP {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.close(token, CloseReason::Eof);
                    return;
                }
                Ok(n) => {
                    conn.parser.extend(&self.scratch[..n]);
                    read_any = true;
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token, CloseReason::Error);
                    return;
                }
            }
        }
        if read_any {
            conn.last_activity = now;
            if conn.request_started.is_none() && conn.parser.buffered() > 0 {
                conn.request_started = Some(now);
            }
        }
        self.serve_buffered(token, now);
    }

    /// Serve what the connection has buffered: parse a request, answer it
    /// inline if it is a cache hit, flush, and go round again for a
    /// pipelined successor. After `READS_PER_WAKEUP` inline answers the
    /// next request goes to the pool like a miss, so one pipelining client
    /// holds the loop for a bounded time and resumes on its completion.
    fn serve_buffered(&mut self, token: usize, now: Instant) {
        let mut inline_left = READS_PER_WAKEUP;
        while self.process_parsed(token, now, inline_left > 0) && self.flush(token, now) {
            inline_left -= 1;
        }
    }

    /// Drive the parser: take at most one request (single in-flight per
    /// connection keeps responses ordered and is the backpressure), re-arm
    /// deadlines, or reject malformed/oversized input. `true` means the
    /// request was a cache hit whose response now waits in `conn.out`
    /// (`Reading → Writing`, no `epoll_ctl`, no job, no wake); anything
    /// else — a miss, a page with a session, a non-GET, `may_answer` off — is
    /// dispatched to the pool.
    fn process_parsed(&mut self, token: usize, now: Instant, may_answer: bool) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return false;
        };
        if conn.state != ConnState::Reading {
            return false;
        }
        // Oversize checks: bytes actually buffered, and the declared
        // total of the in-flight request (no point buffering a body we
        // already know we will refuse).
        let declared = conn.parser.pending_request_bytes().unwrap_or(0);
        if conn.parser.buffered() > self.config.max_request_bytes
            || declared > self.config.max_request_bytes
        {
            self.respond_and_close(token, Response::payload_too_large(), CloseReason::TooLarge);
            return false;
        }
        match conn.parser.next_request() {
            Ok(Some((request, client_keep_alive))) => {
                // The read deadline anchors per request: leftover
                // pipelined bytes start the next request's clock now.
                conn.request_started = (conn.parser.buffered() > 0).then_some(now);
                conn.deadline = None;
                let hit = if may_answer {
                    self.portal
                        .answer_cached(&request, Instant::now(), false)
                        .ok()
                } else {
                    None
                };
                if let Some(response) = hit {
                    (conn.out, conn.close_after_write) =
                        finish_response(&response, client_keep_alive);
                    conn.out_pos = 0;
                    conn.state = ConnState::Writing;
                    return true;
                }
                conn.state = ConnState::Dispatched;
                let generation = conn.generation;
                self.set_interest(token, false, false);
                self.dispatcher.push_job(Job {
                    token,
                    generation,
                    request,
                    client_keep_alive,
                    enqueued: now,
                });
            }
            Ok(None) => {
                // The head may have just been parsed: a declared total
                // over the limit is rejected now, without buffering the
                // body first.
                if conn.parser.pending_request_bytes().unwrap_or(0) > self.config.max_request_bytes
                {
                    self.respond_and_close(
                        token,
                        Response::payload_too_large(),
                        CloseReason::TooLarge,
                    );
                    return false;
                }
                let deadline = match conn.request_started {
                    // Mid-request: total budget from the first byte —
                    // trickling one byte per interval cannot extend it.
                    Some(t0) => t0 + self.config.read_deadline,
                    None => conn.last_activity + self.config.idle_timeout,
                };
                conn.deadline = Some(deadline);
                self.wheel.insert(token, deadline);
                self.set_interest(token, true, false);
            }
            Err(_) => {
                // Any parse failure (including malformed or duplicate
                // Content-Length) poisons the framing: answer 400 and
                // close rather than guess where the next request starts.
                self.respond_and_close(
                    token,
                    Response::bad_request("malformed request"),
                    CloseReason::BadRequest,
                );
            }
        }
        false
    }

    /// Queue a loop-generated error response and close (with reason)
    /// once it is flushed.
    fn respond_and_close(&mut self, token: usize, response: Response, reason: CloseReason) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        conn.out.clear();
        conn.out_pos = 0;
        response.write_into(&mut conn.out, false);
        conn.state = ConnState::Writing;
        conn.close_after_write = Some(reason);
        conn.deadline = None;
        self.flush(token, Instant::now());
    }

    fn on_completion(&mut self, c: Completion, now: Instant) {
        let Some(conn) = self.slab.get_mut(c.token) else {
            return; // connection died while the handler ran
        };
        if conn.generation != c.generation || conn.state != ConnState::Dispatched {
            return; // token was reused; response belongs to a ghost
        }
        conn.out = c.bytes;
        conn.out_pos = 0;
        conn.state = ConnState::Writing;
        conn.close_after_write = c.close;
        self.conn_writable(c.token, now);
    }

    fn conn_writable(&mut self, token: usize, now: Instant) {
        if self.flush(token, now) {
            // A pipelined request may already be buffered — serve it
            // without waiting for socket readiness.
            self.serve_buffered(token, now);
        }
    }

    /// Write what is queued in `conn.out`. `true` when the response is
    /// fully flushed and the connection is back in `Reading`.
    fn flush(&mut self, token: usize, now: Instant) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return false;
        };
        if conn.state != ConnState::Writing {
            return false;
        }
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(token, CloseReason::Error);
                    return false;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.set_interest(token, false, true);
                    return false;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token, CloseReason::Error);
                    return false;
                }
            }
        }
        // Response fully flushed.
        conn.out = Vec::new();
        conn.out_pos = 0;
        conn.last_activity = now;
        let close_reason = conn.close_after_write.take();
        match close_reason {
            Some(reason) => self.linger_close(token, reason, now),
            None if self.draining => self.linger_close(token, CloseReason::Shutdown, now),
            None => {
                conn.state = ConnState::Reading;
                self.set_interest(token, true, false);
                return true;
            }
        }
        false
    }

    /// Send FIN (half-close) and discard client bytes until EOF or a
    /// short deadline. Closing with unread input pending would RST the
    /// connection and destroy the just-written response in the peer's
    /// receive path — this is what makes a 413/400 reliably readable.
    fn linger_close(&mut self, token: usize, reason: CloseReason, now: Instant) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.state = ConnState::Draining(reason);
        let deadline = now + LINGER_DRAIN;
        conn.deadline = Some(deadline);
        self.wheel.insert(token, deadline);
        self.set_interest(token, true, false);
    }

    fn on_timer(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        match conn.deadline {
            None => {} // canceled (request in flight)
            Some(d) if d <= now => match conn.state {
                ConnState::Reading => {
                    let reason = if conn.request_started.is_some() {
                        CloseReason::ReadDeadline
                    } else {
                        CloseReason::IdleTimeout
                    };
                    self.close(token, reason);
                }
                ConnState::Draining(reason) => self.close(token, reason),
                _ => {}
            },
            // Deadline moved later (lazy cancellation): reinsert.
            Some(d) => self.wheel.insert(token, d),
        }
    }

    fn set_interest(&mut self, token: usize, readable: bool, writable: bool) {
        let poller = self.poller.clone();
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if conn.want_read != readable || conn.want_write != writable {
            conn.want_read = readable;
            conn.want_write = writable;
            poller.modify(conn.stream.as_raw_fd(), token as u64, readable, writable);
        }
    }

    fn close(&mut self, token: usize, reason: CloseReason) {
        if let Some(conn) = self.slab.remove(token) {
            // Account BEFORE the fd drops: closing the socket is
            // observable by the peer (EOF/RST), and a test or scraper
            // reacting to that must already see the close counted.
            metrics().closed(reason).inc();
            metrics().open_connections.set(self.slab.live as i64);
            self.poller.delete(conn.stream.as_raw_fd());
            drop(conn); // closes the fd
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_after_deadline_and_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(7, t0 + Duration::from_millis(100));
        let mut out = Vec::new();
        wheel.advance(t0 + Duration::from_millis(60), &mut out);
        assert!(out.is_empty(), "fired {out:?} before the deadline slot");
        wheel.advance(t0 + Duration::from_millis(200), &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn timer_wheel_clamps_far_deadlines_to_horizon() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // Far past the ~10s horizon: must surface as a candidate within
        // one wheel revolution (lazy reinsertion handles the rest).
        wheel.insert(3, t0 + Duration::from_secs(120));
        let mut out = Vec::new();
        wheel.advance(t0 + WHEEL_TICK * (WHEEL_SLOTS as u32), &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn slab_generation_invalidates_reused_tokens() {
        let mut slab = Slab::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let make = || TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let now = Instant::now();
        let t1 = slab.insert(|g| Conn::new(make(), now, g));
        let g1 = slab.get_mut(t1).unwrap().generation;
        slab.remove(t1);
        let t2 = slab.insert(|g| Conn::new(make(), now, g));
        assert_eq!(t1, t2, "slot is reused");
        let g2 = slab.get_mut(t2).unwrap().generation;
        assert_ne!(g1, g2, "generation must differ so stale completions drop");
        assert_eq!(slab.live, 1);
    }

    /// An event loop over `portal` on a fresh port, with no pool behind it
    /// until a test starts workers: whatever is answered meanwhile, the
    /// loop answered.
    struct TestLoop {
        addr: std::net::SocketAddr,
        portal: Arc<Portal>,
        poller: Arc<Poller>,
        dispatcher: Arc<Dispatcher>,
        shutdown: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<()>,
    }

    impl TestLoop {
        fn start(portal: &Arc<Portal>) -> TestLoop {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (poller, dispatcher) = (
                Arc::new(Poller::new().unwrap()),
                Arc::new(Dispatcher::new()),
            );
            let shutdown = Arc::new(AtomicBool::new(false));
            let event_loop = EventLoop::new(
                listener,
                portal.clone(),
                poller.clone(),
                dispatcher.clone(),
                ServerConfig::default(),
                shutdown.clone(),
            )
            .unwrap();
            TestLoop {
                addr,
                portal: portal.clone(),
                poller,
                dispatcher,
                shutdown,
                thread: std::thread::spawn(move || event_loop.run()),
            }
        }

        /// Wait until `n` requests wait for the pool.
        fn queued(&self, n: usize) {
            let give_up = Instant::now() + Duration::from_secs(5);
            while self.dispatcher.queue_len() != n && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(self.dispatcher.queue_len(), n);
        }

        fn worker(&self) -> std::thread::JoinHandle<()> {
            let (p, d, po) = (
                self.portal.clone(),
                self.dispatcher.clone(),
                self.poller.clone(),
            );
            std::thread::spawn(move || worker_main(p, d, po))
        }

        fn stop(self, workers: Vec<std::thread::JoinHandle<()>>) {
            self.shutdown.store(true, Ordering::SeqCst);
            self.poller.wake();
            self.thread.join().unwrap();
            self.dispatcher.stop();
            workers.into_iter().for_each(|w| w.join().unwrap());
        }
    }

    /// Hits are answered by the loop; the request after a wakeup's budget
    /// of them, and a hit whose cache lock is taken, wait in the queue —
    /// and the loop goes on serving — until workers exist.
    #[test]
    fn loop_answers_hits_itself_within_its_budget_and_never_waits_for_the_cache() {
        use crate::server::{fetch, read_framed_response};
        let db = amp_simdb::Db::in_memory();
        amp_core::setup::initialize(&db).unwrap();
        let portal = Arc::new(Portal::new(&db, Default::default()).unwrap());
        let mut page = Vec::new();
        portal
            .handle(&Request::get("/stars"))
            .write_into(&mut page, true);
        let page = String::from_utf8(page).unwrap();
        let served = TestLoop::start(&portal);

        // One segment of budget + 1 hits: all but the last are answered.
        let raw = "GET /stars HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut greedy = TcpStream::connect(served.addr).unwrap();
        greedy
            .write_all(raw.repeat(READS_PER_WAKEUP + 1).as_bytes())
            .unwrap();
        let mut buf = Vec::new();
        for _ in 0..READS_PER_WAKEUP {
            assert_eq!(read_framed_response(&mut greedy, &mut buf).unwrap(), page);
        }
        served.queued(1);

        // The cache's write lock is taken: the hit is the pool's, and the
        // loop still answers what it can (a 400 is its own).
        let writer = portal.cache().write_locked();
        let mut contended = TcpStream::connect(served.addr).unwrap();
        contended.write_all(raw.as_bytes()).unwrap();
        served.queued(2);
        assert!(fetch(served.addr, "BROKEN\r\n\r\n")
            .unwrap()
            .contains(" 400 "));

        // Workers arrive. Two of them wait for the lock like any reader,
        // the third serves another connection meanwhile.
        let workers: Vec<_> = (0..3).map(|_| served.worker()).collect();
        let other = fetch(served.addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert!(other.contains(" 404 "));
        drop(writer);
        assert_eq!(read_framed_response(&mut greedy, &mut buf).unwrap(), page);
        assert_eq!(
            read_framed_response(&mut contended, &mut buf).unwrap(),
            page
        );
        served.stop(workers);
    }

    /// A session cookie sends a page to the pool, but not a JSON endpoint:
    /// a fresh plots.json entry, stored for an anonymous request, is
    /// answered by the loop (with no pool behind it) to a logged-in one.
    #[test]
    fn loop_answers_plots_to_a_session_and_leaves_its_page_to_the_pool() {
        use crate::server::{fetch, read_framed_response};
        use amp_core::models::{Allocation, AmpUser, Simulation, Star};
        use amp_core::SimStatus;
        use amp_simdb::orm::Manager;
        let db = amp_simdb::Db::in_memory();
        amp_core::setup::initialize(&db).unwrap();
        let admin = db.connect(amp_core::roles::ROLE_ADMIN).unwrap();
        let star_id = Manager::<Star>::new(admin.clone())
            .create(&mut Star::from_catalog(
                &amp_stellar::famous_stars()[0],
                "local",
            ))
            .unwrap();
        let user_id = Manager::<AmpUser>::new(admin.clone())
            .create(&mut AmpUser::new("astro", "a@x.edu", "h", 0))
            .unwrap();
        let alloc_id = Manager::<Allocation>::new(admin.clone())
            .create(&mut Allocation::new("kraken", "TG-LOOP", 1000.0))
            .unwrap();
        let params = amp_stellar::StellarParams::benchmark();
        let model = amp_stellar::evolve(&params, &amp_stellar::Domain::default()).unwrap();
        let mut sim = Simulation::new_direct(star_id, user_id, params, "kraken", alloc_id, 0);
        sim.status = SimStatus::Done;
        sim.result_json = Some(serde_json::to_string(&model).unwrap());
        let sim_id = Manager::<Simulation>::new(admin).create(&mut sim).unwrap();

        let portal = Arc::new(Portal::new(&db, Default::default()).unwrap());
        let session = portal
            .sessions
            .create(user_id, "astro", false, portal.now());
        let plots = format!("/simulation/{sim_id}/plots.json");
        let mut page = Vec::new();
        let stored = portal.handle(&Request::get(&plots));
        assert_eq!(stored.status, 200);
        stored.write_into(&mut page, true);
        let page = String::from_utf8(page).unwrap();

        let served = TestLoop::start(&portal);
        let with_session = |path: &str| {
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nCookie: amp_session={session}\r\n\r\n")
        };

        let hits = portal.cache().hits();
        assert_eq!(fetch(served.addr, &with_session(&plots)).unwrap(), page);
        assert_eq!(portal.cache().hits(), hits + 1, "the loop's hit is counted");
        assert_eq!(
            served.dispatcher.queue_len(),
            0,
            "and no job was dispatched"
        );

        // The simulation's page names the user: it is the pool's.
        let mut detail = TcpStream::connect(served.addr).unwrap();
        detail
            .write_all(with_session(&format!("/simulation/{sim_id}")).as_bytes())
            .unwrap();
        served.queued(1);
        let worker = served.worker();
        let mut buf = Vec::new();
        let rendered = read_framed_response(&mut detail, &mut buf).unwrap();
        assert!(rendered.contains("<a href=\"/accounts/profile\">astro</a>"));
        assert_eq!(portal.cache().hits(), hits + 1);
        served.stop(vec![worker]);
    }

    /// The accept path drops a connection whose registration fails; that
    /// only works if `add` reports what the kernel said.
    #[test]
    fn add_reports_a_registration_the_kernel_refuses() {
        let poller = Poller::new().unwrap();
        assert!(poller.add(-1, 7, true, false).is_err());
    }

    /// The poll(2) backend (the non-Linux fallback) delivers readable /
    /// writable readiness and cross-thread wakes — exercised on Linux
    /// too so the fallback cannot rot.
    #[test]
    fn poll_backend_reports_readiness_and_wakes() {
        let poller = Poller::new_poll_backend().unwrap();
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.add(a.as_raw_fd(), 42, true, false).unwrap();

        // Nothing readable yet: a short wait returns no events.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10)));
        assert!(events.is_empty());

        (&b).write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(500)));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Cross-thread wake unblocks an idle wait without reporting an
        // event for it.
        let mut drain = [0u8; 8];
        (&a).read_exact(&mut drain[..1]).unwrap();
        poller.delete(a.as_raw_fd());
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                poller.wake();
            });
            let t = Instant::now();
            poller.wait(&mut events, Some(Duration::from_secs(5)));
            assert!(events.is_empty());
            assert!(t.elapsed() < Duration::from_secs(4), "wake did not unblock");
        });
    }
}
