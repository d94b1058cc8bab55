//! The shared front-end connection engine: a readiness-based `poll(2)`
//! event loop that answers bounded requests itself and hands the rest
//! to a worker pool.
//!
//! A thread per connection would cap the serving tier at `--threads`
//! concurrent keep-alive clients, each idle peer owning a whole (mostly
//! sleeping) thread. This module has the shape the ROADMAP's "millions
//! of users" north star asks for instead:
//!
//! * **one event thread** owns every socket: it `poll(2)`s the listener,
//!   a wake pipe, and every connection that currently wants I/O, via the
//!   [`crate::poll`] syscall shim (non-blocking sockets throughout);
//! * **per-connection state machines** drive the incremental parser in
//!   [`crate::http::RequestBuffer`]: bytes accumulate across partial
//!   reads, complete requests are taken one at a time per connection (so
//!   responses come back in request order even for pipelined clients),
//!   responses drain on `POLLOUT`;
//! * **the handler is asked first on the event thread**
//!   ([`Thread::Event`]). There it answers only what is bounded and known
//!   before it starts — a refusal, a health probe, a short resident row —
//!   and *declines* everything else (`None`). **The event thread never
//!   blocks:** an answer given there touches no peer, no lock a worker can
//!   hold across I/O, and spawns nothing. After 64 consecutive inline
//!   answers on one connection in one wake-up the next request goes to
//!   the pool regardless, so a pipelining peer cannot hold the thread;
//! * **a bounded worker pool** (`--threads`, default 64) executes declined
//!   requests ([`Thread::Pool`]) — that handling may block (remote row
//!   fetches, router forwards). The hand-off is a `Mutex<VecDeque>`
//!   queue with a stack of parked workers: one `unpark` per request
//!   wakes exactly one, the one parked last, so a light load stays on a
//!   few warm threads. A finished worker pushes the rendered response
//!   bytes and pokes the wake pipe only if the completion list was empty
//!   (a non-empty list already has a wake-up in flight);
//! * **timeouts** protect the loop from slow clients: a *hard* deadline
//!   of `io_timeout` from a request's first byte (a slow-loris drip
//!   makes progress forever but never completes, so progress must not
//!   extend it; expiry gets a best-effort 408 before the close), a
//!   no-progress `io_timeout` on stalled response writes, and an
//!   `idle_timeout` between requests on keep-alive connections.
//!
//! Timeout- or reset-closed connections are **transport** events: they
//! count in the `/stats` `connections` object, never in `bad_requests`
//! (the transport-vs-framing distinction the regression suite pins).
//! Shutdown: stop accepting, close idle connections, drain in-flight
//! requests, return — the caller (Server::run) then cancels jobs and
//! certifies the exit code.
//!
//! The full lifecycle and timeout semantics are normative in
//! `ARCHITECTURE.md` § "Connection lifecycle & timeouts".

use crate::endpoints::Response;
use crate::http::Request;
use crate::server::LoopCounters;
use kron_stream::json::Json;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Resolved event-loop tuning (defaults already applied by
/// [`crate::ServerOptions`]).
pub(crate) struct LoopConfig {
    /// Request-execution threads in the worker pool.
    pub(crate) workers: usize,
    /// Open-connection cap; at the cap the listener is simply not
    /// polled, leaving further peers in the kernel backlog.
    pub(crate) max_conns: usize,
    /// Keep-alive timeout between requests.
    pub(crate) idle_timeout: Duration,
    /// Slow-client timeout: request read (hard, from first byte) and
    /// response write (no-progress).
    pub(crate) io_timeout: Duration,
}

/// Connection-lifecycle counters, surfaced as the `/stats`
/// `connections` object.
pub(crate) struct ConnCounters {
    /// Connections ever accepted.
    pub(crate) accepted: AtomicU64,
    /// Currently open connections (gauge).
    pub(crate) open: AtomicU64,
    /// High-water mark of `open`.
    pub(crate) peak: AtomicU64,
    /// Closed by the keep-alive idle timeout.
    pub(crate) idle_closed: AtomicU64,
    /// Closed by the slow-client read/write timeout.
    pub(crate) timeout_closed: AtomicU64,
    /// `poll(2)` calls made by the event thread — the busy-spin
    /// regression metric (an idle loop must tick at ~10/s, not spin).
    pub(crate) polls: AtomicU64,
    /// Requests answered on the event thread: what the handler accepted
    /// there, plus framing `400`s.
    pub(crate) inline: AtomicU64,
    /// Requests handed to the worker pool. `inline + pooled` is
    /// `requests`.
    pub(crate) pooled: AtomicU64,
}

impl ConnCounters {
    pub(crate) fn new() -> ConnCounters {
        ConnCounters {
            accepted: AtomicU64::new(0),
            open: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            timeout_closed: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            pooled: AtomicU64::new(0),
        }
    }

    /// The `"connections"` object in `/stats`.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("open", Json::num(self.open.load(Ordering::Relaxed))),
            ("accepted", Json::num(self.accepted.load(Ordering::Relaxed))),
            ("peak", Json::num(self.peak.load(Ordering::Relaxed))),
            (
                "idle_closed",
                Json::num(self.idle_closed.load(Ordering::Relaxed)),
            ),
            (
                "timeout_closed",
                Json::num(self.timeout_closed.load(Ordering::Relaxed)),
            ),
            ("polls", Json::num(self.polls.load(Ordering::Relaxed))),
            ("inline", Json::num(self.inline.load(Ordering::Relaxed))),
            ("pooled", Json::num(self.pooled.load(Ordering::Relaxed))),
        ])
    }
}

/// Which thread a handler call runs on — the one fact a dispatcher needs
/// to decide whether it may answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Thread {
    /// The event thread: must not block. Answer only what is bounded and
    /// known before it starts; decline (`None`) the rest.
    Event,
    /// A worker-pool thread: may block, must answer.
    Pool,
}

/// A tier's dispatcher as the loop sees it: asked on the event thread
/// first, and again on the pool for a request it declined there.
pub(crate) type Handler<'a> = dyn Fn(&Request, Thread) -> Option<Response> + Sync + 'a;

/// Accept and serve connections until `shutdown` flips, then drain
/// in-flight requests and return. `handle` dispatches one parsed request
/// to its endpoint (see [`Handler`]); `counters` picks up
/// request/framing/connection totals. Used by both [`crate::Server`] and
/// [`crate::Router`].
pub(crate) fn serve_connections(
    listener: &TcpListener,
    cfg: &LoopConfig,
    name: &str,
    shutdown: &AtomicBool,
    counters: &LoopCounters,
    handle: &Handler<'_>,
) {
    imp::serve(listener, cfg, name, shutdown, counters, handle);
}

/// The `500` an endpoint panic (or a pool-side decline, which is a
/// dispatcher bug) is answered with.
fn internal_error() -> Response {
    (500, "text/plain", b"error: internal error\n".to_vec())
}

mod imp {
    use super::{internal_error, Handler, LoopConfig, Thread};
    use crate::http::{self, Request, RequestBuffer};
    use crate::poll::{self, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
    use crate::server::LoopCounters;
    use std::collections::{HashMap, VecDeque};
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Max poll timeout: the shutdown flag is re-checked at least this
    /// often even with no I/O and no deadline (tests flip an AtomicBool
    /// without sending a signal; the documented shutdown latency bound
    /// of ≤ ~100 ms comes from here).
    const TICK: Duration = Duration::from_millis(100);

    /// One nonblocking `read(2)` worth of request bytes.
    const READ_CHUNK: usize = 8192;

    /// Per-wakeup read budget for one connection, so a firehose peer
    /// cannot starve the rest of the poll set (POLLIN is
    /// level-triggered; the remainder re-fires immediately).
    const MAX_READ_PER_WAKEUP: usize = 256 * 1024;

    /// Consecutive inline answers one connection gets in one wake-up;
    /// its next request goes to the pool whatever it is, which returns
    /// the event thread to the rest of the poll set.
    const INLINE_STREAK: u32 = 64;

    /// Pacing after a transient accept failure (the listener may stay
    /// readable, which would otherwise spin the loop hot).
    const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

    /// Consecutive accept failures that end the run (dead listener).
    const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 100;

    /// A finished request: connection id and rendered response bytes.
    type Completion = (u64, Vec<u8>);

    /// The event thread → pool hand-off. `push` wakes exactly one
    /// parked worker — the one parked last — and nobody parks holding the
    /// lock. Its length is bounded by `--max-conns`: a connection has at
    /// most one request in flight.
    pub(super) struct Queue {
        state: Mutex<QueueState>,
    }

    struct QueueState {
        items: VecDeque<(u64, Request)>,
        /// Parked workers, the most recently parked last. Waking the top
        /// keeps a light load on the same few warm threads — their caches
        /// and their malloc arenas — instead of cycling it through the
        /// whole pool, where every thread would come to hold an arena of
        /// its own and the process's resident memory would grow with it.
        idle: Vec<std::thread::Thread>,
        closed: bool,
    }

    impl Queue {
        pub(super) fn new() -> Queue {
            Queue {
                state: Mutex::new(QueueState {
                    items: VecDeque::new(),
                    idle: Vec::new(),
                    closed: false,
                }),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
            // no code path panics while holding this lock
            self.state.lock().expect("request queue lock poisoned")
        }

        pub(super) fn push(&self, id: u64, req: Request) {
            let woken = {
                let mut state = self.lock();
                state.items.push_back((id, req));
                state.idle.pop()
            };
            if let Some(worker) = woken {
                worker.unpark();
            }
        }

        /// The next request, parking until there is one; `None` once the
        /// queue is closed **and** drained.
        pub(super) fn pop(&self) -> Option<(u64, Request)> {
            let me = std::thread::current();
            loop {
                {
                    let mut state = self.lock();
                    if let Some(item) = state.items.pop_front() {
                        return Some(item);
                    }
                    if state.closed {
                        return None;
                    }
                    // after a spurious wake-up this worker is still on the
                    // stack, in its place
                    if !state.idle.iter().any(|t| t.id() == me.id()) {
                        state.idle.push(me.clone());
                    }
                }
                // an `unpark` that lands before this call makes it return
                // at once, so no wake-up is lost
                std::thread::park();
            }
        }

        /// How many workers are parked.
        #[cfg(test)]
        pub(super) fn parked(&self) -> usize {
            self.lock().idle.len()
        }

        /// No more pushes: every parked worker wakes, takes what is still
        /// queued, then sees `None`.
        pub(super) fn close(&self) {
            let parked = {
                let mut state = self.lock();
                state.closed = true;
                std::mem::take(&mut state.idle)
            };
            for worker in parked {
                worker.unpark();
            }
        }
    }

    pub(super) fn serve(
        listener: &TcpListener,
        cfg: &LoopConfig,
        name: &str,
        shutdown: &AtomicBool,
        counters: &LoopCounters,
        handle: &Handler<'_>,
    ) {
        let wake = match WakePipe::new() {
            Ok(w) => w,
            Err(e) => {
                eprintln!("{name}: cannot create wake pipe, not serving: {e}");
                return;
            }
        };
        let queue = Queue::new();
        let done: Mutex<Vec<Completion>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..cfg.workers.max(1) {
                let (queue, done, wake) = (&queue, &done, &wake);
                s.spawn(move || worker(counters, handle, queue, done, wake));
            }
            event_loop(
                listener, cfg, name, shutdown, counters, handle, &wake, &queue, &done,
            );
            // workers drain what's queued (nothing — the loop only exits
            // once no request is in flight), then exit
            queue.close();
        });
    }

    /// The one path from a parsed request to response bytes, whichever
    /// thread takes it: run the handler, account a `400`, render. `None`
    /// is the handler declining on the event thread.
    fn respond(
        counters: &LoopCounters,
        handle: &Handler<'_>,
        req: &Request,
        on: Thread,
    ) -> Option<Vec<u8>> {
        // An endpoint panic must not kill its thread (on the pool the
        // connection would stay busy and the shutdown drain never
        // finish; on the event thread the whole loop would die): unwind
        // to a 500 and keep serving.
        let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(req, on)))
            .unwrap_or_else(|_| Some(internal_error()));
        let (status, content_type, body) = match (answer, on) {
            (Some(response), _) => response,
            (None, Thread::Event) => return None,
            (None, Thread::Pool) => internal_error(),
        };
        if status == 400 {
            counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
        Some(render(status, content_type, &body))
    }

    /// One response as the bytes that go on the wire.
    fn render(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(body.len() + 96);
        http::write_response(&mut bytes, status, content_type, body)
            .expect("writing to a Vec cannot fail");
        bytes
    }

    /// One worker-pool thread: take a request the event thread did not
    /// answer, run the endpoint, post the completion.
    fn worker(
        counters: &LoopCounters,
        handle: &Handler<'_>,
        queue: &Queue,
        done: &Mutex<Vec<Completion>>,
        wake: &WakePipe,
    ) {
        while let Some((id, req)) = queue.pop() {
            let bytes =
                respond(counters, handle, &req, Thread::Pool).expect("the pool always answers");
            let first = {
                let mut done = done.lock().expect("completion list lock poisoned");
                done.push((id, bytes));
                done.len() == 1
            };
            // The event thread takes the whole list per wake-up, so only
            // the push that made it non-empty needs to wake it.
            if first {
                wake.notify();
            }
        }
    }

    /// What the caller should do with the connection after an I/O step.
    enum Flow {
        Keep,
        Close,
    }

    /// Event-thread context threaded through the connection state
    /// machine.
    struct Ctx<'a> {
        counters: &'a LoopCounters,
        handle: &'a Handler<'a>,
        queue: &'a Queue,
        io_timeout: Duration,
        shutting: bool,
        now: Instant,
    }

    /// One connection's state machine: reading (parser accumulating) →
    /// busy (request with the worker pool; skipped by a request the
    /// event thread answers itself) → writing (out buffer draining) →
    /// back to reading/idle.
    struct Connection {
        stream: TcpStream,
        parser: RequestBuffer,
        out: Vec<u8>,
        out_pos: usize,
        /// A request from this connection is with the worker pool; at
        /// most one, which is what keeps pipelined responses in order.
        busy: bool,
        close_after_write: bool,
        /// The peer shut down its write side (half-close): serve what is
        /// buffered, flush, then close.
        read_closed: bool,
        /// Hard deadline for completing a partially received request,
        /// armed at its first byte. `None` between requests.
        read_deadline: Option<Instant>,
        /// Last instant the peer accepted response bytes.
        last_write_progress: Instant,
        /// Last instant a response finished (or the connection opened);
        /// the keep-alive idle timeout measures from here.
        idle_since: Instant,
    }

    impl Connection {
        fn new(stream: TcpStream, now: Instant) -> Connection {
            Connection {
                stream,
                parser: RequestBuffer::new(),
                out: Vec::new(),
                out_pos: 0,
                busy: false,
                close_after_write: false,
                read_closed: false,
                read_deadline: None,
                last_write_progress: now,
                idle_since: now,
            }
        }

        /// Response bytes still queued for the peer.
        fn writing(&self) -> bool {
            self.out_pos < self.out.len()
        }

        /// When this connection next needs timeout attention (none while
        /// a worker owns its request — server-side work has no client
        /// timeout).
        fn deadline(&self, idle: Duration, io: Duration) -> Option<Instant> {
            if self.busy {
                return None;
            }
            Some(if self.writing() {
                self.last_write_progress + io
            } else if let Some(d) = self.read_deadline {
                d
            } else {
                self.idle_since + idle
            })
        }

        /// Drain readable bytes into the parser, then run the machine.
        fn on_readable(&mut self, id: u64, ctx: &Ctx<'_>) -> Flow {
            let mut budget = MAX_READ_PER_WAKEUP;
            loop {
                let mut chunk = [0u8; READ_CHUNK];
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.parser.push(&chunk[..n]);
                        budget = budget.saturating_sub(n);
                        if budget == 0 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // reset: a transport event, not a bad request
                    Err(_) => return Flow::Close,
                }
            }
            self.run(id, ctx)
        }

        /// Queue a rendered response for the peer.
        fn start_write(&mut self, bytes: Vec<u8>, now: Instant) {
            self.out = bytes;
            self.out_pos = 0;
            self.last_write_progress = now;
        }

        /// Run the machine as far as it goes without waiting: flush,
        /// take the next buffered request, flush its answer if the event
        /// thread gave one, and so on — until the socket, the pool or
        /// the peer has to move. A loop, not a recursion: the stack is
        /// constant however many requests a peer pipelined.
        fn run(&mut self, id: u64, ctx: &Ctx<'_>) -> Flow {
            let mut inline_streak = 0;
            loop {
                if let Some(flow) = self.flush(ctx) {
                    return flow;
                }
                if let Some(flow) = self.advance(id, ctx, &mut inline_streak) {
                    return flow;
                }
            }
        }

        /// Start the next buffered request, handle EOF, or arm the
        /// slow-client deadline. `None` means a response was queued on
        /// the spot and wants flushing.
        fn advance(&mut self, id: u64, ctx: &Ctx<'_>, inline_streak: &mut u32) -> Option<Flow> {
            if self.busy || self.writing() {
                return Some(Flow::Keep);
            }
            match self.parser.next_request() {
                Ok(Some(req)) => {
                    if ctx.shutting {
                        // drain semantics: in-flight requests finish,
                        // buffered *new* requests do not start
                        return Some(Flow::Close);
                    }
                    self.read_deadline = None;
                    self.close_after_write |= req.close;
                    let conns = &ctx.counters.conns;
                    ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
                    if *inline_streak < INLINE_STREAK {
                        if let Some(bytes) = respond(ctx.counters, ctx.handle, &req, Thread::Event)
                        {
                            *inline_streak += 1;
                            conns.inline.fetch_add(1, Ordering::Relaxed);
                            self.start_write(bytes, ctx.now);
                            return None;
                        }
                    }
                    conns.pooled.fetch_add(1, Ordering::Relaxed);
                    self.busy = true;
                    ctx.queue.push(id, req);
                    Some(Flow::Keep)
                }
                Ok(None) => {
                    if self.read_closed {
                        // clean close between requests, or a request
                        // truncated by the peer — nothing left to serve
                        return Some(Flow::Close);
                    }
                    if !self.parser.is_empty() && self.read_deadline.is_none() {
                        // a request's first bytes arm a *hard* deadline:
                        // a slow-loris drip makes progress forever but
                        // never completes, so progress must not extend it
                        self.read_deadline = Some(ctx.now + ctx.io_timeout);
                    }
                    Some(Flow::Keep)
                }
                Err(_) => {
                    // framing error: a (malformed) request was received
                    // and is answered here
                    ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
                    ctx.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                    ctx.counters.conns.inline.fetch_add(1, Ordering::Relaxed);
                    self.queue_response(400, b"error: malformed request\n", ctx.now);
                    self.close_after_write = true;
                    None
                }
            }
        }

        /// Render an event-thread-originated response (400/408) into the
        /// write buffer.
        fn queue_response(&mut self, status: u16, body: &[u8], now: Instant) {
            self.start_write(render(status, "text/plain", body), now);
        }

        /// Flush as much of the out buffer as the socket takes. `None`
        /// means it drained and the connection may take its next
        /// request; otherwise wait for `POLLOUT` (`Keep`) or close.
        fn flush(&mut self, ctx: &Ctx<'_>) -> Option<Flow> {
            while self.writing() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(0) => return Some(Flow::Close),
                    Ok(n) => {
                        self.out_pos += n;
                        self.last_write_progress = ctx.now;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Some(Flow::Keep),
                    Err(_) => return Some(Flow::Close),
                }
            }
            if !self.out.is_empty() {
                self.out = Vec::new();
                self.out_pos = 0;
                self.idle_since = ctx.now;
            }
            if self.close_after_write || ctx.shutting {
                // answered in full; keep-alive ends here (the client
                // asked for close, or the server is draining)
                return Some(Flow::Close);
            }
            if self.read_closed && self.parser.is_empty() {
                return Some(Flow::Close); // half-close: last response flushed
            }
            None
        }
    }

    /// Drop a connection and keep the open gauge exact.
    fn remove(conns: &mut HashMap<u64, Connection>, counters: &LoopCounters, id: u64) {
        if conns.remove(&id).is_some() {
            counters
                .conns
                .open
                .store(conns.len() as u64, Ordering::Relaxed);
        }
    }

    /// The event thread: owns every socket, never blocks on any of them.
    #[allow(clippy::too_many_arguments)]
    fn event_loop(
        listener: &TcpListener,
        cfg: &LoopConfig,
        name: &str,
        shutdown: &AtomicBool,
        counters: &LoopCounters,
        handle: &Handler<'_>,
        wake: &WakePipe,
        queue: &Queue,
        done: &Mutex<Vec<Completion>>,
    ) {
        let _ = listener.set_nonblocking(true); // already true via Server::bind
        let mut conns: HashMap<u64, Connection> = HashMap::new();
        let mut next_id = 0u64;
        let mut pollfds: Vec<PollFd> = Vec::new();
        // connection id behind pollfds[i + 2] (after wake pipe, listener)
        let mut slots: Vec<u64> = Vec::new();
        let mut accept_errors = 0u32;
        let mut listener_dead = false;

        loop {
            let shutting = shutdown.load(Ordering::SeqCst) || listener_dead;
            if shutting {
                // close everything with no request in flight and nothing
                // left to flush; what remains is the drain set
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| !c.busy && !c.writing())
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    remove(&mut conns, counters, id);
                }
                if conns.is_empty() {
                    break;
                }
            }

            // (re)build the poll set
            pollfds.clear();
            slots.clear();
            pollfds.push(PollFd::new(wake.read_fd(), POLLIN));
            let accepting = !shutting && conns.len() < cfg.max_conns;
            pollfds.push(PollFd::new(
                listener.as_raw_fd(),
                if accepting { POLLIN } else { 0 },
            ));
            let now = Instant::now();
            let mut next_deadline: Option<Instant> = None;
            for (&id, c) in &conns {
                let mut ev = 0i16;
                if !c.busy && !c.read_closed && !c.writing() {
                    ev |= POLLIN;
                }
                if c.writing() {
                    ev |= POLLOUT;
                }
                if ev != 0 {
                    pollfds.push(PollFd::new(c.stream.as_raw_fd(), ev));
                    slots.push(id);
                }
                if let Some(d) = c.deadline(cfg.idle_timeout, cfg.io_timeout) {
                    next_deadline = Some(next_deadline.map_or(d, |x| x.min(d)));
                }
            }
            let timeout = next_deadline
                .map_or(TICK, |d| d.saturating_duration_since(now))
                .min(TICK);

            counters.conns.polls.fetch_add(1, Ordering::Relaxed);
            match poll::poll(&mut pollfds, timeout) {
                Ok(_) => {}
                // a signal (SIGTERM) landed: re-check the flag now
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("{name}: poll failed, stopping: {e}");
                    listener_dead = true;
                    continue;
                }
            }

            let now = Instant::now();
            let ctx = Ctx {
                counters,
                handle,
                queue,
                io_timeout: cfg.io_timeout,
                shutting,
                now,
            };

            // 1. completions from the worker pool (drain the wake pipe
            // first, so a completion posted after the drain re-arms it)
            if pollfds[0].revents() & POLLIN != 0 {
                wake.drain();
                let finished =
                    std::mem::take(&mut *done.lock().expect("completion list lock poisoned"));
                for (id, bytes) in finished {
                    let Some(c) = conns.get_mut(&id) else {
                        continue;
                    };
                    c.busy = false;
                    c.start_write(bytes, now);
                    if matches!(c.run(id, &ctx), Flow::Close) {
                        remove(&mut conns, counters, id);
                    }
                }
            }

            // 2. new connections
            if accepting && pollfds[1].revents() & POLLIN != 0 {
                while conns.len() < cfg.max_conns {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            accept_errors = 0;
                            // The event loop *requires* non-blocking
                            // sockets. Whether an accepted socket
                            // inherits the listener's O_NONBLOCK differs
                            // by platform (BSD does, Linux does not), so
                            // set it explicitly on every platform.
                            if stream.set_nonblocking(true).is_err()
                                || stream.set_nodelay(true).is_err()
                            {
                                continue;
                            }
                            next_id += 1;
                            conns.insert(next_id, Connection::new(stream, now));
                            counters.conns.accepted.fetch_add(1, Ordering::Relaxed);
                            let open = conns.len() as u64;
                            counters.conns.open.store(open, Ordering::Relaxed);
                            counters.conns.peak.fetch_max(open, Ordering::Relaxed);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            // Transient accept failures (ECONNABORTED, fd
                            // pressure) must not end the run; only a
                            // persistently dead listener does — which
                            // then drains in-flight work like a shutdown.
                            accept_errors += 1;
                            if accept_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                                eprintln!("{name}: accept failing persistently, stopping: {e}");
                                listener_dead = true;
                            } else {
                                eprintln!("{name}: accept error (retrying): {e}");
                                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                            }
                            break;
                        }
                    }
                }
            }

            // 3. per-connection readiness
            for (i, &id) in slots.iter().enumerate() {
                let re = pollfds[i + 2].revents();
                if re == 0 {
                    continue;
                }
                let err = re & (POLLERR | POLLHUP | POLLNVAL) != 0;
                let flow = {
                    let Some(c) = conns.get_mut(&id) else {
                        continue;
                    };
                    if !c.busy && !c.writing() && !c.read_closed && (re & POLLIN != 0 || err) {
                        c.on_readable(id, &ctx)
                    } else if c.writing() && (re & POLLOUT != 0 || err) {
                        // an error condition on a writing connection
                        // surfaces through the failed write
                        c.run(id, &ctx)
                    } else {
                        Flow::Keep
                    }
                };
                if matches!(flow, Flow::Close) {
                    remove(&mut conns, counters, id);
                }
            }

            // 4. timeouts (phases 1–3 removed their casualties already,
            // so nothing here is double-counted)
            let mut expired: Vec<u64> = Vec::new();
            for (&id, c) in conns.iter_mut() {
                if c.deadline(cfg.idle_timeout, cfg.io_timeout)
                    .is_none_or(|d| now < d)
                {
                    continue;
                }
                let closed = if c.writing() {
                    &counters.conns.timeout_closed
                } else if c.read_deadline.is_some() {
                    // 408-style: tell the slow client why, best effort,
                    // then close — the partial request can never complete
                    c.queue_response(408, b"error: request timed out\n", now);
                    let _ = c.stream.write(&c.out);
                    &counters.conns.timeout_closed
                } else {
                    &counters.conns.idle_closed
                };
                closed.fetch_add(1, Ordering::Relaxed);
                expired.push(id);
            }
            for id in expired {
                remove(&mut conns, counters, id);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::imp::Queue;
    use super::*;
    use crate::http::Client;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Barrier;

    const TEXT: &str = "text/plain";

    /// Holds a handler inside a request until the test lets it go: the
    /// "channel the test owns". Flags rather than a barrier, so a failing
    /// test can still release the worker and let the loop drain.
    pub(crate) struct Gate {
        entered: AtomicU64,
        open: AtomicBool,
    }

    impl Gate {
        pub(crate) fn new() -> Gate {
            Gate {
                entered: AtomicU64::new(0),
                open: AtomicBool::new(false),
            }
        }

        /// Handler side: announce arrival, then wait for `release`.
        pub(crate) fn hold(&self) {
            self.entered.fetch_add(1, Ordering::SeqCst);
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Test side: block until `n` handler calls are (or were) inside.
        pub(crate) fn wait_entered(&self, n: u64) {
            wait_until(|| self.entered.load(Ordering::SeqCst) >= n);
        }

        pub(crate) fn release(&self) {
            self.open.store(true, Ordering::SeqCst);
        }
    }

    /// Spin until `cond` holds; a test that never gets there fails by
    /// panicking, not by hanging.
    pub(crate) fn wait_until(cond: impl Fn() -> bool) {
        let t0 = std::time::Instant::now();
        while !cond() {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "condition never held"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Whatever happens to the test body, let the loop stop and drain.
    pub(crate) struct StopOnDrop<'a>(pub(crate) &'a AtomicBool, pub(crate) &'a Gate);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.1.release();
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn config(workers: usize) -> LoopConfig {
        LoopConfig {
            workers,
            max_conns: 64,
            idle_timeout: Duration::from_secs(60),
            io_timeout: Duration::from_secs(10),
        }
    }

    /// Serve `handle` on this thread while `client` runs on another;
    /// returns the loop's counters once the client is done and the loop
    /// has drained.
    fn serve_while(
        workers: usize,
        gate: &Gate,
        handle: &Handler<'_>,
        client: impl FnOnce(SocketAddr, &LoopCounters, &AtomicBool) + Send,
    ) -> LoopCounters {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = LoopCounters::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (counters, stop) = (&counters, &stop);
            let client = s.spawn(move || {
                let _stop = StopOnDrop(stop, gate);
                client(addr, counters, stop);
            });
            serve_connections(&listener, &config(workers), "test", stop, counters, handle);
            client.join().unwrap();
        });
        counters
    }

    fn ok(body: &str) -> Option<Response> {
        Some((200, TEXT, body.as_bytes().to_vec()))
    }

    /// Split a raw response stream into bodies, checking each status line.
    fn bodies(mut raw: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        while !raw.is_empty() {
            let text = std::str::from_utf8(raw).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
            let head_end = text.find("\r\n\r\n").unwrap() + 4;
            let len: usize = text[..head_end]
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .parse()
                .unwrap();
            out.push(text[head_end..head_end + len].to_string());
            raw = &raw[head_end + len..];
        }
        out
    }

    /// A panic on the event thread is the same `500` a panic on a worker
    /// is, and neither stops the loop.
    #[test]
    fn handler_panic_on_either_thread_is_a_500_and_the_loop_keeps_serving() {
        let gate = Gate::new();
        let handle = |req: &Request, on: Thread| match req.path.as_str() {
            "/boom-event" => panic!("endpoint bug (event thread)"),
            "/boom-pool" => (on == Thread::Pool).then(|| panic!("endpoint bug (pool)")),
            _ => ok("fine\n"),
        };
        let counters = serve_while(2, &gate, &handle, |addr, _, _| {
            let mut client = Client::connect(addr).unwrap();
            let on_event = client.get("/boom-event").unwrap();
            let on_pool = client.get("/boom-pool").unwrap();
            assert_eq!(on_event, (500, "error: internal error\n".to_string()));
            assert_eq!(on_pool, on_event);
            // same connection, same loop, still serving
            assert_eq!(client.get("/x").unwrap(), (200, "fine\n".to_string()));
        });
        assert_eq!(counters.conns.inline.load(Ordering::Relaxed), 2);
        assert_eq!(counters.conns.pooled.load(Ordering::Relaxed), 1);
        assert_eq!(counters.requests.load(Ordering::Relaxed), 3);
        assert_eq!(counters.bad_requests.load(Ordering::Relaxed), 0);
    }

    /// A peer pipelining nothing but inline-able requests gets at most 64
    /// of them answered back to back; the next one goes through the pool,
    /// and order holds across the switch.
    #[test]
    fn a_pipelining_peer_yields_the_event_thread_every_64_answers() {
        const N: usize = 200;
        let gate = Gate::new();
        let handle =
            |req: &Request, on: Thread| ok(&format!("{} {on:?}\n", req.query_param("i").unwrap()));
        let counters = serve_while(1, &gate, &handle, |addr, _, _| {
            let mut wire = Vec::new();
            for i in 0..N {
                let close = if i + 1 == N {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                write!(wire, "GET /x?i={i} HTTP/1.1\r\n{close}\r\n").unwrap();
            }
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&wire).unwrap(); // one segment train: ~5 KB
            let mut all = Vec::new();
            raw.read_to_end(&mut all).unwrap();
            let answers = bodies(&all);
            assert_eq!(answers.len(), N);
            let mut streak = 0;
            for (i, body) in answers.iter().enumerate() {
                let (index, thread) = body.trim().split_once(' ').unwrap();
                assert_eq!(index, i.to_string(), "responses out of order");
                streak = if thread == "Event" { streak + 1 } else { 0 };
                assert!(streak <= 64, "answer {i} is the {streak}th inline in a row");
            }
        });
        let (inline, pooled) = (
            counters.conns.inline.load(Ordering::Relaxed),
            counters.conns.pooled.load(Ordering::Relaxed),
        );
        assert_eq!(inline + pooled, N as u64);
        assert!(
            pooled >= (N / 65) as u64,
            "only {pooled} of {N} were pooled"
        );
    }

    /// Shutdown with one request held in the only worker and two more
    /// queued behind it: all three are answered, then the loop returns.
    #[test]
    fn shutdown_drains_requests_still_queued_for_the_pool() {
        let gate = Gate::new();
        let handle = |_: &Request, on: Thread| {
            (on == Thread::Pool).then(|| {
                gate.hold();
                (200, TEXT, b"drained\n".to_vec())
            })
        };
        let counters = serve_while(1, &gate, &handle, |addr, counters, stop| {
            let mut idle = TcpStream::connect(addr).unwrap();
            let mut conns: Vec<TcpStream> = (0..3)
                .map(|_| {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
                    c
                })
                .collect();
            gate.wait_entered(1);
            wait_until(|| counters.conns.pooled.load(Ordering::Relaxed) == 3);
            stop.store(true, Ordering::SeqCst);
            // the loop has seen the flag once it hangs up on the idle peer
            assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0);
            gate.release();
            for c in &mut conns {
                let mut all = Vec::new();
                c.read_to_end(&mut all).unwrap();
                assert_eq!(bodies(&all), ["drained\n"]);
            }
        });
        assert_eq!(counters.requests.load(Ordering::Relaxed), 3);
        assert_eq!(counters.conns.inline.load(Ordering::Relaxed), 0);
    }

    fn request(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: Vec::new(),
            body: Vec::new(),
            close: false,
        }
    }

    /// Closing the queue releases every worker — asleep in `pop` or not
    /// yet there — after what was queued has been handed out.
    #[test]
    fn a_closed_queue_hands_out_what_is_left_then_wakes_every_worker() {
        const WORKERS: usize = 8;
        let queue = Queue::new();
        let started = Barrier::new(WORKERS + 1);
        let taken = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    started.wait();
                    while queue.pop().is_some() {
                        taken.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            started.wait();
            for i in 0..100 {
                queue.push(i, request("/x"));
            }
            queue.close();
            // the scope joins: a worker left asleep would hang it
        });
        assert_eq!(taken.load(Ordering::SeqCst), 100);
        assert!(queue.pop().is_none());
    }

    /// One request at a time lands on the worker that parked last, every
    /// time: a light load stays on one warm thread.
    #[test]
    fn a_request_wakes_the_worker_that_parked_last() {
        let queue = Queue::new();
        let taken = std::sync::Mutex::new(Vec::new());
        let settle = |parked: usize, taken_len: usize| {
            while queue.parked() != parked || taken.lock().unwrap().len() != taken_len {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            for worker in 0..3 {
                let (queue, taken) = (&queue, &taken);
                s.spawn(move || {
                    while let Some((id, _)) = queue.pop() {
                        taken.lock().unwrap().push((worker, id));
                    }
                });
                settle(worker + 1, 0);
            }
            for id in 0..5 {
                queue.push(id, request("/x"));
                settle(3, id as usize + 1);
            }
            queue.close();
        });
        let want: Vec<(usize, u64)> = (0..5).map(|id| (2, id)).collect();
        assert_eq!(taken.into_inner().unwrap(), want);
    }
}
