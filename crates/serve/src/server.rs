//! The service front-end: acceptor, per-connection readers, dispatch.
//!
//! One [`Engine`] serves every connection, but **ingestion does not go
//! through the engine lock**: each connection lazily takes a
//! [`SubmitHandle`] — a detached endpoint into the engine's
//! work-stealing pool — and `SUBMIT`/`SUBMIT-BATCH` push through it
//! concurrently. A connection streaming a huge batch therefore blocks
//! on the pool's bounded deques (backpressure, §6 of
//! `docs/PROTOCOL.md`), not on a lock that `SNAPSHOT`/`STATS`/`TOP`
//! from other connections need: observation requests take the engine
//! mutex only for the microseconds of a counter sweep and can never be
//! starved by a busy ingester (pinned by `tests/fairness.rs`). When
//! workers fall behind, a submitting connection's read loop stalls in
//! its own push and TCP receive windows push the wait back into that
//! client alone. Nothing in the server buffers an unbounded amount.

use crate::proto::{self, Status, MAX_BATCH, PROTO_VERSION};
use crate::signal;
use facepoint_core::wire::Record;
use facepoint_engine::{Engine, EngineReport, SubmitHandle};
use facepoint_telemetry::{Counter, Gauge, LatencyHistogram, Registry};
use facepoint_truth::TruthTable;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning (transport-level; engine tuning lives in
/// [`EngineConfig`](facepoint_engine::EngineConfig), fixed when the
/// engine is built).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How often the acceptor wakes to check for shutdown while no
    /// connection is arriving.
    pub accept_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            accept_poll: Duration::from_millis(25),
        }
    }
}

/// Opcode → latency-series table: every opcode of §4 gets its own
/// `serve_<op>_nanos` histogram, and the empty-opcode entry (last) is
/// the catch-all for unknown opcodes. Names are fixed here so the
/// series set a scrape reports is identical on every server.
const OP_SERIES: [(&str, &str); 12] = [
    ("HELLO", "serve_hello_nanos"),
    ("PING", "serve_ping_nanos"),
    ("SUBMIT", "serve_submit_nanos"),
    ("SUBMIT-BATCH", "serve_submit_batch_nanos"),
    ("SNAPSHOT", "serve_snapshot_nanos"),
    ("TOP", "serve_top_nanos"),
    ("CANON", "serve_canon_nanos"),
    ("STATS", "serve_stats_nanos"),
    ("FLUSH", "serve_flush_nanos"),
    ("METRICS", "serve_metrics_nanos"),
    ("QUIT", "serve_quit_nanos"),
    ("", "serve_other_nanos"),
];

/// Transport-layer instruments, registered into the *engine's*
/// registry at construction so one `METRICS` scrape covers all three
/// layers (`engine_*`, `store_*`, `serve_*`). Recording goes through
/// the pre-resolved `Arc` handles — nothing on the request path locks
/// the registry or allocates.
struct ServeTelemetry {
    /// The engine's registry, kept alive independently of the engine
    /// itself so `METRICS` can still be answered while the server
    /// drains for shutdown.
    registry: Arc<Registry>,
    /// Live connections (`serve_connections`).
    connections: Arc<Gauge>,
    /// Raw socket bytes, counted below the buffering layers
    /// (`serve_bytes_read_total` / `serve_bytes_written_total`).
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    /// Per-opcode request latency, [`OP_SERIES`] order.
    op_nanos: Vec<(&'static str, Arc<LatencyHistogram>)>,
}

impl ServeTelemetry {
    fn new(registry: Arc<Registry>) -> ServeTelemetry {
        let op_nanos = OP_SERIES
            .iter()
            .map(|(op, name)| (*op, registry.histogram(name)))
            .collect();
        ServeTelemetry {
            connections: registry.gauge("serve_connections"),
            bytes_read: registry.counter("serve_bytes_read_total"),
            bytes_written: registry.counter("serve_bytes_written_total"),
            op_nanos,
            registry,
        }
    }

    /// The latency histogram charged for opcode `op`; unknown opcodes
    /// land in the trailing catch-all.
    fn op_histogram(&self, op: &str) -> &LatencyHistogram {
        let (_, h) = self
            .op_nanos
            .iter()
            .find(|(known, _)| *known == op)
            .unwrap_or_else(|| self.op_nanos.last().expect("catch-all series"));
        h
    }
}

/// Shared server state: the engine every connection feeds, and the
/// shutdown latch.
struct Shared {
    /// `None` once shutdown has sealed the engine; requests arriving
    /// after that are answered with `ESHUTDOWN`.
    engine: Mutex<Option<Engine>>,
    /// Mirrors `engine.is_none()` without the lock: set under the
    /// engine lock at the moment [`Shared::seal`] takes the engine
    /// out, so `CANON` can refuse a sealed server without queueing
    /// behind a `FLUSH` that holds the lock across its fsyncs.
    sealed: AtomicBool,
    /// The only state a [`ShutdownHandle`] shares: a handle kept alive
    /// past [`Server::run`] must not pin the engine's store (and its
    /// advisory file lock) through the rest of this struct.
    shutdown: Arc<AtomicBool>,
    /// One clone of each **live** connection's stream, so shutdown can
    /// wake readers blocked in `read` (`TcpStream::shutdown` is the
    /// only portable interrupt for a blocking socket read). Handlers
    /// deregister on exit — a retained clone would hold the socket's
    /// file descriptor open (no EOF for the peer, and an fd leak on a
    /// long-running server).
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    serve: ServeTelemetry,
    /// Lock-free `CANON` endpoint, detached from the engine at
    /// construction: a canonicalization (up to a full Gray-code walk
    /// for an unknown heavy-symmetry class) runs on the requesting
    /// connection's thread without holding the engine lock that
    /// `SNAPSHOT`/`STATS`/`FLUSH` from other connections need.
    canon: facepoint_engine::CanonHandle,
}

impl Shared {
    fn new(engine: Engine) -> Shared {
        let serve = ServeTelemetry::new(engine.telemetry());
        let canon = engine.canon_handle();
        Shared {
            engine: Mutex::new(Some(engine)),
            sealed: AtomicBool::new(false),
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(std::collections::HashMap::new()),
            serve,
            canon,
        }
    }

    fn lock_engine(&self) -> std::sync::MutexGuard<'_, Option<Engine>> {
        // A panic in a handler thread must not wedge the server: the
        // engine state itself is only mutated through &mut methods
        // that keep it consistent.
        self.engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes the engine out for shutdown; every request after this is
    /// answered with `ESHUTDOWN`.
    fn seal(&self) -> Option<Engine> {
        let mut guard = self.lock_engine();
        self.sealed.store(true, Ordering::SeqCst);
        guard.take()
    }
}

/// Counts raw socket bytes into a telemetry counter, underneath the
/// session's `BufReader` — what is measured is what actually crossed
/// the socket, not per-call buffered reads.
struct CountingRead<R> {
    inner: R,
    total: Arc<Counter>,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.total.add(n as u64);
        Ok(n)
    }
}

/// The write-side twin of [`CountingRead`], underneath `BufWriter`.
struct CountingWrite<W> {
    inner: W,
    total: Arc<Counter>,
}

impl<W: Write> Write for CountingWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.total.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Signals a running [`Server`] to shut down gracefully. Clonable and
/// sendable across threads; also wired to SIGTERM/SIGINT through
/// [`signal::install`].
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown: the acceptor stops, in-flight requests get
    /// `ESHUTDOWN`, the engine is finished (final checkpoint included
    /// when durable) and [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The `facepoint serve` TCP server (spec: `docs/PROTOCOL.md`).
///
/// Lifecycle: [`Server::bind`] an address with a ready [`Engine`],
/// hand copies of the [`ShutdownHandle`] to whoever must stop it
/// (and/or call [`signal::install`] to wire SIGTERM/SIGINT), then
/// block in [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: ServerConfig,
}

impl Server {
    /// Binds `addr` and wraps `engine` for serving. The engine may
    /// already hold a recovered census ([`Engine::open`]) — serving
    /// resumes it transparently.
    ///
    /// # Errors
    ///
    /// Socket-level bind failures.
    pub fn bind(addr: impl ToSocketAddrs, engine: Engine, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(engine)),
            cfg,
        })
    }

    /// The bound address — useful with port `0`.
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared.shutdown))
    }

    /// Serves until shutdown is requested (via [`ShutdownHandle`] or an
    /// installed signal handler), then seals the engine: stop
    /// accepting, answer stragglers with `ESHUTDOWN`, wake and join
    /// every connection thread, and [`Engine::finish`] — which writes
    /// the final checkpoint when the census is durable.
    ///
    /// Returns the engine's final report, or `None` if the engine was
    /// already gone (cannot happen through public API).
    ///
    /// # Errors
    ///
    /// Per-connection errors close that connection and are never
    /// fatal. Accept-loop errors are retried (connection churn and fd
    /// pressure are routine on a busy listener); only a persistently
    /// failing listener ends the run, and even then the engine is
    /// sealed and checkpointed first — the error is returned *after*
    /// durability is secured.
    pub fn run(self) -> io::Result<Option<EngineReport>> {
        // Polling accept (instead of a blocking one) keeps shutdown
        // latency bounded without platform-specific self-pipes.
        self.listener.set_nonblocking(true)?;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_conn: u64 = 0;
        // Consecutive unexplained accept failures (EMFILE and friends
        // have no stable ErrorKind). Transient pressure deserves
        // retries; only a persistently broken listener ends the run —
        // and even then through the graceful seal-and-checkpoint tail
        // below, never by abandoning the engine.
        let mut accept_failures: u32 = 0;
        const MAX_ACCEPT_FAILURES: u32 = 200;
        let mut fatal: Option<io::Error> = None;
        while !self.shared.shutdown.load(Ordering::SeqCst) && !signal::triggered() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    accept_failures = 0;
                    let _ = stream.set_nodelay(true);
                    let id = next_conn;
                    next_conn += 1;
                    match stream.try_clone() {
                        Ok(clone) => {
                            self.shared
                                .conns
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .insert(id, clone);
                        }
                        // An unregistered connection could never be
                        // woken at shutdown — its handler would block
                        // `run` in `join` forever. Refuse it instead
                        // (likely fd pressure anyway).
                        Err(_) => continue,
                    }
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        // Deregister *after* the handler dropped its
                        // stream halves: removing the registry clone is
                        // then the last descriptor, and the peer gets
                        // its EOF.
                        shared
                            .conns
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .remove(&id);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The idle tick: also reap finished connection
                    // threads, so a long-running server's handle list
                    // tracks live connections, not every connection
                    // ever accepted.
                    handlers.retain(|h| !h.is_finished());
                    std::thread::sleep(self.cfg.accept_poll);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // The peer reset the connection between SYN and accept:
                // routine churn, not a listener problem.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {
                    accept_failures = 0;
                }
                Err(e) => {
                    // Likely fd exhaustion or similar pressure: back
                    // off and retry — connections already accepted keep
                    // being served, and freeing fds unblocks us.
                    accept_failures += 1;
                    if accept_failures >= MAX_ACCEPT_FAILURES {
                        fatal = Some(e);
                        break;
                    }
                    handlers.retain(|h| !h.is_finished());
                    std::thread::sleep(self.cfg.accept_poll);
                }
            }
        }
        drop(self.listener);
        // Seal the engine first: handlers answering after this point
        // see `None` and reply ESHUTDOWN.
        let engine = self.shared.seal();
        // Wake readers blocked on their sockets, then join them.
        for (_, conn) in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain()
        {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for h in handlers {
            let _ = h.join();
        }
        // Finish (and checkpoint) the engine *before* surfacing a
        // listener failure: durability first, diagnosis second.
        let report = engine.map(Engine::finish);
        match fatal {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// Per-connection session state.
struct Session {
    /// Set by a successful `HELLO`; most opcodes are refused before it.
    greeted: bool,
    /// This connection's private ingestion endpoint, created on its
    /// first submission (under one brief engine-lock acquisition) and
    /// reused for the connection's lifetime. Submissions push through
    /// it without touching the engine lock, so one connection's batch
    /// can never serialize another connection's observation requests.
    handle: Option<SubmitHandle>,
}

/// What the dispatcher wants done with the connection after the
/// response is written.
#[derive(Debug, PartialEq, Eq)]
enum Action {
    Continue,
    /// Close after responding (`QUIT`, protocol violations).
    Close,
}

/// Decrements the `serve_connections` gauge however the handler exits
/// (clean close, transport error, or a panic unwinding through it).
struct ConnGauge<'a>(&'a Gauge);

impl Drop for ConnGauge<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(CountingRead {
        inner: read_half,
        total: Arc::clone(&shared.serve.bytes_read),
    });
    let mut writer = BufWriter::new(CountingWrite {
        inner: stream,
        total: Arc::clone(&shared.serve.bytes_written),
    });
    shared.serve.connections.add(1);
    let _live = ConnGauge(&shared.serve.connections);
    let mut session = Session {
        greeted: false,
        handle: None,
    };
    loop {
        let line = match proto::read_record(&mut reader) {
            Ok(Some(Record::Request { line })) => line,
            Ok(Some(_)) => {
                // A CRC-valid frame of the wrong kind: the peer is not
                // speaking this protocol. Tell it once and hang up.
                let _ =
                    proto::write_response(&mut writer, Status::Proto, "expected a request frame");
                let _ = writer.flush();
                return;
            }
            // Clean EOF, torn frame or transport error: nothing can be
            // answered reliably any more.
            Ok(None) | Err(_) => return,
        };
        // Latency is charged from parse to response-ready: for a batch
        // that includes reading its table frames, which is the part of
        // request handling a client actually waits on.
        let started = Instant::now();
        let (status, body, action) = dispatch(shared, &mut session, &line, &mut reader);
        let op = match line.split_once(' ') {
            Some((op, _)) => op,
            None => line.trim(),
        };
        shared
            .serve
            .op_histogram(op)
            .record_duration(started.elapsed());
        if proto::write_response(&mut writer, status, &body).is_err() || writer.flush().is_err() {
            return;
        }
        if action == Action::Close {
            return;
        }
    }
}

/// Handles one request line and returns `(status, body, action)`.
///
/// `reader` is needed only by `SUBMIT-BATCH`, which consumes its table
/// frames from the same stream.
fn dispatch(
    shared: &Shared,
    session: &mut Session,
    line: &str,
    reader: &mut impl Read,
) -> (Status, String, Action) {
    let (op, args) = match line.split_once(' ') {
        Some((op, rest)) => (op, rest.trim()),
        None => (line.trim(), ""),
    };
    // HELLO, PING and QUIT work before the handshake; everything else
    // requires it (§3).
    if !session.greeted && !matches!(op, "HELLO" | "PING" | "QUIT") {
        return (
            Status::Proto,
            "handshake required: send HELLO <version> first".into(),
            Action::Close,
        );
    }
    match op {
        "HELLO" => match args.parse::<u32>() {
            Ok(v) if v == PROTO_VERSION => {
                session.greeted = true;
                let guard = shared.lock_engine();
                let body = match guard.as_ref() {
                    Some(engine) => format!(
                        "facepoint {PROTO_VERSION} set={} workers={} persistent={} resolution={}",
                        engine.config().set,
                        engine.config().resolved_workers(),
                        engine.config().persist.is_some(),
                        engine.config().resolution,
                    ),
                    None => format!("facepoint {PROTO_VERSION}"),
                };
                (Status::Ok, body, Action::Continue)
            }
            Ok(v) => (
                Status::Version,
                format!("server speaks version {PROTO_VERSION}, client asked for {v}"),
                Action::Close,
            ),
            Err(_) => (Status::Usage, "HELLO <version>".into(), Action::Continue),
        },
        "PING" => (Status::Ok, "pong".into(), Action::Continue),
        "QUIT" => (Status::Ok, "bye".into(), Action::Close),
        "SUBMIT" => {
            if args.is_empty() {
                return (Status::Usage, "SUBMIT <table>".into(), Action::Continue);
            }
            match proto::parse_table_line(args) {
                Ok(table) => match submit_handle(shared, session).and_then(|h| h.submit(table)) {
                    Some(seq) => (Status::Ok, format!("seq={seq}"), Action::Continue),
                    None => shutdown_reply(),
                },
                Err(e) => (Status::Table, e, Action::Continue),
            }
        }
        "SUBMIT-BATCH" => submit_batch(shared, session, args, reader),
        "SNAPSHOT" => with_engine(shared, |engine| {
            let snap = engine.snapshot();
            (
                Status::Ok,
                format!(
                    "submitted={} processed={} classes={} backlog={}",
                    snap.functions_submitted,
                    snap.functions_processed,
                    snap.num_classes,
                    snap.backlog()
                ),
                Action::Continue,
            )
        }),
        "TOP" => {
            let k: usize = match args.parse() {
                Ok(k) => k,
                Err(_) => return (Status::Usage, "TOP <k>".into(), Action::Continue),
            };
            // Clamp before touching the store: no reply can carry more
            // lines than the byte budget admits, so a huge `k` must not
            // make `top_classes` clone and sort a huge census under the
            // engine lock only for `top_body` to discard it.
            let k = k.min(TOP_BODY_BUDGET / TOP_MIN_LINE_LEN);
            with_engine(shared, |engine| {
                let body = top_body(engine.top_classes(k), TOP_BODY_BUDGET);
                (Status::Ok, body, Action::Continue)
            })
        }
        "CANON" => {
            if args.is_empty() {
                return (Status::Usage, "CANON <table>".into(), Action::Continue);
            }
            match proto::parse_table_line(args) {
                Ok(table) => {
                    // CANON never takes the engine lock: the sealed
                    // check is an atomic flag, and the canonicalization
                    // itself (potentially a full Gray-code walk) runs
                    // on this connection's thread through the detached
                    // handle. A heavy CANON never stalls other
                    // connections, and a FLUSH never stalls a CANON.
                    if shared.sealed.load(Ordering::SeqCst) {
                        return shutdown_reply();
                    }
                    let answer = shared.canon.canon(&table);
                    (Status::Ok, canon_body(&answer), Action::Continue)
                }
                Err(e) => (Status::Table, e, Action::Continue),
            }
        }
        "STATS" => with_engine(shared, |engine| {
            (Status::Ok, engine.stats().to_string(), Action::Continue)
        }),
        "FLUSH" => with_engine(shared, |engine| {
            engine.flush();
            let epochs = engine.stats().durability.map_or(0, |d| d.epochs);
            (Status::Ok, format!("epochs={epochs}"), Action::Continue)
        }),
        // Served straight from the registry, which outlives the engine:
        // the scrape path stays answerable even while the server drains
        // for shutdown, so an operator can watch the drain itself.
        "METRICS" => (
            Status::Ok,
            shared.serve.registry.render_text(),
            Action::Continue,
        ),
        _ => (
            Status::Usage,
            format!(
                "unknown opcode {op:?}; expected HELLO, PING, SUBMIT, SUBMIT-BATCH, \
                 SNAPSHOT, TOP, CANON, STATS, FLUSH, METRICS or QUIT"
            ),
            Action::Continue,
        ),
    }
}

/// Byte budget for a `TOP` reply body: a full frame minus generous
/// headroom, so the encoded frame can never trip the codec's
/// `MAX_PAYLOAD_LEN` corruption guard (§4.7: the listing is truncated
/// to fit and `classes=` counts the lines actually present).
const TOP_BODY_BUDGET: usize = facepoint_core::wire::MAX_PAYLOAD_LEN - 4096;

/// Smallest possible `TOP` line (`<32-hex key> <size> <n:hex rep>` +
/// newline) — used to clamp `k` to the most lines a reply could ever
/// hold.
const TOP_MIN_LINE_LEN: usize = 32 + 1 + 1 + 1 + 3 + 1;

/// Renders a `TOP` reply body, dropping trailing classes once `budget`
/// bytes are reached — a reply must always fit one frame, whatever `k`
/// the client asked for.
fn top_body(classes: Vec<facepoint_engine::ClassSummary>, budget: usize) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(classes.len());
    let mut used = 0usize;
    for c in &classes {
        let line = format!(
            "{:032x} {} {}:{}",
            c.key,
            c.size,
            c.representative.num_vars(),
            c.representative.to_hex()
        );
        if used + line.len() + 1 > budget {
            break;
        }
        used += line.len() + 1;
        lines.push(line);
    }
    let mut body = format!("classes={}", lines.len());
    for line in &lines {
        body.push('\n');
        body.push_str(line);
    }
    body
}

/// Renders a `CANON` reply body (§4.8): the certified class entry
/// (key, size, proved representative) followed by the witness
/// transform mapping the queried table onto that representative.
fn canon_body(answer: &facepoint_engine::CanonAnswer) -> String {
    let perm: Vec<String> = answer
        .witness
        .perm()
        .as_slice()
        .iter()
        .map(|v| v.to_string())
        .collect();
    format!(
        "{} perm={} neg={} out={}",
        answer.entry.render_wire(),
        perm.join(","),
        answer.witness.input_neg(),
        answer.witness.output_neg() as u8,
    )
}

/// The connection's private [`SubmitHandle`], created on first use —
/// the only submission-path step that takes the engine lock, and only
/// once per connection. `None` when the engine has been sealed.
fn submit_handle<'s>(shared: &Shared, session: &'s mut Session) -> Option<&'s mut SubmitHandle> {
    if session.handle.is_none() {
        session.handle = Some(shared.lock_engine().as_ref()?.submit_handle());
    }
    session.handle.as_mut()
}

/// The uniform `ESHUTDOWN` answer for requests that arrive after the
/// engine is sealed (or that lose the race with `finish`).
fn shutdown_reply() -> (Status, String, Action) {
    (
        Status::Shutdown,
        "server is shutting down".into(),
        Action::Close,
    )
}

/// Runs `f` on the shared engine, or answers `ESHUTDOWN` if it has
/// been sealed.
fn with_engine(
    shared: &Shared,
    f: impl FnOnce(&mut Engine) -> (Status, String, Action),
) -> (Status, String, Action) {
    let mut guard = shared.lock_engine();
    match guard.as_mut() {
        Some(engine) => f(engine),
        None => shutdown_reply(),
    }
}

/// Byte budget for the tables a single batch may hold in memory
/// before submission (§4.5). `MAX_BATCH` bounds the *count*, but a
/// count of small frames can still announce gigabytes of wide tables
/// (an n=16 table is 8 KiB); the byte budget keeps the atomic
/// buffering honest about the module's no-unbounded-buffering claim.
/// 64 MiB passes any realistic batch (a full 2^20-table batch of
/// 6-variable functions is 8 MiB) and stops the hostile ones.
const MAX_BATCH_BYTES: usize = 1 << 26;

/// `SUBMIT-BATCH <n>`: reads the `n` announced table frames, then
/// submits all of them atomically — a parse failure anywhere rejects
/// the whole batch (the frames are still consumed, keeping the stream
/// in sync; §4.5). Submission goes through the connection's own
/// [`SubmitHandle`]: a huge batch blocks on pool backpressure, never
/// on the engine lock other connections need.
fn submit_batch(
    shared: &Shared,
    session: &mut Session,
    args: &str,
    reader: &mut impl Read,
) -> (Status, String, Action) {
    let n: u64 = match args.parse() {
        Ok(n) if n <= MAX_BATCH => n,
        Ok(n) => {
            return (
                Status::Usage,
                format!("batch of {n} exceeds the {MAX_BATCH} cap"),
                Action::Continue,
            )
        }
        Err(_) => {
            return (
                Status::Usage,
                "SUBMIT-BATCH <count>".into(),
                Action::Continue,
            )
        }
    };
    let mut tables: Vec<TruthTable> = Vec::with_capacity(n.min(1 << 16) as usize);
    let mut table_bytes = 0usize;
    let mut first_error: Option<(u64, String)> = None;
    for i in 0..n {
        match proto::read_record(reader) {
            Ok(Some(Record::Request { line })) => match proto::parse_table_line(&line) {
                Ok(t) => {
                    table_bytes += t.words().len() * 8;
                    if table_bytes > MAX_BATCH_BYTES && first_error.is_none() {
                        // Stop buffering but keep consuming frames, so
                        // the stream stays aligned for the response.
                        tables.clear();
                        first_error = Some((
                            i,
                            format!("batch exceeds the {MAX_BATCH_BYTES} byte budget"),
                        ));
                    } else if first_error.is_none() {
                        tables.push(t);
                    }
                }
                Err(e) => {
                    if first_error.is_none() {
                        tables.clear();
                        first_error = Some((i, e));
                    }
                }
            },
            // Anything but a request frame tears the batch; the stream
            // cannot be trusted to be aligned any more.
            Ok(_) | Err(_) => {
                return (
                    Status::Proto,
                    format!("batch torn after {i} of {n} table frames"),
                    Action::Close,
                )
            }
        }
    }
    if let Some((i, e)) = first_error {
        return (
            Status::Table,
            format!("table {i} of {n}: {e}"),
            Action::Continue,
        );
    }
    match submit_handle(shared, session).and_then(|h| h.submit_batch(tables)) {
        Some(first) => (
            Status::Ok,
            format!("first={first} count={n}"),
            Action::Continue,
        ),
        None => shutdown_reply(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_engine::EngineConfig;
    use facepoint_sig::SignatureSet;

    fn shared() -> Shared {
        let engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                ..EngineConfig::with_set(SignatureSet::all())
            })
            .build()
            .unwrap();
        Shared::new(engine)
    }

    fn greeted() -> Session {
        Session {
            greeted: true,
            handle: None,
        }
    }

    fn empty() -> io::Cursor<Vec<u8>> {
        io::Cursor::new(Vec::new())
    }

    /// Every opcode and error path of the dispatcher, spec order. The
    /// socket-level flows live in `tests/protocol.rs`; this pins the
    /// grammar without any transport.
    #[test]
    fn dispatch_covers_the_opcode_table() {
        let shared = shared();
        let mut s = Session {
            greeted: false,
            handle: None,
        };

        // Pre-handshake: only HELLO, PING, QUIT.
        let (st, body, act) = dispatch(&shared, &mut s, "SNAPSHOT", &mut empty());
        assert_eq!((st, act), (Status::Proto, Action::Close));
        assert!(body.contains("HELLO"), "{body}");

        let (st, _, _) = dispatch(&shared, &mut s, "PING", &mut empty());
        assert_eq!(st, Status::Ok);

        let (st, body, _) = dispatch(&shared, &mut s, "HELLO 99", &mut empty());
        assert_eq!(st, Status::Version);
        assert!(body.contains("version 1"), "{body}");
        let (st, _, _) = dispatch(&shared, &mut s, "HELLO x", &mut empty());
        assert_eq!(st, Status::Usage);
        let (st, body, _) = dispatch(&shared, &mut s, "HELLO 1", &mut empty());
        assert_eq!(st, Status::Ok);
        assert!(body.starts_with("facepoint 1 set="), "{body}");
        assert!(s.greeted);

        // SUBMIT: ok, missing arg, bad table.
        let (st, body, _) = dispatch(&shared, &mut s, "SUBMIT e8", &mut empty());
        assert_eq!(st, Status::Ok);
        assert_eq!(body, "seq=0");
        let (st, _, _) = dispatch(&shared, &mut s, "SUBMIT", &mut empty());
        assert_eq!(st, Status::Usage);
        let (st, _, _) = dispatch(&shared, &mut s, "SUBMIT zzz", &mut empty());
        assert_eq!(st, Status::Table);

        // SUBMIT-BATCH: ok, bad count, oversized, bad table inside,
        // torn batch.
        let mut frames = Vec::new();
        proto::write_request(&mut frames, "d4").unwrap();
        proto::write_request(&mut frames, "3:96").unwrap();
        let (st, body, _) = dispatch(
            &shared,
            &mut s,
            "SUBMIT-BATCH 2",
            &mut io::Cursor::new(frames),
        );
        assert_eq!(st, Status::Ok);
        assert_eq!(body, "first=1 count=2");
        let (st, _, _) = dispatch(&shared, &mut s, "SUBMIT-BATCH x", &mut empty());
        assert_eq!(st, Status::Usage);
        let (st, _, _) = dispatch(
            &shared,
            &mut s,
            &format!("SUBMIT-BATCH {}", MAX_BATCH + 1),
            &mut empty(),
        );
        assert_eq!(st, Status::Usage);
        let mut frames = Vec::new();
        proto::write_request(&mut frames, "e8").unwrap();
        proto::write_request(&mut frames, "not-a-table").unwrap();
        let (st, body, act) = dispatch(
            &shared,
            &mut s,
            "SUBMIT-BATCH 2",
            &mut io::Cursor::new(frames),
        );
        assert_eq!((st, act), (Status::Table, Action::Continue));
        assert!(body.starts_with("table 1 of 2"), "{body}");
        let (st, _, act) = dispatch(&shared, &mut s, "SUBMIT-BATCH 3", &mut empty());
        assert_eq!((st, act), (Status::Proto, Action::Close));

        // The rejected batch submitted nothing: 3 accepted so far.
        let (st, body, _) = dispatch(&shared, &mut s, "SNAPSHOT", &mut empty());
        assert_eq!(st, Status::Ok);
        assert!(body.starts_with("submitted=3 "), "{body}");

        // Drain so TOP and STATS see a complete census.
        shared
            .lock_engine()
            .as_mut()
            .unwrap()
            .drain(Duration::from_secs(30));
        let (st, body, _) = dispatch(&shared, &mut s, "TOP 10", &mut empty());
        assert_eq!(st, Status::Ok);
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("classes=2")); // e8/d4 vs 96
        let heavy = lines.next().unwrap();
        let mut fields = heavy.split(' ');
        let key = fields.next().unwrap();
        assert_eq!(key.len(), 32, "{heavy}");
        assert_eq!(fields.next(), Some("2"), "{heavy}");
        assert!(fields.next().unwrap().starts_with("3:"), "{heavy}");
        let (st, _, _) = dispatch(&shared, &mut s, "TOP", &mut empty());
        assert_eq!(st, Status::Usage);

        // CANON: proved representative + witness, missing arg, bad
        // table. On this digest-mode engine the size field reads 0.
        let (st, body, _) = dispatch(&shared, &mut s, "CANON d4", &mut empty());
        assert_eq!(st, Status::Ok);
        assert!(body.starts_with("key="), "{body}");
        for field in ["size=0", "representative=3:", "perm=", "neg=", "out="] {
            assert!(body.contains(field), "no {field} in {body}");
        }
        // d4 and e8 are one transform apart: same proved representative.
        let (_, twin, _) = dispatch(&shared, &mut s, "CANON e8", &mut empty());
        let rep = |b: &str| {
            b.split_whitespace()
                .find(|f| f.starts_with("representative="))
                .unwrap()
                .to_string()
        };
        assert_eq!(rep(&body), rep(&twin), "{body} vs {twin}");
        let (st, _, _) = dispatch(&shared, &mut s, "CANON", &mut empty());
        assert_eq!(st, Status::Usage);
        let (st, _, _) = dispatch(&shared, &mut s, "CANON zzz", &mut empty());
        assert_eq!(st, Status::Table);

        let (st, body, _) = dispatch(&shared, &mut s, "STATS", &mut empty());
        assert_eq!(st, Status::Ok);
        assert!(body.contains("functions -> "), "{body}");

        let (st, body, _) = dispatch(&shared, &mut s, "FLUSH", &mut empty());
        assert_eq!(st, Status::Ok);
        assert_eq!(body, "epochs=0"); // in-memory engine: no barriers

        // METRICS: every line obeys the §4.12 `name SP value` grammar
        // and the scrape spans all three layers.
        let (st, body, act) = dispatch(&shared, &mut s, "METRICS", &mut empty());
        assert_eq!((st, act), (Status::Ok, Action::Continue));
        for line in body.lines() {
            let (name, value) = line.split_once(' ').expect("name SP value");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
        for series in [
            "engine_functions_processed_total",
            "engine_chunk_classify_nanos_count",
            "engine_workers",
            "store_journal_records_total",
            "serve_connections",
            "serve_submit_nanos_count",
            "serve_bytes_read_total",
        ] {
            assert!(
                body.lines().any(|l| l.starts_with(&format!("{series} "))),
                "no {series} series in scrape:\n{body}"
            );
        }

        let (st, body, _) = dispatch(&shared, &mut s, "FROB 1 2", &mut empty());
        assert_eq!(st, Status::Usage);
        assert!(body.contains("unknown opcode"), "{body}");
        assert!(body.contains("METRICS"), "{body}");

        let (st, body, act) = dispatch(&shared, &mut s, "QUIT", &mut empty());
        assert_eq!((st, act), (Status::Ok, Action::Close));
        assert_eq!(body, "bye");
    }

    #[test]
    fn top_body_truncates_to_its_byte_budget() {
        let classes: Vec<facepoint_engine::ClassSummary> = (0..100u128)
            .map(|i| facepoint_engine::ClassSummary {
                key: i,
                size: 100 - i as usize,
                representative: TruthTable::majority(5),
            })
            .collect();
        // Unbounded budget: everything fits, count matches.
        let full = top_body(classes.clone(), usize::MAX);
        assert!(full.starts_with("classes=100\n"), "{full}");
        assert_eq!(full.lines().count(), 101);
        let line_len = full.lines().nth(1).unwrap().len();
        // A budget for ~10 lines keeps the reply whole-line-truncated
        // and the count line authoritative.
        let truncated = top_body(classes.clone(), 10 * (line_len + 1) + line_len / 2);
        let mut lines = truncated.lines();
        assert_eq!(lines.next(), Some("classes=10"), "{truncated}");
        assert_eq!(truncated.lines().count(), 11);
        assert!(truncated.len() <= 10 * (line_len + 1) + line_len);
        // Zero budget: an empty-but-valid listing, not a panic.
        assert_eq!(top_body(classes, 0), "classes=0");
    }

    #[test]
    fn oversized_batch_bytes_are_rejected_whole() {
        let shared = shared();
        let mut s = greeted();
        // 16-variable tables are 8 KiB each; a few thousand of them
        // blow the 64 MiB budget long before MAX_BATCH.
        let wide = format!("16:{}", "a".repeat(1 << 14));
        let n = (MAX_BATCH_BYTES / (1 << 13)) + 2;
        let mut frames = Vec::new();
        for _ in 0..n {
            proto::write_request(&mut frames, &wide).unwrap();
        }
        let (st, body, act) = dispatch(
            &shared,
            &mut s,
            &format!("SUBMIT-BATCH {n}"),
            &mut io::Cursor::new(frames),
        );
        assert_eq!((st, act), (Status::Table, Action::Continue));
        assert!(body.contains("byte budget"), "{body}");
        // Nothing from the rejected batch was submitted.
        let (_, body, _) = dispatch(&shared, &mut s, "SNAPSHOT", &mut empty());
        assert!(body.starts_with("submitted=0 "), "{body}");
    }

    #[test]
    fn sealed_engine_answers_eshutdown() {
        let shared = shared();
        // A connection that already holds a submit handle from before
        // the seal must also be refused (its handle observes the
        // closed pool).
        let mut veteran = greeted();
        let (st, _, _) = dispatch(&shared, &mut veteran, "SUBMIT e8", &mut empty());
        assert_eq!(st, Status::Ok);
        assert!(veteran.handle.is_some());
        // Seal as Server::run does at shutdown.
        let engine = shared.seal().unwrap();
        drop(engine.finish());
        let (st, _, act) = dispatch(&shared, &mut veteran, "SUBMIT d4", &mut empty());
        assert_eq!((st, act), (Status::Shutdown, Action::Close));
        for op in [
            "SUBMIT e8",
            "SNAPSHOT",
            "TOP 5",
            "CANON e8",
            "STATS",
            "FLUSH",
        ] {
            let (st, _, act) = dispatch(&shared, &mut greeted(), op, &mut empty());
            assert_eq!((st, act), (Status::Shutdown, Action::Close), "{op}");
        }
        // Batches too — after their frames are consumed.
        let mut frames = Vec::new();
        proto::write_request(&mut frames, "e8").unwrap();
        let (st, _, _) = dispatch(
            &shared,
            &mut greeted(),
            "SUBMIT-BATCH 1",
            &mut io::Cursor::new(frames),
        );
        assert_eq!(st, Status::Shutdown);
        // METRICS is the exception: the registry outlives the engine,
        // so the drain itself stays observable.
        let (st, body, act) = dispatch(&shared, &mut greeted(), "METRICS", &mut empty());
        assert_eq!((st, act), (Status::Ok, Action::Continue));
        assert!(body.contains("engine_workers "), "{body}");
    }

    /// `CANON` must not queue behind the engine lock, which `FLUSH`
    /// holds across its journal fsyncs: with the lock held exactly as
    /// `FLUSH` holds it, a `CANON` from another connection still
    /// answers; once the engine is sealed, `CANON` says `ESHUTDOWN`.
    #[test]
    fn canon_answers_while_flush_holds_the_engine_lock() {
        let shared = shared();
        std::thread::scope(|scope| {
            let flushing = shared.lock_engine();
            let (tx, rx) = std::sync::mpsc::channel();
            let shared = &shared;
            scope.spawn(move || {
                let reply = dispatch(shared, &mut greeted(), "CANON e8", &mut empty());
                let _ = tx.send(reply);
            });
            let reply = rx.recv_timeout(Duration::from_secs(30));
            // Release before asserting, so a failure cannot leave the
            // spawned CANON blocked and the scope hanging.
            drop(flushing);
            let (st, body, _) = reply.expect("CANON waited on the engine lock");
            assert_eq!(st, Status::Ok, "{body}");
            assert!(body.starts_with("key="), "{body}");
        });
        drop(shared.seal().unwrap().finish());
        let (st, _, act) = dispatch(&shared, &mut greeted(), "CANON e8", &mut empty());
        assert_eq!((st, act), (Status::Shutdown, Action::Close));
    }

    /// Every §4 opcode maps to its own latency series; unknown opcodes
    /// land in the catch-all.
    #[test]
    fn op_histograms_cover_the_opcode_table() {
        let shared = shared();
        for (op, name) in &OP_SERIES {
            if op.is_empty() {
                continue;
            }
            shared.serve.op_histogram(op).record(1);
            let text = shared.serve.registry.render_text();
            let line = format!("{name}_count 1");
            assert!(text.lines().any(|l| l == line), "no {line} after {op}");
        }
        shared.serve.op_histogram("FROB").record(1);
        shared.serve.op_histogram("").record(1);
        let text = shared.serve.registry.render_text();
        assert!(
            text.lines().any(|l| l == "serve_other_nanos_count 2"),
            "{text}"
        );
    }
}
