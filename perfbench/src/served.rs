//! The `served_cuts` workload: the deployed `facepoint serve` binary
//! with a durable store, driven over loopback by two connections.
//!
//! * Ingest (closed loop): rounds of [`ROUND_BATCHES`] `SUBMIT-BATCH`es
//!   of [`BATCH`] tables drawn from the suite's 4–6-input cut functions,
//!   each as often as it occurs in the per-circuit extraction, a `FLUSH`
//!   every [`FLUSH_EVERY`] batches, each round ended by `wait_drained`.
//!   The work is fixed by `--seconds` (one round per two seconds, at
//!   least three), not by the clock, so the server's memory, which
//!   grows with the stream, reads the same on every run.
//! * Queries (open loop): `CANON` of 4-input cut functions, drawn the
//!   same way, at [`CANON_RATE`] per second, each timed from its due
//!   time, for as long as ingest runs.
//!
//! Rates and latencies are taken from the less-stolen half of the
//! rounds and query windows (see [`least_stolen_half`]).
//!
//! Before ingest a second server creates an empty set-up store, and
//! after each ingest round one is started on it to time set-up; after
//! the session, the server gets `SIGTERM` and is restarted [`RESTARTS`]
//! times over the populated store to time recovery and compare the
//! census. Both run from spawn to the listening banner, which the
//! server prints once its engine is built or recovered and its port
//! bound.

use crate::host::{cpu_ticks, steal_since};
use crate::inproc::suite_cuts;
use crate::openloop::OpenLoop;
use crate::probes::sig_probe;
use crate::report::{Metric, Report};
use crate::stats::{least_stolen_half, median};
use crate::trace::{Span, SpanLog};
use crate::{vm_hwm_mb, Ctx};
use facepoint_engine::{Engine, EngineConfig};
use facepoint_serve::proto::{parse_table_line, write_request};
use facepoint_serve::{Client, ProtoError};
use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Tables per `SUBMIT-BATCH`.
const BATCH: usize = 1024;
/// Batches per ingest round (about two seconds at the served rate).
/// Each round yields one throughput sample and one sample of each
/// `SUBMIT-BATCH` percentile; the run reports medians over rounds, so
/// one slow stretch of disk or CPU moves a run's figures less.
const ROUND_BATCHES: u64 = 1024;
/// Batches between two `FLUSH` barriers.
const FLUSH_EVERY: u64 = 32;
/// `CANON` requests per second.
const CANON_RATE: f64 = 500.0;
/// Consecutive `CANON` requests per latency window (two seconds at
/// [`CANON_RATE`]; the fewest that leave ten samples beyond a p99).
const CANON_WINDOW: usize = 1000;
/// Restarts timed for recovery.
const RESTARTS: usize = 9;
/// Longest wait for a server to start, drain or exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// The distinct 4–6-input cut functions and the seeded draws from
/// them.
struct Pool {
    tables: Vec<TruthTable>,
    literals: Vec<String>,
    /// Encoded request-frame size of each literal, in bytes.
    frame_bytes: Vec<u64>,
    /// The pool index of every function of the per-circuit extraction,
    /// so a uniform draw from it picks each table as often as circuits
    /// produce it.
    occurrences: Vec<u32>,
    /// The occurrences of 4-input tables (the `CANON` queries).
    four: Vec<u32>,
    /// Encoded size of a `SUBMIT-BATCH` header frame, in bytes.
    header_bytes: u64,
}

impl Pool {
    fn new() -> Pool {
        let mut index: HashMap<TruthTable, u32> = HashMap::new();
        let mut tables = Vec::new();
        let occurrences: Vec<u32> = suite_cuts(4..=6)
            .into_iter()
            .map(|f| {
                *index.entry(f.clone()).or_insert_with(|| {
                    tables.push(f);
                    tables.len() as u32 - 1
                })
            })
            .collect();
        let literals: Vec<String> = tables
            .iter()
            .map(|t| format!("{}:{}", t.num_vars(), t.to_hex()))
            .collect();
        let frame_bytes = literals
            .iter()
            .map(|l| {
                let mut frame = Vec::new();
                write_request(&mut frame, l).expect("writing to a Vec cannot fail");
                frame.len() as u64
            })
            .collect();
        let four = occurrences
            .iter()
            .copied()
            .filter(|&i| tables[i as usize].num_vars() == 4)
            .collect();
        let mut header = Vec::new();
        write_request(&mut header, &format!("SUBMIT-BATCH {BATCH}"))
            .expect("writing to a Vec cannot fail");
        Pool {
            tables,
            literals,
            frame_bytes,
            occurrences,
            four,
            header_bytes: header.len() as u64,
        }
    }

    /// The ingest draw sequence for `seed`: uniform over the
    /// occurrences.
    fn draws(&self, seed: u64) -> impl FnMut() -> usize + '_ {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
        move || self.occurrences[rng.random_range(0..self.occurrences.len())] as usize
    }
}

/// A running `facepoint serve` child. Dropping one that was not
/// stopped (the benchmark panicked) kills it and waits for it.
struct Server {
    child: Child,
    addr: String,
    /// Stderr lines printed before the listening banner.
    preamble: Vec<String>,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(drain) = self.stderr_drain.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = drain.join();
        }
    }
}

impl Server {
    /// Starts `facepoint serve 127.0.0.1:0 --persist dir` and waits for
    /// its listening banner.
    fn start(facepoint: &Path, dir: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(facepoint)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--persist")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut preamble = Vec::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!(
                    "server exited before listening: {preamble:?}"
                )));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
            preamble.push(line.trim_end().to_string());
        };
        let stderr_drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        Ok(Server {
            child,
            addr,
            preamble,
            stderr_drain: Some(stderr_drain),
        })
    }

    /// The server's peak resident set, in MB.
    fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(Some(self.child.id()))
    }

    /// Sends `SIGTERM` and waits for a graceful exit; returns whether it
    /// exited cleanly and what it printed on stdout.
    fn stop(mut self) -> (bool, String) {
        let pid = self.child.id().to_string();
        let signalled = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .is_ok_and(|s| s.success());
        let deadline = Instant::now() + PATIENCE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if signalled && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let mut stdout = String::new();
        if let Some(mut out) = self.child.stdout.take() {
            let _ = out.read_to_string(&mut stdout);
        }
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
        (status.is_some_and(|s| s.success()), stdout)
    }
}

/// The token right before the first token equal to `word` (ignoring
/// trailing commas), parsed as a number.
fn number_before(text: &str, word: &str) -> Option<u64> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let at = tokens
        .iter()
        .position(|t| t.trim_end_matches(',') == word)?;
    tokens
        .get(at.checked_sub(1)?)?
        .trim_start_matches('(')
        .parse()
        .ok()
}

/// Journal bytes of an `engine:` report line
/// (`… journal: R journal records / B B, …`).
fn journal_bytes(line: &str) -> Option<u64> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let at = tokens.iter().position(|t| *t == "records")?;
    tokens.get(at + 2)?.parse().ok()
}

/// One `name value` series of a `METRICS` scrape.
fn series(scrape: &str, name: &str) -> Option<f64> {
    scrape.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok()).flatten()
    })
}

/// Apparent size of every file under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => disk_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Whether a `CANON` reply's witness maps `query` onto the
/// representative it names.
fn witness_holds(query: &TruthTable, reply: &facepoint_serve::CanonReply) -> bool {
    let perm: Vec<usize> = reply.perm.iter().map(|&v| v as usize).collect();
    let (Ok(perm), Ok(rep)) = (
        Permutation::from_slice(&perm),
        parse_table_line(&reply.representative),
    ) else {
        return false;
    };
    perm.len() == query.num_vars()
        && NpnTransform::new(perm, reply.neg, reply.out).apply(query) == rep
}

/// Operation tallies shared by the threads of a session.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn op<T>(&mut self, what: &str, r: Result<T, ProtoError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// What the ingest connection measured.
#[derive(Default)]
struct Ingest {
    acked: u64,
    batches: u64,
    /// Functions per second, per round.
    throughput: Vec<f64>,
    /// CPU steal share, per round.
    round_steal: Vec<f64>,
    request_bytes: u64,
    submit_ms: Vec<f64>,
    drained: bool,
}

/// What the query connection measured.
struct Queries {
    open_loop: OpenLoop,
    /// CPU steal share, per full window of [`CANON_WINDOW`] requests.
    window_steal: Vec<f64>,
    asked: Vec<u32>,
    bad_witnesses: u64,
}

/// Everything one server session produced.
struct Session {
    tally: Tally,
    setup_s: Vec<f64>,
    recover_s: Vec<f64>,
    /// Listening banner → `HELLO` answered, per start.
    hello_ms: Vec<f64>,
    ingest: Ingest,
    queries: Queries,
    workers: usize,
    scrape: String,
    peak_rss_mb: f64,
    census_kept: Option<bool>,
    clean_exits: (usize, usize),
    final_report: String,
    replayed: Option<u64>,
    disk_bytes: u64,
    spans: Vec<Span>,
}

/// One closed-loop ingest round: [`ROUND_BATCHES`] batches of `draw`n
/// tables, ended by `wait_drained`, so it yields one throughput sample
/// from its first submit to a census with backlog 0.
fn ingest_round(
    client: &mut Client,
    pool: &Pool,
    draw: &mut impl FnMut() -> usize,
    out: &mut Ingest,
    log: &mut SpanLog,
    root: Option<u64>,
    tally: &mut Tally,
) {
    let mut batch: Vec<usize> = Vec::with_capacity(BATCH);
    let ticks = cpu_ticks();
    let started = Instant::now();
    let acked_before = out.acked;
    for _ in 0..ROUND_BATCHES {
        batch.clear();
        batch.extend((0..BATCH).map(|_| draw()));
        let literals = batch.iter().map(|&i| pool.literals[i].as_str());
        let sent = Instant::now();
        let (reply, _) = log.span("serve.submit_batch", root, out.batches, |_| {
            client.submit_batch(literals)
        });
        out.submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if let Some((_, count)) = tally.op("SUBMIT-BATCH", reply) {
            out.acked += count;
        }
        out.request_bytes +=
            pool.header_bytes + batch.iter().map(|&i| pool.frame_bytes[i]).sum::<u64>();
        out.batches += 1;
        if out.batches.is_multiple_of(FLUSH_EVERY) {
            let (r, _) = log.span("store.flush", root, out.batches, |_| client.flush());
            tally.op("FLUSH", r);
            if log.enabled() {
                let (r, _) = log.span("telemetry.metrics", root, out.batches, |_| client.metrics());
                tally.op("METRICS", r);
            }
        }
    }
    let (r, _) = log.span("engine.drain", root, out.batches, |_| {
        client.wait_drained(PATIENCE)
    });
    out.drained &= tally.op("wait_drained", r).is_some();
    out.throughput
        .push((out.acked - acked_before) as f64 / started.elapsed().as_secs_f64());
    out.round_steal.push(steal_since(ticks));
}

fn queries(
    client: &mut Client,
    pool: &Pool,
    seed: u64,
    stop: &AtomicBool,
    log: &mut SpanLog,
    root: Option<u64>,
    tally: &mut Tally,
) -> Queries {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
    let mut out = Queries {
        open_loop: OpenLoop::new(Instant::now(), CANON_RATE),
        window_steal: Vec::new(),
        asked: Vec::new(),
        bad_witnesses: 0,
    };
    let window = CANON_WINDOW as u64;
    let mut ticks = None;
    let mut i = 0u64;
    while !stop.load(Ordering::Acquire) {
        if i.is_multiple_of(window) {
            ticks = cpu_ticks();
        }
        let q = pool.four[rng.random_range(0..pool.four.len())];
        out.open_loop.wait_until_due(i);
        let sent = Instant::now();
        let (reply, _) = log.span("serve.canon", root, i, |_| {
            client.canon(&pool.literals[q as usize])
        });
        out.open_loop.record(i, sent, Instant::now());
        if let Some(reply) = tally.op("CANON", reply) {
            if !witness_holds(&pool.tables[q as usize], &reply) {
                out.bad_witnesses += 1;
            }
        }
        out.asked.push(q);
        i += 1;
        if i.is_multiple_of(window) {
            out.window_steal.push(steal_since(ticks));
        }
    }
    out
}

/// A started server, its greeted client, the seconds from spawn to the
/// listening banner and the ms from the banner to `HELLO` answered.
type Greeted = (Server, Client, f64, f64);

/// Starts a server on `dir` and greets it.
fn start_and_greet(facepoint: &Path, dir: &Path, tally: &mut Tally) -> Option<Greeted> {
    let started = Instant::now();
    tally.attempted += 1;
    let server = match Server::start(facepoint, dir) {
        Ok(s) => s,
        Err(e) => {
            tally.failed += 1;
            tally.errors.push(format!("start: {e}"));
            return None;
        }
    };
    let listening = Instant::now();
    let setup_s = (listening - started).as_secs_f64();
    match tally.op("HELLO", Client::connect(&server.addr)) {
        Some(client) => {
            let hello_ms = listening.elapsed().as_secs_f64() * 1e3;
            Some((server, client, setup_s, hello_ms))
        }
        None => {
            server.stop();
            None
        }
    }
}

/// Sends `SIGTERM` to `server` and counts its exit in `clean`
/// (clean exits, exits); returns what it printed on stdout.
fn stop_counted(server: Server, tally: &mut Tally, clean: &mut (usize, usize)) -> String {
    let (ok, out) = server.stop();
    tally.attempted += 1;
    clean.1 += 1;
    if ok {
        clean.0 += 1;
    } else {
        tally.failed += 1;
    }
    out
}

/// Starts a server on the set-up store `dir`, greets and stops it, and
/// records its set-up and `HELLO` times in `out`. The start that
/// creates the store is not timed: creation ends in two fsyncs, whose
/// latency on a shared virtual disk swung from 7 to 44 ms within
/// minutes, so only starts on the created, still empty store count.
fn time_setup(ctx: &Ctx, dir: &Path, out: &mut Session, tally: &mut Tally) {
    let created = dir.exists();
    if let Some((server, client, t, hello)) = start_and_greet(&ctx.facepoint, dir, tally) {
        if created {
            out.setup_s.push(t);
        }
        out.hello_ms.push(hello);
        tally.op("QUIT", client.quit());
        stop_counted(server, tally, &mut out.clean_exits);
    }
}

/// One server session. A set-up start follows every ingest round, so
/// the set-up times sample the host across the session rather than in
/// one burst.
fn session(ctx: &Ctx, pool: &Pool, base: &Path, traced: bool) -> Session {
    let epoch = Instant::now();
    let mut main_log = SpanLog::new(traced, epoch, 1);
    let mut tally = Tally::default();
    let store = base.join("store");
    let setup_store = base.join("setup");
    let mut out = Session {
        tally: Tally::default(),
        setup_s: Vec::new(),
        recover_s: Vec::new(),
        hello_ms: Vec::new(),
        ingest: Ingest {
            drained: true,
            ..Ingest::default()
        },
        queries: Queries {
            open_loop: OpenLoop::new(epoch, CANON_RATE),
            window_steal: Vec::new(),
            asked: Vec::new(),
            bad_witnesses: 0,
        },
        workers: 0,
        scrape: String::new(),
        peak_rss_mb: f64::NAN,
        census_kept: None,
        clean_exits: (0, 0),
        final_report: String::new(),
        replayed: None,
        disk_bytes: 0,
        spans: Vec::new(),
    };
    time_setup(ctx, &setup_store, &mut out, &mut tally);
    let Some((server, mut feeder, _, hello)) = start_and_greet(&ctx.facepoint, &store, &mut tally)
    else {
        out.tally = tally;
        return out;
    };
    out.hello_ms.push(hello);
    out.workers = feeder.server_info().workers;
    let Some(mut asker) = tally.op("HELLO", Client::connect(&server.addr)) else {
        stop_counted(server, &mut tally, &mut out.clean_exits);
        out.tally = tally;
        return out;
    };
    let root = main_log.open();
    let root_id = root.map(|r| r.0);
    let stop = AtomicBool::new(false);
    let rounds = ((ctx.pass_seconds() / 2.0).round() as usize).max(3);
    let (feeder_log, feeder_tally, queries_out, asker_log, asker_tally) = std::thread::scope(|s| {
        let stop = &stop;
        let q = s.spawn(move || {
            let mut log = SpanLog::new(traced, epoch, 3);
            let mut t = Tally::default();
            let out = queries(&mut asker, pool, ctx.seed, stop, &mut log, root_id, &mut t);
            (out, log, t, asker)
        });
        let mut log = SpanLog::new(traced, epoch, 2);
        let mut t = Tally::default();
        let mut draw = pool.draws(ctx.seed);
        for _ in 0..rounds {
            let ingest = &mut out.ingest;
            ingest_round(
                &mut feeder,
                pool,
                &mut draw,
                ingest,
                &mut log,
                root_id,
                &mut t,
            );
            time_setup(ctx, &setup_store, &mut out, &mut t);
        }
        stop.store(true, Ordering::Release);
        let (q_out, q_log, q_t, asker) = q.join().expect("query thread panicked");
        let mut q_t = q_t;
        q_t.op("QUIT", asker.quit());
        (log, t, q_out, q_log, q_t)
    });
    main_log.close(root, "bench.session", None, 0);
    tally.merge(feeder_tally);
    tally.merge(asker_tally);
    out.queries = queries_out;
    out.scrape = tally.op("METRICS", feeder.metrics()).unwrap_or_default();
    let census_before = tally.op("TOP", feeder.top(1 << 30));
    out.peak_rss_mb = server.peak_rss_mb();
    tally.op("QUIT", feeder.quit());
    let final_out = stop_counted(server, &mut tally, &mut out.clean_exits);
    out.final_report = final_out
        .lines()
        .find(|l| l.starts_with("engine:"))
        .unwrap_or("")
        .to_string();
    out.disk_bytes = disk_bytes(&store);

    for k in 0..RESTARTS {
        let Some((server, mut client, t, hello)) =
            start_and_greet(&ctx.facepoint, &store, &mut tally)
        else {
            continue;
        };
        out.recover_s.push(t);
        out.hello_ms.push(hello);
        if k == 0 {
            out.replayed = server.preamble.iter().find_map(|l| number_before(l, "log"));
            let after = tally.op("TOP", client.top(1 << 30));
            if let (Some(before), Some(after)) = (&census_before, after) {
                let key = |c: &facepoint_serve::TopClass| (c.key, c.size, c.representative.clone());
                let mut a: Vec<_> = before.iter().map(key).collect();
                let mut b: Vec<_> = after.iter().map(key).collect();
                a.sort();
                b.sort();
                out.census_kept = Some(a == b);
            }
        }
        tally.op("QUIT", client.quit());
        stop_counted(server, &mut tally, &mut out.clean_exits);
    }
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&setup_store);
    let mut spans = main_log.into_spans();
    spans.extend(feeder_log.into_spans());
    spans.extend(asker_log.into_spans());
    out.spans = spans;
    out.tally = tally;
    out
}

/// Output checks of one session.
fn checks(report: &mut Report, s: &Session, label: &str) {
    let processed = series(&s.scrape, "engine_functions_processed_total");
    let journaled = series(&s.scrape, "store_journal_records_total");
    let acked = s.ingest.acked as f64;
    report.check(
        format!("{label}: acknowledged == engine_functions_processed_total"),
        processed == Some(acked),
        format!("{acked} vs {processed:?}"),
    );
    report.check(
        format!("{label}: acknowledged == store_journal_records_total"),
        journaled == Some(acked),
        format!("{acked} vs {journaled:?}"),
    );
    report.check(
        format!("{label}: census after restart == census before SIGTERM"),
        s.census_kept == Some(true),
        format!("{:?}", s.census_kept),
    );
    report.check(
        format!("{label}: every CANON witness maps the query onto its representative"),
        s.queries.bad_witnesses == 0 && !s.queries.asked.is_empty(),
        format!(
            "{} bad of {}",
            s.queries.bad_witnesses,
            s.queries.asked.len()
        ),
    );
    report.check(
        format!("{label}: every server exited cleanly on SIGTERM"),
        // The main server, the set-up store's creation, one set-up start
        // per ingest round and the restarts.
        s.clean_exits.0 == s.clean_exits.1
            && s.clean_exits.1 == 2 + s.ingest.throughput.len() + RESTARTS,
        format!("{} of {}", s.clean_exits.0, s.clean_exits.1),
    );
    report.check(
        format!("{label}: ingest drained"),
        s.ingest.drained && s.ingest.acked == s.ingest.batches * BATCH as u64,
        format!(
            "{} acknowledged in {} batches",
            s.ingest.acked, s.ingest.batches
        ),
    );
    report.attempted += s.tally.attempted;
    report.failed += s.tally.failed;
    for e in &s.tally.errors {
        eprintln!("perfbench: {label}: {e}");
    }
}

/// In-process replay of the session's ingest stream through an
/// in-memory engine configured like the server; returns its
/// throughput and the `CanonHandle` latencies of the session's queries.
fn in_process(pool: &Pool, seed: u64, batches: u64, asked: &[u32]) -> (f64, Vec<f64>) {
    let cfg = EngineConfig::builder().cache_capacity(1 << 16).build();
    let mut engine = Engine::builder()
        .config(cfg)
        .build()
        .expect("an in-memory engine always builds");
    let mut draw = pool.draws(seed);
    let started = Instant::now();
    for _ in 0..batches {
        let batch: Vec<TruthTable> = (0..BATCH).map(|_| pool.tables[draw()].clone()).collect();
        engine.submit_batch(batch);
    }
    let handle = engine.canon_handle();
    let report = engine.finish();
    let throughput = report.stats.functions_processed as f64 / started.elapsed().as_secs_f64();
    let canon_us = asked
        .iter()
        .map(|&q| {
            let t = Instant::now();
            std::hint::black_box(handle.canon(&pool.tables[q as usize]));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (throughput, canon_us)
}

fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

/// Throughput of the session's less-stolen half of ingest rounds.
fn calm_throughput(s: &Session) -> Vec<f64> {
    least_stolen_half(&s.ingest.throughput, &s.ingest.round_steal)
}

/// Percentile `p` of `SUBMIT-BATCH` round trips, one window per round.
fn submit_percentile(s: &Session, name: &'static str, p: f64) -> Metric {
    Metric::windowed(
        name,
        "ms",
        p,
        &s.ingest.submit_ms,
        ROUND_BATCHES as usize,
        &s.ingest.round_steal,
    )
}

/// Percentile `p` of `CANON` latencies, per window of [`CANON_WINDOW`].
fn canon_percentile(s: &Session, name: &'static str, p: f64) -> Metric {
    Metric::windowed(
        name,
        "us",
        p,
        &s.queries.open_loop.latency_us,
        CANON_WINDOW,
        &s.queries.window_steal,
    )
}

/// `served_cuts`: reads beside writes on the deployed binary.
pub fn served_cuts(ctx: &Ctx) -> Report {
    let pool = Pool::new();
    let base: PathBuf = ctx
        .out_dir
        .join(format!("served-{}-{}", ctx.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut report = Report::default();
    let untraced = session(ctx, &pool, &base, false);
    checks(&mut report, &untraced, "untraced");
    let workers = untraced.workers;
    if !ctx.trace {
        let m = &mut report.metrics;
        m.push(Metric::median(
            "throughput_fps",
            "1/s",
            calm_throughput(&untraced),
        ));
        m.push(Metric::median("setup_s", "s", untraced.setup_s.clone()));
        m.push(Metric::single("peak_rss_mb", "MB", untraced.peak_rss_mb));
        m.push(submit_percentile(&untraced, "submit_p50_ms", 50.0));
        m.push(canon_percentile(&untraced, "canon_p50_us", 50.0));
        m.push(Metric::median("recover_s", "s", untraced.recover_s.clone()));
    } else {
        let s = session(ctx, &pool, &base, true);
        checks(&mut report, &s, "traced");
        let tput = median(&calm_throughput(&s));
        let fns = s.ingest.acked.max(1) as f64;
        let distinct: Vec<&TruthTable> = {
            let mut draw = pool.draws(ctx.seed);
            let mut seen = vec![false; pool.tables.len()];
            for _ in 0..s.ingest.batches * BATCH as u64 {
                seen[draw()] = true;
            }
            (0..pool.tables.len())
                .filter(|&i| seen[i])
                .map(|i| &pool.tables[i])
                .collect()
        };
        let mut probe_log = SpanLog::new(true, Instant::now(), 4);
        let sig = sig_probe(&distinct, &mut probe_log, None);
        sig.record(&mut report);
        let (inproc, canon_inproc) =
            in_process(&pool, ctx.seed, s.ingest.batches, &s.queries.asked);
        let n = |name: &str| series(&s.scrape, name).unwrap_or(f64::NAN);
        let journal = &s.final_report;
        let m = &mut report.metrics;
        m.push(Metric::single(
            "engine.submit_s",
            "s",
            span_ms(&s.spans, "serve.submit_batch").iter().sum::<f64>() / 1e3,
        ));
        m.push(Metric::single(
            "engine.finish_s",
            "s",
            span_ms(&s.spans, "engine.drain").iter().sum::<f64>() / 1e3,
        ));
        m.push(Metric::single(
            "engine.kernel_share",
            "ratio",
            tput * n("engine_cache_misses_total") / n("engine_functions_processed_total")
                * sig.key_ns
                / (workers.max(1) as f64 * 1e9),
        ));
        m.push(Metric::single(
            "engine.dedup_share",
            "ratio",
            n("engine_dedup_hits_total") / n("engine_functions_processed_total"),
        ));
        m.push(Metric::single(
            "engine.cache_hit_rate",
            "ratio",
            n("engine_cache_hits_total")
                / (n("engine_cache_hits_total") + n("engine_cache_misses_total")),
        ));
        m.push(Metric::single(
            "engine.steals_per_kfn",
            "count",
            n("engine_steals_total") * 1e3 / fns,
        ));
        m.push(Metric::single(
            "engine.parks_per_kfn",
            "count",
            n("engine_parks_total") * 1e3 / fns,
        ));
        m.push(submit_percentile(&s, "submit_p99_ms", 99.0));
        m.push(canon_percentile(&s, "canon_p99_us", 99.0));
        m.push(Metric::median(
            "store.flush_ms",
            "ms",
            span_ms(&s.spans, "store.flush"),
        ));
        m.push(Metric::single(
            "store.journal_bytes_per_fn",
            "B",
            journal_bytes(journal).map_or(f64::NAN, |b| b as f64) / fns,
        ));
        m.push(Metric::single(
            "store.disk_bytes_per_fn",
            "B",
            s.disk_bytes as f64 / fns,
        ));
        m.push(Metric::single(
            "store.fsyncs",
            "count",
            number_before(journal, "fsyncs").map_or(f64::NAN, |v| v as f64),
        ));
        m.push(Metric::single(
            "store.checkpoints",
            "count",
            number_before(journal, "checkpoints").map_or(f64::NAN, |v| v as f64),
        ));
        m.push(Metric::single(
            "store.replay_records",
            "count",
            s.replayed.map_or(f64::NAN, |v| v as f64),
        ));
        m.push(Metric::single(
            "serve.bytes_per_fn",
            "B",
            s.ingest.request_bytes as f64 / fns,
        ));
        m.push(Metric::single("serve.inproc_ratio", "ratio", tput / inproc));
        m.push(Metric::median("serve.canon_inproc_us", "us", canon_inproc));
        m.push(Metric::median("serve.hello_ms", "ms", s.hello_ms.clone()));
        m.push(Metric::median(
            "telemetry.scrape_ms",
            "ms",
            span_ms(&s.spans, "telemetry.metrics"),
        ));
        m.push(Metric::percentile(
            "bench.canon_lag_ms",
            "ms",
            99.0,
            s.queries.open_loop.lag_ms.clone(),
        ));
        m.push(Metric::single(
            "bench.trace_overhead",
            "ratio",
            tput / median(&calm_throughput(&untraced)),
        ));
        let mut spans = s.spans;
        spans.extend(probe_log.into_spans());
        crate::finish_trace(ctx, &mut report, spans);
    }
    let _ = std::fs::remove_dir_all(&base);
    report.host = crate::host::fingerprint(workers, ctx.seed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_parsers() {
        let engine = "engine: 10 functions -> 2 classes | journal: 12 journal records / 345 B, \
                      3 checkpoints / 678 B, 64 segments, 9 fsyncs, 4 epochs";
        assert_eq!(number_before(engine, "checkpoints"), Some(3));
        assert_eq!(number_before(engine, "fsyncs"), Some(9));
        assert_eq!(journal_bytes(engine), Some(345));
        let resumed = "resumed: recovered 5 classes / 20 members over 64 shards \
                       (5 from checkpoints, 0 log records replayed, epoch 3)";
        assert_eq!(number_before(resumed, "log"), Some(0));
        assert_eq!(number_before(resumed, "from"), Some(5));
        let scrape = "engine_backlog 0\nengine_functions_processed_total 2048\n";
        assert_eq!(
            series(scrape, "engine_functions_processed_total"),
            Some(2048.0)
        );
        assert_eq!(series(scrape, "engine_functions"), None);
    }
}
