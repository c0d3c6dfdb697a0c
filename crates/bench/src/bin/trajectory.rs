//! Writes the machine-readable performance trajectory:
//! `BENCH_signatures.json` (single-thread `signature_key` throughput,
//! kernel vs. two-pass reference, on balanced tables for n = 6..11) and
//! `BENCH_engine.json` (end-to-end engine throughput, in-memory
//! **and** with the durable journal on, so the durability tax is a
//! recorded number, not a guess), both at the repo root by default.
//!
//! ```text
//! cargo run --release -p facepoint-bench --bin trajectory [-- --out DIR] [--quick]
//! ```
//!
//! `--quick` shrinks the sweep (n = 6..8, shorter budgets) for the CI
//! smoke job; `check_bench` validates the emitted schema and compares
//! against the committed baselines.
//!
//! The JSON is hand-serialized (no serde in the offline build) and
//! append-friendly: each run produces one self-contained file that
//! future PRs diff against to catch regressions.
#![forbid(unsafe_code)]

use facepoint_bench::{arg_value, balanced_workload, random_workload};
use facepoint_core::{fnv128, SignatureKernel};
use facepoint_engine::{Engine, EngineConfig, PersistConfig, Resolution};
use facepoint_sig::{msv_reference, SignatureSet};
use facepoint_truth::TruthTable;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Repeats `work` over `fns` until at least `budget` has elapsed and
/// returns functions/second.
fn throughput(fns: &[TruthTable], budget: Duration, mut work: impl FnMut(&TruthTable)) -> f64 {
    // Warm-up pass (grows scratch buffers, faults in the tables).
    for f in fns {
        work(f);
    }
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < budget {
        for f in fns {
            work(f);
        }
        done += fns.len() as u64;
    }
    done as f64 / start.elapsed().as_secs_f64()
}

fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// One engine pass over `fns`, optionally journaling into `persist`,
/// at the requested resolution tier; returns (functions/second,
/// classes, chunk-latency [p50, p90, p99, max] in nanoseconds from
/// the engine's own telemetry).
fn engine_pass(
    fns: &[TruthTable],
    set: SignatureSet,
    persist: Option<PersistConfig>,
    resolution: Resolution,
) -> (f64, usize, [u64; 4]) {
    let mut engine = Engine::builder()
        .config(
            EngineConfig::builder()
                .set(set)
                .persist(persist)
                .resolution(resolution)
                .build(),
        )
        .build()
        .unwrap();
    // The registry (and this histogram handle) outlive `finish`, so
    // the latency distribution survives the engine teardown.
    let chunk_latency = engine.telemetry().histogram("engine_chunk_classify_nanos");
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    let lat = chunk_latency.snapshot();
    (
        report.stats.throughput(),
        report.classification.num_classes(),
        [lat.p50(), lat.p90(), lat.p99(), lat.max],
    )
}

/// Chunk size of the contention sweep: small on purpose. The sweep
/// measures the *ingest queue*, not the kernel — fine-grained chunks
/// put a queue operation every few functions, which is exactly where
/// the old single `Mutex<Receiver>` serialized the workers and where
/// per-worker deques pull ahead.
const CONTENTION_CHUNK: usize = 1;

/// One ingest pass through the work-stealing engine (construction,
/// submission and finish all inside the measured window, matching the
/// mutex baseline below); returns (functions/second, classes).
fn steal_pass(fns: &[TruthTable], set: SignatureSet, workers: usize) -> (f64, usize) {
    let start = Instant::now();
    let mut engine = Engine::builder()
        .config(EngineConfig {
            set,
            workers,
            chunk_size: CONTENTION_CHUNK,
            // Deep deques and big steal batches: at one-function chunks the
            // per-chunk bounds are per-item, so the defaults (sized for
            // 256-function chunks) would throttle the producer and migrate
            // single functions; scaling both by the chunk shrinkage keeps
            // the pool in its intended operating regime. Census-only
            // streaming is how a production-scale census runs (and what
            // the retired architecture could not do at all — its WorkerLog
            // grew without bound).
            deque_capacity: 128,
            steal_batch: 16,
            track_labels: false,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    (
        fns.len() as f64 / start.elapsed().as_secs_f64(),
        report.stats.num_classes,
    )
}

/// The pre-stealing ingest path, replicated faithfully for the
/// baseline column: chunks flow through one bounded `sync_channel`
/// whose `Receiver` sits behind a `Mutex` (every pop serializes all
/// workers on that one lock), workers key into per-shard maps and
/// accumulate per-worker `(seq, key)` logs that are only merged at the
/// end — the engine's exact architecture before the work-stealing
/// pool; returns (functions/second, classes).
fn mutex_queue_pass(fns: &[TruthTable], set: SignatureSet, workers: usize) -> (f64, usize) {
    use std::sync::atomic::{AtomicU64, Ordering};
    /// One store shard exactly as the engine keeps it: representative
    /// table, its submission number, member count.
    type Shard = Mutex<HashMap<u128, (TruthTable, u64, usize)>>;
    let start = Instant::now();
    // The old engine's queue: 32 chunks, whatever the chunk size.
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<(u64, TruthTable)>>(32);
    let rx = Arc::new(Mutex::new(rx));
    let store: Arc<Vec<Shard>> = Arc::new((0..64).map(|_| Mutex::new(HashMap::new())).collect());
    let processed = Arc::new(AtomicU64::new(0));
    let cache_misses = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let store = Arc::clone(&store);
            let processed = Arc::clone(&processed);
            let cache_misses = Arc::clone(&cache_misses);
            std::thread::spawn(move || {
                let mut kernel = SignatureKernel::new(set);
                let mut log: Vec<(u64, u128)> = Vec::new();
                loop {
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => return log,
                    };
                    let n = job.len() as u64;
                    for (seq, table) in job {
                        // The disabled memo cache still counted misses.
                        cache_misses.fetch_add(1, Ordering::Relaxed);
                        let key = kernel.key(&table);
                        let mut shard = store[(key >> 122) as usize].lock().unwrap();
                        match shard.entry(key) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                let entry = e.get_mut();
                                entry.2 += 1;
                                if seq < entry.1 {
                                    entry.0 = table.clone();
                                    entry.1 = seq;
                                }
                            }
                            std::collections::hash_map::Entry::Vacant(v) => {
                                v.insert((table.clone(), seq, 1));
                            }
                        }
                        drop(shard);
                        log.push((seq, key));
                    }
                    // Chunk-granular progress, as the old engine had.
                    processed.fetch_add(n, Ordering::AcqRel);
                }
            })
        })
        .collect();
    let mut seq = 0u64;
    for chunk in fns.chunks(CONTENTION_CHUNK) {
        let entries: Vec<(u64, TruthTable)> = chunk
            .iter()
            .map(|t| {
                let s = seq;
                seq += 1;
                (s, t.clone())
            })
            .collect();
        tx.send(entries).expect("baseline workers hung up");
    }
    drop(tx);
    let mut keyed = 0usize;
    for h in handles {
        keyed += h.join().expect("baseline worker panicked").len();
    }
    assert_eq!(keyed, fns.len(), "baseline lost work");
    assert_eq!(processed.load(Ordering::Acquire), fns.len() as u64);
    let classes = store.iter().map(|s| s.lock().unwrap().len()).sum();
    (fns.len() as f64 / start.elapsed().as_secs_f64(), classes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = arg_value(&args, "--out").unwrap_or_else(|| ".".to_string());
    std::fs::create_dir_all(&out_dir).expect("create --out directory");
    let quick = args.iter().any(|a| a == "--quick");
    let budget = Duration::from_millis(if quick { 150 } else { 600 });
    let max_n = if quick { 8 } else { 11 };
    let set = SignatureSet::all();

    // --- signature_key: kernel vs reference, balanced tables ---------
    let mut sig_rows = String::new();
    for n in 6..=max_n {
        let count = (2048 >> (n - 6)).max(32);
        let fns = balanced_workload(n, count, 0x5EED ^ n as u64);
        let mut kernel = SignatureKernel::new(set);
        let kernel_fps = throughput(&fns, budget, |f| {
            std::hint::black_box(kernel.key(f));
        });
        let reference_fps = throughput(&fns, budget, |f| {
            std::hint::black_box(fnv128(msv_reference(f, set).as_words()));
        });
        let speedup = kernel_fps / reference_fps;
        println!(
            "signatures n={n}: kernel {kernel_fps:.0} fn/s, \
             reference {reference_fps:.0} fn/s, speedup {speedup:.2}x"
        );
        if !sig_rows.is_empty() {
            sig_rows.push_str(",\n");
        }
        sig_rows.push_str(&format!(
            "    {{\"n\": {n}, \"functions\": {count}, \
             \"kernel_fns_per_sec\": {kernel_fps:.1}, \
             \"reference_fns_per_sec\": {reference_fps:.1}, \
             \"speedup\": {speedup:.3}}}"
        ));
    }
    let sig_json = format!(
        "{{\n  \"bench\": \"signature_key\",\n  \"set\": \"{set}\",\n  \
         \"workload\": \"balanced random tables, single thread\",\n  \
         \"baseline\": \"reference = two-pass msv_reference + fnv128, \
         the pre-kernel signature_key algorithm\",\n  \
         \"unix_time\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        unix_time(),
        sig_rows
    );
    let sig_path = format!("{out_dir}/BENCH_signatures.json");
    std::fs::write(&sig_path, sig_json).expect("write BENCH_signatures.json");
    println!("wrote {sig_path}");

    // --- engine: end-to-end streaming throughput, in-memory vs
    // --- journaled (default sync policy: fsync at epoch barriers) ----
    let workers = EngineConfig::default().resolved_workers();
    let mut eng_rows = String::new();
    for n in 6..=max_n {
        // Full-size streams even under --quick: the journal ratio is a
        // steady-state figure, and short streams overweight the fixed
        // costs (shard-file creation, final checkpoint). --quick saves
        // its time by dropping n = 9..10 instead.
        let count = (16384 >> (n - 6)).max(512);
        let fns = random_workload(n, count, 0xE61E ^ n as u64);
        let (mem_fps, classes, [p50, p90, p99, max]) =
            engine_pass(&fns, set, None, Resolution::Digest);
        let journal_dir =
            std::env::temp_dir().join(format!("facepoint-trajectory-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let (journal_fps, journal_classes, _) = engine_pass(
            &fns,
            set,
            Some(PersistConfig::new(&journal_dir)),
            Resolution::Digest,
        );
        let _ = std::fs::remove_dir_all(&journal_dir);
        assert_eq!(classes, journal_classes, "journaling changed the partition");
        let ratio = journal_fps / mem_fps;
        println!(
            "engine n={n}: {mem_fps:.0} fn/s in-memory, {journal_fps:.0} fn/s \
             journaled ({:.0}% of in-memory) over {count} functions ({workers} workers); \
             chunk latency p50 {p50} / p99 {p99} ns",
            ratio * 100.0
        );
        // The certified-tier tax, measured once at the acceptance
        // arity: same workload, same config, resolution certified —
        // every signature bucket resolved to a proved class. Digest
        // rows run every n; one certified column at n = 8 is the
        // ratio check_bench floors.
        let mut certified_cells = String::new();
        if n == 8 {
            let (cert_fps, cert_classes, _) = engine_pass(&fns, set, None, Resolution::Certified);
            assert!(
                cert_classes >= classes,
                "certified resolution merged digest buckets"
            );
            let cert_ratio = cert_fps / mem_fps;
            println!(
                "engine n=8 certified: {cert_fps:.0} fn/s ({:.0}% of digest), \
                 {cert_classes} proved classes",
                cert_ratio * 100.0
            );
            certified_cells = format!(
                ", \"certified_fns_per_sec\": {cert_fps:.1}, \
                 \"certified_classes\": {cert_classes}, \
                 \"certified_ratio\": {cert_ratio:.3}"
            );
        }
        if !eng_rows.is_empty() {
            eng_rows.push_str(",\n");
        }
        eng_rows.push_str(&format!(
            "    {{\"n\": {n}, \"functions\": {count}, \"workers\": {workers}, \
             \"fns_per_sec\": {mem_fps:.1}, \"classes\": {classes}, \
             \"journaled_fns_per_sec\": {journal_fps:.1}, \
             \"journal_ratio\": {ratio:.3}, \
             \"chunk_p50_nanos\": {p50}, \"chunk_p90_nanos\": {p90}, \
             \"chunk_p99_nanos\": {p99}, \"chunk_max_nanos\": {max}{certified_cells}}}"
        ));
    }
    // --- contention sweep: the work-stealing pool vs the retired
    // --- mutex-queue ingest path, 1/2/4/8 workers, fine chunks -------
    let contention_count = if quick { 2048 } else { 8192 };
    // Interleaved best-of-N: machine-wide throughput drift (shared
    // runners, thermal throttling) swamps a single pass, so each
    // implementation's figure is the best of `reps` passes taken
    // alternately — drift hits both columns alike.
    let contention_reps = if quick { 2 } else { 5 };
    let contention_set = set;
    let contention_fns = balanced_workload(8, contention_count, 0xC0E);
    let mut con_rows = String::new();
    for workers in [1usize, 2, 4, 8] {
        let mut steal_fps = 0f64;
        let mut mutex_fps = 0f64;
        let mut steal_classes = 0usize;
        let mut mutex_classes = 0usize;
        for _ in 0..contention_reps {
            let (s, sc) = steal_pass(&contention_fns, contention_set, workers);
            let (m, mc) = mutex_queue_pass(&contention_fns, contention_set, workers);
            steal_fps = steal_fps.max(s);
            mutex_fps = mutex_fps.max(m);
            steal_classes = sc;
            mutex_classes = mc;
        }
        assert_eq!(
            steal_classes, mutex_classes,
            "queue implementations disagree on the partition"
        );
        let speedup = steal_fps / mutex_fps;
        println!(
            "contention n=8 workers={workers}: stealing {steal_fps:.0} fn/s, \
             mutex queue {mutex_fps:.0} fn/s, speedup {speedup:.2}x"
        );
        if !con_rows.is_empty() {
            con_rows.push_str(",\n");
        }
        con_rows.push_str(&format!(
            "      {{\"workers\": {workers}, \"fns_per_sec\": {steal_fps:.1}, \
             \"mutex_fns_per_sec\": {mutex_fps:.1}, \
             \"queue_speedup\": {speedup:.3}}}"
        ));
    }
    let eng_json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"set\": \"{set}\",\n  \
         \"workload\": \"distinct random tables, default engine config; \
         journaled = durable store on, default sync policy (fsync at \
         epoch barriers); certified_* on the n = 8 row = the same \
         workload at resolution certified (every bucket proved)\",\n  \
         \"unix_time\": {},\n  \"results\": [\n{}\n  ],\n  \
         \"contention\": {{\n    \"n\": 8,\n    \
         \"functions\": {contention_count},\n    \
         \"chunk_size\": {CONTENTION_CHUNK},\n    \
         \"workload\": \"balanced random tables, chunk_size \
         {CONTENTION_CHUNK} so the ingest queue (not the kernel) is \
         the measured object; stealing = census-only streaming, deque \
         capacity 128, steal batch 16; mutex = the retired single \
         Mutex<Receiver> chunk queue, faithfully replicated; best of \
         {contention_reps} interleaved passes per cell; on a \
         single-hardware-thread runner the achievable speedup is \
         bounded by the kernel ceiling (queue contention needs \
         cores)\",\n    \
         \"results\": [\n{}\n    ]\n  }}\n}}\n",
        unix_time(),
        eng_rows,
        con_rows
    );
    let eng_path = format!("{out_dir}/BENCH_engine.json");
    std::fs::write(&eng_path, eng_json).expect("write BENCH_engine.json");
    println!("wrote {eng_path}");
}
