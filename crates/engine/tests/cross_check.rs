//! The engine's correctness contract: whatever the worker count, the
//! partition is *identical* to the one-shot `Classifier` on the same
//! stream — same labels, same class count, same class sizes.

use facepoint_bench::transform_closure_workload as workload;
use facepoint_core::{signature_key, Classifier};
use facepoint_engine::{Engine, EngineConfig};
use facepoint_sig::SignatureSet;
use facepoint_truth::{NpnTransform, TruthTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

fn engine_with(workers: usize, set: SignatureSet, chunk_size: usize) -> Engine {
    Engine::builder()
        .config(EngineConfig {
            set,
            workers,
            chunk_size,
            ..EngineConfig::default()
        })
        .build()
        .unwrap()
}

/// The acceptance-scale cross-check: ≥ 10k random tables spanning
/// 3 ≤ n ≤ 6, classified by the engine with 1, 2 and 8 workers, must
/// reproduce `Classifier::classify` exactly.
#[test]
fn ten_thousand_tables_all_worker_counts() {
    let mut fns = Vec::new();
    for n in 3..=6usize {
        fns.extend(workload(n, 13, 50, n as u64 * 0x9E37));
        // Plus fully-random singletons so not everything has a twin.
        let mut rng = StdRng::seed_from_u64(n as u64 * 0x51ED);
        for _ in 0..1950 {
            fns.push(TruthTable::random(n, &mut rng).unwrap());
        }
    }
    assert!(fns.len() >= 10_000, "workload holds {} tables", fns.len());
    let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
    for workers in [1usize, 2, 8] {
        let mut engine = engine_with(workers, SignatureSet::all(), 128);
        engine.submit_batch(fns.iter().cloned());
        let report = engine.finish();
        assert_eq!(
            report.classification.labels(),
            expected.labels(),
            "labels diverge at {workers} workers"
        );
        assert_eq!(report.classification.num_classes(), expected.num_classes());
        assert_eq!(report.stats.functions_processed, fns.len() as u64);
    }
}

/// Every Table II signature-set preset, cross-checked at 1, 2 and 8
/// workers on a smaller mixed-arity stream.
#[test]
fn all_signature_presets_match() {
    let mut fns = Vec::new();
    for n in 3..=6usize {
        fns.extend(workload(n, 6, 5, n as u64 * 31 + 7));
    }
    for (name, set) in SignatureSet::table2_columns() {
        let expected = Classifier::new(set).classify(fns.clone());
        for workers in [1usize, 2, 8] {
            let mut engine = engine_with(workers, set, 17);
            engine.submit_batch(fns.iter().cloned());
            let got = engine.finish().classification;
            assert_eq!(
                got.labels(),
                expected.labels(),
                "preset {name} diverges at {workers} workers"
            );
            assert_eq!(got.num_classes(), expected.num_classes(), "preset {name}");
        }
    }
}

/// Class sizes and representatives stay coherent under concurrency:
/// sizes sum to the stream length and each representative belongs to
/// the class it fronts.
#[test]
fn classes_stay_coherent_under_concurrency() {
    let fns = workload(5, 20, 12, 0xC0FFEE);
    let mut engine = engine_with(8, SignatureSet::all(), 9);
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    let c = &report.classification;
    let total: usize = c.classes().iter().map(|k| k.size()).sum();
    assert_eq!(total, fns.len());
    for class in c.classes() {
        let rep_key = signature_key(class.representative(), SignatureSet::all());
        // Find one member of the class and compare keys.
        let member_idx = c
            .labels()
            .iter()
            .position(|&l| l == class.id())
            .expect("non-empty class");
        let member_key = signature_key(&fns[member_idx], SignatureSet::all());
        assert_eq!(rep_key, member_key, "class {}", class.id());
    }
}

/// Streaming in several waves — with snapshots taken in between — ends
/// at the same partition as one-shot classification of the whole
/// stream.
#[test]
fn interleaved_waves_and_snapshots() {
    let waves: Vec<Vec<TruthTable>> = (0..4)
        .map(|w| workload(4 + (w as usize % 2), 8, 4, 0xABC + w))
        .collect();
    let all: Vec<TruthTable> = waves.iter().flatten().cloned().collect();
    let expected = Classifier::new(SignatureSet::all()).classify(all.clone());

    let mut engine = engine_with(4, SignatureSet::all(), 16);
    let mut seen_classes = 0usize;
    for wave in waves {
        engine.submit_batch(wave);
        engine.flush();
        let snap = engine.snapshot();
        // Classes only ever accumulate, and the snapshot stays sane.
        assert!(snap.num_classes >= seen_classes);
        seen_classes = snap.num_classes;
        assert!(snap.functions_processed <= snap.functions_submitted);
        assert_eq!(
            snap.shard_class_counts.iter().sum::<usize>(),
            snap.num_classes
        );
    }
    let report = engine.finish();
    assert_eq!(report.classification.labels(), expected.labels());
    assert_eq!(report.stats.functions_submitted, all.len() as u64);
}

/// The ingestion-side dedup fast path must be invisible in the result:
/// with a warm cache, repeated functions skip the queue (counted in
/// `dedup_hits`) yet the partition stays identical to the one-shot
/// classifier at every worker count.
#[test]
fn dedup_fast_path_is_transparent_across_worker_counts() {
    let base = workload(5, 9, 4, 0xD0D0);
    let mut fns = base.clone();
    fns.extend(base.iter().cloned());
    fns.extend(base.iter().cloned());
    let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
    for workers in [1usize, 2, 8] {
        let mut engine = Engine::builder()
            .config(EngineConfig {
                set: SignatureSet::all(),
                workers,
                chunk_size: 8,
                cache_capacity: 4096,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        // Warm the cache with the first copy of the stream, draining it
        // fully so every repeat can take the fast path.
        engine.submit_batch(base.iter().cloned());
        engine.flush();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.snapshot().functions_processed < base.len() as u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "engine failed to drain"
            );
            std::thread::yield_now();
        }
        // Both repeats now resolve at ingestion.
        engine.submit_batch(base.iter().cloned());
        engine.submit_batch(base.iter().cloned());
        let report = engine.finish();
        assert_eq!(
            report.classification.labels(),
            expected.labels(),
            "labels diverge at {workers} workers with dedup enabled"
        );
        assert_eq!(
            report.stats.dedup_hits,
            2 * base.len() as u64,
            "every repeat takes the fast path at {workers} workers"
        );
        assert_eq!(report.stats.functions_processed, fns.len() as u64);
    }
}

/// Regression: a fast-path hit interleaved with *buffered* (not yet
/// dispatched) functions must not shift their sequence numbers — the
/// buffered chunk's seqs are non-contiguous in that case.
#[test]
fn dedup_interleaved_with_pending_buffer_keeps_submission_order() {
    let known = workload(4, 3, 1, 0x1AB);
    let fresh = workload(4, 6, 1, 0x2CD);
    // Stream: warm-up (known), then alternate fresh (buffered) and
    // known (fast path) without draining in between.
    let mut stream: Vec<TruthTable> = known.clone();
    for (f, k) in fresh.iter().zip(known.iter().cycle()) {
        stream.push(f.clone());
        stream.push(k.clone());
    }
    let expected = Classifier::new(SignatureSet::all()).classify(stream.clone());
    let mut engine = Engine::builder()
        .config(EngineConfig {
            set: SignatureSet::all(),
            workers: 2,
            chunk_size: 64, // larger than the stream: everything stays buffered
            cache_capacity: 1024,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    engine.submit_batch(known.iter().cloned());
    engine.flush();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.snapshot().functions_processed < known.len() as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "engine failed to drain"
        );
        std::thread::yield_now();
    }
    for (f, k) in fresh.iter().zip(known.iter().cycle()) {
        engine.submit(f.clone()); // buffered, queue-bound
        engine.submit(k.clone()); // cache hit, fast path
    }
    let report = engine.finish();
    assert!(report.stats.dedup_hits >= fresh.len() as u64);
    assert_eq!(
        report.classification.labels(),
        expected.labels(),
        "interleaved fast-path hits must not reorder buffered functions"
    );
}

/// The memo cache must be transparent: same partition with and without
/// it, and repeat traffic must actually hit. The first copy is drained
/// before the repeat goes in, so every repeated table finds its key
/// already cached whatever the worker interleaving.
#[test]
fn cache_is_transparent_and_hits() {
    let base = workload(5, 10, 3, 77);
    // Repeat the stream so the cache has something to win on.
    let mut fns = base.clone();
    fns.extend(base.iter().cloned());
    let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
    let mut cached = Engine::builder()
        .config(EngineConfig {
            workers: 4,
            cache_capacity: 4096,
            chunk_size: 8,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    cached.submit_batch(base.iter().cloned());
    assert!(
        cached.drain(Duration::from_secs(60)),
        "first copy did not drain"
    );
    cached.submit_batch(base.iter().cloned());
    let report = cached.finish();
    assert_eq!(report.classification.labels(), expected.labels());
    assert!(
        report.stats.cache_hits >= base.len() as u64,
        "expected heavy cache traffic, saw {}",
        report.stats
    );
}

/// A shuffled mixed-arity cut stream: 4..=8-input sources, random NPN
/// echoes of each, and exact repeats of earlier entries. Returns the
/// stream and, per entry, the index of the source it was derived from.
fn mixed_cut_stream(seed: u64) -> (Vec<TruthTable>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fns = Vec::new();
    let mut source_of = Vec::new();
    for n in 4..=8usize {
        for _ in 0..16 {
            let src = TruthTable::random(n, &mut rng).unwrap();
            let id = source_of.len();
            for _ in 0..3 {
                fns.push(NpnTransform::random(n, &mut rng).apply(&src));
                source_of.push(id);
            }
            fns.push(src);
            source_of.push(id);
        }
    }
    for _ in 0..200 {
        let i = rng.random_range(0..fns.len());
        fns.push(fns[i].clone());
        source_of.push(source_of[i]);
    }
    for i in (1..fns.len()).rev() {
        let j = rng.random_range(0..=i);
        fns.swap(i, j);
        source_of.swap(i, j);
    }
    (fns, source_of)
}

/// Regression for the single-pass miss path: chunks of 256 mixed-arity
/// functions with repeats inside a chunk, keyed one miss at a time.
/// Digest mode must equal the one-shot classifier with every stored
/// key a `signature_key`, and count each function once as a cache hit
/// or miss — a repeat inside the first chunk (which no submit-side
/// dedup can catch) is a worker cache hit. Certified mode must create
/// each class exactly once and never split an echo from its source.
#[test]
fn single_pass_miss_path_on_mixed_arity_chunks() {
    let (fns, source_of) = mixed_cut_stream(0xC0751);
    let total = fns.len() as u64;
    let first_chunk = &fns[..256];
    let in_chunk_repeats = first_chunk.len()
        - first_chunk
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
    assert!(
        in_chunk_repeats > 0,
        "the stream must repeat inside a chunk"
    );
    let cfg = |certified: bool| {
        let builder = EngineConfig::builder()
            .workers(2)
            .chunk_size(256)
            .cache_capacity(1 << 16);
        if certified {
            builder.certified().build()
        } else {
            builder.build()
        }
    };

    let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
    let mut engine = Engine::builder().config(cfg(false)).build().unwrap();
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    assert_eq!(report.classification.labels(), expected.labels());
    let classes = report.classification.classes();
    for (f, &label) in fns.iter().zip(report.classification.labels()) {
        let key = signature_key(f, SignatureSet::all());
        assert_eq!(
            key,
            signature_key(classes[label].representative(), SignatureSet::all())
        );
    }
    for class in &report.census {
        assert_eq!(
            class.key,
            signature_key(&class.representative, SignatureSet::all())
        );
    }
    let stats = &report.stats;
    assert_eq!(stats.functions_processed, total);
    assert_eq!(stats.cache_hits + stats.cache_misses, total, "{stats}");
    assert!(
        stats.cache_hits - stats.dedup_hits >= in_chunk_repeats as u64,
        "in-chunk repeats must hit the cache: {stats}"
    );

    let mut engine = Engine::builder().config(cfg(true)).build().unwrap();
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    let stats = &report.stats;
    assert_eq!(stats.functions_processed, total);
    assert_eq!(stats.cache_hits + stats.cache_misses, total, "{stats}");
    assert_eq!(
        stats.canon_walks + stats.canon_fallbacks,
        stats.num_classes as u64,
        "{stats}"
    );
    let labels = report.classification.labels();
    let mut label_of_source = vec![usize::MAX; source_of.iter().max().unwrap() + 1];
    for (&src, &label) in source_of.iter().zip(labels) {
        if label_of_source[src] == usize::MAX {
            label_of_source[src] = label;
        }
        assert_eq!(label_of_source[src], label, "an echo split from its source");
    }
}
