//! Cross-checks of the certified resolution tier against the exact
//! classifier: exhaustively over every function at small arity,
//! statistically above, across worker counts — plus the durable-store
//! roundtrip (recovered censuses prime the resolver, so nothing is
//! re-walked) and the cross-mode reopen refusal.

use facepoint_bench::{random_workload, transform_closure_workload};
use facepoint_engine::{certified_key, Engine, EngineConfig, EngineReport, Resolution};
use facepoint_exact::{certified_canonical, exact_classify, ClassLabels};
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use std::path::PathBuf;

fn certified_cfg(workers: usize) -> EngineConfig {
    EngineConfig::builder()
        .workers(workers)
        .chunk_size(16)
        // The memo cache would dedup repeated tables before resolution;
        // off, so every member exercises the walk-or-witness path.
        .cache_capacity(0)
        .certified()
        .build()
}

/// Streams `fns` through a certified engine and returns the report plus
/// the engine's labels normalized to first-occurrence order (the order
/// [`exact_classify`] reports).
fn certified_run(fns: &[TruthTable], workers: usize) -> (ClassLabels, EngineReport) {
    let mut engine = Engine::builder()
        .config(certified_cfg(workers))
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    let labels = ClassLabels::from_keys(report.classification.labels().iter().copied());
    (labels, report)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("facepoint-certified-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every function of up to three variables: the certified census is the
/// known class ladder (2, 4, 14) and the partition is exactly the
/// ground-truth classifier's, at one and at eight workers.
#[test]
fn exhaustive_small_arity_census_is_proved() {
    for (n, expected_classes) in [(1usize, 2usize), (2, 4), (3, 14)] {
        let fns: Vec<TruthTable> = (0..1u64 << (1usize << n))
            .map(|bits| TruthTable::from_u64(n, bits).unwrap())
            .collect();
        let expected = exact_classify(&fns);
        assert_eq!(
            expected.num_classes(),
            expected_classes,
            "oracle drifted at n={n}"
        );
        for workers in [1usize, 8] {
            let (labels, report) = certified_run(&fns, workers);
            assert_eq!(
                labels.labels(),
                expected.labels(),
                "n={n} workers={workers}"
            );
            assert_eq!(report.stats.num_classes, expected_classes);
            assert_eq!(report.stats.resolution, Resolution::Certified);
        }
    }
}

/// All 65 536 four-variable functions resolve to the paper's 222
/// classes, every stored key is the digest of its proved
/// representative, and the partition matches [`exact_classify`].
#[test]
fn exhaustive_n4_census_matches_exact_classifier() {
    let fns: Vec<TruthTable> = (0..1u64 << 16)
        .map(|bits| TruthTable::from_u64(4, bits).unwrap())
        .collect();
    let expected = exact_classify(&fns);
    assert_eq!(expected.num_classes(), 222, "oracle drifted at n=4");
    for workers in [1usize, 8] {
        let (labels, report) = certified_run(&fns, workers);
        assert_eq!(labels.labels(), expected.labels(), "workers={workers}");
        assert_eq!(report.stats.num_classes, 222);
        let mut members = 0u64;
        for class in &report.census {
            assert_eq!(
                certified_key(&class.representative),
                class.key,
                "stored key is not its representative's digest"
            );
            members += class.size as u64;
        }
        assert_eq!(members, fns.len() as u64);
    }
}

/// Statistical cross-check above exhaustive reach: planted equivalence
/// groups plus distinct random tables at n = 5..8, across 1, 2 and 8
/// workers, always equal to the exact classifier's partition.
#[test]
fn statistical_cross_check_matches_exact_classifier() {
    for n in 5..=8 {
        let mut fns = transform_closure_workload(n, 10, 5, 0x5EED ^ n as u64);
        fns.extend(random_workload(n, 60, 0xFACE ^ n as u64));
        let expected = exact_classify(&fns);
        for workers in [1usize, 2, 8] {
            let (labels, report) = certified_run(&fns, workers);
            assert_eq!(
                labels.labels(),
                expected.labels(),
                "n={n} workers={workers}"
            );
            assert_eq!(report.stats.num_classes, expected.num_classes());
            // The resolver accounted every member: one walk or fallback
            // per class, one witness match for everyone else.
            let stats = &report.stats;
            let class_count = expected.num_classes() as u64;
            let member_count = (fns.len() - expected.num_classes()) as u64;
            assert_eq!(
                stats.canon_walks + stats.canon_fallbacks,
                class_count,
                "n={n} workers={workers}"
            );
            assert_eq!(stats.canon_matches, member_count, "n={n} workers={workers}");
        }
    }
}

/// Workers racing on one fresh class: each class's members sit next to
/// each other in one-function chunks, so concurrent workers walk the
/// same class at once. Only the walk that inserts the class is counted
/// (the loser of the race is a match), so `walks + fallbacks` is the
/// class count at any worker count.
#[test]
fn racing_workers_count_each_class_creation_once() {
    let mut fns = transform_closure_workload(6, 12, 8, 0x2ACE);
    // Parity's phase variants: one class whose pruned walk blows its
    // budget, so the fallback counter races too.
    fns.extend((0..8).map(|v| TruthTable::parity(8).flip_var(v)));
    for workers in [2usize, 8] {
        let cfg = EngineConfig::builder()
            .workers(workers)
            .chunk_size(1)
            .cache_capacity(0)
            .certified()
            .build();
        let mut engine = Engine::builder().config(cfg).build().unwrap();
        engine.submit_batch(fns.iter().cloned());
        let stats = engine.finish().stats;
        assert_eq!(stats.num_classes, 13, "workers={workers}");
        assert_eq!(stats.canon_fallbacks, 1, "workers={workers}");
        assert_eq!(
            stats.canon_walks + stats.canon_fallbacks,
            stats.num_classes as u64,
            "workers={workers}"
        );
        assert_eq!(
            stats.canon_matches,
            (fns.len() - stats.num_classes) as u64,
            "workers={workers}"
        );
    }
}

/// [`Engine::canon`] answers every query with a witness that really
/// maps the query onto the returned representative, whose digest is
/// the returned key.
#[test]
fn canon_answers_carry_valid_witnesses() {
    let fns = transform_closure_workload(4, 6, 5, 0x0C41);
    let mut engine = Engine::builder().config(certified_cfg(2)).build().unwrap();
    engine.submit_batch(fns.iter().cloned());
    // Drain before querying so every class is in the store (flush
    // pushes the partial trailing chunk out of the submit buffer).
    engine.flush();
    while engine.snapshot().functions_processed < fns.len() as u64 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for f in &fns {
        let answer = engine.canon(f);
        assert_eq!(answer.witness.apply(f), answer.entry.representative);
        assert_eq!(
            certified_key(&answer.entry.representative),
            answer.entry.key
        );
        assert!(answer.entry.size >= 1, "class missing from the store");
    }
    engine.finish();
}

/// Durable certified roundtrip: the snapshot reports the certified
/// tier and the same census through the shared render path; reopening
/// primes the resolver from the stored representatives, so resubmitting
/// the identical stream performs zero canonicalization walks.
#[test]
fn certified_store_persists_and_primes_the_resolver() {
    let dir = scratch_dir("roundtrip");
    let fns = transform_closure_workload(5, 8, 6, 0xD1CE);
    let expected = exact_classify(&fns);

    let mut engine = Engine::builder()
        .config(certified_cfg(2))
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let first = engine.finish();
    assert_eq!(first.stats.num_classes, expected.num_classes());
    assert!(first.stats.canon_walks + first.stats.canon_fallbacks >= expected.num_classes() as u64);

    let snap = Engine::recover(&dir).expect("recover certified store");
    assert_eq!(snap.resolution, Resolution::Certified);
    assert_eq!(snap.set, SignatureSet::all());
    assert_eq!(snap.classes.len(), expected.num_classes());
    assert_eq!(snap.members(), fns.len() as u64);
    assert_eq!(
        snap.census_view().render_top(usize::MAX),
        first.census_view().render_top(usize::MAX),
        "snapshot and report disagree through the shared render path"
    );

    let mut engine = Engine::builder()
        .config(certified_cfg(2))
        .persist(&dir)
        .build()
        .unwrap();
    assert_eq!(engine.recovery().unwrap().members, fns.len() as u64);
    engine.submit_batch(fns.iter().cloned());
    let second = engine.finish();
    assert_eq!(
        second.stats.canon_walks, 0,
        "recovered classes were re-walked"
    );
    assert_eq!(second.stats.canon_fallbacks, 0);
    assert_eq!(second.stats.canon_matches, fns.len() as u64);
    assert_eq!(second.stats.num_classes, expected.num_classes());

    let cumulative = Engine::recover(&dir).expect("post-finish recover");
    assert_eq!(cumulative.members(), 2 * fns.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shipped configuration: `facepoint serve --certified` runs with
/// the memo cache **on**, so repeated tables take the dedup fast paths
/// (submit-time peek, the worker's per-entry cache probe, a
/// [`SubmitHandle`](facepoint_engine::SubmitHandle)'s batched hits) —
/// all of which insert *raw* member tables. With chunks of one table
/// and eight workers, duplicates routinely classify out of chunk
/// order, which once let such an insert steal the representative slot
/// on a lower seq (`seq < rep_seq`), replacing the proved canonical
/// table and — after a reopen primed the resolver with the raw table —
/// permanently splitting the class. Every stored representative must
/// satisfy `certified_key(rep) == key` and be its own canonical form,
/// after `finish` and after a durable reopen alike.
#[test]
fn dedup_cache_never_steals_certified_representatives() {
    fn cached_cfg() -> EngineConfig {
        EngineConfig::builder()
            .workers(8)
            // One table per chunk: maximal cross-worker reordering, so
            // lower-seq duplicates race higher-seq canonical inserts.
            .chunk_size(1)
            .cache_capacity(1 << 12)
            .certified()
            .build()
    }
    fn assert_proved(census: &[facepoint_engine::ClassSummary]) {
        for class in census {
            assert_eq!(
                certified_key(&class.representative),
                class.key,
                "stored key is not its representative's digest"
            );
            let (canon, _) = certified_canonical(&class.representative);
            assert_eq!(
                canon, class.representative,
                "stored representative is not canonical — a dedup insert stole the slot"
            );
        }
    }

    let dir = scratch_dir("dedup-cache");
    let base = transform_closure_workload(4, 6, 5, 0xCAFE);
    let expected = exact_classify(&base);
    // Duplicate-heavy stream: the same tables over and over, so later
    // rounds hit the cache while earlier chunks may still be queued.
    let mut fns = Vec::new();
    for _ in 0..8 {
        fns.extend(base.iter().cloned());
    }

    let mut engine = Engine::builder()
        .config(cached_cfg())
        .persist(&dir)
        .build()
        .unwrap();
    // Cross-handle duplicates exercise the handle's batched hit path.
    let mut handle = engine.submit_handle();
    engine.submit_batch(fns.iter().cloned());
    handle.submit_batch(base.iter().cloned()).unwrap();
    // The handle's `Arc`s keep the store — and its advisory file lock —
    // alive; release them before the reopen below.
    drop(handle);
    let first = engine.finish();
    assert_eq!(first.stats.num_classes, expected.num_classes());
    assert!(
        first.stats.cache_hits + first.stats.dedup_hits > 0,
        "no duplicate ever hit the cache — the fast paths went unexercised"
    );
    assert_proved(&first.census);

    // The reopened store primes resolver and cache from the stored
    // representatives; had a raw table been journaled as one, the
    // identical re-feed would split its class (and walk it again).
    let snap = Engine::recover(&dir).expect("recover certified store");
    for class in &snap.classes {
        assert_eq!(certified_key(&class.representative), class.key);
    }
    let mut engine = Engine::builder()
        .config(cached_cfg())
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let second = engine.finish();
    assert_eq!(
        second.stats.num_classes,
        expected.num_classes(),
        "reopen split a certified class"
    );
    assert_eq!(
        second.stats.canon_walks + second.stats.canon_fallbacks,
        0,
        "recovered classes were re-walked"
    );
    assert_proved(&second.census);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store journaled under one resolution refuses to reopen under the
/// other — certified keys are representative digests, digest keys are
/// signature digests, and silently mixing them would corrupt the
/// census.
#[test]
fn cross_mode_reopen_is_refused() {
    let digest_cfg = EngineConfig::builder().workers(1).build();
    for (first, second) in [
        (digest_cfg.clone(), certified_cfg(1)),
        (certified_cfg(1), digest_cfg),
    ] {
        let dir = scratch_dir(if first.resolution == Resolution::Digest {
            "digest-first"
        } else {
            "certified-first"
        });
        let mut engine = Engine::builder()
            .config(first)
            .persist(&dir)
            .build()
            .unwrap();
        engine.submit(TruthTable::majority(3));
        engine.finish();
        let err = match Engine::builder().config(second).persist(&dir).build() {
            Ok(_) => panic!("cross-mode reopen must be refused"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
