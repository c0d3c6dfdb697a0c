//! Single-thread probes of one layer at a time, run on a workload's
//! own tables in the traced run.

use crate::report::{Metric, Report};
use crate::trace::SpanLog;
use facepoint_core::SignatureKernel;
use facepoint_exact::BucketResolver;
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// The signature kernel on distinct tables: scalar `key` against the
/// bit-sliced `key_batch`.
#[derive(Debug, Clone, Copy)]
pub struct SigProbe {
    /// ns per function through `SignatureKernel::key`.
    pub key_ns: f64,
    /// ns per function through `SignatureKernel::key_batch`.
    pub key_batch_ns: f64,
    /// Tables keyed (per path).
    pub keys: u64,
    /// Whether both paths produced the same keys.
    pub agree: bool,
}

impl SigProbe {
    /// Adds the `sig.*` metrics and the path-agreement check to `report`.
    pub fn record(&self, report: &mut Report) {
        report.check(
            "sig: key_batch == key",
            self.agree,
            format!("{} tables", self.keys),
        );
        report.metrics.extend([
            Metric::single("sig.key_ns", "ns", self.key_ns),
            Metric::single("sig.key_batch_ns", "ns", self.key_batch_ns),
            Metric::single("sig.batch_ratio", "x", self.key_ns / self.key_batch_ns),
            Metric::single("sig.keys", "count", self.keys as f64),
        ]);
    }
}

/// Keys `tables` once per path, grouped by arity so the batch path
/// sees the same-arity runs its lanes need.
pub fn sig_probe(tables: &[&TruthTable], log: &mut SpanLog, parent: Option<u64>) -> SigProbe {
    let mut sorted: Vec<TruthTable> = tables.iter().map(|&t| t.clone()).collect();
    sorted.sort_by_key(TruthTable::num_vars);
    let mut kernel = SignatureKernel::new(SignatureSet::all());
    // One warm-up key so the scratch buffers are sized outside the timing.
    if let Some(f) = sorted.last() {
        black_box(kernel.key(f));
    }
    let started = Instant::now();
    let (scalar, _) = log.span("sig.key", parent, 0, |_| {
        sorted
            .iter()
            .map(|f| kernel.key(black_box(f)))
            .collect::<Vec<u128>>()
    });
    let scalar_ns = started.elapsed().as_nanos() as f64;
    let mut batched = Vec::with_capacity(sorted.len());
    let started = Instant::now();
    log.span("sig.key_batch", parent, 0, |_| {
        kernel.key_batch(black_box(&sorted), &mut batched)
    });
    let batch_ns = started.elapsed().as_nanos() as f64;
    let n = sorted.len().max(1) as f64;
    SigProbe {
        key_ns: scalar_ns / n,
        key_batch_ns: batch_ns / n,
        keys: sorted.len() as u64,
        agree: scalar == batched,
    }
}

/// The certified tier replayed on one thread: every first occurrence of
/// a table in stream order is resolved against one `BucketResolver`,
/// and each call is timed into the walk or the match side by its
/// `fresh` flag.
#[derive(Debug, Clone, Default)]
pub struct ExactProbe {
    /// µs per resolve that created a class (eager canonicalization).
    pub walk_us: Vec<f64>,
    /// µs per resolve that matched a cached representative.
    pub match_us: Vec<f64>,
    /// The resolver's own counters after the replay.
    pub walks: u64,
    /// See [`BucketResolver::matches`].
    pub matches: u64,
    /// See [`BucketResolver::fallbacks`].
    pub fallbacks: u64,
}

/// Replays `stream` through a fresh resolver; `keys` holds the digest
/// of every table in it.
pub fn exact_replay(
    stream: &[TruthTable],
    keys: &HashMap<&TruthTable, u128>,
    log: &mut SpanLog,
    parent: Option<u64>,
) -> ExactProbe {
    let resolver = BucketResolver::new();
    let mut seen: HashSet<&TruthTable> = HashSet::with_capacity(keys.len());
    let mut probe = ExactProbe::default();
    log.span("exact.replay", parent, 0, |_| {
        for f in stream {
            if !seen.insert(f) {
                continue;
            }
            let digest = keys[f];
            let started = Instant::now();
            let resolved = resolver.resolve(digest, black_box(f));
            let us = started.elapsed().as_secs_f64() * 1e6;
            if resolved.fresh {
                probe.walk_us.push(us);
            } else {
                probe.match_us.push(us);
            }
        }
    });
    probe.walks = resolver.walks();
    probe.matches = resolver.matches();
    probe.fallbacks = resolver.fallbacks();
    probe
}

/// Digest keys of the distinct tables of `stream`, computed on
/// `threads` threads.
pub fn digest_keys(stream: &[TruthTable], threads: usize) -> HashMap<&TruthTable, u128> {
    let distinct: Vec<&TruthTable> = {
        let mut seen = HashSet::with_capacity(stream.len());
        stream.iter().filter(|f| seen.insert(*f)).collect()
    };
    let per = distinct.len().div_ceil(threads.max(1)).max(1);
    let keyed: Vec<Vec<u128>> = std::thread::scope(|s| {
        let workers: Vec<_> = distinct
            .chunks(per)
            .map(|chunk| {
                s.spawn(move || {
                    let mut kernel = SignatureKernel::new(SignatureSet::all());
                    chunk.iter().map(|f| kernel.key(f)).collect::<Vec<u128>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("keying thread panicked"))
            .collect()
    });
    distinct
        .into_iter()
        .zip(keyed.into_iter().flatten())
        .collect()
}
