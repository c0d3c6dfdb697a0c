//! The in-process workloads: `distinct_n8` and `cuts_certified`.
//!
//! Each trial times [`SETUP_BUILDS`] engine builds for `setup_s`, then
//! builds a fresh `Engine`, submits the whole input through
//! `submit_batch` in batches of [`BATCH`] and calls `finish`. A pass
//! repeats trials until `--seconds` have gone by (and at least a
//! minimum number ran) and reports per-trial medians. The traced run
//! makes an untraced pass and a traced one over the same inputs, then
//! probes single layers on the workload's own tables.

use crate::host::{cpu_ticks, steal_since};
use crate::probes::{self, digest_keys, exact_replay, sig_probe};
use crate::report::{Metric, Report};
use crate::stats::{least_stolen_half, median};
use crate::trace::{Span, SpanLog};
use crate::{vm_hwm_mb, Ctx};
use facepoint_aig::{synthetic_suite, Extractor};
use facepoint_engine::{Engine, EngineConfig, EngineReport, EngineStats, Resolution};
use facepoint_truth::{NpnTransform, TruthTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// Functions per `submit_batch` call.
const BATCH: usize = 1024;
/// Functions per `distinct_n8` trial (about one second of engine work
/// on two cores).
const DISTINCT_FUNCTIONS: usize = 65_536;
/// Distinct tables the signature probe keys at most.
const SIG_PROBE_TABLES: usize = 16_384;
/// Engine builds timed for `setup_s` right before each trial. Build
/// times follow the host's load from one second to the next, so they
/// are sampled across the whole pass rather than in one burst.
const SETUP_BUILDS: usize = 64;

/// One engine trial's measurements. The `EngineReport` itself is
/// checked and dropped at once, so a trial's peak memory is its own.
struct Trial {
    /// [`SETUP_BUILDS`] build times taken right before the trial.
    setup_s: Vec<f64>,
    throughput: f64,
    /// The machine's CPU steal share while the trial streamed.
    steal: f64,
    stats: EngineStats,
    /// The process's peak resident set when the trial ended, in MB.
    peak_rss_mb: f64,
}

/// An in-memory engine built from `cfg`.
fn build(cfg: &EngineConfig) -> Engine {
    Engine::builder()
        .config(cfg.clone())
        .build()
        .expect("an in-memory engine always builds")
}

/// Times [`SETUP_BUILDS`] engine builds, each engine dropped (its
/// workers joined) before the next is built.
fn build_times(cfg: &EngineConfig) -> Vec<f64> {
    (0..SETUP_BUILDS)
        .map(|_| {
            let started = Instant::now();
            let engine = build(cfg);
            let build_s = started.elapsed().as_secs_f64();
            drop(engine);
            build_s
        })
        .collect()
}

/// Times [`SETUP_BUILDS`] builds of an engine, then builds one, streams
/// `input` through it and finishes it, inside a `bench.trial` span with
/// the engine calls as children.
fn trial(
    cfg: &EngineConfig,
    input: Vec<TruthTable>,
    log: &mut SpanLog,
    req: u64,
) -> (Trial, EngineReport) {
    let setup_s = build_times(cfg);
    let root = log.open();
    let parent = root.map(|r| r.0);
    let (mut engine, _) = log.span("engine.build", parent, req, |_| build(cfg));
    let functions = input.len();
    let mut input = input.into_iter();
    let ticks = cpu_ticks();
    let started = Instant::now();
    let mut batch_no = 0;
    while input.len() > 0 {
        let batch = input.by_ref().take(BATCH);
        log.span("engine.submit_batch", parent, batch_no, |_| {
            engine.submit_batch(batch)
        });
        batch_no += 1;
    }
    let (report, _) = log.span("engine.finish", parent, req, |_| engine.finish());
    let elapsed = started.elapsed().as_secs_f64();
    log.close(root, "bench.trial", None, req);
    let trial = Trial {
        setup_s,
        throughput: functions as f64 / elapsed,
        steal: steal_since(ticks),
        stats: report.stats.clone(),
        peak_rss_mb: vm_hwm_mb(None),
    };
    (trial, report)
}

/// Runs trials until `seconds` have passed and at least `min_trials`
/// ran. `input(i)` makes trial `i`'s input; `check` inspects its result.
fn pass(
    ctx: &Ctx,
    cfg: &EngineConfig,
    min_trials: usize,
    log: &mut SpanLog,
    mut input: impl FnMut(usize) -> Vec<TruthTable>,
    mut check: impl FnMut(usize, &EngineReport),
) -> Vec<Trial> {
    let started = Instant::now();
    let mut trials = Vec::new();
    while trials.len() < min_trials || started.elapsed().as_secs_f64() < ctx.pass_seconds() {
        let i = trials.len();
        let (t, report) = trial(cfg, input(i), log, i as u64);
        check(i, &report);
        trials.push(t);
    }
    trials
}

fn values<'a>(trials: impl IntoIterator<Item = &'a Trial>, f: impl Fn(&Trial) -> f64) -> Vec<f64> {
    trials.into_iter().map(f).collect()
}

/// One pass of trials; a traced pass records spans. The traced pass of
/// an untraced run runs no trials.
fn measure(
    ctx: &Ctx,
    cfg: &EngineConfig,
    min_trials: usize,
    traced: bool,
    input: impl FnMut(usize) -> Vec<TruthTable>,
    check: &mut impl FnMut(usize, &EngineReport),
) -> (Vec<Trial>, SpanLog) {
    let mut log = SpanLog::new(traced, Instant::now(), 1);
    if traced && !ctx.trace {
        return (Vec::new(), log);
    }
    let trials = pass(ctx, cfg, min_trials, &mut log, input, &mut *check);
    (trials, log)
}

/// Counts each trial's engine builds and `submit_batch` calls as
/// attempted operations (a failure among them would have panicked the
/// run, so none is counted as failed).
fn count_operations<'a>(report: &mut Report, trials: impl IntoIterator<Item = &'a Trial>) {
    report.attempted += trials
        .into_iter()
        .map(|t| t.stats.functions_submitted.div_ceil(BATCH as u64) + 1 + SETUP_BUILDS as u64)
        .sum::<u64>();
}

/// End-to-end metrics every in-process workload reports.
/// `throughput_fps` is the median over the less-stolen half of the
/// trials (see [`least_stolen_half`]). `setup_s` is the median of every
/// build timed before a trial. `peak_rss_mb` is the process's peak at
/// the end of its first trial: each later trial adds memory the
/// allocator keeps, so the peak after all of them grows with the number
/// of trials the host had time for.
fn end_to_end(report: &mut Report, trials: &[Trial]) {
    let throughput = values(trials, |t| t.throughput);
    let steal = values(trials, |t| t.steal);
    report.metrics.push(Metric::median(
        "throughput_fps",
        "1/s",
        least_stolen_half(&throughput, &steal),
    ));
    let builds = trials.iter().flat_map(|t| t.setup_s.iter().copied());
    report
        .metrics
        .push(Metric::median("setup_s", "s", builds.collect()));
    report
        .metrics
        .push(Metric::single("peak_rss_mb", "MB", trials[0].peak_rss_mb));
}

/// Per-layer metrics of the engine and signature layers, from a traced
/// pass, the untraced pass before it and a signature probe.
fn engine_layers(
    report: &mut Report,
    untraced: &[Trial],
    traced: &[Trial],
    spans: &[Span],
    sig: &probes::SigProbe,
    workers: usize,
) {
    let tput_untraced = median(&values(untraced, |t| t.throughput));
    let tput = median(&values(traced, |t| t.throughput));
    // Engine spans are children of their trial's `bench.trial` span.
    let trial_of: HashMap<u64, usize> = spans
        .iter()
        .filter(|s| s.name == "bench.trial")
        .map(|s| (s.id, s.request as usize))
        .collect();
    let per_trial = |name: &str| -> Vec<f64> {
        let mut sums = vec![0.0; traced.len()];
        for s in spans.iter().filter(|s| s.name == name) {
            if let Some(&i) = s.parent.and_then(|p| trial_of.get(&p)) {
                sums[i] += s.duration() as f64 / 1e9;
            }
        }
        sums
    };
    let per_kfn = |count: fn(&EngineStats) -> u64| -> Vec<f64> {
        values(traced, |t| {
            count(&t.stats) as f64 * 1e3 / t.stats.functions_processed.max(1) as f64
        })
    };
    let m = &mut report.metrics;
    m.push(Metric::median(
        "engine.submit_s",
        "s",
        per_trial("engine.submit_batch"),
    ));
    m.push(Metric::median(
        "engine.finish_s",
        "s",
        per_trial("engine.finish"),
    ));
    m.push(Metric::median(
        "engine.kernel_share",
        "ratio",
        values(traced, |t| {
            t.throughput * keyed_share(&t.stats) * sig.key_ns / (workers as f64 * 1e9)
        }),
    ));
    m.push(Metric::median(
        "engine.dedup_share",
        "ratio",
        values(traced, |t| {
            t.stats.dedup_hits as f64 / t.stats.functions_processed.max(1) as f64
        }),
    ));
    m.push(Metric::median(
        "engine.cache_hit_rate",
        "ratio",
        values(traced, |t| t.stats.cache_hit_rate()),
    ));
    m.push(Metric::median(
        "engine.steals_per_kfn",
        "count",
        per_kfn(|s| s.steals),
    ));
    m.push(Metric::median(
        "engine.parks_per_kfn",
        "count",
        per_kfn(|s| s.parks),
    ));
    m.push(Metric::single(
        "bench.trace_overhead",
        "ratio",
        tput / tput_untraced,
    ));
}

/// Share of functions the signature kernel keyed: the memo cache
/// counts one miss per computed key, whether or not it is enabled.
fn keyed_share(s: &EngineStats) -> f64 {
    s.cache_misses as f64 / s.functions_processed.max(1) as f64
}

/// `distinct_n8`: distinct balanced random 8-input tables through a
/// digest-mode, in-memory engine with the memo cache off.
pub fn distinct_n8(ctx: &Ctx) -> Report {
    let cfg = EngineConfig::builder().build();
    let workers = cfg.resolved_workers();
    let mut report = Report::default();
    let input = |i: usize| {
        facepoint_bench::balanced_workload(
            8,
            DISTINCT_FUNCTIONS,
            ctx.seed.wrapping_mul(1_000_003) + i as u64,
        )
    };
    let mut checks = Vec::new();
    let mut check = |i: usize, r: &EngineReport| {
        checks.push((
            i,
            r.classification.num_classes(),
            r.stats.functions_processed,
        ))
    };
    let (untraced, _) = measure(ctx, &cfg, 5, false, input, &mut check);
    let (traced, mut traced_log) = measure(ctx, &cfg, 5, true, input, &mut check);
    count_operations(&mut report, untraced.iter().chain(&traced));
    for (i, classes, functions) in checks {
        report.check(
            format!("trial {i}: classes == functions"),
            classes as u64 == functions && functions == DISTINCT_FUNCTIONS as u64,
            format!("{classes} classes, {functions} functions of {DISTINCT_FUNCTIONS}"),
        );
    }
    if ctx.trace {
        let probe_input = input(0);
        let tables: Vec<&TruthTable> = probe_input.iter().take(SIG_PROBE_TABLES).collect();
        let sig = sig_probe(&tables, &mut traced_log, None);
        sig.record(&mut report);
        let spans = traced_log.into_spans();
        engine_layers(&mut report, &untraced, &traced, &spans, &sig, workers);
        crate::finish_trace(ctx, &mut report, spans);
    } else {
        end_to_end(&mut report, &untraced);
    }
    report.host = crate::host::fingerprint(workers, ctx.seed);
    report
}

/// The `cuts_certified` input: every 4–8-input cut function of the
/// synthetic suite (per circuit, no cross-circuit dedup), each followed
/// by three random NPN echoes, shuffled. `group[i]` names the source
/// function of `stream[i]`.
pub struct CutStream {
    /// The submitted tables, in order.
    pub stream: Vec<TruthTable>,
    /// Source index per stream position.
    pub group: Vec<u32>,
}

/// Every cut function of the synthetic suite whose support is in
/// `supports`, extracted per circuit (deduplicated within a circuit,
/// not across circuits), by support, then circuit.
pub fn suite_cuts(supports: std::ops::RangeInclusive<usize>) -> Vec<TruthTable> {
    let suite = synthetic_suite();
    let mut out = Vec::new();
    for n in supports {
        let extractor = Extractor::for_support(n);
        for bench in &suite {
            out.extend(extractor.extract(&bench.aig));
        }
    }
    out
}

/// Builds the [`CutStream`] for `seed`.
pub fn cut_stream(seed: u64) -> CutStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(TruthTable, u32)> = Vec::new();
    for (source, f) in suite_cuts(4..=8).into_iter().enumerate() {
        let n = f.num_vars();
        for _ in 0..3 {
            pairs.push((NpnTransform::random(n, &mut rng).apply(&f), source as u32));
        }
        pairs.push((f, source as u32));
    }
    for i in (1..pairs.len()).rev() {
        let j = rng.random_range(0..=i);
        pairs.swap(i, j);
    }
    let (stream, group) = pairs.into_iter().unzip();
    CutStream { stream, group }
}

/// What one `cuts_certified` trial's result must satisfy.
fn certified_checks(
    i: usize,
    r: &EngineReport,
    cuts: &CutStream,
    out: &mut Vec<(String, bool, String)>,
) {
    let labels = r.classification.labels();
    let mut class_of: HashMap<u32, usize> = HashMap::new();
    let mut split = 0usize;
    for (&g, &label) in cuts.group.iter().zip(labels) {
        if *class_of.entry(g).or_insert(label) != label {
            split += 1;
        }
    }
    out.push((
        format!("trial {i}: every NPN echo gets its source's class"),
        labels.len() == cuts.stream.len() && split == 0,
        format!(
            "{split} echoes split from their source over {} labels",
            labels.len()
        ),
    ));
    let members: u64 = r.census.iter().map(|c| c.size as u64).sum();
    out.push((
        format!("trial {i}: census members == submitted"),
        members == cuts.stream.len() as u64,
        format!("{members} == {}", cuts.stream.len()),
    ));
}

/// `cuts_certified`: logic-synthesis cut traffic through a certified,
/// in-memory engine with the CLI's 64k memo cache.
pub fn cuts_certified(ctx: &Ctx) -> Report {
    let cfg = EngineConfig::builder()
        .cache_capacity(1 << 16)
        .resolution(Resolution::Certified)
        .build();
    let workers = cfg.resolved_workers();
    let cuts = cut_stream(ctx.seed);
    let mut report = Report::default();
    let mut checks = Vec::new();
    let mut classes = Vec::new();
    let input = |_: usize| cuts.stream.clone();
    let mut check = |i: usize, r: &EngineReport| {
        certified_checks(i, r, &cuts, &mut checks);
        classes.push(r.stats.num_classes);
    };
    let (untraced, _) = measure(ctx, &cfg, 3, false, input, &mut check);
    let (traced, mut traced_log) = measure(ctx, &cfg, 3, true, input, &mut check);
    count_operations(&mut report, untraced.iter().chain(&traced));
    let keys = digest_keys(&cuts.stream, workers);
    let digest_classes = keys
        .values()
        .collect::<std::collections::HashSet<_>>()
        .len();
    let certified = classes[0];
    for (name, ok, detail) in checks {
        report.check(name, ok, detail);
    }
    report.check(
        "certified classes agree across trials",
        classes.iter().all(|&c| c == certified),
        format!("{classes:?}"),
    );
    report.check(
        "certified classes >= digest classes",
        certified >= digest_classes,
        format!("{certified} >= {digest_classes}"),
    );
    if ctx.trace {
        let mut seen = std::collections::HashSet::new();
        let tables: Vec<&TruthTable> = cuts
            .stream
            .iter()
            .filter(|f| seen.insert(*f))
            .take(SIG_PROBE_TABLES)
            .collect();
        let sig = sig_probe(&tables, &mut traced_log, None);
        sig.record(&mut report);
        let exact = exact_replay(&cuts.stream, &keys, &mut traced_log, None);
        report.check(
            "exact replay finds the engine's classes",
            exact.walks + exact.fallbacks == certified as u64,
            format!(
                "{} walks + {} fallbacks, {certified} classes",
                exact.walks, exact.fallbacks
            ),
        );
        let spans = traced_log.into_spans();
        engine_layers(&mut report, &untraced, &traced, &spans, &sig, workers);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let walk_time: f64 = exact.walk_us.iter().sum();
        let match_time: f64 = exact.match_us.iter().sum();
        let stats = &traced[0].stats;
        let m = &mut report.metrics;
        m.push(Metric::single("exact.walk_us", "us", mean(&exact.walk_us)));
        m.push(Metric::single(
            "exact.match_us",
            "us",
            mean(&exact.match_us),
        ));
        m.push(Metric::single(
            "exact.walks",
            "count",
            stats.canon_walks as f64,
        ));
        m.push(Metric::single(
            "exact.matches",
            "count",
            stats.canon_matches as f64,
        ));
        m.push(Metric::single(
            "exact.fallbacks",
            "count",
            stats.canon_fallbacks as f64,
        ));
        m.push(Metric::single(
            "exact.match_share",
            "ratio",
            match_time / (walk_time + match_time),
        ));
        crate::finish_trace(ctx, &mut report, spans);
    } else {
        end_to_end(&mut report, &untraced);
        report.metrics.push(Metric::single(
            "accuracy",
            "ratio",
            digest_classes as f64 / certified as f64,
        ));
    }
    report.host = crate::host::fingerprint(workers, ctx.seed);
    report
}
