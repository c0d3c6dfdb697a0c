//! The engine proper: ingestion, the work-stealing worker pool, and
//! result assembly.

use crate::cache::MemoCache;
use crate::config::{EngineConfig, PersistConfig, Resolution};
use crate::pool::{PoolConfig, StealPool};
use crate::stats::{EngineSnapshot, EngineStats, RecoveryReport};
use crate::store::{self, ClassSummary, ShardedStore, StoreTelemetry};
use facepoint_core::{
    fnv128, signature_key, CensusEntry, CensusView, Classification, NpnClass, SignatureKernel,
};
use facepoint_exact::{certified_canonical, npn_match, BucketResolver};
use facepoint_sig::SignatureSet;
use facepoint_telemetry::{LatencyHistogram, Registry};
use facepoint_truth::{NpnTransform, TruthTable};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A chunk of work: each entry carries its own submission number.
/// Explicit numbering (rather than a base + offset) is required because
/// the dedup fast path consumes submission numbers without entering the
/// buffer, leaving buffered chunks with non-contiguous sequences.
struct Job {
    entries: Vec<(u64, TruthTable)>,
    /// When the chunk started accumulating — the earliest submission
    /// it carries. The `engine_chunk_classify_nanos` histogram records
    /// `submitted_at → classified` per chunk, so queue wait (and any
    /// time a partial chunk sat buffered) is part of the latency, not
    /// hidden from it.
    submitted_at: Instant,
}

/// The store key of a certified class: the FNV-128 digest of its
/// canonical representative's serialized form (arity word followed by
/// the table words). Purely a function of the proved representative,
/// so any process — recovery included — recomputes the same key from
/// the stored table.
pub fn certified_key(representative: &TruthTable) -> u128 {
    let words = representative.words();
    let mut data = Vec::with_capacity(1 + words.len());
    data.push(representative.num_vars() as u64);
    data.extend_from_slice(words);
    fnv128(&data)
}

/// The worker-side state of [`Resolution::Certified`]: the shared
/// bucket resolver plus its latency instruments. `None` everywhere in
/// digest mode.
struct CertifiedResolve {
    resolver: Arc<BucketResolver>,
    /// Resolves that created a class (the eager walk).
    walk_nanos: Arc<LatencyHistogram>,
    /// Resolves that matched a cached representative (the witness
    /// search), including a walk that lost an insertion race.
    match_nanos: Arc<LatencyHistogram>,
}

impl CertifiedResolve {
    /// Resolves one keyed miss to its certified class: digest bucket →
    /// proved representative → store key.
    fn resolve(&self, digest: u128, table: &TruthTable) -> (u128, TruthTable) {
        let started = Instant::now();
        let resolved = self.resolver.resolve(digest, table);
        let nanos = if resolved.fresh {
            &self.walk_nanos
        } else {
            &self.match_nanos
        };
        nanos.record_duration(started.elapsed());
        (
            certified_key(&resolved.representative),
            resolved.representative,
        )
    }
}

/// What [`Engine::canon`] answers: the proved class entry plus the
/// witness transform mapping the queried function onto the
/// representative.
#[derive(Debug, Clone)]
pub struct CanonAnswer {
    /// The certified class: key (FNV-128 of the representative), the
    /// member count observed so far (`0` unless the engine runs
    /// [`Resolution::Certified`] and has seen the class), and the
    /// proved canonical representative.
    pub entry: CensusEntry,
    /// Transform `t` with `t.apply(query) == entry.representative`.
    pub witness: NpnTransform,
}

/// A read-only canonicalization endpoint detached from the [`Engine`]
/// object — see [`Engine::canon_handle`]. Cloneable; every clone keeps
/// the underlying store and resolver alive.
#[derive(Clone)]
pub struct CanonHandle {
    store: Arc<ShardedStore>,
    certified: Option<Arc<CertifiedResolve>>,
    set: SignatureSet,
}

impl CanonHandle {
    /// Answers exactly like [`Engine::canon`], without touching the
    /// engine object: resolver-cached classes come back with their
    /// store key and member count, everything else is canonicalized on
    /// the calling thread.
    pub fn canon(&self, f: &TruthTable) -> CanonAnswer {
        answer_canon(&self.store, self.certified.as_deref(), self.set, f)
    }
}

/// The one `canon` code path, shared by [`Engine::canon`] and
/// [`CanonHandle::canon`]: try the resolver's cached representative
/// (certified engines only), fall back to canonicalizing `f` on the
/// spot. Read-only — it never creates a class, counts a member or
/// touches the stream.
fn answer_canon(
    store: &ShardedStore,
    certified: Option<&CertifiedResolve>,
    set: SignatureSet,
    f: &TruthTable,
) -> CanonAnswer {
    if let Some(tier) = certified {
        let digest = signature_key(f, set);
        if let Some((representative, witness)) = tier.resolver.witness(digest, f) {
            let key = certified_key(&representative);
            let size = store.get(key).map_or(0, |(_, size)| size as u64);
            return CanonAnswer {
                entry: CensusEntry {
                    key,
                    size,
                    representative,
                },
                witness,
            };
        }
    }
    let (representative, _) = certified_canonical(f);
    let witness = npn_match(f, &representative).expect("a canonical form is in its own orbit");
    let key = certified_key(&representative);
    let size = if certified.is_some() {
        store.get(key).map_or(0, |(_, size)| size as u64)
    } else {
        0
    };
    CanonAnswer {
        entry: CensusEntry {
            key,
            size,
            representative,
        },
        witness,
    }
}

/// The streaming replacement for the old per-worker `(seq, key)` log.
///
/// Workers used to accumulate every submission into a worker-local
/// `Vec` that was only collected at [`Engine::finish`] — memory grew
/// linearly with stream length, unbounded for streams larger than RAM
/// and flatly contradicting the streaming design. Now every chunk is
/// **applied as soon as it is classified**: under one short lock the
/// sink interns the chunk's keys into dense `u32` class ids and writes
/// them into a submission-indexed label array. Steady-state cost drops
/// from 24 bytes per function (`(u64, u128)` pairs) to 4, and with
/// [`EngineConfig::track_labels`] off the sink is disabled entirely —
/// the census lives in the sharded store alone and engine memory stays
/// **flat** however long the stream runs (enforced by the
/// counting-allocator regression test in `tests/memory.rs`).
#[derive(Debug)]
struct OrderSink {
    enabled: bool,
    /// First submission number of this run; labels are indexed by
    /// `seq - base`.
    base: u64,
    inner: Mutex<OrderState>,
}

#[derive(Debug, Default)]
struct OrderState {
    /// Set by [`OrderSink::seal`]; late appliers (a `SubmitHandle`
    /// racing `finish`) become no-ops instead of corrupting the result.
    sealed: bool,
    /// key → dense internal id, in first-applied order (remapped to
    /// first-*submitted* order when the result is assembled).
    ids: HashMap<u128, u32>,
    /// internal id → key.
    keys: Vec<u128>,
    /// `seq - base` → internal id (`u32::MAX` = not yet applied).
    labels: Vec<u32>,
}

impl OrderSink {
    fn new(enabled: bool, base: u64) -> Self {
        OrderSink {
            enabled,
            base,
            inner: Mutex::new(OrderState::default()),
        }
    }

    /// Records a classified chunk. One lock per chunk, not per
    /// function; cheap enough that workers apply in their own loop.
    // analysis: no_alloc
    fn apply(&self, entries: &[(u64, u128)]) {
        if !self.enabled || entries.is_empty() {
            return;
        }
        let mut state = self.inner.lock().expect("order sink poisoned");
        if state.sealed {
            return;
        }
        let OrderState {
            ids, keys, labels, ..
        } = &mut *state;
        for &(seq, key) in entries {
            let id = *ids.entry(key).or_insert_with(|| {
                let id = u32::try_from(keys.len()).expect("more than u32::MAX classes");
                // analysis: allow(no-alloc, "interns a NEW class id; grows with distinct classes, not stream length (the flat-memory test pins this)")
                keys.push(key);
                id
            });
            let idx = (seq - self.base) as usize;
            if labels.len() <= idx {
                labels.resize(idx + 1, u32::MAX);
            }
            labels[idx] = id;
        }
    }

    /// Takes the accumulated state and marks the sink sealed: anything
    /// applied afterwards is dropped.
    fn seal(&self) -> OrderState {
        let mut state = self.inner.lock().expect("order sink poisoned");
        let taken = std::mem::take(&mut *state);
        state.sealed = true;
        taken
    }
}

/// The sharded, parallel, streaming NPN classification engine.
///
/// See the [crate docs](crate) for the architecture. Lifecycle:
///
/// 1. create ([`Engine::new`] / [`Engine::builder`]) — workers
///    start idle;
/// 2. feed it ([`Engine::submit`], [`Engine::submit_batch`], or
///    concurrently through [`SubmitHandle`]s) — keys are computed and
///    classes recorded concurrently with ingestion;
/// 3. observe mid-stream ([`Engine::snapshot`], [`Engine::top_classes`])
///    — no pause, no drain;
/// 4. [`Engine::finish`] — drains the queue, joins the workers and
///    returns the input-ordered [`Classification`] plus [`EngineStats`].
///
/// Dropping an unfinished engine shuts the workers down without
/// assembling a result.
pub struct Engine {
    cfg: EngineConfig,
    workers: usize,
    shards: usize,
    store: Arc<ShardedStore>,
    cache: Arc<MemoCache>,
    processed: Arc<AtomicU64>,
    pool: Arc<StealPool<Job>>,
    order: Arc<OrderSink>,
    handles: Vec<JoinHandle<()>>,
    /// Chunk being accumulated by `submit` calls, with each function's
    /// submission number (dedup fast-path hits leave gaps).
    pending: Vec<(u64, TruthTable)>,
    /// Next submission number — shared with every [`SubmitHandle`], so
    /// submission order is the global allocation order of this counter.
    next_seq: Arc<AtomicU64>,
    /// Functions that skipped the queue via the dedup fast path
    /// (engine-side and handle-side).
    dedup_hits: Arc<AtomicU64>,
    /// In-flight [`SubmitHandle`] calls; [`Engine::finish`] waits for
    /// zero after closing the pool so a call that passed the open check
    /// completes — and lands in the result — before assembly starts.
    handle_ops: Arc<AtomicU64>,
    /// First submission number of *this run*: `0` for a fresh engine,
    /// the recovered member count after [`Engine::open`] — so
    /// resubmitted members never outrank a recovered representative.
    base_seq: u64,
    /// What recovery found when the engine was [`Engine::open`]ed over
    /// existing state.
    recovery: Option<RecoveryReport>,
    /// Epoch barriers issued so far (see [`Engine::flush`]).
    epoch: u64,
    started: Instant,
    /// The metrics registry behind [`Engine::telemetry`]: every
    /// instrument of this engine (and, through `facepoint serve`, of
    /// the service wrapping it) lives here.
    telemetry: Arc<Registry>,
    /// Submit→classified chunk latency; threaded to the workers and
    /// every inline-classification fallback.
    chunk_latency: Arc<LatencyHistogram>,
    /// When `pending` went empty→non-empty — the `submitted_at` of the
    /// chunk it will become. Meaningless while `pending` is empty.
    pending_since: Instant,
    /// The certified bucket resolver. Constructed in every mode so the
    /// telemetry schema (`engine_canon_*`) is stable across modes; only
    /// [`Resolution::Certified`] routes classifications through it.
    resolver: Arc<BucketResolver>,
    /// Worker-side certified-resolution context; `None` in digest mode.
    certified: Option<Arc<CertifiedResolve>>,
}

/// A read-only view of a durable store's contents, produced by
/// [`Engine::recover`] without starting any workers or modifying a
/// byte on disk.
#[derive(Debug, Clone)]
pub struct RecoveredSnapshot {
    /// Signature set the store's keys were computed under (from the
    /// manifest).
    pub set: SignatureSet,
    /// Resolution tier the store was built under (from the manifest's
    /// key-scheme marker): certified stores key classes by their proved
    /// representative, digest stores by the signature digest.
    pub resolution: Resolution,
    /// Every recovered class, largest first (ties broken by key).
    pub classes: Vec<ClassSummary>,
    /// Replay accounting: classes, members, torn tails, epochs.
    pub report: RecoveryReport,
}

impl RecoveredSnapshot {
    /// Total members across all recovered classes.
    pub fn members(&self) -> u64 {
        self.report.members
    }

    /// The recovered census as the shared render path (largest class
    /// first; same ordering and line format as every other census
    /// consumer).
    pub fn census_view(&self) -> CensusView {
        CensusView::new(
            self.classes
                .iter()
                .map(|c| CensusEntry {
                    key: c.key,
                    size: c.size as u64,
                    representative: c.representative.clone(),
                })
                .collect(),
        )
    }
}

/// What [`Engine::finish`] returns.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The partition, identical to what a one-shot
    /// [`Classifier`](facepoint_core::Classifier) on the same stream
    /// (in submission order) would produce.
    ///
    /// Empty for a census-only engine
    /// ([`EngineConfig::track_labels`]` == false`): per-submission
    /// labels were never recorded, so the stream's census is reported
    /// through [`EngineReport::census`] (and
    /// [`EngineStats::num_classes`]) instead.
    pub classification: Classification,
    /// Throughput and occupancy counters for the run.
    pub stats: EngineStats,
    /// The final classes, largest first, straight from the partition
    /// store — always populated, and for a durable engine cumulative
    /// across runs (recovered members included). For a census-only
    /// engine ([`EngineConfig::track_labels`]` == false`) this is the
    /// *entire* result, since `classification` is empty by design.
    pub census: Vec<ClassSummary>,
}

impl EngineReport {
    /// The final census as the shared render path (largest class
    /// first; same ordering and line format as every other census
    /// consumer).
    pub fn census_view(&self) -> CensusView {
        CensusView::new(
            self.census
                .iter()
                .map(|c| CensusEntry {
                    key: c.key,
                    size: c.size as u64,
                    representative: c.representative.clone(),
                })
                .collect(),
        )
    }
}

/// An ingestion endpoint detached from the [`Engine`]'s `&mut` API:
/// many handles submit **concurrently** — from different threads —
/// into the same work-stealing pool, while the engine object stays
/// free for observation calls (`snapshot`, `stats`, `top_classes`).
///
/// This is the service front-end's fairness primitive: one connection
/// streaming a huge batch pushes through its own handle (blocking on
/// pool backpressure, not on a shared engine lock), so other
/// connections' snapshot/stats requests are never queued behind it.
///
/// Submission numbers are allocated from the engine's shared counter,
/// so handle and engine submissions interleave into one global
/// submission order. Handles buffer nothing between calls: every
/// `submit`/`submit_batch` call is fully dispatched before it returns,
/// which keeps [`Engine::drain`]'s quiescence contract intact.
///
/// A handle may outlive its engine's [`Engine::finish`]; submissions
/// that lose that race are refused (`None`) **before a submission
/// number is consumed**, and `finish` waits for handle calls already
/// past that check — so every submission a handle accepts is in the
/// finished result, and every refused one left no trace. A batch *in
/// flight* when the pool closes is classified inline on the
/// submitting thread.
pub struct SubmitHandle {
    pool: Arc<StealPool<Job>>,
    store: Arc<ShardedStore>,
    cache: Arc<MemoCache>,
    order: Arc<OrderSink>,
    processed: Arc<AtomicU64>,
    next_seq: Arc<AtomicU64>,
    dedup_hits: Arc<AtomicU64>,
    /// In-flight handle calls, shared with the engine: incremented
    /// *before* the closed check, so [`Engine::finish`] (which waits
    /// for zero after closing the pool) either sees this call's count
    /// or this call sees the closed pool — never neither.
    handle_ops: Arc<AtomicU64>,
    chunk_size: usize,
    set: SignatureSet,
    /// Kernel for the close-race inline path; built on first use.
    fallback: Option<Box<SignatureKernel>>,
    log_scratch: Vec<(u64, u128)>,
    chunk_latency: Arc<LatencyHistogram>,
    /// Certified-resolution context for the inline path; `None` in
    /// digest mode.
    certified: Option<Arc<CertifiedResolve>>,
}

/// One buffered [`SubmitHandle::submit_batch`] entry, held *without* a
/// submission number until its chunk is flushed (see `flush_batch`).
enum BatchEntry {
    /// The memo cache already knows this table's key.
    Hit(u128, TruthTable),
    /// Needs keying by a worker.
    Miss(TruthTable),
}

/// Decrements the in-flight handle-call count on every exit path.
/// Owns its counter (an `Arc` clone) so holding it does not borrow the
/// handle, which keeps mutating the handle's own state underneath.
struct OpGuard(Arc<AtomicU64>);

impl Drop for OpGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl SubmitHandle {
    /// Registers an in-flight call, or refuses it (`None`) when the
    /// engine is finishing. Order matters: the count goes up *before*
    /// the closed check (see [`SubmitHandle::handle_ops`]).
    fn begin_op(&self) -> Option<OpGuard> {
        self.handle_ops.fetch_add(1, Ordering::SeqCst);
        let guard = OpGuard(Arc::clone(&self.handle_ops));
        if self.pool.is_closed() {
            return None; // guard drop undoes the increment
        }
        Some(guard)
    }

    /// Submits one function; returns its submission number, or `None`
    /// if the engine has already been finished (the submission is
    /// refused before a number is consumed).
    ///
    /// Repeated functions take the same dedup fast path as
    /// [`Engine::submit`] when the memo cache is enabled.
    pub fn submit(&mut self, f: TruthTable) -> Option<u64> {
        let _op = self.begin_op()?;
        let seq = self.next_seq.fetch_add(1, Ordering::AcqRel);
        if let Some(key) = self.cache.peek(&f) {
            self.store.insert(key, &f, seq);
            self.order.apply(&[(seq, key)]);
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.processed.fetch_add(1, Ordering::AcqRel);
            return Some(seq);
        }
        self.dispatch(vec![(seq, f)], Instant::now());
        Some(seq)
    }

    /// Submits every function of `fns` in order; returns the
    /// submission number of the first one (consecutive within each
    /// dispatched chunk; another handle can interleave only at chunk
    /// boundaries), or `None` if the engine has already been finished.
    pub fn submit_batch(&mut self, fns: impl IntoIterator<Item = TruthTable>) -> Option<u64> {
        let _op = self.begin_op()?;
        let chunk_size = self.chunk_size.max(1);
        let mut first = None;
        // Entries are buffered WITHOUT submission numbers; a chunk's
        // numbers are allocated en bloc at flush time. A caller's
        // iterator panicking mid-batch therefore just drops unnumbered
        // tables — it can never strand an allocated submission number,
        // which would wedge `drain` and break `finish`'s accounting.
        let mut buf: Vec<BatchEntry> = Vec::with_capacity(chunk_size);
        let mut chunk_since = Instant::now();
        for f in fns {
            if buf.is_empty() {
                chunk_since = Instant::now();
            }
            let entry = match self.cache.peek(&f) {
                Some(key) => BatchEntry::Hit(key, f),
                None => BatchEntry::Miss(f),
            };
            buf.push(entry);
            if buf.len() >= chunk_size {
                self.flush_batch(&mut buf, &mut first, chunk_since);
            }
        }
        self.flush_batch(&mut buf, &mut first, chunk_since);
        Some(first.unwrap_or_else(|| self.next_seq.load(Ordering::Acquire)))
    }

    /// Numbers and dispatches one buffered chunk: dedup hits resolve
    /// inline (store bump, order log, progress — the fast path, just
    /// batched), misses go to the pool.
    fn flush_batch(&mut self, buf: &mut Vec<BatchEntry>, first: &mut Option<u64>, since: Instant) {
        if buf.is_empty() {
            return;
        }
        let base = self.next_seq.fetch_add(buf.len() as u64, Ordering::AcqRel);
        first.get_or_insert(base);
        let mut hits: Vec<(u64, u128)> = Vec::new();
        let mut misses: Vec<(u64, TruthTable)> = Vec::with_capacity(buf.len());
        for (i, entry) in buf.drain(..).enumerate() {
            let seq = base + i as u64;
            match entry {
                BatchEntry::Hit(key, table) => {
                    self.store.insert(key, &table, seq);
                    hits.push((seq, key));
                }
                BatchEntry::Miss(table) => misses.push((seq, table)),
            }
        }
        if !hits.is_empty() {
            self.order.apply(&hits);
            self.dedup_hits
                .fetch_add(hits.len() as u64, Ordering::Relaxed);
            self.processed
                .fetch_add(hits.len() as u64, Ordering::AcqRel);
        }
        if !misses.is_empty() {
            self.dispatch(misses, since);
        }
    }

    /// Pushes a chunk into the pool; if the pool closed mid-call, the
    /// chunk's submission numbers are already allocated, so it is
    /// classified inline here rather than dropped.
    fn dispatch(&mut self, entries: Vec<(u64, TruthTable)>, since: Instant) {
        if let Err(job) = self.pool.push(Job {
            entries,
            submitted_at: since,
        }) {
            let kernel = self
                .fallback
                .get_or_insert_with(|| Box::new(SignatureKernel::new(self.set)));
            classify_job(
                job,
                kernel,
                &self.store,
                &self.cache,
                &self.processed,
                &self.order,
                &mut self.log_scratch,
                &self.chunk_latency,
                self.certified.as_deref(),
            );
        }
    }
}

/// The one construction spine of [`Engine`]: configuration, optional
/// durability directory, then [`build`](EngineBuilder::build) (or
/// [`recover`](EngineBuilder::recover) for a read-only snapshot of the
/// same directory). Obtained via [`Engine::builder`]; replaces the
/// retired `with_config`/`try_with_config`/`open` trio.
///
/// ```no_run
/// use facepoint_engine::{Engine, EngineConfig};
///
/// let cfg = EngineConfig::builder().workers(4).certified().build();
/// let engine = Engine::builder()
///     .config(cfg)
///     .persist("/var/lib/facepoint/census")
///     .build()?;
/// # drop(engine);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    cfg: EngineConfig,
    dir: Option<PathBuf>,
}

impl EngineBuilder {
    /// The engine configuration (default: [`EngineConfig::default`]).
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Makes the engine **durable** under `dir`: every classified
    /// member is journaled to a per-shard segment log, and any state
    /// already in `dir` is recovered first — the partition store, the
    /// certified-class tables and (when enabled) the memo cache pick
    /// up exactly where the previous process stopped, torn tails
    /// truncated. Inspect what was found via [`Engine::recovery`].
    ///
    /// Durability knobs other than the directory (checkpoint interval,
    /// sync policy) are taken from the configuration's
    /// [`EngineConfig::persist`] when set, defaults otherwise.
    pub fn persist(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Builds the engine: resolves the configuration through
    /// [`EngineConfig::builder`]'s clamping, opens (or creates) the
    /// durable store when [`persist`](Self::persist) was given, and
    /// starts the worker pool.
    ///
    /// # Errors
    ///
    /// Only for durable engines: I/O failures, a store recorded under
    /// a different signature set or resolution tier, or corruption
    /// outside a log tail.
    pub fn build(self) -> io::Result<Engine> {
        let EngineBuilder { mut cfg, dir } = self;
        if let Some(dir) = dir {
            let mut persist = cfg
                .persist
                .take()
                .unwrap_or_else(|| PersistConfig::new(PathBuf::new()));
            persist.dir = dir;
            cfg.persist = Some(persist);
        }
        Engine::build_from(cfg)
    }

    /// Reads the durable store under the [`persist`](Self::persist)
    /// directory without opening it for writing: no workers, no
    /// truncation, no new segments — the inspection path behind the
    /// CLI's `recover` subcommand.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build), plus `NotFound` when
    /// the directory holds no store manifest.
    ///
    /// # Panics
    ///
    /// Panics if no `persist` directory was set — there is nothing to
    /// recover from.
    pub fn recover(self) -> io::Result<RecoveredSnapshot> {
        let dir = self
            .dir
            .or_else(|| self.cfg.persist.map(|p| p.dir))
            .expect("EngineBuilder::recover needs a persist directory");
        let (maps, set_name, report) = store::recover_dir(&dir)?;
        let (resolution, set_name) = match set_name.strip_prefix(CERTIFIED_SET_PREFIX) {
            Some(rest) => (Resolution::Certified, rest.to_string()),
            None => (Resolution::Digest, set_name),
        };
        let set = SignatureSet::parse(&set_name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("manifest names unknown signature set {set_name:?}"),
            )
        })?;
        let mut classes: Vec<ClassSummary> = maps
            .into_iter()
            .flat_map(|map| {
                map.into_iter().map(|(key, e)| ClassSummary {
                    key,
                    representative: e.representative,
                    size: e.size,
                })
            })
            .collect();
        classes.sort_by(|a, b| b.size.cmp(&a.size).then(a.key.cmp(&b.key)));
        Ok(RecoveredSnapshot {
            set,
            resolution,
            classes,
            report,
        })
    }
}

/// Manifest key-scheme marker of a certified-resolution store. A
/// certified store's keys are representative digests, not signature
/// digests, so reopening it under the other resolution is refused the
/// same way a signature-set mismatch is.
const CERTIFIED_SET_PREFIX: &str = "certified:";

impl Engine {
    /// An engine over `set` with default tuning (all cores, 64 shards,
    /// cache off).
    pub fn new(set: facepoint_sig::SignatureSet) -> Self {
        Self::build_from(EngineConfig::with_set(set)).expect("in-memory engine cannot fail")
    }

    /// The construction spine: see [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if [`EngineConfig::persist`] is set and the durable store
    /// fails to open.
    #[deprecated(
        since = "0.1.0",
        note = "use Engine::builder().config(cfg).build() — the builder reports \
                store-opening failures instead of panicking"
    )]
    pub fn with_config(cfg: EngineConfig) -> Self {
        Self::build_from(cfg).expect("failed to open the durable store")
    }

    /// Opens (or creates) a **durable** engine whose class store lives
    /// under `dir`.
    ///
    /// # Errors
    ///
    /// I/O failures, a store recorded under a different signature set
    /// or resolution tier, or corruption outside a log tail.
    #[deprecated(
        since = "0.1.0",
        note = "use Engine::builder().config(cfg).persist(dir).build()"
    )]
    pub fn open(dir: impl Into<PathBuf>, cfg: EngineConfig) -> io::Result<Self> {
        Self::builder().config(cfg).persist(dir).build()
    }

    /// Reads the durable store under `dir` without opening it for
    /// writing — shorthand for
    /// [`Engine::builder`]`.persist(dir).recover()`, see
    /// [`EngineBuilder::recover`].
    ///
    /// # Errors
    ///
    /// See [`EngineBuilder::recover`].
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<RecoveredSnapshot> {
        Self::builder().persist(dir.as_ref()).recover()
    }

    /// An engine with explicit tuning, reporting store-opening failures
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Only when [`EngineConfig::persist`] is set.
    #[deprecated(since = "0.1.0", note = "use Engine::builder().config(cfg).build()")]
    pub fn try_with_config(cfg: EngineConfig) -> io::Result<Self> {
        Self::build_from(cfg)
    }

    /// The one code path every constructor funnels into.
    fn build_from(cfg: EngineConfig) -> io::Result<Self> {
        let workers = cfg.resolved_workers();
        // The registry exists before anything it instruments:
        // recovery-replay timing below covers the store open itself.
        let telemetry = Arc::new(Registry::new());
        let chunk_latency = telemetry.histogram("engine_chunk_classify_nanos");
        let store_telemetry = StoreTelemetry {
            append_nanos: telemetry.histogram("store_journal_append_nanos"),
            fsync_nanos: telemetry.histogram("store_fsync_nanos"),
            checkpoint_nanos: telemetry.histogram("store_checkpoint_nanos"),
        };
        let opened = Instant::now();
        // The manifest records the key scheme: the signature set, with
        // a resolution marker in front for certified stores (their keys
        // are representative digests — incomparable with digest keys,
        // so cross-mode reopens must be refused like set mismatches).
        let store_set_name = match cfg.resolution {
            Resolution::Digest => cfg.set.to_string(),
            Resolution::Certified => format!("{CERTIFIED_SET_PREFIX}{}", cfg.set),
        };
        let (mut store, recovery) = match &cfg.persist {
            Some(persist) => {
                let (store, report) = ShardedStore::open_durable(
                    persist,
                    cfg.resolved_shards(),
                    &store_set_name,
                    store_telemetry,
                )?;
                (store, Some(report))
            }
            None => (ShardedStore::new(cfg.resolved_shards()), None),
        };
        if cfg.resolution == Resolution::Certified {
            // A certified class's representative is the proved
            // canonical table its creating insert carried; pin it so
            // the dedup fast paths — which insert raw member tables —
            // can never steal the slot with a lower seq (duplicates
            // classified out of chunk order would otherwise overwrite
            // it, break `certified_key(rep) == key`, and split the
            // class after a reopen primes the resolver from the store).
            store.pin_representatives();
        }
        // Wall-clock cost of opening the store and replaying its
        // checkpoints + log tails (0 for in-memory engines).
        let replay_nanos = if recovery.is_some() {
            u64::try_from(opened.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        };
        telemetry.counter_fn("store_recovery_replay_nanos", move || replay_nanos);
        // A pre-existing store's shard count overrides the config (the
        // key→shard mapping is baked into the segment files).
        let shards = recovery
            .as_ref()
            .map_or_else(|| cfg.resolved_shards(), |r| r.shards);
        // New submissions must never outrank a recovered representative
        // (`seq < rep_seq` steals the slot), so the sequence restarts
        // above BOTH the recovered member count and the highest
        // recovered rep_seq — the latter can exceed the former when a
        // torn tail lost records in one shard while another shard
        // durably holds later submissions.
        let base_seq = recovery.as_ref().map_or(0, |r| {
            let mut floor = r.members;
            store.for_each(|_, entry| floor = floor.max(entry.rep_seq + 1));
            floor
        });
        let store = Arc::new(store);
        let cache = Arc::new(MemoCache::new(cfg.cache_capacity));
        if recovery.is_some() && cfg.cache_capacity > 0 {
            // Warm the dedup fast path with the recovered census.
            store.for_each(|key, entry| cache.prime(&entry.representative, key));
        }
        let resolver = Arc::new(BucketResolver::new());
        let walk_nanos = telemetry.histogram("engine_canon_walk_nanos");
        let match_nanos = telemetry.histogram("engine_canon_match_nanos");
        let certified = match cfg.resolution {
            Resolution::Digest => None,
            Resolution::Certified => Some(Arc::new(CertifiedResolve {
                resolver: Arc::clone(&resolver),
                walk_nanos,
                match_nanos,
            })),
        };
        if certified.is_some() && recovery.is_some() {
            // Rebuild the bucket tables from the recovered census: a
            // stored representative's signature digest equals its whole
            // class's digest (signatures are NPN invariants), so
            // re-keying the representatives reconstructs exactly the
            // buckets the previous process had — no Gray-code walk is
            // repeated for a recovered class.
            store.for_each(|_, entry| {
                resolver.prime(
                    signature_key(&entry.representative, cfg.set),
                    entry.representative.clone(),
                );
            });
        }
        let processed = Arc::new(AtomicU64::new(base_seq));
        let order = Arc::new(OrderSink::new(cfg.track_labels, base_seq));
        let pool = Arc::new(StealPool::new(PoolConfig {
            workers,
            deque_capacity: cfg.deque_capacity.max(1),
            steal_batch: cfg.steal_batch.max(1),
        }));
        let next_seq = Arc::new(AtomicU64::new(base_seq));
        let dedup_hits = Arc::new(AtomicU64::new(0));
        // Totals the subsystems already track in their own atomics are
        // surfaced as sampled series — read at scrape time, never
        // double-counted on the hot path.
        {
            let p = Arc::clone(&pool);
            telemetry.counter_fn("engine_steals_total", move || p.steals());
            let p = Arc::clone(&pool);
            telemetry.counter_fn("engine_parks_total", move || p.parks());
            let p = Arc::clone(&pool);
            telemetry.gauge_fn("engine_deque_depth", move || p.queued() as f64);
            let c = Arc::clone(&cache);
            telemetry.counter_fn("engine_cache_hits_total", move || c.hits());
            let c = Arc::clone(&cache);
            telemetry.counter_fn("engine_cache_misses_total", move || c.misses());
            let c = Arc::clone(&cache);
            telemetry.gauge_fn("engine_cache_hit_ratio", move || {
                let (hits, misses) = (c.hits(), c.misses());
                let total = hits + misses;
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                }
            });
            let n = Arc::clone(&next_seq);
            telemetry.counter_fn("engine_functions_submitted_total", move || {
                n.load(Ordering::Acquire)
            });
            let p = Arc::clone(&processed);
            telemetry.counter_fn("engine_functions_processed_total", move || {
                p.load(Ordering::Acquire)
            });
            let (n, p) = (Arc::clone(&next_seq), Arc::clone(&processed));
            telemetry.gauge_fn("engine_backlog", move || {
                // Saturating for the same racy-read reason as
                // `EngineSnapshot::backlog`.
                n.load(Ordering::Acquire)
                    .saturating_sub(p.load(Ordering::Acquire)) as f64
            });
            let d = Arc::clone(&dedup_hits);
            telemetry.counter_fn("engine_dedup_hits_total", move || d.load(Ordering::Relaxed));
            telemetry.gauge_fn("engine_workers", move || workers as f64);
            // Certified-resolution counters: registered in every mode
            // (a digest engine scrapes zeros) so the series schema is
            // stable whatever the resolution.
            let r = Arc::clone(&resolver);
            telemetry.counter_fn("engine_canon_walks_total", move || r.walks());
            let r = Arc::clone(&resolver);
            telemetry.counter_fn("engine_canon_matches_total", move || r.matches());
            let r = Arc::clone(&resolver);
            telemetry.counter_fn("engine_canon_fallbacks_total", move || r.fallbacks());
            // Weak, not Arc: the registry outlives the engine when a
            // caller keeps `Engine::telemetry()` after `finish`, and a
            // strong reference here would pin the durable store — and
            // its advisory file lock — for the registry's lifetime,
            // refusing a reopen of the same directory. A post-finish
            // scrape reads these totals as 0 instead.
            let s = Arc::downgrade(&store);
            telemetry.counter_fn("store_journal_records_total", move || {
                s.upgrade()
                    .and_then(|s| s.durability_snapshot())
                    .map_or(0, |d| d.journal_records)
            });
            let s = Arc::downgrade(&store);
            telemetry.counter_fn("store_fsyncs_total", move || {
                s.upgrade()
                    .and_then(|s| s.durability_snapshot())
                    .map_or(0, |d| d.fsyncs)
            });
            let s = Arc::downgrade(&store);
            telemetry.counter_fn("store_checkpoints_total", move || {
                s.upgrade()
                    .and_then(|s| s.durability_snapshot())
                    .map_or(0, |d| d.checkpoints)
            });
        }
        let handles = (0..workers)
            .map(|me| {
                let pool = Arc::clone(&pool);
                let store = Arc::clone(&store);
                let cache = Arc::clone(&cache);
                let processed = Arc::clone(&processed);
                let order = Arc::clone(&order);
                let set = cfg.set;
                let chunk_latency = Arc::clone(&chunk_latency);
                let certified = certified.clone();
                std::thread::spawn(move || {
                    worker_loop(
                        me,
                        &pool,
                        &store,
                        &cache,
                        &processed,
                        &order,
                        set,
                        &chunk_latency,
                        certified.as_deref(),
                    )
                })
            })
            .collect();
        Ok(Engine {
            workers,
            shards,
            store,
            cache,
            processed,
            pool,
            order,
            handles,
            pending: Vec::with_capacity(cfg.chunk_size),
            next_seq,
            dedup_hits,
            handle_ops: Arc::new(AtomicU64::new(0)),
            base_seq,
            // Epoch numbers stay monotonic across reopens of the same
            // store: resume from the highest barrier recovery saw.
            epoch: recovery.as_ref().map_or(0, |r| r.last_epoch),
            recovery,
            started: Instant::now(),
            telemetry,
            chunk_latency,
            pending_since: Instant::now(),
            resolver,
            certified,
            cfg,
        })
    }

    /// The engine's metrics registry, for in-process consumers: every
    /// engine and store series (`engine_*`, `store_*`) is registered
    /// here, and `facepoint serve` adds its `serve_*` series to the
    /// same registry — one
    /// [`render_text`](facepoint_telemetry::Registry::render_text)
    /// call covers all three layers. Recording into the returned
    /// registry's instruments is lock-free and allocation-free;
    /// snapshotting locks it briefly and allocates the output.
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.telemetry)
    }

    /// What recovery found when this engine was [`Engine::open`]ed over
    /// an existing store; `None` for fresh or in-memory engines.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// A detached ingestion endpoint feeding this engine's worker pool;
    /// see [`SubmitHandle`]. Create one per producer thread (the
    /// service front-end creates one per connection).
    pub fn submit_handle(&self) -> SubmitHandle {
        SubmitHandle {
            pool: Arc::clone(&self.pool),
            store: Arc::clone(&self.store),
            cache: Arc::clone(&self.cache),
            order: Arc::clone(&self.order),
            processed: Arc::clone(&self.processed),
            next_seq: Arc::clone(&self.next_seq),
            dedup_hits: Arc::clone(&self.dedup_hits),
            handle_ops: Arc::clone(&self.handle_ops),
            chunk_size: self.cfg.chunk_size.max(1),
            set: self.cfg.set,
            fallback: None,
            log_scratch: Vec::new(),
            chunk_latency: Arc::clone(&self.chunk_latency),
            certified: self.certified.clone(),
        }
    }

    /// Resolves `f` to its **proved** NPN class: the certified
    /// canonical representative, the witness transform mapping `f` onto
    /// it, and — when the engine runs [`Resolution::Certified`] and has
    /// already seen the class — the class key and member count from the
    /// store. The query itself is read-only: it never creates a class,
    /// counts a member or touches the stream.
    ///
    /// In certified mode the answer comes from the resolver's cached
    /// representative when the class is known (so the key and size
    /// match the census even for heavy-symmetry classes whose label
    /// came from the budget fallback); otherwise — unknown class, or a
    /// digest-mode engine — the representative is computed on the spot
    /// and the size reported as `0`.
    pub fn canon(&self, f: &TruthTable) -> CanonAnswer {
        answer_canon(&self.store, self.certified.as_deref(), self.cfg.set, f)
    }

    /// A detached, read-only endpoint answering [`Engine::canon`]
    /// queries **without the engine**: it shares the store, the
    /// resolver and the signature set through `Arc`s, so a caller that
    /// keeps the engine behind a lock (the service front-end does) can
    /// run the canonicalization — up to a full Gray-code walk for an
    /// unknown class — without holding that lock and stalling every
    /// other engine user. Answers stay correct (if increasingly stale
    /// in their member counts) even after [`Engine::finish`].
    pub fn canon_handle(&self) -> CanonHandle {
        CanonHandle {
            store: Arc::clone(&self.store),
            certified: self.certified.clone(),
            set: self.cfg.set,
        }
    }

    /// Submits one function for classification and returns its
    /// submission number (the index it will have in the final
    /// [`Classification`]'s label vector).
    ///
    /// Functions are buffered into chunks; a full chunk is handed to
    /// the worker pool, **blocking if every worker deque is full**
    /// (backpressure). Use [`Engine::flush`] to push a partial chunk
    /// early.
    ///
    /// When the memo cache is enabled (a positive
    /// [`EngineConfig::cache_capacity`]) a repeated function takes the
    /// **dedup fast path**: its cached key bumps the class counts right
    /// here, skipping the queue round-trip entirely. Fast-path
    /// resolutions are counted in [`EngineStats::dedup_hits`].
    pub fn submit(&mut self, f: TruthTable) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::AcqRel);
        if let Some(key) = self.cache.peek(&f) {
            self.store.insert(key, &f, seq);
            self.order.apply(&[(seq, key)]);
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.processed.fetch_add(1, Ordering::AcqRel);
            return seq;
        }
        if self.pending.is_empty() {
            self.pending_since = Instant::now();
        }
        self.pending.push((seq, f));
        if self.pending.len() >= self.cfg.chunk_size.max(1) {
            self.dispatch_pending();
        }
        seq
    }

    /// Submits every function of `fns` in order; returns the submission
    /// number of the first one (consecutive for this batch unless a
    /// concurrent [`SubmitHandle`] interleaves its own submissions).
    pub fn submit_batch(&mut self, fns: impl IntoIterator<Item = TruthTable>) -> u64 {
        // Taken from the first actual submission, not read up front: a
        // concurrent handle could otherwise claim the read number
        // first and the returned index would name its function.
        let mut first = None;
        for f in fns {
            let seq = self.submit(f);
            first.get_or_insert(seq);
        }
        first.unwrap_or_else(|| self.next_seq.load(Ordering::Acquire))
    }

    /// Hands any buffered partial chunk to the workers now.
    ///
    /// For a durable engine this is also the **epoch barrier**: an
    /// epoch marker is appended to every shard journal and the
    /// journals are flushed — fsync'd under the default
    /// [`SyncPolicy::Barrier`](crate::SyncPolicy::Barrier) — so every
    /// member classified *before* the call is crash-durable when it
    /// returns. Members still queued or in flight are covered by the
    /// next barrier (or by [`Engine::finish`]'s final checkpoint);
    /// after a crash, recovery loses at most that un-fsync'd tail.
    ///
    /// # Panics
    ///
    /// Panics if the journals cannot be flushed — durability was
    /// promised and can no longer be provided.
    pub fn flush(&mut self) {
        self.dispatch_pending();
        if self.cfg.persist.is_some() {
            self.epoch += 1;
            self.store
                .sync_barrier(self.epoch)
                .expect("epoch barrier failed; durable store is inconsistent");
        }
    }

    fn dispatch_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.pending);
        self.pending = Vec::with_capacity(self.cfg.chunk_size);
        self.pool
            .push(Job {
                entries,
                submitted_at: self.pending_since,
            })
            .unwrap_or_else(|_| unreachable!("pool closed while the engine is alive"));
    }

    /// Functions accepted so far (including any buffered, queued or
    /// in-flight ones).
    pub fn functions_submitted(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// A mid-stream view: how much is classified, how many classes
    /// exist, and how they spread over shards. Runs concurrently with
    /// ingestion (locks shards one at a time, briefly).
    ///
    /// Buffered-but-undispatched functions count as backlog; call
    /// [`Engine::flush`] first if you want them moving.
    pub fn snapshot(&self) -> EngineSnapshot {
        let shard_class_counts = self.store.shard_class_counts();
        EngineSnapshot {
            functions_submitted: self.next_seq.load(Ordering::Acquire),
            functions_processed: self.processed.load(Ordering::Acquire),
            num_classes: shard_class_counts.iter().sum(),
            shard_class_counts,
        }
    }

    /// The `limit` largest classes discovered so far, largest first —
    /// a heavy-hitter report usable while the stream is still running.
    pub fn top_classes(&self, limit: usize) -> Vec<ClassSummary> {
        self.store.top_classes(limit)
    }

    /// Pushes any buffered partial chunk to the workers and waits until
    /// everything submitted so far is classified, without ending the
    /// stream — the quiescence hook for long-running services, where
    /// [`Engine::finish`] (which consumes the engine) is reserved for
    /// shutdown.
    ///
    /// Returns `true` once the backlog is zero, `false` if `timeout`
    /// elapsed first (the engine keeps working either way; partial
    /// progress is kept). After `drain` returns `true`, a
    /// [`Engine::snapshot`] reflects every prior submission:
    /// `functions_processed == functions_submitted` and the class
    /// census is complete for the stream so far.
    ///
    /// Progress is counted **per function**, not per chunk, so the
    /// backlog observed while waiting shrinks smoothly even when a
    /// single huge chunk is in flight (see
    /// [`EngineSnapshot::backlog`]).
    ///
    /// Unlike [`Engine::flush`] this issues no epoch barrier — combine
    /// the two (`flush` then `drain`, or `drain` then `flush`) when a
    /// service wants both a quiescent view and durability of it.
    pub fn drain(&mut self, timeout: std::time::Duration) -> bool {
        self.dispatch_pending();
        let deadline = Instant::now() + timeout;
        let mut polls = 0u32;
        while self.processed.load(Ordering::Acquire) < self.next_seq.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                return false;
            }
            // Yield while the backlog is about to clear, then back off
            // to sleeping: spinning for a long drain would pin a core
            // against the very workers being waited on.
            if polls < 64 {
                polls += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        true
    }

    /// Drains the pipeline, joins the workers and assembles the final
    /// input-ordered [`Classification`] plus run statistics.
    ///
    /// The classification covers the functions submitted to *this*
    /// engine instance; for an engine recovered via [`Engine::open`],
    /// class representatives may predate this run (they are the
    /// earliest-known members, recovered ones included) and the durable
    /// store's class counts keep accumulating across runs.
    ///
    /// A census-only engine ([`EngineConfig::track_labels`]` == false`)
    /// returns an **empty** classification — per-submission labels were
    /// never recorded, which is what keeps its memory flat — and
    /// reports the final classes through [`EngineReport::census`].
    ///
    /// A durable engine writes a final checkpoint of every shard before
    /// returning, so a subsequent [`Engine::open`] replays checkpoints
    /// only — no log tail, nothing to lose.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked or (durable engines) the final
    /// checkpoint cannot be written.
    pub fn finish(mut self) -> EngineReport {
        self.dispatch_pending();
        self.pool.close();
        // Wait out in-flight `SubmitHandle` calls: a call that passed
        // its open check before the close above completes (a push that
        // loses the race classifies inline — possibly a whole batch's
        // tail, hence the sleep backoff instead of a pure spin), and
        // any call starting now is refused before it consumes a
        // submission number — so after this loop the submission count
        // is final and the order sink can be sealed without dropping
        // anything.
        let mut polls = 0u32;
        while self.handle_ops.load(Ordering::SeqCst) > 0 {
            if polls < 64 {
                polls += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("worker panicked");
        }
        // Sweep whatever a close-racing `SubmitHandle` push may have
        // stranded (normally nothing) so every allocated submission
        // number is classified.
        let leftovers = self.pool.drain_remaining();
        if !leftovers.is_empty() {
            let mut kernel = SignatureKernel::new(self.cfg.set);
            let mut log = Vec::new();
            for job in leftovers {
                classify_job(
                    job,
                    &mut kernel,
                    &self.store,
                    &self.cache,
                    &self.processed,
                    &self.order,
                    &mut log,
                    &self.chunk_latency,
                    self.certified.as_deref(),
                );
            }
        }
        if self.cfg.persist.is_some() {
            self.store
                .checkpoint_all()
                .expect("final checkpoint failed; durable store is inconsistent");
        }
        let submitted_this_run = (self.next_seq.load(Ordering::Acquire) - self.base_seq) as usize;
        let state = self.order.seal();
        // The census always reflects the store (cumulative for durable
        // engines); for a census-only engine it is the entire result.
        let census = self.store.top_classes(usize::MAX);
        if !self.cfg.track_labels {
            let stats = self.stats_inner(Some(census.len()));
            return EngineReport {
                classification: Classification::from_parts(Vec::new(), Vec::new()),
                stats,
                census,
            };
        }
        // Remap the sink's applied-order internal ids to
        // first-*submitted* order — the exact grouping rule of
        // `Classifier::classify`, so the result is independent of
        // worker count and interleaving.
        debug_assert_eq!(state.labels.len(), submitted_this_run);
        let mut remap: Vec<u32> = vec![u32::MAX; state.keys.len()];
        let mut class_keys: Vec<u128> = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        let mut labels: Vec<usize> = Vec::with_capacity(state.labels.len());
        for &internal in &state.labels {
            assert!(
                internal != u32::MAX,
                "submission missing from the order log"
            );
            let internal = internal as usize;
            if remap[internal] == u32::MAX {
                remap[internal] = class_keys.len() as u32;
                class_keys.push(state.keys[internal]);
                sizes.push(0);
            }
            let id = remap[internal] as usize;
            sizes[id] += 1;
            labels.push(id);
        }
        let classes: Vec<NpnClass> = class_keys
            .iter()
            .enumerate()
            .map(|(id, &key)| {
                let (representative, _) = self
                    .store
                    .get(key)
                    .expect("every processed key has a store entry");
                NpnClass::new(id, representative, sizes[id])
            })
            .collect();
        let stats = self.stats_inner(Some(classes.len()));
        EngineReport {
            classification: Classification::from_parts(labels, classes),
            stats,
            census,
        }
    }

    /// Current run statistics (also available mid-stream; `num_classes`
    /// and shard occupancy reflect what is classified so far).
    pub fn stats(&self) -> EngineStats {
        self.stats_inner(None)
    }

    /// One shard sweep for all counters, so `num_classes` and the
    /// occupancy figures come from the same consistent view (and the
    /// shards are locked once, not twice).
    fn stats_inner(&self, num_classes_override: Option<usize>) -> EngineStats {
        let shard_counts = self.store.shard_class_counts();
        let num_classes = num_classes_override.unwrap_or_else(|| shard_counts.iter().sum());
        EngineStats {
            functions_submitted: self.next_seq.load(Ordering::Acquire),
            functions_processed: self.processed.load(Ordering::Acquire),
            num_classes,
            workers: self.workers,
            shards: self.shards,
            occupied_shards: shard_counts.iter().filter(|&&c| c > 0).count(),
            max_shard_classes: shard_counts.iter().copied().max().unwrap_or(0),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            steals: self.pool.steals(),
            parks: self.pool.parks(),
            elapsed: self.started.elapsed(),
            recovered_members: self.base_seq,
            durability: self.store.durability_snapshot(),
            resolution: self.cfg.resolution,
            canon_walks: self.resolver.walks(),
            canon_matches: self.resolver.matches(),
            canon_fallbacks: self.resolver.fallbacks(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the pool so detached workers terminate; `finish`
        // already closed it on the normal path.
        self.pool.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Classifies one chunk in a single pass over its entries: each entry
/// first probes the memo cache; a hit lands in the store at once, a
/// miss is keyed through the scalar kernel ([`SignatureKernel::key`]),
/// resolved, inserted and recorded in the cache before the next entry
/// is looked at. Progress is counted **per function**, so `pending()`
/// and [`Engine::drain`] observe smooth, never-overshooting progress
/// even mid-chunk. The chunk's `(seq, key)` pairs then stream into the
/// order sink in one short lock and the submit→classified latency is
/// recorded.
///
/// Allocation-free in steady state: the reused `log` stops growing
/// once it has seen the largest chunk, and the kernel's scratch is
/// warmed the same way.
///
/// Accounting note: every keyed function counts exactly once, as a
/// cache hit or a miss, so `hits + misses` equals the number of keyed
/// functions. A repeat later in the same chunk finds the entry its
/// first occurrence just recorded and counts as a hit.
#[allow(clippy::too_many_arguments)]
fn classify_job(
    job: Job,
    kernel: &mut SignatureKernel,
    store: &ShardedStore,
    cache: &MemoCache,
    processed: &AtomicU64,
    order: &OrderSink,
    log: &mut Vec<(u64, u128)>,
    chunk_latency: &LatencyHistogram,
    certified: Option<&CertifiedResolve>,
) {
    for (seq, table) in &job.entries {
        let key = match cache.peek(table) {
            Some(key) => {
                store.insert(key, table, *seq);
                key
            }
            None => {
                let digest = kernel.key(table);
                // In certified mode the signature digest only names the
                // bucket; the store key and the stored representative
                // are the *proved* ones from the resolver. Either way
                // the store insert lands before the cache records the
                // key, so a dedup fast-path hit always finds an
                // occupied entry.
                let key = match certified {
                    None => {
                        store.insert(digest, table, *seq);
                        digest
                    }
                    Some(tier) => {
                        let (key, representative) = tier.resolve(digest, table);
                        store.insert(key, &representative, *seq);
                        key
                    }
                };
                cache.record(table, key);
                key
            }
        };
        log.push((*seq, key));
        processed.fetch_add(1, Ordering::AcqRel);
    }
    order.apply(log);
    log.clear();
    chunk_latency.record_duration(job.submitted_at.elapsed());
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    me: usize,
    pool: &StealPool<Job>,
    store: &ShardedStore,
    cache: &MemoCache,
    processed: &AtomicU64,
    order: &OrderSink,
    set: facepoint_sig::SignatureSet,
    chunk_latency: &LatencyHistogram,
    certified: Option<&CertifiedResolve>,
) {
    // One kernel per worker, reused for the whole stream: scratch
    // buffers grow to the largest arity seen, then key computation is
    // allocation-free. The chunk log is reused the same way, so the
    // steady-state worker allocates nothing per chunk.
    let mut kernel = SignatureKernel::new(set);
    let mut log: Vec<(u64, u128)> = Vec::new();
    while let Some(job) = pool.next_item(me) {
        classify_job(
            job,
            &mut kernel,
            store,
            cache,
            processed,
            order,
            &mut log,
            chunk_latency,
            certified,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_bench::transform_closure_workload as workload;
    use facepoint_core::{signature_key, Classifier};
    use facepoint_sig::SignatureSet;

    #[test]
    fn empty_engine_finishes_clean() {
        let report = Engine::new(SignatureSet::all()).finish();
        assert_eq!(report.classification.num_functions(), 0);
        assert_eq!(report.classification.num_classes(), 0);
        assert_eq!(report.stats.functions_processed, 0);
    }

    #[test]
    fn matches_one_shot_classifier() {
        let fns = workload(5, 10, 6, 42);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 4,
                chunk_size: 7, // force many small, oddly-sized chunks
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        let report = engine.finish();
        assert_eq!(report.classification.labels(), expected.labels());
        assert_eq!(report.classification.num_classes(), expected.num_classes());
    }

    #[test]
    fn representatives_are_class_members() {
        let fns = workload(4, 6, 4, 7);
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 3,
                chunk_size: 5,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        let report = engine.finish();
        for class in report.classification.classes() {
            // A representative must carry the key of its own class.
            let key = signature_key(class.representative(), SignatureSet::all());
            let others: Vec<u128> = report
                .classification
                .classes()
                .iter()
                .map(|c| signature_key(c.representative(), SignatureSet::all()))
                .collect();
            assert_eq!(others.iter().filter(|&&k| k == key).count(), 1);
            assert!(class.size() >= 1);
        }
    }

    #[test]
    fn snapshot_mid_stream_progresses() {
        let fns = workload(5, 8, 8, 99);
        let total = fns.len() as u64;
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 16,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        engine.flush();
        let snap = engine.snapshot();
        assert_eq!(snap.functions_submitted, total);
        assert!(snap.functions_processed <= total);
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, total);
        assert_eq!(report.stats.functions_submitted, total);
        // After finish, every submitted function is classified.
        let final_classes = report.classification.num_classes();
        assert!(final_classes >= snap.num_classes);
    }

    #[test]
    fn memo_cache_sees_repeat_traffic() {
        let f = TruthTable::majority(5);
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                cache_capacity: 1024,
                chunk_size: 8,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        for _ in 0..64 {
            engine.submit(f.clone());
        }
        let report = engine.finish();
        assert_eq!(report.classification.num_classes(), 1);
        assert_eq!(report.stats.cache_hits + report.stats.cache_misses, 64);
        // With one distinct function, almost everything hits; allow for
        // racy duplicate computation across workers.
        assert!(report.stats.cache_hits >= 32, "{}", report.stats);
    }

    #[test]
    fn top_classes_reports_heavy_hitters() {
        let mut fns = workload(4, 1, 9, 5); // 9 copies of one class
        fns.extend(workload(4, 1, 2, 6)); // 2 of another
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let total = fns.len() as u64;
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 3,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        engine.flush();
        // Wait (bounded) for the stream to drain, then the mid-stream
        // report must be complete and correct.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while engine.snapshot().functions_processed < total {
            assert!(Instant::now() < deadline, "engine failed to drain");
            std::thread::yield_now();
        }
        let top = engine.top_classes(usize::MAX);
        assert_eq!(top.len(), expected.num_classes());
        assert_eq!(
            top.iter().map(|c| c.size).sum::<usize>(),
            expected.num_functions()
        );
        // Largest first, and the heavy hitter matches the classifier's.
        assert!(top.windows(2).all(|w| w[0].size >= w[1].size));
        let expected_max = expected
            .classes_by_size()
            .first()
            .map(|c| c.size())
            .unwrap();
        assert_eq!(top[0].size, expected_max);
        // Its representative carries the heavy class's signature key.
        let top1 = engine.top_classes(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(
            signature_key(&top1[0].representative, SignatureSet::all()),
            top1[0].key
        );
        let report = engine.finish();
        assert_eq!(report.classification.labels(), expected.labels());
    }

    #[test]
    fn drain_quiesces_without_finishing() {
        let fns = workload(5, 10, 8, 17);
        let total = fns.len() as u64;
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 3,
                chunk_size: 9,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        // Interleave submission with mid-stream drains: after each
        // drain, the snapshot must account for every prior submission
        // (the service invariant behind `facepoint serve`'s SNAPSHOT).
        for chunk in fns.chunks(23) {
            engine.submit_batch(chunk.iter().cloned());
            assert!(engine.drain(std::time::Duration::from_secs(30)));
            let snap = engine.snapshot();
            assert_eq!(snap.functions_processed, snap.functions_submitted);
            assert_eq!(snap.backlog(), 0);
        }
        let snap = engine.snapshot();
        assert_eq!(snap.functions_processed, total);
        assert_eq!(snap.num_classes, expected.num_classes());
        // The stream is still open: more work and a normal finish.
        engine.submit(TruthTable::majority(5));
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, total + 1);
    }

    #[test]
    fn stats_display_is_informative() {
        let mut engine = Engine::new(SignatureSet::all());
        engine.submit(TruthTable::majority(3));
        let report = engine.finish();
        let line = report.stats.to_string();
        assert!(line.contains("1 functions -> 1 classes"), "{line}");
    }

    #[test]
    fn progress_is_counted_per_function_mid_chunk() {
        // One giant chunk on one worker: `processed` must advance
        // *inside* the chunk (per-function counting), so `drain` and
        // `backlog()` never overshoot while a chunk is in flight.
        let fns = facepoint_bench::random_workload(8, 400, 0x9A9);
        let total = fns.len() as u64;
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 1,
                chunk_size: fns.len(),
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns);
        engine.flush();
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        let mut saw_partial = false;
        loop {
            let snap = engine.snapshot();
            assert!(snap.functions_processed <= total, "progress overshot");
            if snap.functions_processed > 0 && snap.functions_processed < total {
                saw_partial = true;
            }
            if snap.functions_processed == total {
                break;
            }
            assert!(Instant::now() < deadline, "engine failed to drain");
            std::thread::yield_now();
        }
        assert!(
            saw_partial,
            "processed jumped 0 -> total; chunk-granular counting is back"
        );
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, total);
    }

    #[test]
    fn forced_steal_schedule_matches_classifier() {
        // Deque capacity 1 and chunk size 1 force constant migration
        // between deques; the partition must not notice.
        let fns = workload(4, 9, 5, 0x57EA);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 8,
                chunk_size: 1,
                deque_capacity: 1,
                steal_batch: 1,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns.iter().cloned());
        let report = engine.finish();
        assert_eq!(report.classification.labels(), expected.labels());
        // The counters surfaced for observability never go backwards
        // and are wired up (parks are guaranteed: idle workers on a
        // drained pool must sleep, not spin).
        assert!(report.stats.parks > 0, "{}", report.stats);
    }

    #[test]
    fn census_only_mode_reports_through_census() {
        let fns = workload(4, 7, 3, 0xCE45);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 4,
                track_labels: false,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        engine.submit_batch(fns.iter().cloned());
        let report = engine.finish();
        // No labels were tracked…
        assert_eq!(report.classification.num_functions(), 0);
        assert_eq!(report.classification.num_classes(), 0);
        // …but the census is complete and correct.
        assert_eq!(report.census.len(), expected.num_classes());
        assert_eq!(
            report.census.iter().map(|c| c.size).sum::<usize>(),
            expected.num_functions()
        );
        assert_eq!(report.stats.num_classes, expected.num_classes());
        assert_eq!(report.stats.functions_processed, fns.len() as u64);
    }

    #[test]
    fn submit_handles_interleave_with_engine_submissions() {
        let fns = workload(4, 8, 6, 0x4A4D);
        let expected_classes = Classifier::new(SignatureSet::all())
            .classify(fns.clone())
            .num_classes();
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 4,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let (left, right) = fns.split_at(fns.len() / 2);
        let mut handle = engine.submit_handle();
        let right = right.to_vec();
        let feeder = std::thread::spawn(move || {
            handle.submit_batch(right).expect("engine is open");
        });
        for f in left.iter().cloned() {
            engine.submit(f);
        }
        feeder.join().unwrap();
        let report = engine.finish();
        // Interleaving order is nondeterministic, so compare the
        // partition's shape rather than its labels.
        assert_eq!(report.stats.functions_processed, fns.len() as u64);
        assert_eq!(report.classification.num_functions(), fns.len());
        assert_eq!(report.classification.num_classes(), expected_classes);
    }

    /// Reads one series out of a text exposition, panicking with the
    /// whole scrape when it is absent (every value renders as a number,
    /// so `f64` covers counters, gauges and histogram fields alike).
    fn series(text: &str, name: &str) -> f64 {
        let prefix = format!("{name} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("series {name} missing from scrape:\n{text}"))
            .parse()
            .unwrap_or_else(|e| panic!("series {name} is not numeric: {e}"))
    }

    #[test]
    fn telemetry_scrape_covers_engine_series() {
        let fns = workload(4, 6, 5, 0x7E1E);
        let total = fns.len() as u64;
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                chunk_size: 4,
                cache_capacity: 64,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let telemetry = engine.telemetry();
        engine.submit_batch(fns);
        engine.flush();
        assert!(engine.drain(std::time::Duration::from_secs(30)));
        let text = telemetry.render_text();
        assert_eq!(
            series(&text, "engine_functions_submitted_total") as u64,
            total
        );
        assert_eq!(
            series(&text, "engine_functions_processed_total") as u64,
            total
        );
        assert_eq!(series(&text, "engine_backlog"), 0.0);
        assert_eq!(series(&text, "engine_workers"), 2.0);
        // Every chunk's latency was recorded, and the percentile chain
        // holds in a real scrape, not just in the histogram's unit
        // tests.
        assert!(series(&text, "engine_chunk_classify_nanos_count") >= 1.0);
        let (p50, p90, p99, max) = (
            series(&text, "engine_chunk_classify_nanos_p50"),
            series(&text, "engine_chunk_classify_nanos_p90"),
            series(&text, "engine_chunk_classify_nanos_p99"),
            series(&text, "engine_chunk_classify_nanos_max"),
        );
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{text}");
        // The cache saw traffic; ratio stays within [0, 1].
        let ratio = series(&text, "engine_cache_hit_ratio");
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
        // In-memory engine: the store series exist but stay zero.
        assert_eq!(series(&text, "store_journal_records_total"), 0.0);
        assert_eq!(series(&text, "store_recovery_replay_nanos"), 0.0);
        engine.finish();
    }

    #[test]
    fn certified_scrape_splits_walk_and_match_latency() {
        let fns = workload(5, 6, 4, 0xCA11);
        let mut engine = Engine::builder()
            .config(
                EngineConfig::builder()
                    .workers(2)
                    .chunk_size(4)
                    .cache_capacity(0)
                    .certified()
                    .build(),
            )
            .build()
            .unwrap();
        let telemetry = engine.telemetry();
        engine.submit_batch(fns);
        engine.flush();
        assert!(engine.drain(std::time::Duration::from_secs(30)));
        let text = telemetry.render_text();
        // Every class creation is one walk sample, every other member
        // one match sample.
        assert_eq!(series(&text, "engine_canon_walk_nanos_count"), 6.0);
        assert_eq!(series(&text, "engine_canon_match_nanos_count"), 18.0);
        assert_eq!(series(&text, "engine_canon_walks_total"), 6.0);
        assert_eq!(series(&text, "engine_canon_matches_total"), 18.0);
        engine.finish();
    }

    #[test]
    fn durable_engine_records_store_latencies() {
        let dir = std::env::temp_dir()
            .join("facepoint-engine-tests")
            .join(format!("telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            workers: 2,
            chunk_size: 4,
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 8,
                sync: crate::SyncPolicy::Barrier,
            }),
            ..EngineConfig::default()
        };
        let mut engine = Engine::builder()
            .config(cfg.clone())
            .persist(&dir)
            .build()
            .unwrap();
        let telemetry = engine.telemetry();
        engine.submit_batch(workload(4, 6, 8, 0xD0C));
        engine.flush(); // epoch barrier → fsync under Barrier policy
        assert!(engine.drain(std::time::Duration::from_secs(30)));
        // 48 submissions at checkpoint_interval 8 force compactions
        // while the stream is live.
        let text = telemetry.render_text();
        assert!(
            series(&text, "store_journal_append_nanos_count") >= 1.0,
            "{text}"
        );
        assert!(series(&text, "store_journal_records_total") >= 1.0);
        assert!(series(&text, "store_fsync_nanos_count") >= 1.0);
        assert!(series(&text, "store_fsyncs_total") >= 1.0);
        assert!(series(&text, "store_checkpoint_nanos_count") >= 1.0);
        assert!(series(&text, "store_checkpoints_total") >= 1.0);
        engine.finish(); // final checkpoint; drops the store
                         // The registry holds the store only weakly, so finishing the
                         // engine releases the store's directory lock even while this
                         // telemetry handle lives on — sampled store totals read 0 now.
        let text = telemetry.render_text();
        assert_eq!(series(&text, "store_journal_records_total"), 0.0);
        // Reopening replays the checkpoints; the replay gauge reflects
        // the measured open cost.
        let reopened = Engine::builder().config(cfg).persist(&dir).build().unwrap();
        let text = reopened.telemetry().render_text();
        assert!(
            series(&text, "store_recovery_replay_nanos") >= 1.0,
            "{text}"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_handle_refuses_after_finish() {
        let mut engine = Engine::builder()
            .config(EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            })
            .build()
            .unwrap();
        let mut handle = engine.submit_handle();
        engine.submit(TruthTable::majority(3));
        let report = engine.finish();
        assert_eq!(report.stats.functions_processed, 1);
        assert_eq!(handle.submit(TruthTable::parity(3)), None);
        assert_eq!(handle.submit_batch([TruthTable::parity(3)]), None);
    }
}
