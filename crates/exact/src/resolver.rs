//! The exact resolution tier: digest buckets resolved into proved NPN
//! classes.
//!
//! Signature digests are *necessary* conditions for NPN equivalence, so
//! a digest bucket can merge — never split — true classes. This module
//! promotes a bucket to certainty: [`BucketResolver`] keeps, per digest
//! key, the certified representatives discovered so far; a bucket's
//! first member is canonicalized eagerly with [`certified_canonical`]
//! (the adjacent-transposition/flip Gray-code walk up to six variables,
//! an influence/cofactor-pruned walk above), and later members take the
//! cheap exact [`npn_match`](crate::npn_match) witness path against the
//! cached representatives. The matcher is exact in both directions, so
//! the resulting partition is the true NPN partition whatever the
//! canonical labels look like.

use crate::exhaustive::exact_npn_canonical;
use crate::matcher::npn_match;
use facepoint_sig::influence;
use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Word-sized arity bound below which the exhaustive Gray-code walk is
/// cheap enough to run per class (`6!·2^6 = 46080` states, all on one
/// `u64`).
const EXHAUSTIVE_MAX_VARS: usize = 6;

/// Transform-count budget of the pruned walk above six variables.
/// Random functions have near-unique variable profiles and pinned
/// phases, so their candidate set is tiny; only highly symmetric
/// functions blow this budget and fall back to the deterministic
/// semi-canonical label (the partition stays exact either way — class
/// membership is decided by the matcher, never by label equality).
const CANON_BUDGET: u64 = 4096;

/// Number of resolver shards (the bucket maps are sharded by the
/// digest's high bits, like the partition store, so workers resolving
/// different buckets rarely contend).
const RESOLVER_SHARDS: usize = 16;

/// The certified canonical representative of `f`, plus whether the
/// label is class-invariant.
///
/// * `n ≤ 6`: the exhaustive Gray-code walk
///   ([`exact_npn_canonical`]) — the globally minimal orbit element,
///   always invariant.
/// * `n ≥ 7`: the minimum over the *pruned* transform set — output
///   polarity normalized to the smaller ones-count, every input phase
///   normalized to the smaller cofactor side, variables sorted by
///   their (cofactor pair, influence) profile; only ties contribute
///   enumeration. The pruning conditions are NPN-orbit invariants, so
///   this minimum is a class invariant too. When the tie groups are so
///   large that the candidate count exceeds the internal budget (heavy
///   symmetry), the first pruned arrangement is returned instead and
///   the flag is `false`: still deterministic per function, no longer
///   guaranteed identical across class members.
///
/// Two NPN-equivalent functions receive equal labels whenever the flag
/// is `true` for their class (the flag itself is orbit-invariant).
///
/// # Examples
///
/// ```
/// use facepoint_exact::certified_canonical;
/// use facepoint_truth::{NpnTransform, TruthTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let f = TruthTable::random(7, &mut rng)?;
/// let g = NpnTransform::random(7, &mut rng).apply(&f);
/// let (cf, exact_f) = certified_canonical(&f);
/// let (cg, exact_g) = certified_canonical(&g);
/// assert!(exact_f && exact_g);
/// assert_eq!(cf, cg);
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn certified_canonical(f: &TruthTable) -> (TruthTable, bool) {
    let n = f.num_vars();
    if n <= EXHAUSTIVE_MAX_VARS {
        return (exact_npn_canonical(f), true);
    }
    let ones = f.count_ones();
    let total = f.num_bits();
    // Output polarity: canonicalize to the smaller ones-count; both
    // when balanced.
    let mut polarities: Vec<TruthTable> = Vec::with_capacity(2);
    if 2 * ones <= total {
        polarities.push(f.clone());
    }
    if 2 * ones >= total {
        polarities.push(f.negated());
    }
    let plans: Vec<PrunedPlan> = polarities.iter().map(PrunedPlan::new).collect();
    let candidates: u128 = plans.iter().map(PrunedPlan::candidates).sum();
    let within_budget = candidates <= u128::from(CANON_BUDGET);
    let mut best: Option<TruthTable> = None;
    for (h, plan) in polarities.iter().zip(&plans) {
        if within_budget {
            plan.for_each_candidate(h, |cand| match &best {
                Some(b) if *b <= cand => {}
                _ => best = Some(cand),
            });
        } else {
            let cand = plan.first_candidate(h);
            match &best {
                Some(b) if *b <= cand => {}
                _ => best = Some(cand),
            }
        }
    }
    (best.expect("at least one polarity"), within_budget)
}

/// Per-variable orbit-invariant profile: the unordered cofactor-count
/// pair plus the influence (the same pruning data the pairwise matcher
/// uses).
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
struct Profile {
    cof_lo: u64,
    cof_hi: u64,
    influence: u32,
}

/// The pruned transform set of one output polarity: which variables
/// tie on profile (permutation freedom) and which tie on cofactor
/// counts (phase freedom).
struct PrunedPlan {
    /// Variables in non-decreasing profile order (stable).
    order: Vec<usize>,
    /// Maximal runs of equal profiles within `order`, as `(start, end)`
    /// ranges; only runs longer than 1 contribute permutations.
    groups: Vec<(usize, usize)>,
    /// Per variable: `Some(bit)` when the phase is pinned by unequal
    /// cofactor counts, `None` when both phases must be explored.
    phase: Vec<Option<bool>>,
}

impl PrunedPlan {
    fn new(h: &TruthTable) -> Self {
        let n = h.num_vars();
        let profiles: Vec<Profile> = (0..n)
            .map(|v| {
                let c0 = h.cofactor_count(v, false);
                let c1 = h.cofactor_count(v, true);
                Profile {
                    cof_lo: c0.min(c1),
                    cof_hi: c0.max(c1),
                    influence: influence(h, v),
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| profiles[v]);
        let mut groups = Vec::new();
        let mut start = 0;
        for i in 1..=n {
            if i == n || profiles[order[i]] != profiles[order[start]] {
                groups.push((start, i));
                start = i;
            }
        }
        let phase: Vec<Option<bool>> = (0..n)
            .map(|v| {
                let c0 = h.cofactor_count(v, false);
                let c1 = h.cofactor_count(v, true);
                match c0.cmp(&c1) {
                    std::cmp::Ordering::Less => Some(false),
                    std::cmp::Ordering::Greater => Some(true),
                    std::cmp::Ordering::Equal => None,
                }
            })
            .collect();
        PrunedPlan {
            order,
            groups,
            phase,
        }
    }

    /// Number of transforms this plan enumerates:
    /// `∏ tie-group! · 2^(phase ties)`.
    fn candidates(&self) -> u128 {
        let mut count: u128 = 1;
        for &(start, end) in &self.groups {
            for k in 2..=(end - start) as u128 {
                count = count.saturating_mul(k);
            }
        }
        let free_phases = self.phase.iter().filter(|p| p.is_none()).count();
        count.saturating_mul(1u128 << free_phases.min(127))
    }

    /// Applies the arrangement `order` (position `j` reads variable
    /// `order[j]`) with the phase mask `neg` to `h`.
    fn apply(h: &TruthTable, order: &[usize], neg: u16) -> TruthTable {
        let mut assignment = vec![0usize; order.len()];
        for (pos, &var) in order.iter().enumerate() {
            assignment[var] = pos;
        }
        let perm = Permutation::from_slice(&assignment).expect("bijective arrangement");
        NpnTransform::new(perm, neg, false).apply(h)
    }

    /// The single deterministic candidate used when the budget is
    /// blown: profile-sorted order, pinned-or-false phases.
    fn first_candidate(&self, h: &TruthTable) -> TruthTable {
        let neg = self.pinned_neg();
        Self::apply(h, &self.order, neg)
    }

    fn pinned_neg(&self) -> u16 {
        let mut neg = 0u16;
        for (v, p) in self.phase.iter().enumerate() {
            if *p == Some(true) {
                neg |= 1 << v;
            }
        }
        neg
    }

    /// Enumerates every candidate table of the pruned set.
    fn for_each_candidate(&self, h: &TruthTable, mut visit: impl FnMut(TruthTable)) {
        let free: Vec<usize> = (0..self.phase.len())
            .filter(|&v| self.phase[v].is_none())
            .collect();
        let pinned = self.pinned_neg();
        let mut order = self.order.clone();
        let groups = self.groups.clone();
        // Recursively permute each tie group in place; at the leaf,
        // sweep the free-phase odometer.
        fn descend(
            h: &TruthTable,
            order: &mut [usize],
            groups: &[(usize, usize)],
            free: &[usize],
            pinned: u16,
            visit: &mut impl FnMut(TruthTable),
        ) {
            match groups.split_first() {
                None => {
                    for mask in 0u32..(1u32 << free.len()) {
                        let mut neg = pinned;
                        for (bit, &v) in free.iter().enumerate() {
                            if (mask >> bit) & 1 == 1 {
                                neg |= 1 << v;
                            }
                        }
                        visit(PrunedPlan::apply(h, order, neg));
                    }
                }
                Some((&(start, end), rest)) => {
                    // Heap-style recursive permutation of order[start..end].
                    #[allow(clippy::too_many_arguments)]
                    fn permute(
                        h: &TruthTable,
                        order: &mut [usize],
                        lo: usize,
                        hi: usize,
                        rest: &[(usize, usize)],
                        free: &[usize],
                        pinned: u16,
                        visit: &mut impl FnMut(TruthTable),
                    ) {
                        if lo + 1 >= hi {
                            descend(h, order, rest, free, pinned, visit);
                            return;
                        }
                        for i in lo..hi {
                            order.swap(lo, i);
                            permute(h, order, lo + 1, hi, rest, free, pinned, visit);
                            order.swap(lo, i);
                        }
                    }
                    permute(h, order, start, end, rest, free, pinned, visit);
                }
            }
        }
        descend(h, &mut order, &groups, &free, pinned, &mut visit);
    }
}

/// Outcome of resolving one function against its digest bucket.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The certified representative of the function's proved class.
    pub representative: TruthTable,
    /// `true` when this resolution *created* the class (the eager
    /// canonicalization path); `false` when the function matched an
    /// already-cached representative.
    pub fresh: bool,
}

/// A concurrent digest-bucket → certified-representative cache.
///
/// Sharded by the digest's high bits like the partition store. Lookups
/// hold one shard lock for the (cheap, profile-pruned) matcher pass;
/// eager canonicalization of a new class runs *outside* the lock with
/// a double-checked re-match before insertion, so concurrent workers
/// discovering the same class converge on one representative.
#[derive(Debug)]
pub struct BucketResolver {
    shards: Vec<Mutex<HashMap<u128, Vec<TruthTable>>>>,
    walks: AtomicU64,
    matches: AtomicU64,
    fallbacks: AtomicU64,
}

impl Default for BucketResolver {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketResolver {
    /// An empty resolver.
    pub fn new() -> Self {
        BucketResolver {
            shards: (0..RESOLVER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            walks: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: u128) -> &Mutex<HashMap<u128, Vec<TruthTable>>> {
        &self.shards[(digest >> 124) as usize % RESOLVER_SHARDS]
    }

    fn match_in(reps: &[TruthTable], f: &TruthTable) -> Option<TruthTable> {
        reps.iter()
            .find(|rep| {
                rep.num_vars() == f.num_vars() && (*rep == f || npn_match(f, rep).is_some())
            })
            .cloned()
    }

    /// Resolves `f` (whose signature digest is `digest`) to its
    /// certified class representative, creating the class when `f` is
    /// the bucket's first member of it.
    pub fn resolve(&self, digest: u128, f: &TruthTable) -> Resolved {
        {
            let shard = self.shard(digest).lock().expect("resolver shard poisoned");
            if let Some(reps) = shard.get(&digest) {
                if let Some(representative) = Self::match_in(reps, f) {
                    self.matches.fetch_add(1, Ordering::Relaxed);
                    return Resolved {
                        representative,
                        fresh: false,
                    };
                }
            }
        }
        // First member of a new class in this bucket: canonicalize
        // eagerly, outside the lock.
        let (canon, invariant) = certified_canonical(f);
        let mut shard = self.shard(digest).lock().expect("resolver shard poisoned");
        let reps = shard.entry(digest).or_default();
        // Double-check: another worker may have inserted this class
        // while we walked.
        if let Some(representative) = Self::match_in(reps, f) {
            self.matches.fetch_add(1, Ordering::Relaxed);
            return Resolved {
                representative,
                fresh: false,
            };
        }
        reps.push(canon.clone());
        // Counted only on insertion, so `walks + fallbacks` equals the
        // classes created whatever the worker count: a worker that lost
        // the race above is counted as a match instead.
        if invariant {
            self.walks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        Resolved {
            representative: canon,
            fresh: true,
        }
    }

    /// Looks up the certified class of `f` without creating one,
    /// returning the cached representative and a witness transform `t`
    /// with `t.apply(f) == representative`.
    pub fn witness(&self, digest: u128, f: &TruthTable) -> Option<(TruthTable, NpnTransform)> {
        let shard = self.shard(digest).lock().expect("resolver shard poisoned");
        let reps = shard.get(&digest)?;
        reps.iter()
            .filter(|rep| rep.num_vars() == f.num_vars())
            .find_map(|rep| npn_match(f, rep).map(|t| (rep.clone(), t)))
    }

    /// Seeds a recovered class representative into its bucket (used
    /// when reopening a persisted certified store: the stored
    /// representative's digest equals the whole class's digest, since
    /// signatures are NPN invariants).
    pub fn prime(&self, digest: u128, representative: TruthTable) {
        let mut shard = self.shard(digest).lock().expect("resolver shard poisoned");
        let reps = shard.entry(digest).or_default();
        if !reps.contains(&representative) {
            reps.push(representative);
        }
    }

    /// Total certified classes cached across all buckets.
    pub fn num_classes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("resolver shard poisoned")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Class creations with an invariant label (eager Gray-code or
    /// pruned-walk canonicalizations that inserted a class; a walk that
    /// lost an insertion race counts as a match).
    pub fn walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    /// Members resolved through the pairwise-matcher path against a
    /// cached representative.
    pub fn matches(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    /// Class creations that fell back to the semi-canonical label
    /// because the pruned walk's budget was exceeded (heavy symmetry).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_arities_use_the_exact_walk() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in 0..=6usize {
            for _ in 0..6 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let (canon, invariant) = certified_canonical(&f);
                assert!(invariant, "n = {n}");
                assert_eq!(canon, exact_npn_canonical(&f), "n = {n}, f = {f}");
            }
        }
    }

    #[test]
    fn pruned_walk_is_npn_invariant() {
        let mut rng = StdRng::seed_from_u64(43);
        for n in 7..=8usize {
            for _ in 0..12 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                let g = t.apply(&f);
                let (cf, inv_f) = certified_canonical(&f);
                let (cg, inv_g) = certified_canonical(&g);
                assert_eq!(inv_f, inv_g, "budget verdict is orbit-invariant");
                if inv_f {
                    assert_eq!(cf, cg, "n = {n}, f = {f}, t = {t}");
                }
            }
        }
    }

    #[test]
    fn pruned_label_stays_in_the_orbit() {
        let mut rng = StdRng::seed_from_u64(47);
        for _ in 0..8 {
            let f = TruthTable::random(7, &mut rng).unwrap();
            let (canon, _) = certified_canonical(&f);
            assert!(
                crate::matcher::are_npn_equivalent(&f, &canon),
                "label must be an orbit member, f = {f}"
            );
        }
    }

    #[test]
    fn symmetric_functions_fall_back_deterministically() {
        let p = TruthTable::parity(8);
        let (a, invariant) = certified_canonical(&p);
        assert!(!invariant, "parity ties every profile");
        let (b, _) = certified_canonical(&p);
        assert_eq!(a, b, "fallback label is deterministic");
        assert!(crate::matcher::are_npn_equivalent(&p, &a));
    }

    #[test]
    fn resolver_matches_members_and_splits_collisions() {
        let resolver = BucketResolver::new();
        let mut rng = StdRng::seed_from_u64(53);
        let f = TruthTable::random(5, &mut rng).unwrap();
        let g = NpnTransform::random(5, &mut rng).apply(&f);
        let digest = 0xfeed_u128 << 100;
        let first = resolver.resolve(digest, &f);
        assert!(first.fresh);
        let second = resolver.resolve(digest, &g);
        assert!(!second.fresh, "orbit member joins the cached class");
        assert_eq!(first.representative, second.representative);
        // A non-equivalent function planted in the *same* bucket (a
        // digest collision) splits into its own certified class.
        let other = TruthTable::parity(5);
        let split = resolver.resolve(digest, &other);
        assert!(split.fresh);
        assert_ne!(split.representative, first.representative);
        assert_eq!(resolver.num_classes(), 2);
        assert_eq!(resolver.walks() + resolver.fallbacks(), 2);
        assert_eq!(resolver.matches(), 1);
    }

    #[test]
    fn witness_maps_onto_the_cached_representative() {
        let resolver = BucketResolver::new();
        let mut rng = StdRng::seed_from_u64(59);
        let f = TruthTable::random(6, &mut rng).unwrap();
        let digest = 7u128;
        assert!(resolver.witness(digest, &f).is_none(), "empty bucket");
        let resolved = resolver.resolve(digest, &f);
        let g = NpnTransform::random(6, &mut rng).apply(&f);
        let (rep, t) = resolver.witness(digest, &g).expect("class is cached");
        assert_eq!(rep, resolved.representative);
        assert_eq!(t.apply(&g), rep);
    }

    #[test]
    fn prime_rebuilds_a_bucket_without_walking() {
        let resolver = BucketResolver::new();
        let f = TruthTable::majority(5);
        let (canon, _) = certified_canonical(&f);
        resolver.prime(99, canon.clone());
        resolver.prime(99, canon.clone()); // idempotent
        assert_eq!(resolver.num_classes(), 1);
        let resolved = resolver.resolve(99, &f.flip_var(2));
        assert!(!resolved.fresh, "primed class is matched, not re-walked");
        assert_eq!(resolved.representative, canon);
        assert_eq!(resolver.walks(), 0);
    }

    #[test]
    fn mixed_arity_digest_collisions_never_match() {
        // A (hypothetical) digest collision across arities must split,
        // not panic inside the matcher.
        let resolver = BucketResolver::new();
        let a = resolver.resolve(1, &TruthTable::majority(3));
        let b = resolver.resolve(1, &TruthTable::majority(5));
        assert!(a.fresh && b.fresh);
        assert_eq!(resolver.num_classes(), 2);
    }
}
