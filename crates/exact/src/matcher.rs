//! Pairwise exact NPN equivalence: a backtracking Boolean matcher with
//! signature pruning.
//!
//! Where canonical forms answer "what is the class representative?", the
//! matcher answers the cheaper question "are these two functions NPN
//! equivalent?" directly, which is all exact *classification* needs once
//! signature buckets have pre-grouped the candidates (the architecture of
//! the paper's `exact version in \[19\]` comparison point, and of the
//! sensitivity-pruned matcher of Zhang et al. \[6\]).
//!
//! The search assigns, one source variable at a time, a target variable
//! and phase, pruning with per-variable profiles (cofactor pair +
//! influence) and validating every partial assignment with joint cofactor
//! counts. On NPN-equivalent inputs the profiles typically pin the
//! mapping almost uniquely; on non-equivalent inputs that survived the
//! signature bucket the partial-assignment checks cut the tree quickly.

use facepoint_sig::influence;
use facepoint_truth::words::{var_mask_word, MAX_VARS};
use facepoint_truth::{NpnTransform, Permutation, TruthTable};

/// Decides NPN equivalence of `f` and `g`, returning a witness transform
/// `t` (with `t.apply(f) == g`) when equivalent.
///
/// # Panics
///
/// Panics if the functions have different variable counts (functions of
/// different arity are never NPN-equivalent; the caller buckets by arity
/// first).
///
/// # Examples
///
/// ```
/// use facepoint_exact::npn_match;
/// use facepoint_truth::{NpnTransform, TruthTable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let f = TruthTable::random(6, &mut rng)?;
/// let g = NpnTransform::random(6, &mut rng).apply(&f);
/// let witness = npn_match(&f, &g).expect("equivalent by construction");
/// assert_eq!(witness.apply(&f), g);
/// # Ok::<(), facepoint_truth::Error>(())
/// ```
pub fn npn_match(f: &TruthTable, g: &TruthTable) -> Option<NpnTransform> {
    assert_eq!(
        f.num_vars(),
        g.num_vars(),
        "NPN matching requires equal variable counts"
    );
    let n = f.num_vars();
    let ones_f = f.count_ones();
    let ones_g = g.count_ones();
    let total = f.num_bits();

    // Output phase: |t(f)| is |f| (no output negation) or 2^n − |f|.
    for out in [false, true] {
        let ones_h = if out { total - ones_f } else { ones_f };
        if ones_h != ones_g {
            continue;
        }
        let negated;
        let h = if out {
            negated = f.negated();
            &negated
        } else {
            f
        };
        if n == 0 {
            // Constants: equality after output phase settles it.
            if h == g {
                return Some(NpnTransform::phase(0, 0, out));
            }
            continue;
        }
        if let Some((perm, neg)) = match_pn(h, g) {
            let t = NpnTransform::new(perm, neg, out);
            debug_assert_eq!(t.apply(f), *g);
            return Some(t);
        }
    }
    None
}

/// Whether `f` and `g` are NPN-equivalent (no witness needed).
pub fn are_npn_equivalent(f: &TruthTable, g: &TruthTable) -> bool {
    npn_match(f, g).is_some()
}

/// Decides **PN equivalence** (input negation + permutation, no output
/// negation): `g(X) = f(Y)`, `Y_i = X_{perm[i]} ⊕ neg_i`.
///
/// The restriction the paper's Theorems 1, 2 and 4 are stated for.
///
/// # Panics
///
/// Panics if the functions have different variable counts.
pub fn pn_match(f: &TruthTable, g: &TruthTable) -> Option<NpnTransform> {
    assert_eq!(
        f.num_vars(),
        g.num_vars(),
        "PN matching requires equal variable counts"
    );
    if f.count_ones() != g.count_ones() {
        return None;
    }
    if f.num_vars() == 0 {
        return (f == g).then(|| NpnTransform::identity(0));
    }
    let (perm, neg) = match_pn(f, g)?;
    let t = NpnTransform::new(perm, neg, false);
    debug_assert_eq!(t.apply(f), *g);
    Some(t)
}

/// Decides **P equivalence** (permutation only): `g(X) = f(π(X))`.
///
/// # Panics
///
/// Panics if the functions have different variable counts.
pub fn p_match(f: &TruthTable, g: &TruthTable) -> Option<Permutation> {
    assert_eq!(
        f.num_vars(),
        g.num_vars(),
        "P matching requires equal variable counts"
    );
    let n = f.num_vars();
    if f.count_ones() != g.count_ones() {
        return None;
    }
    if n == 0 {
        return (f == g).then(|| Permutation::identity(0));
    }
    // Candidates must preserve the *ordered* cofactor pair (no phase
    // freedom here).
    let key = |t: &TruthTable, v: usize| (t.cofactor_count(v, false), t.cofactor_count(v, true));
    let mut order: Vec<usize> = (0..n).collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|i| (0..n).filter(|&j| key(g, j) == key(f, i)).collect())
        .collect();
    order.sort_by_key(|&i| candidates[i].len());
    fn descend(
        f: &TruthTable,
        g: &TruthTable,
        order: &[usize],
        candidates: &[Vec<usize>],
        assignment: &mut Vec<usize>,
        used: &mut Vec<bool>,
        depth: usize,
    ) -> bool {
        let n = f.num_vars();
        if depth == n {
            let perm = Permutation::from_slice(assignment).expect("bijective");
            return f.permute_vars(&perm) == *g;
        }
        let fv = order[depth];
        for &gv in &candidates[fv] {
            if used[gv] {
                continue;
            }
            assignment[fv] = gv;
            used[gv] = true;
            if descend(f, g, order, candidates, assignment, used, depth + 1) {
                return true;
            }
            assignment[fv] = usize::MAX;
            used[gv] = false;
        }
        false
    }
    let mut assignment = vec![usize::MAX; n];
    let mut used = vec![false; n];
    if descend(f, g, &order, &candidates, &mut assignment, &mut used, 0) {
        let perm = Permutation::from_slice(&assignment).expect("bijective");
        debug_assert_eq!(f.permute_vars(&perm), *g);
        Some(perm)
    } else {
        None
    }
}

/// Per-variable invariant profile: the unordered cofactor-count pair and
/// the influence. A variable of `h` can only map to a variable of `g`
/// with an identical profile.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug, Default)]
struct VarProfile {
    cof_lo: u64,
    cof_hi: u64,
    influence: u32,
}

/// One side's per-variable data, computed once per match: the ordered
/// cofactor pair `(|t_{x=0}|, |t_{x=1}|)` and the profile.
struct SideData {
    cof: [(u64, u64); MAX_VARS],
    profile: [VarProfile; MAX_VARS],
}

impl SideData {
    fn new(t: &TruthTable) -> Self {
        let ones = t.count_ones();
        let mut side = SideData {
            cof: [(0, 0); MAX_VARS],
            profile: [VarProfile::default(); MAX_VARS],
        };
        for v in 0..t.num_vars() {
            let c1 = t.cofactor_count(v, true);
            let c0 = ones - c1;
            side.cof[v] = (c0, c1);
            side.profile[v] = VarProfile {
                cof_lo: c0.min(c1),
                cof_hi: c0.max(c1),
                influence: influence(t, v),
            };
        }
        side
    }
}

/// PN matching: find `(perm, neg)` with `g(X) = h(Y)`, `Y_i = X_{perm[i]}
/// ⊕ neg_i`.
fn match_pn(h: &TruthTable, g: &TruthTable) -> Option<(Permutation, u16)> {
    let n = h.num_vars();
    let hs = SideData::new(h);
    let gs = SideData::new(g);

    // The profile multisets must agree.
    {
        let mut a = hs.profile;
        let mut b = gs.profile;
        a[..n].sort_unstable();
        b[..n].sort_unstable();
        if a[..n] != b[..n] {
            return None;
        }
    }

    // Candidate g-variables per h-variable as bitmasks (visited in
    // ascending index order); search scarcest-first, ties in index
    // order (the sort is stable).
    let mut candidates = [0u32; MAX_VARS];
    for (i, mask) in candidates[..n].iter_mut().enumerate() {
        for j in 0..n {
            if gs.profile[j] == hs.profile[i] {
                *mask |= 1 << j;
            }
        }
    }
    let mut order: [usize; MAX_VARS] = std::array::from_fn(|i| i);
    order[..n].sort_by_key(|&i| candidates[i].count_ones());

    let mut state = SearchState {
        h,
        g,
        n,
        order,
        candidates,
        h_cof: hs.cof,
        g_cof: gs.cof,
        assignment: [0; MAX_VARS],
        used: 0,
        neg: 0,
    };
    if state.descend(0) {
        let perm = Permutation::from_slice(&state.assignment[..n]).expect("bijective assignment");
        Some((perm, state.neg))
    } else {
        None
    }
}

/// Variables whose joint cofactor counts [`SearchState::partial_check`]
/// compares; deeper prefixes cost more to check than they prune and
/// are validated by the leaf's equality test.
const JOINT_CHECK_VARS: usize = 4;

struct SearchState<'a> {
    h: &'a TruthTable,
    g: &'a TruthTable,
    n: usize,
    order: [usize; MAX_VARS],
    /// Bit `j` of `candidates[i]`: g-variable `j` shares h-variable
    /// `i`'s profile.
    candidates: [u32; MAX_VARS],
    h_cof: [(u64, u64); MAX_VARS],
    g_cof: [(u64, u64); MAX_VARS],
    /// `assignment[i] = perm[i]`: g-position read by h-variable `i`
    /// (meaningful for the assigned prefix of `order`).
    assignment: [usize; MAX_VARS],
    /// Bitmask of the g-variables already assigned.
    used: u32,
    /// Input negation mask on h-variables.
    neg: u16,
}

impl SearchState<'_> {
    fn descend(&mut self, depth: usize) -> bool {
        if depth == self.n {
            return self.full_check();
        }
        let hv = self.order[depth];
        let (c0h, c1h) = self.h_cof[hv];
        let mut free = self.candidates[hv] & !self.used;
        while free != 0 {
            let gv = free.trailing_zeros() as usize;
            free &= free - 1;
            for neg_bit in [false, true] {
                // A negated mapping only differs when the cofactor counts
                // differ; when they're equal both phases must be explored
                // (they lead to different completions), when they differ
                // only the count-matching phase can work.
                let mapped = if neg_bit { (c1h, c0h) } else { (c0h, c1h) };
                if mapped != self.g_cof[gv] {
                    continue;
                }
                self.assignment[hv] = gv;
                self.used |= 1 << gv;
                if neg_bit {
                    self.neg |= 1 << hv;
                }
                if self.partial_check(depth + 1) && self.descend(depth + 1) {
                    return true;
                }
                self.used &= !(1 << gv);
                self.neg &= !(1 << hv);
            }
        }
        false
    }

    /// Joint cofactor counts over the currently assigned variables must
    /// match between h and g under the partial mapping.
    ///
    /// Only the assignments with the newest variable at 1 are compared:
    /// the prefix without it already matched (or, for the first
    /// variable, `|h| = |g|`), and each count with the newest variable
    /// at 0 is that prefix count minus its partner at 1.
    // analysis: no_alloc
    fn partial_check(&self, assigned: usize) -> bool {
        if assigned > JOINT_CHECK_VARS {
            return true;
        }
        let mut h_vars = [0usize; JOINT_CHECK_VARS];
        let mut g_vars = [0usize; JOINT_CHECK_VARS];
        let mut h_flip = 0u32;
        for (b, &hv) in self.order[..assigned].iter().enumerate() {
            h_vars[b] = hv;
            g_vars[b] = self.assignment[hv];
            h_flip |= u32::from((self.neg >> hv) & 1) << b;
        }
        let (h_vars, g_vars) = (&h_vars[..assigned], &g_vars[..assigned]);
        let newest = 1u32 << (assigned - 1);
        (newest..newest << 1)
            .all(|a| joint_count(self.h, h_vars, a ^ h_flip) == joint_count(self.g, g_vars, a))
    }

    fn full_check(&self) -> bool {
        let perm = Permutation::from_slice(&self.assignment[..self.n])
            .expect("complete bijective assignment");
        let t = NpnTransform::new(perm, self.neg, false);
        t.apply(self.h) == *self.g
    }
}

/// `|t_{vars = values}|`: the satisfy count of the joint cofactor fixing
/// `vars[b]` to bit `b` of `values` — [`TruthTable::cofactor_count_multi`]
/// without its argument validation or value slice.
// analysis: no_alloc
fn joint_count(t: &TruthTable, vars: &[usize], values: u32) -> u64 {
    let mut count = 0u64;
    for (i, &w) in t.words().iter().enumerate() {
        let mut sel = w;
        for (b, &v) in vars.iter().enumerate() {
            let m = var_mask_word(v, i);
            sel &= if (values >> b) & 1 == 1 { m } else { !m };
        }
        count += u64::from(sel.count_ones());
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equivalent_pairs_match_with_witness() {
        let mut rng = StdRng::seed_from_u64(101);
        for n in 0..=7usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let t = NpnTransform::random(n, &mut rng);
                let g = t.apply(&f);
                let w = npn_match(&f, &g).unwrap_or_else(|| panic!("n = {n}, f = {f}"));
                assert_eq!(w.apply(&f), g);
            }
        }
    }

    #[test]
    fn matcher_agrees_with_exhaustive_canonical() {
        let mut rng = StdRng::seed_from_u64(103);
        for _ in 0..60 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let g = TruthTable::random(4, &mut rng).unwrap();
            let via_canon = crate::exhaustive::exact_npn_canonical(&f)
                == crate::exhaustive::exact_npn_canonical(&g);
            assert_eq!(are_npn_equivalent(&f, &g), via_canon, "f = {f}, g = {g}");
        }
    }

    #[test]
    fn non_equivalent_rejected() {
        // Same satisfy count, different classes.
        let maj = TruthTable::majority(3); // |f| = 4, balanced
        let proj = TruthTable::projection(3, 0).unwrap(); // |f| = 4, balanced
        assert!(npn_match(&maj, &proj).is_none());
    }

    #[test]
    fn output_phase_only() {
        let f = TruthTable::from_hex(4, "0123").unwrap();
        let g = f.negated();
        let w = npn_match(&f, &g).expect("complement is NPN-equivalent");
        assert_eq!(w.apply(&f), g);
    }

    #[test]
    fn symmetric_functions_match_quickly() {
        // Total symmetry = worst case for canonical forms, easy for the
        // matcher (first candidate succeeds).
        let f = TruthTable::majority(9);
        let mut g = f.clone();
        g.flip_var_in_place(3);
        g.flip_var_in_place(7);
        let w = npn_match(&f, &g).expect("phase change of majority");
        assert_eq!(w.apply(&f), g);
    }

    #[test]
    fn constants_and_arity_zero() {
        let zero = TruthTable::zero(0).unwrap();
        let one = TruthTable::one(0).unwrap();
        assert!(
            are_npn_equivalent(&zero, &one),
            "output negation links them"
        );
        let c0 = TruthTable::zero(3).unwrap();
        let c1 = TruthTable::one(3).unwrap();
        assert!(are_npn_equivalent(&c0, &c1));
        assert!(!are_npn_equivalent(&c0, &TruthTable::majority(3)));
    }

    #[test]
    fn pn_match_excludes_output_negation() {
        let f = TruthTable::from_hex(4, "0abc").unwrap();
        let g = f.negated();
        assert!(npn_match(&f, &g).is_some(), "NPN links complements");
        assert!(pn_match(&f, &g).is_none(), "PN must not");
        // But PN finds pure input transforms.
        let h = f.flip_var(2).swap_vars(0, 3);
        let w = pn_match(&f, &h).expect("input-only transform");
        assert!(!w.output_neg());
        assert_eq!(w.apply(&f), h);
    }

    #[test]
    fn p_match_is_permutation_only() {
        let f = TruthTable::from_hex(4, "1780").unwrap();
        let g = f.swap_vars(1, 3).swap_vars(0, 2);
        let perm = p_match(&f, &g).expect("permuted copy");
        assert_eq!(f.permute_vars(&perm), g);
        // Negating an input breaks pure-P equivalence for this function.
        let h = f.flip_var(0);
        assert!(p_match(&f, &h).is_none());
    }

    #[test]
    fn match_hierarchy_is_consistent() {
        use rand::RngExt;
        // P ⊆ PN ⊆ NPN on random pairs.
        let mut rng = StdRng::seed_from_u64(331);
        for _ in 0..30 {
            let f = TruthTable::random(4, &mut rng).unwrap();
            let g = if rng.random::<bool>() {
                NpnTransform::random(4, &mut rng).apply(&f)
            } else {
                TruthTable::random(4, &mut rng).unwrap()
            };
            let p = p_match(&f, &g).is_some();
            let pn = pn_match(&f, &g).is_some();
            let npn = npn_match(&f, &g).is_some();
            assert!(!p || pn, "P implies PN");
            assert!(!pn || npn, "PN implies NPN");
        }
    }

    #[test]
    fn parity_class_is_closed() {
        // Every input/output phasing of parity is the same function ±.
        let p = TruthTable::parity(5);
        let mut rng = StdRng::seed_from_u64(107);
        for _ in 0..5 {
            let t = NpnTransform::random(5, &mut rng);
            assert!(are_npn_equivalent(&p, &t.apply(&p)));
        }
        // And parity is not equivalent to majority.
        assert!(!are_npn_equivalent(&p, &TruthTable::majority(5)));
    }
}
