//! Ordered sensitivity-distance vectors (`OSDV`) —
//! Definitions 9 and 10 of the paper.
//!
//! `OSDV(f)` refines the sensitivity vector with *geometry*: for every
//! sensitivity level `s` it histograms the Hamming distances of all
//! unordered pairs of minterms that share that local sensitivity.
//! `OSDV1`/`OSDV0` restrict the pairs to 1-/0-minterms.
//!
//! Two engines compute the pair histograms and are differential-tested
//! against each other:
//!
//! * [`OsdvEngine::Pairwise`] — group minterms by sensitivity, histogram
//!   `popcount(X ⊕ Y)` over every in-group pair: `O(Σ|G|²)`, excellent for
//!   sparse groups;
//! * [`OsdvEngine::Wht`] — per group, a Walsh–Hadamard spectral pass
//!   gives the count of pairs at every distance in `O(n·2^n)` regardless
//!   of group size.
//!
//! [`OsdvEngine::Auto`] (the default) picks per group based on the group
//! population.
//!
//! The spectral engine itself comes in two forms. [`osdv_rows_into`]
//! keeps the classic two-transform XOR autocorrelation
//! (`WHT(WHT(a)²)/2^n`, then bin the `2^n` differences by popcount) —
//! it is the frozen reference tail that [`crate::msv_reference`]
//! benchmarks against. The kernel's fused sweep
//! ([`osdv_point_sections_into`]) uses a
//! **single-transform, weight-binned** tail instead: with `W = WHT(a)`
//! and the per-weight energies `E_w = Σ_{|s|=w} W[s]²`, the distance
//! histogram is `δ_j = (Σ_w K_j(w)·E_w) / 2^{n+1}` where `K_j` are the
//! binary Krawtchouk polynomials. That removes the inverse transform,
//! the squaring pass, and the difference binning; and because the two
//! polarity groups of a level partition its minterms, the level
//! indicator's transform `S` is shared: `WHT(g0) = S − WHT(g1)`, one
//! subtraction inside the energy pass instead of a second butterfly
//! cascade over a freshly encoded group.

use crate::sensitivity::SensitivityProfile;
use crate::spectral::{wht_in_place, xor_autocorrelation_into};
use facepoint_truth::words::{MAX_VARS, WORD_VARS};
use facepoint_truth::TruthTable;
use std::fmt;

/// The [`OsdvEngine::Auto`] crossover: a group of population `p` is
/// counted pairwise while `p² < n·2^n` (the transform's operation
/// count) and spectrally otherwise. One threshold serves both spectral
/// tails — the classic autocorrelation of [`osdv_rows_into`] and the
/// weight-binned tail of the fused sweep; with the
/// table-driven pairwise counter it measured best for the latter too.
pub const fn classic_crossover(num_vars: usize) -> u64 {
    (num_vars as u64) << num_vars
}

/// Reusable scratch buffers for [`osdv_rows_into`] — owning these lets
/// the signature kernel compute OSDVs with zero steady-state heap
/// allocations.
#[derive(Debug, Default, Clone)]
pub struct OsdvScratch {
    /// Bit-packed indicator of the current sensitivity group.
    group: Vec<u64>,
    /// Bit-packed indicator of the 1-polarity group in the fused sweep
    /// (`group` then holds the 0-polarity half).
    group1: Vec<u64>,
    /// Unfiltered indicator, shared by both polarity groups in the
    /// fused sweep.
    ind: Vec<u64>,
    /// Expanded member list for the pairwise engine.
    pub(crate) members: Vec<u16>,
    /// Walsh–Hadamard workspace for the classic autocorrelation engine.
    wht: Vec<i64>,
    /// Workspace of the single-transform weight-binned spectral tail.
    pub(crate) tail: SpectralTail,
}

/// Scratch of the weight-binned spectral pair counter: transform
/// buffers, per-weight energies, and the cached Krawtchouk table.
#[derive(Debug, Default, Clone)]
pub(crate) struct SpectralTail {
    /// Transform buffer for a single group (holds `WHT(g1)` on the
    /// shared path).
    buf: Vec<i64>,
    /// Transform buffer of the level indicator on the shared path.
    buf_level: Vec<i64>,
    /// Per-weight spectral energies of the 0-polarity group.
    e0: Vec<i64>,
    /// Per-weight spectral energies of the 1-polarity group.
    e1: Vec<i64>,
    /// Row-major `(n+1) × (n+1)` Krawtchouk table `K_j(w)`.
    kraw: Vec<i64>,
    /// Arity the cached table was built for.
    kraw_n: Option<usize>,
}

/// Strategy for counting equal-sensitivity minterm pairs by distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OsdvEngine {
    /// Always enumerate pairs inside each sensitivity group.
    Pairwise,
    /// Always use the Walsh–Hadamard spectral counter.
    Wht,
    /// Choose per group by population: pairwise below
    /// [`classic_crossover`], spectral otherwise.
    #[default]
    Auto,
}

/// Which minterms participate in the pair counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MintermFilter {
    /// All `2^n` minterms — the paper's `OSDV`.
    All,
    /// Only minterms with `f(X) = 0` — the paper's `OSDV0`.
    Zeros,
    /// Only minterms with `f(X) = 1` — the paper's `OSDV1`.
    Ones,
}

/// The ordered sensitivity-distance vector: a `(n+1) × n` matrix `δ` where
/// `δ[s][j-1]` counts unordered minterm pairs `(X, Y)`, `X < Y`, with
/// `sen(f,X) = sen(f,Y) = s` and Hamming distance `j`.
///
/// The paper flattens the matrix row-major as
/// `(σ_0, σ_1, …, σ_n)`, `σ_s = (δ_{s1}, …, δ_{sn})`; [`Osdv::flatten`]
/// and the `Display` impl reproduce that order.
///
/// # Examples
///
/// ```
/// use facepoint_sig::{osdv1, Osdv};
/// use facepoint_truth::TruthTable;
///
/// // Table I: OSDV1 of the 3-majority is (0,0,0, 0,0,0, 0,3,0, 0,0,0).
/// let v = osdv1(&TruthTable::majority(3));
/// assert_eq!(v.flatten(), vec![0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Osdv {
    num_vars: usize,
    /// Row-major `(n+1) × n`: entry `s * n + (j - 1)`.
    rows: Vec<u64>,
}

impl Osdv {
    /// Number of variables of the underlying function.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The pair count `δ_{sj}` for sensitivity `s` and distance `j ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `s > n` or `j` is not in `1..=n`.
    pub fn delta(&self, s: u32, j: u32) -> u64 {
        let n = self.num_vars;
        assert!((s as usize) <= n, "sensitivity {s} out of range");
        assert!(j >= 1 && (j as usize) <= n, "distance {j} out of range");
        self.rows[s as usize * n + (j as usize - 1)]
    }

    /// Row `σ_s`: the distance histogram of sensitivity level `s`.
    pub fn sigma(&self, s: u32) -> &[u64] {
        let n = self.num_vars;
        &self.rows[s as usize * n..(s as usize + 1) * n]
    }

    /// The row-major flattening `(σ_0, …, σ_n)` used by the paper's
    /// Table I and by MSV construction.
    pub fn flatten(&self) -> Vec<u64> {
        self.rows.clone()
    }

    /// Total number of counted pairs, `Σ_{s,j} δ_{sj}`.
    pub fn total_pairs(&self) -> u64 {
        self.rows.iter().sum()
    }
}

impl fmt::Display for Osdv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Computes an OSDV variant with full control over filter and engine.
///
/// [`osdv`], [`osdv0`] and [`osdv1`] are the common shorthands.
pub fn osdv_with(f: &TruthTable, filter: MintermFilter, engine: OsdvEngine) -> Osdv {
    let profile = SensitivityProfile::compute(f);
    osdv_from_profile(f, &profile, filter, engine)
}

/// Computes an OSDV variant reusing an already-computed sensitivity
/// profile (the classifier computes OSV and OSDV from one profile, as in
/// Algorithm 1 line 5).
pub fn osdv_from_profile(
    f: &TruthTable,
    profile: &SensitivityProfile,
    filter: MintermFilter,
    engine: OsdvEngine,
) -> Osdv {
    let mut rows = Vec::new();
    let mut scratch = OsdvScratch::default();
    osdv_rows_into(f, profile, filter, engine, &mut scratch, &mut rows);
    Osdv {
        num_vars: f.num_vars(),
        rows,
    }
}

/// Writes the row-major `(n+1) × n` OSDV matrix into `rows`, reusing
/// both the output and the `scratch` buffers — the allocation-free core
/// of [`osdv_from_profile`]. For `n = 0` the output is empty.
pub fn osdv_rows_into(
    f: &TruthTable,
    profile: &SensitivityProfile,
    filter: MintermFilter,
    engine: OsdvEngine,
    scratch: &mut OsdvScratch,
    rows: &mut Vec<u64>,
) {
    let n = f.num_vars();
    rows.clear();
    if n == 0 {
        return;
    }
    rows.resize((n + 1) * n, 0);
    for s in 0..=n as u32 {
        profile.indicator_into(s, &mut scratch.group);
        match filter {
            MintermFilter::All => {}
            MintermFilter::Zeros => {
                for (g, fw) in scratch.group.iter_mut().zip(f.words()) {
                    *g &= !fw;
                }
            }
            MintermFilter::Ones => {
                for (g, fw) in scratch.group.iter_mut().zip(f.words()) {
                    *g &= fw;
                }
            }
        }
        let pop: u64 = scratch.group.iter().map(|w| w.count_ones() as u64).sum();
        if pop < 2 {
            continue;
        }
        let use_pairwise = match engine {
            OsdvEngine::Pairwise => true,
            OsdvEngine::Wht => false,
            OsdvEngine::Auto => pop * pop < classic_crossover(n),
        };
        let row = &mut rows[s as usize * n..(s as usize + 1) * n];
        if use_pairwise {
            count_pairs_naive(&scratch.group, row, &mut scratch.members);
        } else {
            count_pairs_wht(&scratch.group, n, row, &mut scratch.wht);
        }
    }
}

/// Computes the four point-characteristic sections of the MSV in one
/// sweep: the `OSDV0`/`OSDV1` row matrices into `rows0`/`rows1` and the
/// `OSV0`/`OSV1` histograms into `h0`/`h1`.
///
/// Per sensitivity level the indicator is built **once** and split into
/// its 0-/1-minterm halves, whose popcounts are the histogram entries
/// and whose pair counts fill the rows — versus three independent
/// indicator sweeps when the histograms and the two filtered OSDVs are
/// computed separately. Pair counting goes through the weight-binned
/// spectral tail ([`count_level_pairs`]), which shares the level
/// indicator's transform across the two polarity groups. All outputs
/// and scratch reuse their allocations.
// Four output buffers plus scratch is the point of the API: every
// consumer owns them all and reuses them across a stream.
#[allow(clippy::too_many_arguments)]
pub fn osdv_point_sections_into(
    f: &TruthTable,
    profile: &SensitivityProfile,
    engine: OsdvEngine,
    scratch: &mut OsdvScratch,
    rows0: &mut Vec<u64>,
    rows1: &mut Vec<u64>,
    h0: &mut Vec<u64>,
    h1: &mut Vec<u64>,
) {
    let n = f.num_vars();
    rows0.clear();
    rows1.clear();
    h0.clear();
    h1.clear();
    rows0.resize((n + 1) * n, 0);
    rows1.resize((n + 1) * n, 0);
    for s in 0..=n as u32 {
        profile.indicator_into(s, &mut scratch.ind);
        scratch.group.clear();
        scratch.group1.clear();
        for (&iw, &fw) in scratch.ind.iter().zip(f.words()) {
            scratch.group.push(iw & !fw);
            scratch.group1.push(iw & fw);
        }
        let pop0: u64 = scratch.group.iter().map(|w| w.count_ones() as u64).sum();
        let pop1: u64 = scratch.group1.iter().map(|w| w.count_ones() as u64).sum();
        h0.push(pop0);
        h1.push(pop1);
        if n == 0 {
            continue;
        }
        count_level_pairs(
            n,
            engine,
            &scratch.group,
            pop0,
            &scratch.group1,
            pop1,
            &mut scratch.members,
            &mut scratch.tail,
            &mut rows0[s as usize * n..(s as usize + 1) * n],
            &mut rows1[s as usize * n..(s as usize + 1) * n],
        );
    }
}

/// Distance-histograms the two polarity groups of one sensitivity level
/// into `row0`/`row1` — the level-granular engine dispatcher of the
/// fused sweep.
///
/// When both groups clear the spectral crossover they share one
/// transform: `S = WHT(g0 ∪ g1)` and `B = WHT(g1)` are computed, and
/// `WHT(g0) = S − B` falls out as a subtraction fused into the energy
/// pass, so the level costs two butterfly cascades where independent
/// autocorrelations cost four.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_level_pairs(
    num_vars: usize,
    engine: OsdvEngine,
    g0: &[u64],
    pop0: u64,
    g1: &[u64],
    pop1: u64,
    members: &mut Vec<u16>,
    tail: &mut SpectralTail,
    row0: &mut [u64],
    row1: &mut [u64],
) {
    let spectral = |pop: u64| match engine {
        OsdvEngine::Pairwise => false,
        OsdvEngine::Wht => true,
        OsdvEngine::Auto => pop * pop >= classic_crossover(num_vars),
    };
    let s0 = pop0 >= 2 && spectral(pop0);
    let s1 = pop1 >= 2 && spectral(pop1);
    if s0 && s1 {
        level_pairs_spectral(g0, g1, num_vars, tail, row0, row1);
        return;
    }
    if pop0 >= 2 {
        if s0 {
            count_pairs_spectral(g0, num_vars, tail, row0);
        } else {
            count_pairs_naive(g0, row0, members);
        }
    }
    if pop1 >= 2 {
        if s1 {
            count_pairs_spectral(g1, num_vars, tail, row1);
        } else {
            count_pairs_naive(g1, row1, members);
        }
    }
}

/// ±0/1-encodes the first `len` bits of a packed indicator into `out`.
fn encode_bits_into(words: &[u64], len: usize, out: &mut Vec<i64>) {
    out.clear();
    out.resize(len, 0);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((words[i >> 6] >> (i & 63)) & 1) as i64;
    }
}

/// Encodes the union of two disjoint packed indicators into `out`.
fn encode_union_into(a: &[u64], b: &[u64], len: usize, out: &mut Vec<i64>) {
    out.clear();
    out.resize(len, 0);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = (((a[i >> 6] | b[i >> 6]) >> (i & 63)) & 1) as i64;
    }
}

/// Rebuilds the cached Krawtchouk table for arity `n` if needed:
/// `K_j(w)` row-major over `j, w ∈ 0..=n`, via the three-term recurrence
/// `(j+1)·K_{j+1}(w) = (n−2w)·K_j(w) − (n−j+1)·K_{j−1}(w)` (exact
/// integer division).
fn ensure_krawtchouk(tail: &mut SpectralTail, n: usize) {
    if tail.kraw_n == Some(n) {
        return;
    }
    let w1 = n + 1;
    tail.kraw.clear();
    tail.kraw.resize(w1 * w1, 0);
    for w in 0..=n {
        tail.kraw[w] = 1;
        if n >= 1 {
            tail.kraw[w1 + w] = n as i64 - 2 * w as i64;
        }
        for j in 1..n {
            let num = (n as i64 - 2 * w as i64) * tail.kraw[j * w1 + w]
                - (n as i64 - j as i64 + 1) * tail.kraw[(j - 1) * w1 + w];
            debug_assert_eq!(num % (j as i64 + 1), 0, "Krawtchouk recurrence is exact");
            tail.kraw[(j + 1) * w1 + w] = num / (j as i64 + 1);
        }
    }
    tail.kraw_n = Some(n);
}

/// Converts per-weight spectral energies into unordered pair counts per
/// distance: `row[j−1] += (Σ_w K_j(w)·E_w) / 2^{n+1}`.
///
/// The `1/2^n` is the inverse transform's normalization folded into the
/// weight sum (Σ over a distance shell of the autocorrelation equals
/// the Krawtchouk-weighted energy sum), the extra `1/2` turns ordered
/// pairs into unordered ones.
fn krawtchouk_rows(kraw: &[i64], num_vars: usize, energy: &[i64], row: &mut [u64]) {
    let denom = 2i64 << num_vars;
    for j in 1..=num_vars {
        let mut t = 0i64;
        for (w, &e) in energy.iter().enumerate() {
            t += kraw[j * (num_vars + 1) + w] * e;
        }
        debug_assert!(
            t >= 0 && t % denom == 0,
            "weight-binned pair sums are even multiples of 2^n"
        );
        row[j - 1] += (t / denom) as u64;
    }
}

/// Single-group weight-binned spectral pair count: one forward WHT, an
/// energy-per-weight pass, and the Krawtchouk combine.
fn count_pairs_spectral(group: &[u64], num_vars: usize, tail: &mut SpectralTail, row: &mut [u64]) {
    let len = 1usize << num_vars;
    ensure_krawtchouk(tail, num_vars);
    encode_bits_into(group, len, &mut tail.buf);
    wht_in_place(&mut tail.buf);
    tail.e0.clear();
    tail.e0.resize(num_vars + 1, 0);
    for (s, &w) in tail.buf.iter().enumerate() {
        tail.e0[(s as u32).count_ones() as usize] += w * w;
    }
    krawtchouk_rows(&tail.kraw, num_vars, &tail.e0, row);
}

/// Two-group spectral pair count sharing the level-indicator transform:
/// `S = WHT(g0 ∪ g1)`, `B = WHT(g1)`, `A = S − B` inside the fused
/// energy pass (one popcount per spectral position serves both groups).
fn level_pairs_spectral(
    g0: &[u64],
    g1: &[u64],
    num_vars: usize,
    tail: &mut SpectralTail,
    row0: &mut [u64],
    row1: &mut [u64],
) {
    let len = 1usize << num_vars;
    ensure_krawtchouk(tail, num_vars);
    encode_union_into(g0, g1, len, &mut tail.buf_level);
    wht_in_place(&mut tail.buf_level);
    encode_bits_into(g1, len, &mut tail.buf);
    wht_in_place(&mut tail.buf);
    tail.e0.clear();
    tail.e0.resize(num_vars + 1, 0);
    tail.e1.clear();
    tail.e1.resize(num_vars + 1, 0);
    for (s, (&sv, &b)) in tail.buf_level.iter().zip(&tail.buf).enumerate() {
        let w = (s as u32).count_ones() as usize;
        let a = sv - b;
        tail.e0[w] += a * a;
        tail.e1[w] += b * b;
    }
    krawtchouk_rows(&tail.kraw, num_vars, &tail.e0, row0);
    krawtchouk_rows(&tail.kraw, num_vars, &tail.e1, row1);
}

/// `OSDV(f)`: pair counts over all minterms (default engine).
pub fn osdv(f: &TruthTable) -> Osdv {
    osdv_with(f, MintermFilter::All, OsdvEngine::Auto)
}

/// `OSDV0(f)`: pair counts over the 0-minterms (default engine).
pub fn osdv0(f: &TruthTable) -> Osdv {
    osdv_with(f, MintermFilter::Zeros, OsdvEngine::Auto)
}

/// `OSDV1(f)`: pair counts over the 1-minterms (default engine).
pub fn osdv1(f: &TruthTable) -> Osdv {
    osdv_with(f, MintermFilter::Ones, OsdvEngine::Auto)
}

/// Popcount of every byte value: the pairwise counter's distance table
/// (the baseline x86-64 target has no `popcnt`, so `count_ones` is a
/// dozen-instruction bit trick).
const BYTE_POPCOUNT: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u32).count_ones() as u8;
        b += 1;
    }
    table
};

/// Pairwise distance histogram of one group: expands the members
/// (minterms fit in 16 bits, `MAX_VARS` = 16) and histograms
/// `popcount(x ⊕ y)` over every unordered pair through two
/// [`BYTE_POPCOUNT`] lookups. Alternate partners land in two histogram
/// banks so consecutive increments do not wait on each other.
// analysis: no_alloc
pub(crate) fn count_pairs_naive(group: &[u64], row: &mut [u64], members: &mut Vec<u16>) {
    debug_assert!(
        group.len() << WORD_VARS <= 1 << MAX_VARS,
        "minterms fit in 16 bits"
    );
    members.clear();
    for (w, &word) in group.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            // analysis: allow(no-alloc, "fills the scratch member list, warmed to the largest group after the first function")
            members.push(((w << WORD_VARS) | bits.trailing_zeros() as usize) as u16);
            bits &= bits - 1;
        }
    }
    let mut banks = [[0u64; MAX_VARS + 1]; 2];
    for (a, &x) in members.iter().enumerate() {
        let partners = &members[a + 1..];
        let mut pairs = partners.chunks_exact(2);
        for pair in &mut pairs {
            let (d0, d1) = (x ^ pair[0], x ^ pair[1]);
            banks[0][distance(d0)] += 1;
            banks[1][distance(d1)] += 1;
        }
        if let [y] = pairs.remainder() {
            banks[0][distance(x ^ y)] += 1;
        }
    }
    for (j, slot) in row.iter_mut().enumerate() {
        *slot += banks[0][j + 1] + banks[1][j + 1];
    }
}

/// Hamming weight of a 16-bit minterm difference by table lookup.
#[inline(always)]
fn distance(d: u16) -> usize {
    BYTE_POPCOUNT[(d & 0xff) as usize] as usize + BYTE_POPCOUNT[(d >> 8) as usize] as usize
}

fn count_pairs_wht(group: &[u64], num_vars: usize, row: &mut [u64], wht: &mut Vec<i64>) {
    xor_autocorrelation_into(group, num_vars, wht);
    for (d, &cnt) in wht.iter().enumerate().skip(1) {
        debug_assert!(cnt >= 0 && cnt % 2 == 0, "ordered pair counts are even");
        let j = (d as u64).count_ones() as usize;
        row[j - 1] += (cnt / 2) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The Auto crossover is a recorded, tested constant: `n·2^n`, the
    /// measured break-even of the table-driven pairwise counter against
    /// both spectral tails.
    #[test]
    fn crossover_constants_are_pinned() {
        for (n, classic) in [
            (1usize, 2u64),
            (4, 64),
            (8, 2048),
            (10, 10240),
            (16, 1 << 20),
        ] {
            assert_eq!(classic_crossover(n), classic, "n = {n}");
        }
    }

    /// Binomial-coefficient direct sum `K_j(w) = Σ_i (−1)^i C(w,i)C(n−w,j−i)`.
    fn krawtchouk_direct(n: i64, j: i64, w: i64) -> i64 {
        fn binom(n: i64, k: i64) -> i64 {
            if k < 0 || k > n {
                return 0;
            }
            let mut acc = 1i64;
            for i in 0..k {
                acc = acc * (n - i) / (i + 1);
            }
            acc
        }
        (0..=j)
            .map(|i| {
                let sign = if i % 2 == 0 { 1 } else { -1 };
                sign * binom(w, i) * binom(n - w, j - i)
            })
            .sum()
    }

    #[test]
    fn krawtchouk_recurrence_matches_direct_sum() {
        let mut tail = SpectralTail::default();
        for n in 0..=10usize {
            ensure_krawtchouk(&mut tail, n);
            for j in 0..=n {
                for w in 0..=n {
                    assert_eq!(
                        tail.kraw[j * (n + 1) + w],
                        krawtchouk_direct(n as i64, j as i64, w as i64),
                        "K_{j}({w}) at n = {n}"
                    );
                }
            }
        }
    }

    /// The weight-binned tail must agree with both the pairwise counter
    /// and the classic autocorrelation on single groups.
    #[test]
    fn spectral_tail_matches_classic_counters() {
        let mut rng = StdRng::seed_from_u64(0x5bec);
        let mut tail = SpectralTail::default();
        let mut members = Vec::new();
        let mut wht = Vec::new();
        for n in 1..=9usize {
            for _ in 0..4 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let group = f.words().to_vec();
                let pop: u64 = group.iter().map(|w| w.count_ones() as u64).sum();
                if pop < 2 {
                    continue;
                }
                let mut by_spectral = vec![0u64; n];
                let mut by_naive = vec![0u64; n];
                let mut by_classic = vec![0u64; n];
                count_pairs_spectral(&group, n, &mut tail, &mut by_spectral);
                count_pairs_naive(&group, &mut by_naive, &mut members);
                count_pairs_wht(&group, n, &mut by_classic, &mut wht);
                assert_eq!(by_spectral, by_naive, "n = {n}, f = {f}");
                assert_eq!(by_spectral, by_classic, "n = {n}, f = {f}");
            }
        }
    }

    /// The table-driven pairwise counter against both spectral counters
    /// on sparse groups at n = 9–12, where member differences reach the
    /// high byte (`x ⊕ y ≥ 256`) and both ends of the distance range.
    #[test]
    fn table_pair_counter_matches_spectral_on_sparse_wide_groups() {
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut tail = SpectralTail::default();
        let mut members = Vec::new();
        let mut wht = Vec::new();
        for n in 9..=12usize {
            for density_shift in [3u32, 5] {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let mut group = f.words().to_vec();
                for w in group.iter_mut() {
                    for _ in 0..density_shift {
                        *w &= rng.random::<u64>();
                    }
                }
                // Minterms 0 and 2^n − 1 sit at distance n.
                group[0] |= 1;
                *group.last_mut().unwrap() |= 1 << 63;
                let mut by_naive = vec![0u64; n];
                let mut by_spectral = vec![0u64; n];
                let mut by_classic = vec![0u64; n];
                count_pairs_naive(&group, &mut by_naive, &mut members);
                count_pairs_spectral(&group, n, &mut tail, &mut by_spectral);
                count_pairs_wht(&group, n, &mut by_classic, &mut wht);
                assert!(
                    members.iter().any(|&m| m >= 256),
                    "n = {n}: no member above the low byte"
                );
                assert!(by_naive[n - 1] >= 1, "n = {n}: no pair at distance n");
                assert_eq!(by_naive, by_spectral, "n = {n}, density 2^-{density_shift}");
                assert_eq!(by_naive, by_classic, "n = {n}, density 2^-{density_shift}");
            }
        }
    }

    #[test]
    fn table1_majority_osdv1() {
        let f1 = TruthTable::majority(3);
        let v = osdv1(&f1);
        assert_eq!(v.flatten(), vec![0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]);
        assert_eq!(v.delta(2, 2), 3);
    }

    #[test]
    fn table1_majority_osdv() {
        let f1 = TruthTable::majority(3);
        let v = osdv(&f1);
        assert_eq!(v.flatten(), vec![0, 0, 1, 0, 0, 0, 6, 6, 3, 0, 0, 0]);
    }

    #[test]
    fn table1_projection_osdv1_and_osdv() {
        let f3 = TruthTable::projection(3, 2).unwrap();
        assert_eq!(
            osdv1(&f3).flatten(),
            vec![0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            osdv(&f3).flatten(),
            vec![0, 0, 0, 12, 12, 4, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn engines_agree() {
        let mut rng = StdRng::seed_from_u64(53);
        for n in 1..=8usize {
            for _ in 0..4 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                for filter in [
                    MintermFilter::All,
                    MintermFilter::Zeros,
                    MintermFilter::Ones,
                ] {
                    let a = osdv_with(&f, filter, OsdvEngine::Pairwise);
                    let b = osdv_with(&f, filter, OsdvEngine::Wht);
                    assert_eq!(a, b, "n = {n}, filter = {filter:?}, f = {f}");
                }
            }
        }
    }

    #[test]
    fn fused_point_sections_match_separate_computation() {
        let mut rng = StdRng::seed_from_u64(0xF05E);
        let mut scratch = OsdvScratch::default();
        let (mut r0, mut r1, mut h0, mut h1) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for n in 0..=7usize {
            for _ in 0..4 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let prof = SensitivityProfile::compute(&f);
                osdv_point_sections_into(
                    &f,
                    &prof,
                    OsdvEngine::Auto,
                    &mut scratch,
                    &mut r0,
                    &mut r1,
                    &mut h0,
                    &mut h1,
                );
                let d0 = osdv_from_profile(&f, &prof, MintermFilter::Zeros, OsdvEngine::Auto);
                let d1 = osdv_from_profile(&f, &prof, MintermFilter::Ones, OsdvEngine::Auto);
                let (e0, e1) = prof.histograms_by_value(&f);
                assert_eq!(r0, d0.flatten(), "rows0, n = {n}, f = {f}");
                assert_eq!(r1, d1.flatten(), "rows1, n = {n}, f = {f}");
                assert_eq!(h0, e0, "h0, n = {n}, f = {f}");
                assert_eq!(h1, e1, "h1, n = {n}, f = {f}");
            }
        }
    }

    #[test]
    fn row_sums_are_group_pair_counts() {
        let mut rng = StdRng::seed_from_u64(59);
        let f = TruthTable::random(6, &mut rng).unwrap();
        let prof = SensitivityProfile::compute(&f);
        let hist = prof.histogram();
        let v = osdv(&f);
        for s in 0..=6u32 {
            let g = hist[s as usize];
            let expect = g * g.saturating_sub(1) / 2;
            assert_eq!(v.sigma(s).iter().sum::<u64>(), expect, "σ_{s} row sum");
        }
    }

    #[test]
    fn zero_vars_osdv_is_empty() {
        let f = TruthTable::one(0).unwrap();
        let v = osdv(&f);
        assert_eq!(v.flatten(), Vec::<u64>::new());
        assert_eq!(v.total_pairs(), 0);
    }

    #[test]
    fn display_matches_paper_format() {
        let v = osdv1(&TruthTable::majority(3));
        assert_eq!(format!("{v}"), "(0,0,0,0,0,0,0,3,0,0,0,0)");
    }

    #[test]
    fn split_vectors_partition_when_phases_fixed() {
        // Pairs of OSDV are NOT a partition of OSDV (cross-value pairs with
        // equal sensitivity exist), but each split total is bounded by the
        // full total.
        let f = TruthTable::from_hex(4, "3c5a").unwrap();
        let all = osdv(&f).total_pairs();
        let zeros = osdv0(&f).total_pairs();
        let ones = osdv1(&f).total_pairs();
        assert!(zeros + ones <= all);
    }
}
