//! The zero-allocation signature kernel.
//!
//! [`SigKernel`] owns every scratch buffer the signature pipeline
//! needs, so classifying a stream of functions performs **zero**
//! steady-state heap allocations: buffers grow to the high-water mark
//! of the largest arity seen and are reused from then on. Sections are
//! emitted through the [`MsvSink`] trait, so digest-mode consumers can
//! hash the canonical MSV without ever materializing it.
//!
//! # One pass, both polarities
//!
//! The kernel computes each signature ingredient **once per function**
//! and derives both output polarities from it (the rules are proved in
//! the [`crate::msv`] module docs):
//!
//! * the [`SensitivityProfile`] is shared between the `OSV` and `OSDV`
//!   stages *and* between `f` and `¬f` (Boolean derivatives are
//!   invariant under output negation);
//! * `OSV0`/`OSV1` and `OSDV0`/`OSDV1` of `¬f` are the swapped pair of
//!   `f`'s, so the split histograms and distance matrices are computed
//!   once and emitted in either order;
//! * `OCVℓ(¬f)` is the complement-and-reverse of the sorted `OCVℓ(f)`
//!   (each count `c` maps to `2^{n−ℓ} − c`);
//! * `OIV` and the sorted absolute Walsh spectrum are unchanged.
//!
//! A balanced function therefore costs barely more than an unbalanced
//! one: the two candidate vectors are compared stage by stage in
//! lockstep (their sections always have equal lengths), the first
//! difference resolves the polarity — exactly the flat MSV's
//! lexicographic minimum — and `¬f` is never materialized at all.

use crate::cofactor::ocv_sorted_into;
use crate::distance::{osdv_point_sections_into, OsdvEngine, OsdvScratch};
use crate::influence::oiv_sorted_into;
use crate::msv::{Msv, SignatureSet, STAGE_ORDER};
use crate::sensitivity::SensitivityProfile;
use crate::spectral::walsh_spectrum_sorted_abs_into;
use facepoint_truth::TruthTable;

/// A consumer of canonical MSV words.
///
/// Implemented by `Vec<u64>` (materialize the vector) and by
/// `facepoint-core`'s rolling FNV-1a stream (digest without
/// materializing).
pub trait MsvSink {
    /// Consumes one word.
    fn word(&mut self, w: u64);

    /// Consumes a run of words (defaults to word-by-word).
    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }
}

impl MsvSink for Vec<u64> {
    fn word(&mut self, w: u64) {
        self.push(w);
    }

    fn words(&mut self, ws: &[u64]) {
        self.extend_from_slice(ws);
    }
}

/// Output-polarity choice while serializing a function.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Polarity {
    /// Serialize `f` as given.
    Keep,
    /// Serialize the derived sections of `¬f`.
    Negate,
    /// Balanced and still tied: build both, keep the smaller.
    Tied,
}

/// Which polarity variants a stage build produces.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Build {
    /// Only the `f` sections, into `sec_a`.
    Keep,
    /// Only the derived `¬f` sections, into `sec_a`.
    Negate,
    /// Both: `f` into `sec_a`, derived `¬f` into `sec_b`.
    Dual,
}

/// Reusable scratch state for single-pass, allocation-free signature
/// computation. See the `kernel` module docs (in the source — the
/// module is private) for the algorithm; create one per worker thread
/// and feed it any number of functions.
///
/// # Examples
///
/// ```
/// use facepoint_sig::{msv, SigKernel, SignatureSet};
/// use facepoint_truth::TruthTable;
///
/// let mut kernel = SigKernel::new();
/// let f = TruthTable::majority(3);
/// assert_eq!(kernel.msv(&f, SignatureSet::all()), msv(&f, SignatureSet::all()));
/// ```
#[derive(Debug, Default)]
pub struct SigKernel {
    /// Words (and arity) of the function the cached ingredients belong
    /// to; emptied fingerprint means nothing is cached.
    prof_words: Vec<u64>,
    prof_vars: usize,
    prof_valid: bool,
    profile: SensitivityProfile,
    profile_computed: bool,
    hists_valid: bool,
    h0: Vec<u64>,
    h1: Vec<u64>,
    rows_valid: bool,
    rows0: Vec<u64>,
    rows1: Vec<u64>,
    ind: Vec<u64>,
    counts: Vec<u64>,
    spec: Vec<i64>,
    osdv: OsdvScratch,
    sec_a: Vec<u64>,
    sec_b: Vec<u64>,
}

impl SigKernel {
    /// A fresh kernel with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams the canonical MSV of `f` under `set` into `sink` —
    /// [`crate::msv`] without the `Vec` (and, after warm-up, without
    /// any heap allocation).
    // analysis: no_alloc
    pub fn msv_to<S: MsvSink + ?Sized>(&mut self, f: &TruthTable, set: SignatureSet, sink: &mut S) {
        self.refresh_cache(f);
        // When OSDV is selected, run the fused sweep up front so the
        // earlier OSV stage shares its indicators (see `ensure_rows`).
        if set.contains(SignatureSet::OSDV) {
            self.ensure_rows(f);
        }
        sink.word(f.num_vars() as u64);
        let ones = f.count_ones();
        let zeros = f.num_bits() - ones;
        let mut polarity = if ones < zeros {
            Polarity::Keep
        } else if ones > zeros {
            Polarity::Negate
        } else {
            Polarity::Tied
        };
        for stage in STAGE_ORDER {
            if !set.contains(stage) {
                continue;
            }
            match polarity {
                Polarity::Keep => {
                    self.build_stage(f, stage, Build::Keep);
                    sink.words(&self.sec_a);
                }
                Polarity::Negate => {
                    self.build_stage(f, stage, Build::Negate);
                    sink.words(&self.sec_a);
                }
                Polarity::Tied => {
                    if stage_is_polarity_invariant(stage) {
                        self.build_stage(f, stage, Build::Keep);
                        sink.words(&self.sec_a);
                    } else {
                        self.build_stage(f, stage, Build::Dual);
                        // The first differing stage resolves the
                        // polarity — the flat MSV's lexicographic
                        // choice, decided without a second pass.
                        match self.sec_a.as_slice().cmp(self.sec_b.as_slice()) {
                            std::cmp::Ordering::Less => {
                                polarity = Polarity::Keep;
                                sink.words(&self.sec_a);
                            }
                            std::cmp::Ordering::Greater => {
                                polarity = Polarity::Negate;
                                sink.words(&self.sec_b);
                            }
                            std::cmp::Ordering::Equal => sink.words(&self.sec_a),
                        }
                    }
                }
            }
        }
    }

    /// Writes the canonical MSV words into `out`, reusing its
    /// allocation.
    pub fn msv_into(&mut self, f: &TruthTable, set: SignatureSet, out: &mut Vec<u64>) {
        out.clear();
        self.msv_to(f, set, out);
    }

    /// The canonical MSV as an owned [`Msv`] (allocates the result;
    /// scratch is still reused).
    pub fn msv(&mut self, f: &TruthTable, set: SignatureSet) -> Msv {
        let mut out = Vec::new();
        self.msv_to(f, set, &mut out);
        Msv::from_words_vec(out)
    }

    /// Writes the polarity-fixed (raw) MSV into `out`: the serialization
    /// of `f` itself (`negated = false`) or of `¬f` derived from `f`'s
    /// ingredients (`negated = true`), without output-phase
    /// canonicalization. Bit-identical to
    /// [`raw_msv`](crate::raw_msv)`(f)` / `raw_msv(&!f)`.
    pub fn raw_msv_into(
        &mut self,
        f: &TruthTable,
        set: SignatureSet,
        negated: bool,
        out: &mut Vec<u64>,
    ) {
        self.refresh_cache(f);
        if set.contains(SignatureSet::OSDV) {
            self.ensure_rows(f);
        }
        out.clear();
        out.push(f.num_vars() as u64);
        let build = if negated { Build::Negate } else { Build::Keep };
        for stage in STAGE_ORDER {
            if set.contains(stage) {
                self.build_stage(f, stage, build);
                out.extend_from_slice(&self.sec_a);
            }
        }
    }

    /// Writes one stage's tagged section(s) into `out` for the chosen
    /// polarity — the staged (hierarchical) classifier's per-stage key,
    /// with `¬f` derived instead of materialized.
    pub fn stage_sections_into(
        &mut self,
        f: &TruthTable,
        stage: SignatureSet,
        negated: bool,
        out: &mut Vec<u64>,
    ) {
        self.refresh_cache(f);
        self.build_stage(f, stage, if negated { Build::Negate } else { Build::Keep });
        out.clear();
        out.extend_from_slice(&self.sec_a);
    }

    /// Builds one stage's sections for **both** polarities from shared
    /// ingredients and returns them as `(f, ¬f)` slices — what a
    /// balanced function's unresolved-polarity refinement step needs,
    /// at roughly half the cost of two independent computations.
    pub fn stage_sections_dual(&mut self, f: &TruthTable, stage: SignatureSet) -> (&[u64], &[u64]) {
        self.refresh_cache(f);
        if stage_is_polarity_invariant(stage) {
            self.build_stage(f, stage, Build::Keep);
            self.sec_b.clear();
            self.sec_b.extend_from_slice(&self.sec_a);
        } else {
            self.build_stage(f, stage, Build::Dual);
        }
        (&self.sec_a, &self.sec_b)
    }

    /// Invalidates the per-function ingredient cache when `f` differs
    /// from the previously profiled function (cheap word compare), so
    /// repeated stage calls on one function share one profile.
    fn refresh_cache(&mut self, f: &TruthTable) {
        if self.prof_valid && self.prof_vars == f.num_vars() && self.prof_words == f.words() {
            return;
        }
        self.prof_words.clear();
        self.prof_words.extend_from_slice(f.words());
        self.prof_vars = f.num_vars();
        self.prof_valid = true;
        // The profile itself is computed lazily: only the OSV/OSDV
        // stages pay for it.
        self.profile_computed = false;
        self.hists_valid = false;
        self.rows_valid = false;
    }

    fn ensure_profile(&mut self, f: &TruthTable) {
        if !self.profile_computed {
            self.profile.compute_into(f);
            self.profile_computed = true;
        }
    }

    fn ensure_hists(&mut self, f: &TruthTable) {
        if self.hists_valid {
            return;
        }
        self.ensure_profile(f);
        self.profile
            .histograms_by_value_into(f, &mut self.h0, &mut self.h1, &mut self.ind);
        self.hists_valid = true;
    }

    /// The fused point-characteristic sweep: one indicator per
    /// sensitivity level feeds the OSDV rows *and* the OSV histograms,
    /// so a set containing both families pays for one sweep total.
    fn ensure_rows(&mut self, f: &TruthTable) {
        if self.rows_valid {
            return;
        }
        self.ensure_profile(f);
        osdv_point_sections_into(
            f,
            &self.profile,
            OsdvEngine::Auto,
            &mut self.osdv,
            &mut self.rows0,
            &mut self.rows1,
            &mut self.h0,
            &mut self.h1,
        );
        self.rows_valid = true;
        self.hists_valid = true;
    }

    /// Fills `sec_a` (and `sec_b` for [`Build::Dual`]) with the tagged
    /// section(s) of one stage. Tags and layout match
    /// [`crate::push_stage_sections`] exactly.
    fn build_stage(&mut self, f: &TruthTable, stage: SignatureSet, build: Build) {
        self.sec_a.clear();
        self.sec_b.clear();
        let n = f.num_vars();
        match stage {
            s if s == SignatureSet::OIV => {
                oiv_sorted_into(f, &mut self.counts);
                push_section(&mut self.sec_a, 3, &self.counts);
            }
            s if s == SignatureSet::OCV1 => self.ocv_stage(f, 1, 1, build),
            s if s == SignatureSet::OCV2 => self.ocv_stage(f, 2, 2, build),
            s if s == SignatureSet::OCV3 => {
                if n >= 3 {
                    self.ocv_stage(f, 9, 3, build);
                }
            }
            s if s == SignatureSet::OSV => {
                self.ensure_hists(f);
                match build {
                    Build::Keep => {
                        push_section(&mut self.sec_a, 4, &self.h0);
                        push_section(&mut self.sec_a, 5, &self.h1);
                    }
                    Build::Negate => {
                        // 0-minterms of ¬f are the 1-minterms of f.
                        push_section(&mut self.sec_a, 4, &self.h1);
                        push_section(&mut self.sec_a, 5, &self.h0);
                    }
                    Build::Dual => {
                        push_section(&mut self.sec_a, 4, &self.h0);
                        push_section(&mut self.sec_a, 5, &self.h1);
                        push_section(&mut self.sec_b, 4, &self.h1);
                        push_section(&mut self.sec_b, 5, &self.h0);
                    }
                }
            }
            s if s == SignatureSet::OSDV => {
                self.ensure_rows(f);
                match build {
                    Build::Keep => {
                        push_section(&mut self.sec_a, 6, &self.rows0);
                        push_section(&mut self.sec_a, 7, &self.rows1);
                    }
                    Build::Negate => {
                        push_section(&mut self.sec_a, 6, &self.rows1);
                        push_section(&mut self.sec_a, 7, &self.rows0);
                    }
                    Build::Dual => {
                        push_section(&mut self.sec_a, 6, &self.rows0);
                        push_section(&mut self.sec_a, 7, &self.rows1);
                        push_section(&mut self.sec_b, 6, &self.rows1);
                        push_section(&mut self.sec_b, 7, &self.rows0);
                    }
                }
            }
            s if s == SignatureSet::WALSH => {
                walsh_spectrum_sorted_abs_into(f, &mut self.spec);
                self.sec_a.push(8);
                self.sec_a.push(self.spec.len() as u64);
                self.sec_a.extend(self.spec.iter().map(|&v| v as u64));
            }
            other => panic!("build_stage takes a single family, got {other}"),
        }
    }

    /// The shared `OCVℓ` stage: sorted counts once, both polarities
    /// derived. Output negation maps each count `c` on a face of
    /// `2^{n−ℓ}` points to `2^{n−ℓ} − c`, which reverses the sorted
    /// order.
    fn ocv_stage(&mut self, f: &TruthTable, tag: u64, arity: usize, build: Build) {
        ocv_sorted_into(f, arity, &mut self.counts);
        let n = f.num_vars();
        let face = if n >= arity { 1u64 << (n - arity) } else { 0 };
        match build {
            Build::Keep => push_section(&mut self.sec_a, tag, &self.counts),
            Build::Negate => push_complemented(&mut self.sec_a, tag, &self.counts, face),
            Build::Dual => {
                push_section(&mut self.sec_a, tag, &self.counts);
                push_complemented(&mut self.sec_b, tag, &self.counts, face);
            }
        }
    }
}

/// `OIV` and the sorted absolute Walsh spectrum are identical for `f`
/// and `¬f`, so a tied polarity stays tied through them.
fn stage_is_polarity_invariant(stage: SignatureSet) -> bool {
    stage == SignatureSet::OIV || stage == SignatureSet::WALSH
}

fn push_section(out: &mut Vec<u64>, tag: u64, data: &[u64]) {
    out.push(tag);
    out.push(data.len() as u64);
    out.extend_from_slice(data);
}

/// Pushes the section a sorted count vector becomes under output
/// negation: every count complements to `face − c` and the sorted order
/// reverses.
fn push_complemented(out: &mut Vec<u64>, tag: u64, sorted: &[u64], face: u64) {
    out.push(tag);
    out.push(sorted.len() as u64);
    out.extend(sorted.iter().rev().map(|&c| face - c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msv::{msv_reference, raw_msv};
    use facepoint_truth::NpnTransform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_msv_matches_reference_random() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let mut kernel = SigKernel::new();
        let mut buf = Vec::new();
        for n in 0..=7usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let set = SignatureSet::all_extended();
                kernel.msv_into(&f, set, &mut buf);
                assert_eq!(
                    buf.as_slice(),
                    msv_reference(&f, set).as_words(),
                    "n = {n}, f = {f}"
                );
            }
        }
    }

    #[test]
    fn derived_negation_is_bit_identical_to_raw() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut kernel = SigKernel::new();
        let mut buf = Vec::new();
        let set = SignatureSet::all_extended();
        for n in 0..=7usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                kernel.raw_msv_into(&f, set, false, &mut buf);
                assert_eq!(buf.as_slice(), raw_msv(&f, set).as_words(), "keep, f = {f}");
                kernel.raw_msv_into(&f, set, true, &mut buf);
                assert_eq!(
                    buf.as_slice(),
                    raw_msv(&!&f, set).as_words(),
                    "negate, f = {f}"
                );
            }
        }
    }

    #[test]
    fn kernel_is_npn_invariant() {
        let mut rng = StdRng::seed_from_u64(0xA11);
        let mut kernel = SigKernel::new();
        for n in 1..=6usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng).unwrap();
                let g = NpnTransform::random(n, &mut rng).apply(&f);
                assert_eq!(
                    kernel.msv(&f, SignatureSet::all()),
                    kernel.msv(&g, SignatureSet::all()),
                    "n = {n}, f = {f}"
                );
            }
        }
    }

    #[test]
    fn stage_sections_match_reference_push() {
        use crate::msv::push_stage_sections;
        let mut rng = StdRng::seed_from_u64(0x5EC);
        let mut kernel = SigKernel::new();
        let mut buf = Vec::new();
        for n in 0..=6usize {
            let f = TruthTable::random(n, &mut rng).unwrap();
            let nf = !&f;
            for stage in STAGE_ORDER {
                let mut expect = Vec::new();
                push_stage_sections(&f, stage, &mut expect);
                kernel.stage_sections_into(&f, stage, false, &mut buf);
                assert_eq!(buf, expect, "n = {n}, stage = {stage}");

                let mut expect_neg = Vec::new();
                push_stage_sections(&nf, stage, &mut expect_neg);
                kernel.stage_sections_into(&f, stage, true, &mut buf);
                assert_eq!(buf, expect_neg, "negated, n = {n}, stage = {stage}");

                let (a, b) = kernel.stage_sections_dual(&f, stage);
                assert_eq!(a, expect.as_slice(), "dual keep, stage = {stage}");
                assert_eq!(b, expect_neg.as_slice(), "dual negate, stage = {stage}");
            }
        }
    }

    #[test]
    fn balanced_ties_resolve_like_reference() {
        // Self-complementary-ish functions are the adversarial case:
        // the polarity tie survives many (or all) stages.
        let mut kernel = SigKernel::new();
        for f in [
            TruthTable::parity(4),
            TruthTable::majority(5),
            TruthTable::projection(4, 1).unwrap(),
        ] {
            for set in [
                SignatureSet::all(),
                SignatureSet::all_extended(),
                SignatureSet::OSV,
                SignatureSet::EMPTY,
            ] {
                assert_eq!(kernel.msv(&f, set), msv_reference(&f, set), "f = {f}");
                assert_eq!(kernel.msv(&!&f, set), kernel.msv(&f, set), "¬f, f = {f}");
            }
        }
    }
}
