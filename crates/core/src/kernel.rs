//! The classifier-side signature kernel: [`SigKernel`] plus digest
//! streaming.
//!
//! [`SignatureKernel`] is what every hot consumer owns — one per
//! `Classifier` worker thread, one per engine worker — and reuses
//! across an entire stream. In digest mode the canonical MSV is hashed
//! word-by-word off the kernel into a rolling [`Fnv128Stream`], so the
//! per-function key computation performs **zero** steady-state heap
//! allocations and never materializes the vector.

use crate::fnv::Fnv128Stream;
use facepoint_sig::{Msv, SigKernel, SignatureSet};
use facepoint_truth::TruthTable;

/// A reusable signature-key computer over a fixed [`SignatureSet`].
///
/// [`signature_key`](crate::signature_key) is the one-shot wrapper;
/// create a `SignatureKernel` whenever more than a handful of functions
/// are keyed.
///
/// # Examples
///
/// ```
/// use facepoint_core::{signature_key, SignatureKernel};
/// use facepoint_sig::SignatureSet;
/// use facepoint_truth::TruthTable;
///
/// let set = SignatureSet::all();
/// let mut kernel = SignatureKernel::new(set);
/// let maj = TruthTable::majority(3);
/// assert_eq!(kernel.key(&maj), signature_key(&maj, set));
/// ```
#[derive(Debug)]
pub struct SignatureKernel {
    set: SignatureSet,
    kernel: SigKernel,
}

impl SignatureKernel {
    /// A kernel keying over `set`.
    pub fn new(set: SignatureSet) -> Self {
        SignatureKernel {
            set,
            kernel: SigKernel::new(),
        }
    }

    /// The configured signature families.
    pub fn signature_set(&self) -> SignatureSet {
        self.set
    }

    /// The 128-bit signature key of `f`: `fnv128` of the canonical MSV,
    /// streamed (allocation-free in steady state).
    // analysis: no_alloc
    pub fn key(&mut self, f: &TruthTable) -> u128 {
        let mut stream = Fnv128Stream::new();
        self.kernel.msv_to(f, self.set, &mut stream);
        stream.finish()
    }

    /// Keys a whole slice: appends one [`Self::key`] per function to
    /// `keys`, in input order. Steady-state allocation-free once `keys`
    /// has warmed up to the longest slice seen.
    // analysis: no_alloc
    pub fn key_batch(&mut self, fns: &[TruthTable], keys: &mut Vec<u128>) {
        for f in fns {
            let key = self.key(f);
            // analysis: allow(no-alloc, "appends into the caller's key buffer, warmed by the caller")
            keys.push(key);
        }
    }

    /// The canonical MSV words of `f`, written into `out` (reusing its
    /// allocation).
    // analysis: no_alloc
    pub fn msv_into(&mut self, f: &TruthTable, out: &mut Vec<u64>) {
        self.kernel.msv_into(f, self.set, out);
    }

    /// The canonical MSV of `f` as an owned value (allocates the
    /// result; scratch is still reused).
    pub fn msv(&mut self, f: &TruthTable) -> Msv {
        self.kernel.msv(f, self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facepoint_sig::msv_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn streamed_key_equals_hashed_reference_msv() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        for set in [
            SignatureSet::all(),
            SignatureSet::all_extended(),
            SignatureSet::OIV | SignatureSet::OSV,
            SignatureSet::EMPTY,
        ] {
            let mut kernel = SignatureKernel::new(set);
            for n in 0..=7usize {
                for _ in 0..6 {
                    let f = TruthTable::random(n, &mut rng).unwrap();
                    assert_eq!(
                        kernel.key(&f),
                        crate::fnv128(msv_reference(&f, set).as_words()),
                        "set = {set}, n = {n}, f = {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_reuse_does_not_leak_state_across_functions() {
        let mut kernel = SignatureKernel::new(SignatureSet::all());
        let a = TruthTable::majority(5);
        let b = TruthTable::parity(5);
        let ka1 = kernel.key(&a);
        let kb = kernel.key(&b);
        let ka2 = kernel.key(&a);
        assert_eq!(ka1, ka2);
        assert_ne!(ka1, kb);
    }
}
