//! Proves the acceptance property of the signature kernel: **digest
//! mode performs zero per-function heap allocations in steady state**.
//!
//! A counting global allocator wraps the system allocator (the shared
//! `facepoint-testsupport` harness — implementing `GlobalAlloc` is
//! inherently unsafe, and that crate is where the audited `unsafe`
//! lives). After a warm-up pass grows every scratch buffer to its
//! high-water mark, a second pass over the same tables must not
//! allocate at all.

use facepoint_core::SignatureKernel;
use facepoint_sig::SignatureSet;
use facepoint_testsupport::{assert_some_pass_allocates_nothing, CountingAllocator};
use facepoint_truth::TruthTable;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A deterministic mixed workload: balanced tables (dual-polarity
/// path), unbalanced tables of both polarities, and structured
/// functions whose polarity tie survives every stage.
fn workload(n: usize) -> Vec<TruthTable> {
    let mut fns = vec![
        TruthTable::parity(n),
        TruthTable::majority(if n % 2 == 1 { n } else { n - 1 }),
        TruthTable::zero(n).unwrap(),
        TruthTable::one(n).unwrap(),
    ];
    for k in 0..24u64 {
        let t = TruthTable::from_fn(n, |m| {
            (m ^ (m >> 2)).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ k) % 7 < 3
        })
        .unwrap();
        fns.push(t);
    }
    fns
}

// One #[test] on purpose: the allocation counter is process-global, so
// a second test running on a parallel harness thread would bleed its
// allocations into this one's measured window.
#[test]
fn steady_state_digest_and_msv_into_allocate_nothing() {
    // Digest keys: the acceptance property.
    for set in [SignatureSet::all(), SignatureSet::all_extended()] {
        for n in [4usize, 6, 8] {
            let fns = workload(n);
            let mut kernel = SignatureKernel::new(set);
            // Warm-up: grow every scratch buffer to its high-water mark
            // and record the expected keys.
            let expected: Vec<u128> = fns.iter().map(|f| kernel.key(f)).collect();
            assert_some_pass_allocates_nothing(
                format_args!("steady-state digest keys (set = {set}, n = {n})"),
                || {
                    for (f, &want) in fns.iter().zip(&expected) {
                        assert_eq!(kernel.key(f), want);
                    }
                },
            );
        }
    }

    // A mixed-arity stream, as a cut enumerator produces it: one
    // kernel keys n = 4..=10 interleaved, so every call switches arity.
    // One warm-up pass grows the scratch to the n = 10 high-water mark;
    // after it, no arity change may allocate.
    {
        let by_arity: Vec<Vec<TruthTable>> = (4usize..=10).map(workload).collect();
        let fns: Vec<&TruthTable> = (0..by_arity[0].len())
            .flat_map(|i| by_arity.iter().map(move |w| &w[i]))
            .collect();
        let mut kernel = SignatureKernel::new(SignatureSet::all());
        let expected: Vec<u128> = fns.iter().map(|f| kernel.key(f)).collect();
        assert_some_pass_allocates_nothing(
            format_args!("steady-state digest keys over mixed arities 4..=10"),
            || {
                for (f, &want) in fns.iter().zip(&expected) {
                    assert_eq!(kernel.key(f), want);
                }
            },
        );
    }

    // Materializing into a caller-reused buffer is also allocation-free.
    let fns = workload(7);
    let mut kernel = SignatureKernel::new(SignatureSet::all());
    let mut out = Vec::new();
    for f in &fns {
        kernel.msv_into(f, &mut out); // warm-up growth
    }
    assert_some_pass_allocates_nothing(format_args!("materializing into a reused buffer"), || {
        for f in &fns {
            kernel.msv_into(f, &mut out);
        }
    });
}
