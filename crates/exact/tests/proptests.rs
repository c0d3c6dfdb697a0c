//! Property-based tests of the exact machinery: canonical-form
//! invariance, matcher soundness/completeness, and baseline contracts.

use facepoint_exact::baselines::{CanonicalClassifier, Huang13, Petkovska16, Zhou20};
use facepoint_exact::{are_npn_equivalent, exact_npn_canonical, npn_match, plain_changes};
use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use proptest::prelude::*;

fn arb_table(min_n: usize, max_n: usize) -> impl Strategy<Value = TruthTable> {
    (min_n..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n))
            .prop_map(move |words| TruthTable::from_words(n, &words).expect("sized vec"))
    })
}

fn arb_pair(min_n: usize, max_n: usize) -> impl Strategy<Value = (TruthTable, NpnTransform)> {
    (min_n..=max_n).prop_flat_map(|n| {
        let table = proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n))
            .prop_map(move |words| TruthTable::from_words(n, &words).expect("sized vec"));
        (table, arb_transform(n))
    })
}

/// A symmetric or partially symmetric table: variable profiles tie, so
/// the matcher's search branches.
fn arb_symmetric(min_n: usize, max_n: usize) -> impl Strategy<Value = TruthTable> {
    (min_n..=max_n, 0usize..4, any::<u32>()).prop_map(|(n, family, k)| {
        let k = k % (n as u32 + 1);
        let low = (1u64 << (n - 1)) - 1;
        match family {
            0 => TruthTable::parity(n),
            1 if n % 2 == 1 => TruthTable::majority(n),
            // Threshold: at least `k` inputs are 1.
            1 | 2 => TruthTable::from_fn(n, |m| m.count_ones() >= k).expect("n ≤ 16"),
            // Threshold over all but the top input, xor the top input.
            _ => TruthTable::from_fn(n, |m| ((m & low).count_ones() >= k) ^ (m >> (n - 1) == 1))
                .expect("n ≤ 16"),
        }
    })
}

fn arb_transform(n: usize) -> impl Strategy<Value = NpnTransform> {
    (any::<u64>(), any::<u16>(), any::<bool>()).prop_map(move |(s, neg, out)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(s);
        let mask = if n == 0 {
            0
        } else {
            neg & (((1u32 << n) - 1) as u16)
        };
        NpnTransform::new(Permutation::random(n, &mut rng), mask, out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_form_is_orbit_invariant((f, t) in arb_pair(0, 5)) {
        prop_assert_eq!(
            exact_npn_canonical(&f),
            exact_npn_canonical(&t.apply(&f))
        );
    }

    #[test]
    fn canonical_form_is_a_fixpoint(f in arb_table(0, 5)) {
        let c = exact_npn_canonical(&f);
        prop_assert_eq!(exact_npn_canonical(&c), c.clone());
        // And never larger than the input (it is the orbit minimum).
        prop_assert!(c <= f);
    }

    #[test]
    fn matcher_finds_planted_equivalence((f, t) in arb_pair(1, 10)) {
        let g = t.apply(&f);
        let w = npn_match(&f, &g);
        prop_assert!(w.is_some());
        prop_assert_eq!(w.unwrap().apply(&f), g);
    }

    #[test]
    fn matcher_finds_planted_symmetric_equivalence(
        (f, t) in arb_symmetric(7, 9).prop_flat_map(|f| {
            let n = f.num_vars();
            (Just(f), arb_transform(n))
        }),
    ) {
        let g = t.apply(&f);
        let w = npn_match(&f, &g);
        prop_assert!(w.is_some());
        prop_assert_eq!(w.unwrap().apply(&f), g);
    }

    #[test]
    fn matcher_agrees_with_canonical_forms(
        f in arb_table(3, 4),
        g in arb_table(3, 4),
    ) {
        if f.num_vars() == g.num_vars() {
            let via_matcher = are_npn_equivalent(&f, &g);
            let via_canon = exact_npn_canonical(&f) == exact_npn_canonical(&g);
            prop_assert_eq!(via_matcher, via_canon);
        }
    }

    #[test]
    fn matcher_is_symmetric(f in arb_table(3, 5), g in arb_table(3, 5)) {
        if f.num_vars() == g.num_vars() {
            prop_assert_eq!(are_npn_equivalent(&f, &g), are_npn_equivalent(&g, &f));
        }
    }

    #[test]
    fn baselines_stay_in_orbit(f in arb_table(1, 6)) {
        for canon in [
            Huang13.canonical_form(&f),
            Petkovska16::default().canonical_form(&f),
            Zhou20::default().canonical_form(&f),
        ] {
            prop_assert!(are_npn_equivalent(&f, &canon));
        }
    }

    #[test]
    fn baseline_representatives_never_merge_distinct_classes(
        f in arb_table(3, 4),
        g in arb_table(3, 4),
    ) {
        // Equal representatives must imply true equivalence (over-split
        // is allowed, merging is not).
        if f.num_vars() == g.num_vars() {
            for b in [&Huang13 as &dyn CanonicalClassifier,
                      &Petkovska16::default(),
                      &Zhou20::default()] {
                if b.canonical_form(&f) == b.canonical_form(&g) {
                    prop_assert!(are_npn_equivalent(&f, &g), "{}", b.name());
                }
            }
        }
    }

    #[test]
    fn plain_changes_generate_the_symmetric_group(n in 1usize..7) {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut seen = std::collections::HashSet::new();
        seen.insert(perm.clone());
        for p in plain_changes(n) {
            perm.swap(p, p + 1);
            seen.insert(perm.clone());
        }
        let expect: usize = (1..=n).product();
        prop_assert_eq!(seen.len(), expect);
    }
}
