//! Property-based tests of the truth-table substrate: transform group
//! laws, cofactor algebra and representation round-trips.

use facepoint_truth::{NpnTransform, Permutation, TruthTable};
use proptest::prelude::*;

/// Strategy: an arity and a random table of that arity.
fn arb_table(max_n: usize) -> impl Strategy<Value = TruthTable> {
    (0..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n))
            .prop_map(move |words| TruthTable::from_words(n, &words).expect("sized vec"))
    })
}

/// Strategy: a table plus a transform of matching arity.
fn arb_table_and_transform(max_n: usize) -> impl Strategy<Value = (TruthTable, NpnTransform)> {
    (0..=max_n).prop_flat_map(|n| {
        let table = proptest::collection::vec(any::<u64>(), facepoint_truth::words::word_count(n))
            .prop_map(move |words| TruthTable::from_words(n, &words).expect("sized vec"));
        let transform =
            (any::<u64>(), any::<u16>(), any::<bool>()).prop_map(move |(s, neg, out)| {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(s);
                let perm = Permutation::random(n, &mut rng);
                let mask = if n == 0 {
                    0
                } else {
                    neg & (((1u32 << n) - 1) as u16)
                };
                NpnTransform::new(perm, mask, out)
            });
        (table, transform)
    })
}

proptest! {
    #[test]
    fn hex_round_trip(t in arb_table(9)) {
        let s = t.to_hex();
        prop_assert_eq!(TruthTable::from_hex(t.num_vars(), &s).unwrap(), t);
    }

    #[test]
    fn binary_round_trip(t in arb_table(7)) {
        let s = t.to_binary();
        prop_assert_eq!(TruthTable::from_binary(t.num_vars(), &s).unwrap(), t);
    }

    #[test]
    fn negation_is_involution(t in arb_table(9)) {
        prop_assert_eq!(!!t.clone(), t);
    }

    #[test]
    fn count_ones_complement(t in arb_table(9)) {
        prop_assert_eq!(t.count_ones() + (!&t).count_ones(), t.num_bits());
    }

    #[test]
    fn flip_var_is_involution(t in arb_table(8)) {
        for v in 0..t.num_vars() {
            prop_assert_eq!(t.flip_var(v).flip_var(v), t.clone());
        }
    }

    #[test]
    fn swap_vars_is_involution(t in arb_table(8)) {
        let n = t.num_vars();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(t.swap_vars(a, b).swap_vars(a, b), t.clone());
            }
        }
    }

    #[test]
    fn flips_commute(t in arb_table(8)) {
        let n = t.num_vars();
        if n >= 2 {
            prop_assert_eq!(
                t.flip_var(0).flip_var(n - 1),
                t.flip_var(n - 1).flip_var(0)
            );
        }
    }

    #[test]
    fn transform_inverse_round_trip((t, tr) in arb_table_and_transform(8)) {
        prop_assert_eq!(tr.inverse().apply(&tr.apply(&t)), t);
    }

    #[test]
    fn transform_double_inverse((_, tr) in arb_table_and_transform(8)) {
        let ii = tr.inverse().inverse();
        prop_assert_eq!(ii, tr);
    }

    #[test]
    fn composition_is_sequential_application(
        (t, t1) in arb_table_and_transform(6),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t2 = NpnTransform::random(t.num_vars(), &mut rng);
        prop_assert_eq!(
            t2.compose(&t1).apply(&t),
            t2.apply(&t1.apply(&t))
        );
    }

    #[test]
    fn identity_transform_fixes_everything(t in arb_table(9)) {
        let id = NpnTransform::identity(t.num_vars());
        prop_assert_eq!(id.apply(&t), t);
    }

    #[test]
    fn cofactor_counts_partition(t in arb_table(9)) {
        for v in 0..t.num_vars() {
            prop_assert_eq!(
                t.cofactor_count(v, false) + t.cofactor_count(v, true),
                t.count_ones()
            );
        }
    }

    #[test]
    fn shannon_expansion(t in arb_table(7)) {
        for v in 0..t.num_vars() {
            let x = TruthTable::projection(t.num_vars(), v).unwrap();
            let f1 = t.restrict(v, true);
            let f0 = t.restrict(v, false);
            let rebuilt = (&x & &f1) | (&(!&x) & &f0);
            prop_assert_eq!(rebuilt, t.clone());
        }
    }

    #[test]
    fn support_shrink_preserves_count_profile(t in arb_table(8)) {
        let s = t.shrink_to_support();
        // Ones scale by 2^(dead variables).
        let dead = t.num_vars() - s.num_vars();
        prop_assert_eq!(t.count_ones(), s.count_ones() << dead);
        // Shrinking twice is idempotent.
        prop_assert_eq!(s.shrink_to_support(), s.clone());
    }

    #[test]
    fn flip_preserves_count(t in arb_table(9)) {
        for v in 0..t.num_vars() {
            prop_assert_eq!(t.flip_var(v).count_ones(), t.count_ones());
        }
    }

    #[test]
    fn ones_iterator_is_sound(t in arb_table(8)) {
        let ones: Vec<u64> = t.ones().collect();
        prop_assert_eq!(ones.len() as u64, t.count_ones());
        for m in &ones {
            prop_assert!(t.bit(*m));
        }
        // Sorted, no duplicates.
        prop_assert!(ones.windows(2).all(|w| w[0] < w[1]));
    }
}

/// The per-minterm definition of a transform: `g(X) = out ⊕ f(Y)` with
/// `Y_i = X_{perm[i]} ⊕ neg_i`, evaluated one minterm at a time.
fn apply_by_definition(t: &TruthTable, tr: &NpnTransform) -> TruthTable {
    TruthTable::from_fn(t.num_vars(), |x| {
        let mut y = 0u64;
        for i in 0..t.num_vars() {
            y |= ((x >> tr.perm().map(i)) & 1) << i;
        }
        t.bit(y ^ u64::from(tr.input_neg())) ^ tr.output_neg()
    })
    .expect("same arity")
}

proptest! {
    // Up to ten variables, so the word-level permutation meets every
    // swap shape: both variables inside a word, both selecting words,
    // and one of each.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn permute_and_apply_match_minterm_definition((t, tr) in arb_table_and_transform(10)) {
        let pure = NpnTransform::new(tr.perm().clone(), 0, false);
        prop_assert_eq!(t.permute_vars(tr.perm()), apply_by_definition(&t, &pure));
        prop_assert_eq!(tr.apply(&t), apply_by_definition(&t, &tr));
    }
}
