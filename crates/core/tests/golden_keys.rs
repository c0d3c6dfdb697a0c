//! Golden signature keys: the hex `signature_key` digests of a fixed,
//! seeded corpus, pinned as literal values.
//!
//! Keys are durable — stores persist them and the `CANON` opcode
//! returns them — so any change to the kernel or the digest that moves
//! a single key bit is a format break, not a refactor. The corpus spans
//! n = 0..=10 with uniformly random, balanced (`|f| = 2^{n−1}`) and
//! sparse (density ≈ 1/8) tables under both `SignatureSet::all()` and
//! `SignatureSet::all_extended()`, so every pair-counting engine, both
//! polarity paths and every OCV arity contribute.
//!
//! The second test checks [`Fnv128Stream::word`] against a byte-wise
//! FNV-1a/128 written out here from the definition.

use facepoint_core::{fnv128, signature_key, Fnv128Stream, SignatureKernel};
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A uniformly random balanced table: a half-size minterm subset drawn
/// by partial Fisher–Yates.
fn balanced(n: usize, rng: &mut StdRng) -> TruthTable {
    let bits = 1usize << n;
    let mut idx: Vec<u64> = (0..bits as u64).collect();
    for i in 0..bits / 2 {
        let j = rng.random_range(i..bits);
        idx.swap(i, j);
    }
    let mut t = TruthTable::zero(n).unwrap();
    for &m in &idx[..bits / 2] {
        t.set_bit(m, true);
    }
    t
}

/// A random table with about one minterm in eight set.
fn sparse(n: usize, rng: &mut StdRng) -> TruthTable {
    let mut t = TruthTable::zero(n).unwrap();
    for m in 0..1u64 << n {
        t.set_bit(m, rng.random::<u8>() < 32);
    }
    t
}

/// The pinned corpus, one `"<set> n=<n> <kind>#<i> <key hex>"` line per
/// key, in generation order.
fn corpus_lines() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x601D_E4E5);
    let mut fns: Vec<(usize, &str, usize, TruthTable)> = Vec::new();
    for n in 0..=10usize {
        for i in 0..3 {
            fns.push((n, "random", i, TruthTable::random(n, &mut rng).unwrap()));
        }
        if n >= 1 {
            for i in 0..2 {
                fns.push((n, "balanced", i, balanced(n, &mut rng)));
            }
        }
        if n >= 3 {
            fns.push((n, "sparse", 0, sparse(n, &mut rng)));
        }
    }
    let tables: Vec<TruthTable> = fns.iter().map(|(_, _, _, f)| f.clone()).collect();
    let mut lines = Vec::new();
    for (name, set) in [
        ("all", SignatureSet::all()),
        ("ext", SignatureSet::all_extended()),
    ] {
        // The slice-keying path must land on the same pinned keys.
        let mut batched = Vec::new();
        SignatureKernel::new(set).key_batch(&tables, &mut batched);
        for ((n, kind, i, f), &batch_key) in fns.iter().zip(&batched) {
            let key = signature_key(f, set);
            assert_eq!(
                batch_key, key,
                "{name} n={n} {kind}#{i}: batch differs from scalar"
            );
            lines.push(format!("{name} n={n} {kind}#{i} {key:032x}"));
        }
    }
    lines
}

/// Captured before the folded digest, the table-popcount pair counter
/// and the single-popcount OCV2 sweep went in; none of them moved a key.
const GOLDEN: &[&str] = &[
    "all n=0 random#0 7de52574b9be9e5cb28acbf7f510562c",
    "all n=0 random#1 7de52574b9be9e5cb28acbf7f510562c",
    "all n=0 random#2 7de52574b9be9e5cb28acbf7f510562c",
    "all n=1 random#0 32351276fdfc3d86f14e0869378650ef",
    "all n=1 random#1 32351276fdfc3d86f14e0869378650ef",
    "all n=1 random#2 a2c17fa660b804cd32e5ae9c70b536ac",
    "all n=1 balanced#0 32351276fdfc3d86f14e0869378650ef",
    "all n=1 balanced#1 32351276fdfc3d86f14e0869378650ef",
    "all n=2 random#0 48f940628ada8b6001bb17a37eee438f",
    "all n=2 random#1 48f940628ada8b6001bb17a37eee438f",
    "all n=2 random#2 48f940628ada8b6001bb17a37eee438f",
    "all n=2 balanced#0 5ddeccd3241ca414124dcd0f68795e6d",
    "all n=2 balanced#1 55098543b6017ac8a4cf14e033502a8d",
    "all n=3 random#0 aeb475bfd251da2f39f71bd69d529f03",
    "all n=3 random#1 2c9a8a0fe6e98b92c9bb9d61b05af3c7",
    "all n=3 random#2 0f8c9efb898b8a75f5a9852bccb12324",
    "all n=3 balanced#0 01d78b733556c6ec19f5a5814ad32265",
    "all n=3 balanced#1 7ce347bb10290152015ff68af7388047",
    "all n=3 sparse#0 9c2d48f6042f8e17c923ce31c33014eb",
    "all n=4 random#0 01c86f897fe73f039b148c3d946a46df",
    "all n=4 random#1 35e5f23b47e2643068810913dc0a30f3",
    "all n=4 random#2 1c2aab3b9a9e933ee2b8a25be57e45dd",
    "all n=4 balanced#0 7b626a1a10f9f41af90385d3ecfa199b",
    "all n=4 balanced#1 3ab3a26c3fb9ae3e602f51376b4d239b",
    "all n=4 sparse#0 9e8e8b03cd93417b7de79ba764aa09be",
    "all n=5 random#0 edcecad0a39988eb89c93c483f41a0a3",
    "all n=5 random#1 939b50364be7e2cf3f90f13e9e138c6e",
    "all n=5 random#2 acff13de940c27f981c2265aa20c8e2a",
    "all n=5 balanced#0 8cdb5793e19b0e01b9b66f7a2b0b3a4d",
    "all n=5 balanced#1 9d7f99acd8c1a1b103c446799dd73b4b",
    "all n=5 sparse#0 033bb4459a46e092e9e593f05a7c157f",
    "all n=6 random#0 db90718cfe64ff8aa57f4e3a4b98d956",
    "all n=6 random#1 7dfcf9cdd453dae9c74ffcbc40d23a1d",
    "all n=6 random#2 fc40cd101b115d34f04a8daf7440b30c",
    "all n=6 balanced#0 619e1e2df77ca48cd97069488efa8d7a",
    "all n=6 balanced#1 62f77f7c7852e1bb48101c17da10193c",
    "all n=6 sparse#0 72abdc9abfebb44c614e83d5d4050e0e",
    "all n=7 random#0 a5d88e7a81f95533c495f19525fe56d0",
    "all n=7 random#1 1a0d8fcfe433df8422acabd7960bb448",
    "all n=7 random#2 dbca2b216746cc9cce902c242285df22",
    "all n=7 balanced#0 085fcd0e4807b9e482afef422a3f7eeb",
    "all n=7 balanced#1 f5ffe388a4c853c96c17c19a9d145825",
    "all n=7 sparse#0 ae427fbfc614b5d302b735819c577471",
    "all n=8 random#0 a107b2afec03c1c31192b7ec119a9bbd",
    "all n=8 random#1 bc695330ace23abc1cd165e622f90365",
    "all n=8 random#2 2a4d4512933a3748adafe98cb93c8df8",
    "all n=8 balanced#0 994fbf04483ed989fb9be580832887c4",
    "all n=8 balanced#1 d6915a55f06fa4a5dca5f4ce8800667d",
    "all n=8 sparse#0 6ab90ff4fd6b7a5ff7a061d601f9a10d",
    "all n=9 random#0 37d51d18f67ead7920e0c56a4fec24a6",
    "all n=9 random#1 618698343c4d0ee480509e5ab52bfc9f",
    "all n=9 random#2 92ee3f480110fe28ca2070d813a85afe",
    "all n=9 balanced#0 496fb8d6ab165c97875aa593477954ae",
    "all n=9 balanced#1 fa391ae90c3d716aa0335b754caac371",
    "all n=9 sparse#0 208e7e49c603efc60d05b7e466a6f66a",
    "all n=10 random#0 ddf71f63c697134f75ba859f606db6f2",
    "all n=10 random#1 17b743fa1b734b26b75e28c8173d57b1",
    "all n=10 random#2 264a9a8acbc69c578cf7c1750261d97a",
    "all n=10 balanced#0 287c1147ef652ba52656563850ae515e",
    "all n=10 balanced#1 052e183e1603e02d76f695f57f0ecbba",
    "all n=10 sparse#0 2ebec0fa0fdb5a42d524e7e772e1689f",
    "ext n=0 random#0 531c2a39e891e7f5bc27362dafe91464",
    "ext n=0 random#1 531c2a39e891e7f5bc27362dafe91464",
    "ext n=0 random#2 531c2a39e891e7f5bc27362dafe91464",
    "ext n=1 random#0 a07bfbe9c866a4d6ed8df116d7f76e67",
    "ext n=1 random#1 a07bfbe9c866a4d6ed8df116d7f76e67",
    "ext n=1 random#2 e884af87591187018f70fe294c6c1424",
    "ext n=1 balanced#0 a07bfbe9c866a4d6ed8df116d7f76e67",
    "ext n=1 balanced#1 a07bfbe9c866a4d6ed8df116d7f76e67",
    "ext n=2 random#0 c457574e3b31e395638f012e73322b43",
    "ext n=2 random#1 c457574e3b31e395638f012e73322b43",
    "ext n=2 random#2 c457574e3b31e395638f012e73322b43",
    "ext n=2 balanced#0 aa447142415092e22caddad660aab565",
    "ext n=2 balanced#1 93a0b5f6737bb0b61cd8178209ea7985",
    "ext n=3 random#0 7847740bd68f249edb403db293879962",
    "ext n=3 random#1 5b5510fcece44cf8e14aeaa26c145043",
    "ext n=3 random#2 8fb1ab11b143be3415f2bb5c4a73fce0",
    "ext n=3 balanced#0 52df26d6974e9dc1332a16befae3ef24",
    "ext n=3 balanced#1 679098ab308775f1433d07a851220806",
    "ext n=3 sparse#0 2899bb0b7ef72039f330560f414263e2",
    "ext n=4 random#0 c39d656c9481bf9fef3f68a64f367ae6",
    "ext n=4 random#1 87d1e8180d564469ecf3ccccba234428",
    "ext n=4 random#2 3e00fe6ed24bf7ccd351b3b7be6f586c",
    "ext n=4 balanced#0 0b05c6462119d1a2dd78ed2978a5adaa",
    "ext n=4 balanced#1 57b9802eeb5c6b25fc75df1390271008",
    "ext n=4 sparse#0 65c15a60f3031b50a36c33e3ff61c761",
    "ext n=5 random#0 30709d376ecbfffbafdf0e9857473b16",
    "ext n=5 random#1 b38f03fba956a6b6beeb39554368c51f",
    "ext n=5 random#2 87404fa3e895d7271a30335552ca767f",
    "ext n=5 balanced#0 f9f9f944546ed1924ed04a05fe56218a",
    "ext n=5 balanced#1 c3848868c635e12c143b7f24a97dc8cc",
    "ext n=5 sparse#0 79e312e23420b2a0c36e50668c9e22ae",
    "ext n=6 random#0 8e5461d6e02784a337748164b65bf045",
    "ext n=6 random#1 3476032f02b9ccfa1e9d4e000678e3ba",
    "ext n=6 random#2 4620562c4effee0a02a252152db75651",
    "ext n=6 balanced#0 e461b76d70793e1404526e8a9d4131b9",
    "ext n=6 balanced#1 12e8c14bdf6f57c453f53f2bc47e5de3",
    "ext n=6 sparse#0 b1736332f0273e5b5bb8413096348fef",
    "ext n=7 random#0 8b8a1270c3841583d2f34b982a9bb37c",
    "ext n=7 random#1 07bf7fb54b3e6a3093c2220238834733",
    "ext n=7 random#2 d2786643d54f67586f5e191302f17d82",
    "ext n=7 balanced#0 b9eaffa35009bc939c35bf6c318ded53",
    "ext n=7 balanced#1 6ba2921a02c7c911f97cb233dfb8439b",
    "ext n=7 sparse#0 7452173d3b21d44132d1b026e5a3b3c8",
    "ext n=8 random#0 05622784bd16effe197395c0ff176e10",
    "ext n=8 random#1 23cc3bf6b11f1bbf6484b8097d3dcaca",
    "ext n=8 random#2 8279e8e460711b5ebc946c9dcdcf1c97",
    "ext n=8 balanced#0 915a5f07b1fe1d476adfd035b5416c91",
    "ext n=8 balanced#1 b8356281fa64c12c53177b226b24586a",
    "ext n=8 sparse#0 184fb77657c9e3eea6526ee90d9464da",
    "ext n=9 random#0 4d71bea2093daa53e599bb9d8b2f4689",
    "ext n=9 random#1 1355fba6d037fd580c6731683038e15a",
    "ext n=9 random#2 2a32480c5c4a8e21166bcd3e44a7f859",
    "ext n=9 balanced#0 6f242f4d29f951001e37829631e6acd7",
    "ext n=9 balanced#1 cf6d89523c12ac8e57e4022385c2ab5c",
    "ext n=9 sparse#0 8bdebe9ce5e7da06b471e634c11aeba0",
    "ext n=10 random#0 68dd25b73106a681024af5f2ad8f1cf6",
    "ext n=10 random#1 698627eed8672dadeb6e510d9a41524b",
    "ext n=10 random#2 0fb6fc03e0b759eeb55724647da3c598",
    "ext n=10 balanced#0 1a32235747e6eb41f4c5e8fa789b2512",
    "ext n=10 balanced#1 ead86badfd34b7f7b747e9e5c0e1c830",
    "ext n=10 sparse#0 9e9c9dc570a958d98bcbe624ddaa0531",
];

#[test]
fn signature_keys_match_pinned_digests() {
    let actual = corpus_lines();
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "corpus size changed; current lines:\n{}",
        actual.join("\n")
    );
    for (got, want) in actual.iter().zip(GOLDEN) {
        assert_eq!(got, want, "signature key moved");
    }
}

/// FNV-1a/128 over the little-endian bytes of `words`, one multiply per
/// byte — the definition the streamed digest must reproduce.
fn fnv128_bytewise(words: &[u64]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

#[test]
fn word_absorption_matches_bytewise_fnv1a() {
    let mut rng = StdRng::seed_from_u64(0xF4F1);
    let mut words = vec![0u64, u64::MAX, 1, 0x100, 1 << 63];
    // Every count of significant low bytes, 0 through 8, with zero and
    // nonzero bytes inside the significant run.
    for sig in 0..=8u32 {
        for _ in 0..16 {
            let mask = if sig == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * sig)) - 1
            };
            let mut w = rng.random::<u64>() & mask;
            if sig > 0 {
                w |= 1 << (8 * (sig - 1));
            }
            words.push(w);
        }
    }
    for &w in &words {
        let mut s = Fnv128Stream::new();
        s.word(w);
        assert_eq!(s.finish(), fnv128_bytewise(&[w]), "word {w:#x}");
    }
    let mut s = Fnv128Stream::new();
    s.words(&words);
    assert_eq!(s.finish(), fnv128_bytewise(&words), "whole stream");
    assert_eq!(fnv128(&words), fnv128_bytewise(&words), "fnv128");
}
