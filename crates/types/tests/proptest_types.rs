//! Property-based tests of the foundation types.

use gmh_types::json;
use gmh_types::rng::cases;
use gmh_types::{Address, BoundedQueue, ClockDomains, LineAddr, OccupancyHistogram, Xoshiro256};
use std::collections::VecDeque;

/// Address → line → base round trip never gains or loses bytes.
#[test]
fn address_line_round_trip() {
    cases("address_line_round_trip", 64, |rng| {
        let raw = rng.next_u64();
        let a = Address::new(raw);
        let line = a.line();
        assert!(line.base().raw() <= raw);
        assert!(raw - line.base().raw() < 128);
        assert_eq!(line.base().line(), line);
        assert_eq!(a.line_offset() as u64, raw - line.base().raw());
    });
}

/// Interleaving always lands in range and is stable.
#[test]
fn interleave_in_range() {
    cases("interleave_in_range", 64, |rng| {
        let idx = rng.next_u64();
        let n = rng.range(1usize..64);
        let t = LineAddr::new(idx).interleave(n);
        assert!(t < n);
        assert_eq!(t, LineAddr::new(idx).interleave(n));
    });
}

/// BoundedQueue behaves exactly like a capacity-checked VecDeque.
#[test]
fn queue_matches_model() {
    cases("queue_matches_model", 64, |rng| {
        let cap = rng.range(1usize..16);
        let mut q: BoundedQueue<u32> = BoundedQueue::new(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for _ in 0..rng.below(200) {
            if rng.below(4) < 2 {
                let r = q.push(next);
                if model.len() < cap {
                    assert!(r.is_ok());
                    model.push_back(next);
                } else {
                    assert_eq!(r, Err(next));
                }
                next += 1;
            } else {
                assert_eq!(q.pop(), model.pop_front());
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.front(), model.front());
            assert_eq!(q.is_full(), model.len() == cap);
        }
    });
}

/// The occupancy histogram's lifetime equals the number of non-empty
/// samples, and bucket totals never exceed it.
#[test]
fn occupancy_lifetime_counts_nonempty() {
    cases("occupancy_lifetime_counts_nonempty", 64, |rng| {
        let cap = 8;
        let mut h = OccupancyHistogram::default();
        let mut expected = 0;
        for _ in 0..rng.below(100) {
            let s = rng.range(0usize..10);
            h.record(s, cap);
            if s > 0 {
                expected += 1;
            }
        }
        assert_eq!(h.lifetime(), expected);
        let fr: f64 = h.fractions().iter().sum();
        if expected > 0 {
            assert!((fr - 1.0).abs() < 1e-9);
        } else {
            assert_eq!(fr, 0.0);
        }
    });
}

/// The RNG's bounded draw is always below its bound, for any seed.
#[test]
fn rng_below_bound() {
    cases("rng_below_bound", 64, |rng| {
        let mut r = Xoshiro256::seeded(rng.next_u64());
        let bound = rng.range(1u64..1_000_000);
        for _ in 0..100 {
            assert!(r.below(bound) < bound);
        }
    });
}

/// Clock domains: cycle counts stay within one tick of the exact
/// frequency ratio, for arbitrary frequency pairs.
#[test]
fn clock_ratio_tracks_frequencies() {
    cases("clock_ratio_tracks_frequencies", 64, |rng| {
        let (f1, f2) = (rng.range(100u32..4000), rng.range(100u32..4000));
        let mut c = ClockDomains::new(f1, f2, f2);
        for _ in 0..10_000 {
            c.advance();
        }
        let n1 = c.domain(gmh_types::DomainId::Core).cycles() as f64;
        let n2 = c.domain(gmh_types::DomainId::Icnt).cycles() as f64;
        let expect = f1 as f64 / f2 as f64;
        // Integer-picosecond rounding bounds the drift.
        assert!(
            (n1 / n2 - expect).abs() / expect < 0.02,
            "ratio {} vs expected {}",
            n1 / n2,
            expect
        );
    });
}

/// Valid documents the fuzzer mutates: a `gmh-serve` job line, nesting,
/// every escape including a surrogate pair, and 20-digit integers.
const SEED_DOCS: [&str; 4] = [
    r#"{"workload":"lbm","seed":42,"config_label":"base","config_overrides":{"n_cores":15}}"#,
    r#"[[[{"a":[[],{}]}],[-0.5,1E+3,2e-2]],null,true,false,{"b":{"c":[0]}}]"#,
    r#"{"s":"q\"b\\s\/\b\f\n\r\t\u00e9\ud83d\ude42é","":""}"#,
    r#"{"n":18446744073709551615,"m":-12345678901234567890}"#,
];

/// The characters a mutation inserts or substitutes: JSON punctuation,
/// number syntax, and one multi-byte character.
const FUZZ_CHARS: &str = "{}[]\":,\\-.0123456789eEé";

/// One random edit of `doc`: truncation at a char boundary, a replaced or
/// inserted character, or a splice of `doc`'s prefix onto another
/// document's suffix.
fn mutate(doc: &str, rng: &mut Xoshiro256) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    let at = rng.range(0..chars.len() + 1);
    let alphabet: Vec<char> = FUZZ_CHARS.chars().collect();
    let c = alphabet[rng.range(0..alphabet.len())];
    match rng.below(4) {
        0 => chars.truncate(at),
        1 if at < chars.len() => chars[at] = c,
        1 | 2 => chars.insert(at, c),
        _ => {
            let other = SEED_DOCS[rng.range(0..SEED_DOCS.len())];
            let from = rng.range(0..other.chars().count() + 1);
            chars.truncate(at);
            chars.extend(other.chars().skip(from));
        }
    }
    chars.into_iter().collect()
}

/// The parser's contract on arbitrary (mostly broken) input: it never
/// panics, and whatever it accepts re-encodes to a document that parses
/// back to the same value.
#[test]
fn json_parse_never_panics_and_round_trips() {
    for doc in SEED_DOCS {
        let v = json::parse(doc).expect("seed documents are valid");
        assert_eq!(json::parse(&v.encode()), Ok(v), "{doc}");
    }
    cases("json_parse_never_panics_and_round_trips", 2048, |rng| {
        let mut doc = SEED_DOCS[rng.range(0..SEED_DOCS.len())].to_string();
        for _ in 0..rng.range(1..5) {
            doc = mutate(&doc, rng);
        }
        if let Ok(v) = json::parse(&doc) {
            let encoded = v.encode();
            assert_eq!(json::parse(&encoded), Ok(v), "{doc} -> {encoded}");
        }
    });
}
