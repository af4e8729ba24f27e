//! Stable, dependency-free content hashing.
//!
//! The result cache (`gmh_exp::cache`) and the service layer address
//! completed runs by a hash of the canonical job description. That key must
//! be *stable* — identical across processes, platforms and releases — which
//! rules out `std::hash::Hasher` implementations seeded per process
//! (`RandomState`). This module provides FNV-1a over explicit byte streams:
//! small, well-specified, and deterministic by construction, in line with
//! the determinism invariant (see DESIGN.md §7).
//!
//! FNV-1a is not cryptographic; it addresses cache entries, it does not
//! authenticate them. A collision would serve the wrong report for a
//! different `(config, workload, seed)` triple — with 64-bit keys and cache
//! populations in the thousands, the birthday bound keeps that probability
//! negligible (~1e-13 at 10⁴ entries).

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// # Example
///
/// ```
/// use gmh_types::hash::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write(b"mm");
/// h.write_u64(42);
/// // Same input, same key — in every process, on every platform.
/// let mut h2 = StableHasher::new();
/// h2.write(b"mm");
/// h2.write_u64(42);
/// assert_eq!(h.finish(), h2.finish());
/// ```
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes one string in a single call.
pub fn stable_hash_str(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(stable_hash_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash_str("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = StableHasher::new();
        h.write_str("foo");
        h.write_str("bar");
        assert_eq!(h.finish(), stable_hash_str("foobar"));
    }

    #[test]
    fn u64_is_little_endian_bytes() {
        let mut a = StableHasher::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = StableHasher::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_inputs_distinct_keys() {
        assert_ne!(stable_hash_str("mm/base/1"), stable_hash_str("mm/base/2"));
        assert_ne!(stable_hash_str("ab"), stable_hash_str("ba"));
    }
}
