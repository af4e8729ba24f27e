//! Clean fixture: the patterns the rules accept — ordered collections,
//! justified panics, and hash maps confined to test code.

use std::collections::BTreeMap;

pub fn histogram(xs: &[u64]) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for &x in xs {
        *out.entry(x).or_insert(0) += 1;
    }
    out
}

pub fn checked(x: u64) -> u32 {
    // INVARIANT: masked to 16 bits just below, so the conversion fits.
    u32::try_from(x & 0xFFFF).expect("masked to 16 bits")
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn hash_maps_in_tests_are_exempt() {
        let mut m = HashMap::new();
        m.insert(1, 2);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
    }
}
