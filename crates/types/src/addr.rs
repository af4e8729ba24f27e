//! Byte and cache-line addresses.
//!
//! The simulated GPU uses 128-byte cache lines throughout the hierarchy
//! (Table I of the paper: both L1 and L2 have 128 B lines), so the line size
//! is a crate-wide constant rather than a per-cache parameter.

use std::fmt;

/// Cache line size in bytes, shared by L1, L2 and DRAM bursts (Table I).
pub const LINE_SIZE: u32 = 128;

/// A byte address in the simulated global memory space.
///
/// `Address` is a transparent [`u64`] newtype; it exists so byte addresses
/// and line addresses cannot be confused ([`LineAddr`] is the other half of
/// that distinction).
///
/// # Example
///
/// ```
/// use gmh_types::Address;
/// let a = Address::new(0x1080);
/// assert_eq!(a.line().index(), 0x1080 / 128);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this byte.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_SIZE as u64)
    }

    /// Byte offset of this address within its cache line.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the modulus bounds the value below LINE_SIZE; try_from is not const"
    )]
    pub const fn line_offset(self) -> u32 {
        // try_from is not const, so this stays a cast.
        // The modulus bounds the value below LINE_SIZE.
        (self.0 % LINE_SIZE as u64) as u32
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({:#x})", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

/// A cache-line address: a byte address divided by [`LINE_SIZE`].
///
/// All transfers below the load-store unit operate at line granularity, so
/// most of the simulator deals in `LineAddr` rather than [`Address`].
///
/// # Example
///
/// ```
/// use gmh_types::{Address, LineAddr};
/// let l = LineAddr::new(7);
/// assert_eq!(l.base(), Address::new(7 * 128));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line index.
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// Returns the line index (byte address / line size).
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte in the line.
    pub const fn base(self) -> Address {
        Address(self.0 * LINE_SIZE as u64)
    }

    /// Maps the line to one of `n` interleaved targets (L2 banks, DRAM
    /// channels, ...). Adjacent lines map to adjacent targets — the
    /// line-granularity round-robin interleaving GPGPU-Sim uses — which
    /// preserves DRAM row locality for streaming access patterns (every
    /// n-th line of a stream lands on the same target, walking a row
    /// sequentially).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the modulus bounds the value below n, a usize"
    )]
    pub fn interleave(self, n: usize) -> usize {
        assert!(n > 0, "cannot interleave across zero targets");
        // The modulus bounds the value below n.
        (self.0 % n as u64) as usize
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(index: u64) -> Self {
        LineAddr(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_to_line_rounds_down() {
        assert_eq!(Address::new(0).line(), LineAddr::new(0));
        assert_eq!(Address::new(127).line(), LineAddr::new(0));
        assert_eq!(Address::new(128).line(), LineAddr::new(1));
        assert_eq!(Address::new(129).line(), LineAddr::new(1));
    }

    #[test]
    fn line_offset_is_within_line() {
        assert_eq!(Address::new(0x1085).line_offset(), 5);
        assert_eq!(Address::new(0x1080).line_offset(), 0);
    }

    #[test]
    fn line_base_round_trips() {
        let l = LineAddr::new(42);
        assert_eq!(l.base().line(), l);
    }

    #[test]
    fn interleave_spreads_adjacent_lines() {
        let a = LineAddr::new(100).interleave(12);
        let b = LineAddr::new(101).interleave(12);
        assert_ne!(a, b, "adjacent lines should hit different banks");
        assert!(a < 12 && b < 12);
    }

    #[test]
    fn interleave_covers_all_targets() {
        let mut seen = [false; 12];
        for i in 0..1024u64 {
            seen[LineAddr::new(i).interleave(12)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all banks should receive traffic");
    }

    #[test]
    #[should_panic(expected = "zero targets")]
    fn interleave_zero_panics() {
        let _ = LineAddr::new(1).interleave(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Address::new(0x10)), "0x10");
        assert_eq!(format!("{}", LineAddr::new(0x10)), "L0x10");
        assert_eq!(format!("{:?}", Address::new(16)), "Address(0x10)");
    }
}
