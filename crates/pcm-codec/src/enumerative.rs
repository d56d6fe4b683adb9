//! Enumerative coding for non-power-of-two-level cells (§3, §8).
//!
//! The paper observes that 3-ON-2 (and elastic RESET's codes) are special
//! cases of enumerative source encoding \[10\], and proposes in §8 to
//! generalize the approach to five- and six-level cells. This module
//! implements the general block code: `k` bits packed into `m` base-`b`
//! symbols with `b^m ≥ 2^k`, via mixed-radix conversion. The unused
//! codewords (values ≥ 2^k) play the same role as 3-ON-2's INV state —
//! free marker states for wearout tolerance.
//!
//! `EnumerativeCode::new(3, 2)` has 3-ON-2's shape (3 bits in 2 trits,
//! one spare codeword) but not its cell order:
//! [`EnumerativeCode::encode_group`] writes the least significant digit
//! first, while Table 2's [`crate::three_on_two::encode_pair`] writes
//! `value / 3` first, so the two codes store each pair with its cells
//! swapped. The §8 candidates are `new(5, 3)` (6 bits in 3 cells, 2.0
//! bits/cell) and `new(6, 5)` (12 bits in 5 cells, 2.4 bits/cell).

use pcm_ecc::bitvec::BitVec;

/// A `k`-bits-in-`m`-symbols block code over a base-`b` alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerativeCode {
    base: u8,
    symbols: usize,
    bits: usize,
}

impl EnumerativeCode {
    /// Code over base-`base` symbols, `symbols` per group; the bit payload
    /// is the largest `k` with `2^k ≤ base^symbols` (capped so arithmetic
    /// fits in `u64`).
    pub fn new(base: u8, symbols: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: the base is a design-table constant, checked once at code construction
        assert!((2..=16).contains(&base), "base must be 2..=16");
        // pcm-lint: allow(no-panic-lib) — constructor contract: a code needs at least one symbol per group
        assert!(symbols >= 1);
        let capacity_log2 = symbols as f64 * (base as f64).log2();
        // pcm-lint: allow(no-panic-lib) — constructor contract: group capacity must fit u64 arithmetic
        assert!(
            capacity_log2 < 63.0,
            "group too large for u64 arithmetic: {symbols} base-{base} symbols"
        );
        // Largest k with 2^k <= base^symbols, computed exactly.
        let total: u64 = (0..symbols).fold(1u64, |acc, _| acc * base as u64);
        let bits = 63 - total.leading_zeros() as usize; // floor(log2(total))
        Self {
            base,
            symbols,
            bits,
        }
    }

    /// Symbol alphabet size.
    pub fn base(&self) -> u8 {
        self.base
    }

    /// Symbols per group.
    pub fn symbols_per_group(&self) -> usize {
        self.symbols
    }

    /// Data bits per group.
    pub fn bits_per_group(&self) -> usize {
        self.bits
    }

    /// Information density in bits per symbol (cell).
    pub fn bits_per_cell(&self) -> f64 {
        self.bits as f64 / self.symbols as f64
    }

    /// Efficiency relative to the ideal `log2(base)` bits per cell.
    pub fn efficiency(&self) -> f64 {
        self.bits_per_cell() / (self.base as f64).log2()
    }

    /// Number of unused (marker/INV-like) codewords in a group.
    pub fn spare_codewords(&self) -> u64 {
        let total: u64 = (0..self.symbols).fold(1u64, |acc, _| acc * self.base as u64);
        total - (1u64 << self.bits)
    }

    /// Encode a group value (< 2^bits) into base-`b` digits, least
    /// significant digit first.
    pub fn encode_group(&self, value: u64) -> Vec<u8> {
        // pcm-lint: allow(no-panic-lib) — encode contract: the value must fit the group payload; violating it is a caller bug, not data corruption
        assert!(value < 1u64 << self.bits, "value {value} exceeds payload");
        let mut v = value;
        let mut out = Vec::with_capacity(self.symbols);
        for _ in 0..self.symbols {
            out.push((v % self.base as u64) as u8);
            v /= self.base as u64;
        }
        out
    }

    /// Decode digits back to a group value. `None` when the digits encode
    /// a spare (out-of-range) codeword.
    pub fn decode_group(&self, digits: &[u8]) -> Option<u64> {
        assert_eq!(digits.len(), self.symbols);
        let mut v = 0u64;
        for &d in digits.iter().rev() {
            // pcm-lint: allow(no-panic-lib) — decode contract: symbols are produced by sensing against this code's own base
            assert!(d < self.base, "digit {d} out of alphabet");
            v = v * self.base as u64 + d as u64;
        }
        (v < 1u64 << self.bits).then_some(v)
    }

    /// Pack a whole bit block into symbols, group by group (final group
    /// zero-padded).
    pub fn encode_block(&self, data: &BitVec) -> Vec<u8> {
        let groups = data.len().div_ceil(self.bits);
        let mut out = Vec::with_capacity(groups * self.symbols);
        for g in 0..groups {
            let mut v = 0u64;
            for b in 0..self.bits {
                let idx = g * self.bits + b;
                if idx < data.len() && data.get(idx) {
                    v |= 1 << b;
                }
            }
            out.extend(self.encode_group(v));
        }
        out
    }

    /// Unpack symbols back to `len_bits` of data; `None` if any group
    /// holds a spare codeword (unrepaired failure marker).
    pub fn decode_block(&self, symbols: &[u8], len_bits: usize) -> Option<BitVec> {
        // pcm-lint: allow(no-panic-lib) — decode contract: block length is a whole number of groups by construction of encode_block
        assert!(symbols.len().is_multiple_of(self.symbols));
        let groups = symbols.len() / self.symbols;
        // pcm-lint: allow(no-panic-lib) — decode contract: the requested bit count must fit the decoded groups
        assert!(groups * self.bits >= len_bits);
        let mut out = BitVec::zeros(len_bits);
        for g in 0..groups {
            let v = self.decode_group(&symbols[g * self.symbols..(g + 1) * self.symbols])?;
            for b in 0..self.bits {
                let idx = g * self.bits + b;
                if idx < len_bits && v >> b & 1 == 1 {
                    out.set(idx, true);
                }
            }
        }
        Some(out)
    }

    /// Cells needed to store a 512-bit (64 B) block.
    pub fn cells_per_512_bits(&self) -> usize {
        512usize.div_ceil(self.bits) * self.symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_on_two_is_a_special_case() {
        let c = EnumerativeCode::new(3, 2);
        assert_eq!(c.bits_per_group(), 3);
        assert_eq!(c.bits_per_cell(), 1.5);
        assert_eq!(c.spare_codewords(), 1, "the INV state");
        assert_eq!(c.cells_per_512_bits(), 342, "§6.2's 342 data cells");
    }

    #[test]
    fn three_on_two_writes_each_pair_in_the_opposite_cell_order() {
        use crate::three_on_two::{encode_pair, inv_pair};
        let c = EnumerativeCode::new(3, 2);
        for v in 0..8u8 {
            let (first, second) = encode_pair(v);
            let digits = c.encode_group(u64::from(v));
            assert_eq!(digits, [second.index() as u8, first.index() as u8], "{v}");
        }
        // The spare codeword reads the same in either order: INV.
        let (first, second) = inv_pair();
        assert_eq!((first.index(), second.index()), (2, 2));
        assert_eq!(c.decode_group(&[2, 2]), None);
    }

    #[test]
    fn section8_candidates() {
        // Five-level cells: 3 cells hold 125 states ≥ 2^6 → 2 bits/cell.
        let five = EnumerativeCode::new(5, 3);
        assert_eq!(five.bits_per_group(), 6);
        assert!((five.bits_per_cell() - 2.0).abs() < 1e-12);
        // Six-level cells: 5 cells hold 7776 states ≥ 2^12 → 2.4 bits/cell.
        let six = EnumerativeCode::new(6, 5);
        assert_eq!(six.bits_per_group(), 12);
        assert!((six.bits_per_cell() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn group_roundtrip_exhaustive_small() {
        let c = EnumerativeCode::new(5, 3);
        for v in 0..(1u64 << c.bits_per_group()) {
            let digits = c.encode_group(v);
            assert_eq!(digits.len(), 3);
            assert_eq!(c.decode_group(&digits), Some(v));
        }
    }

    #[test]
    fn spare_codewords_decode_to_none() {
        let c = EnumerativeCode::new(3, 2);
        // [2, 2] = value 8 = the INV state.
        assert_eq!(c.decode_group(&[2, 2]), None);
        let five = EnumerativeCode::new(5, 3);
        assert_eq!(five.spare_codewords(), 125 - 64);
        assert_eq!(five.decode_group(&[4, 4, 4]), None);
    }

    #[test]
    fn block_roundtrip() {
        let c = EnumerativeCode::new(6, 5);
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 91 + 17) as u8).collect();
        let data = BitVec::from_bytes(&bytes, 512);
        let syms = c.encode_block(&data);
        assert_eq!(syms.len(), c.cells_per_512_bits());
        assert_eq!(c.decode_block(&syms, 512), Some(data));
    }

    #[test]
    fn corrupted_group_detected() {
        let c = EnumerativeCode::new(3, 2);
        let data = BitVec::from_bytes(&[0x00; 8], 64);
        let mut syms = c.encode_block(&data);
        // Force a group into the spare codeword.
        syms[0] = 2;
        syms[1] = 2;
        assert_eq!(c.decode_block(&syms, 64), None);
    }

    #[test]
    fn efficiency_below_one_and_improves_with_group_size() {
        // Longer ternary groups approach log2(3) bits/cell: e.g. 19 bits
        // in 12 trits (1.583) beats 3 bits in 2 trits (1.5).
        let short = EnumerativeCode::new(3, 2);
        let long = EnumerativeCode::new(3, 12);
        assert!(long.bits_per_cell() > short.bits_per_cell());
        assert!(long.efficiency() <= 1.0);
        assert!(long.efficiency() > 0.99);
    }

    #[test]
    fn binary_base_is_trivial() {
        let c = EnumerativeCode::new(2, 8);
        assert_eq!(c.bits_per_group(), 8);
        assert_eq!(c.spare_codewords(), 0);
        assert_eq!(c.efficiency(), 1.0);
    }
}
