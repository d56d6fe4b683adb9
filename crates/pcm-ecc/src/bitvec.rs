//! A compact, fixed-length bit vector backed by `u64` words.
//!
//! Codewords, messages, and parity blocks throughout the ECC and codec
//! layers are bit strings whose lengths (512, 708, 100, …) are not byte
//! multiples, so a dedicated type beats `Vec<bool>` (8× memory, no word-wise
//! XOR) and `Vec<u8>` (awkward tail handling).

/// Fixed-length bit vector. Bit `0` is the least significant bit of word 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// All-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Build from a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Build from bytes, LSB-first within each byte, taking exactly `len`
    /// bits (`len <= bytes.len() * 8`). Eight bytes make one word.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: the requested length must fit the supplied bytes
        assert!(
            len <= bytes.len() * 8,
            "len {len} > {} bits",
            bytes.len() * 8
        );
        let words = bytes
            .chunks(8)
            .take(len.div_ceil(64))
            .map(|chunk| {
                let mut le = [0u8; 8];
                le[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(le)
            })
            .collect();
        Self::from_words(words, len)
    }

    /// Serialize to bytes, LSB-first within each byte; the final partial
    /// byte is zero-padded (the tail bits past `len` are zero).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.len.div_ceil(8))
            .collect()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        // pcm-lint: allow(no-panic-lib) — bounds contract, the same failure mode as slice indexing
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        // pcm-lint: allow(no-panic-lib) — bounds contract, the same failure mode as slice indexing
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flip bit `i` and return its new value.
    pub fn toggle(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Word-wise XOR with another vector of the same length.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in xor");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            BitIter { word: w, base }
        })
    }

    /// Hamming distance to another vector of the same length.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// The backing words, lowest bits first. Bits at positions `>= len`
    /// (the tail of the last word) are always zero — every mutator
    /// preserves that invariant.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Build from backing words, keeping exactly `len` bits; tail bits
    /// beyond `len` are masked off to preserve the zero-tail invariant.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: the requested length must fit the supplied words
        assert!(
            len <= words.len() * 64,
            "len {len} > {} bits",
            words.len() * 64
        );
        words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Self { len, words }
    }

    /// Read the `n <= 64` bits `[start, start + n)` as an integer, bit
    /// `start` lowest; bits at or past `len` read as zero.
    #[inline]
    pub fn get_bits(&self, start: usize, n: usize) -> u64 {
        self.read_word(start) & !u64::MAX.checked_shl(n as u32).unwrap_or(0)
    }

    /// OR the low `n <= 64` bits of `value` into positions
    /// `[start, start + n)`; positions at or past `len` are dropped.
    #[inline]
    pub fn or_bits(&mut self, start: usize, n: usize, value: u64) {
        let n = n.min(self.len.saturating_sub(start));
        if n == 0 {
            return;
        }
        let v = value & u64::MAX >> (64 - n);
        let (wi, off) = (start / 64, start % 64);
        self.words[wi] |= v << off;
        if off + n > 64 {
            self.words[wi + 1] |= v >> (64 - off);
        }
    }

    /// Read 64 bits starting at arbitrary position `start`; bits past the
    /// end read as zero.
    #[inline]
    fn read_word(&self, start: usize) -> u64 {
        let (wi, off) = (start / 64, start % 64);
        let lo = self.words.get(wi).copied().unwrap_or(0) >> off;
        if off == 0 {
            lo
        } else {
            lo | self.words.get(wi + 1).copied().unwrap_or(0) << (64 - off)
        }
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in (0..130).step_by(7) {
            v.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(v.get(i), i % 7 == 0);
        }
        assert_eq!(v.count_ones(), 19);
    }

    /// The bit-at-a-time originals, kept as oracles for the word-level
    /// byte conversions.
    fn from_bytes_per_bit(bytes: &[u8], len: usize) -> BitVec {
        let mut v = BitVec::zeros(len);
        for i in 0..len {
            if bytes[i / 8] >> (i % 8) & 1 == 1 {
                v.set(i, true);
            }
        }
        v
    }

    fn to_bytes_per_bit(v: &BitVec) -> Vec<u8> {
        let mut out = vec![0u8; v.len().div_ceil(8)];
        for i in 0..v.len() {
            if v.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Lengths around word and byte boundaries and the block sizes the
    /// datapaths use.
    const ORACLE_LENS: [usize; 9] = [0, 1, 63, 64, 65, 100, 512, 708, 1000];

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn byte_conversions_match_per_bit_originals() {
        for len in ORACLE_LENS {
            for seed in 0..8 {
                // Extra source bytes past `len` must be ignored.
                let bytes = noise(len.div_ceil(8) + (seed as usize % 3), seed);
                let fast = BitVec::from_bytes(&bytes, len);
                let slow = from_bytes_per_bit(&bytes, len);
                assert_eq!(fast, slow, "from_bytes len {len} seed {seed}");
                assert_eq!(
                    fast.to_bytes(),
                    to_bytes_per_bit(&slow),
                    "to_bytes len {len}"
                );
            }
        }
    }

    #[test]
    fn field_access_matches_per_bit_reference() {
        for len in ORACLE_LENS {
            let v = BitVec::from_bytes(&noise(len.div_ceil(8), len as u64), len);
            for start in [0, 1, 3, 62, 63, 64, 65, 127, 500, 707, 998, 999, 1000, 1100] {
                for n in [0usize, 1, 2, 3, 4, 7, 33, 63, 64] {
                    let want = (0..n)
                        .filter(|&k| start + k < len && v.get(start + k))
                        .fold(0u64, |acc, k| acc | 1 << k);
                    assert_eq!(v.get_bits(start, n), want, "get len {len} at {start}+{n}");
                    let value = 0xA5C3_F00F_1234_5678u64.rotate_left(start as u32);
                    let mut fast = v.clone();
                    fast.or_bits(start, n, value);
                    let mut slow = v.clone();
                    for k in (0..n).filter(|&k| start + k < len && value >> k & 1 == 1) {
                        slow.set(start + k, true);
                    }
                    assert_eq!(fast, slow, "or len {len} at {start}+{n}");
                }
            }
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes: Vec<u8> = (0..64).map(|i| (i * 37 + 11) as u8).collect();
        let v = BitVec::from_bytes(&bytes, 512);
        assert_eq!(v.to_bytes(), bytes);
        // Partial length: 13 bits of the first two bytes.
        let v13 = BitVec::from_bytes(&bytes, 13);
        assert_eq!(v13.len(), 13);
        for i in 0..13 {
            assert_eq!(v13.get(i), bytes[i / 8] >> (i % 8) & 1 == 1);
        }
    }

    #[test]
    fn ones_iterator_ascending() {
        let mut v = BitVec::zeros(200);
        let idx = [0usize, 63, 64, 65, 127, 128, 199];
        for &i in &idx {
            v.set(i, true);
        }
        assert_eq!(v.ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn xor_and_distance() {
        let mut a = BitVec::zeros(100);
        let mut b = BitVec::zeros(100);
        a.set(3, true);
        a.set(70, true);
        b.set(70, true);
        b.set(99, true);
        assert_eq!(a.hamming_distance(&b), 2);
        a.xor_assign(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![3, 99]);
    }

    #[test]
    fn words_roundtrip_and_tail_masking() {
        let v = BitVec::from_bools(&(0..70).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let back = BitVec::from_words(v.as_words().to_vec(), 70);
        assert_eq!(back, v);
        // Dirty tail bits are masked off on construction.
        let dirty = BitVec::from_words(vec![!0u64, !0u64], 70);
        assert_eq!(dirty.count_ones(), 70);
        assert_eq!(dirty.as_words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn toggle_flips() {
        let mut v = BitVec::zeros(10);
        assert!(v.toggle(5));
        assert!(!v.toggle(5));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let v = BitVec::zeros(8);
        v.get(8);
    }
}
