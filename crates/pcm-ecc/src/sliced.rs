//! Bit-sliced (64-lane) kernels for batch BCH decoding.
//!
//! The scalar decoder processes one codeword at a time through log/antilog
//! table lookups — a long dependent chain of loads. These kernels instead
//! *transpose* a batch of up to 64 codewords into **position-major** form:
//! one `u64` per codeword bit position, where bit `l` of plane `e` is lane
//! `l`'s bit at position `e`. In that layout every word-op processes one
//! bit position of all 64 codewords at once, and GF(2^m) elements live as
//! `m` planes (bit `b` of the element across lanes in plane `b`).
//!
//! Two observations make the field arithmetic cheap in this form:
//!
//! * **Accumulating a constant**: syndrome `S_j = Σ_e r_e · α^(je)` only
//!   ever adds the *same* field constant to the lanes whose bit `e` is set
//!   — XOR the lane mask into the planes named by the constant's set bits.
//! * **Multiplying by a constant** is GF(2)-linear, i.e. an m×m bit matrix
//!   over the planes. Chien search steps every error-locator term by a
//!   fixed `α^(n−k)`, and the Frobenius map `x ↦ x²` (which derives the
//!   even syndromes from the odd ones) is likewise linear. Both matrices
//!   are precomputed per code in the [`Bch`](crate::bch::Bch) registry.
//!
//! The scalar whole-word decoder stays as the oracle: `Bch::decode_batch`
//! is tested to agree with `Bch::decode_reference` (and the
//! remainder-first `Bch::decode`) bit-for-bit on every lane.

use crate::bitvec::BitVec;
use crate::gf::GfTables;

/// Lanes processed per batch: one per bit of the slicing word.
pub const LANES: usize = 64;

/// Largest supported field degree (m ≤ 13 everywhere in this crate);
/// sizes the on-stack plane scratch buffers.
pub(crate) const MAX_M: usize = 13;

/// Transpose a 64×64 bit matrix in place. Row `i` is `a[i]`; bit `j`
/// (LSB-first) is column `j`. After the call, `a[j]` bit `i` equals the
/// old `a[i]` bit `j`. Involution: applying it twice restores the input.
pub fn transpose64(a: &mut [u64; 64]) {
    // Recursive block swap (Hacker's Delight 7-3, 64-bit, LSB-first):
    // at step `j`, swap the high-half columns of each low row with the
    // low-half columns of the matching high row, then recurse into halves.
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    loop {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        if j == 0 {
            break;
        }
        m ^= m << j;
    }
}

/// A batch of up to 64 equal-length bit strings in position-major form.
#[derive(Debug, Clone)]
pub struct SlicedBatch {
    /// One word per bit position (padded up to a multiple of 64); bit `l`
    /// of `planes[e]` is lane `l`'s bit at position `e`.
    planes: Vec<u64>,
    /// Bits per lane.
    bits: usize,
    /// Number of occupied lanes (≤ 64); planes of lanes ≥ `lanes` are 0.
    lanes: usize,
}

impl SlicedBatch {
    /// Transpose `words` (all the same length, at most 64 of them) into
    /// position-major planes.
    pub fn from_lanes(words: &[BitVec]) -> SlicedBatch {
        // pcm-lint: allow(no-panic-lib) — batch contract: a slicing word has exactly 64 lanes; callers chunk larger batches
        assert!(words.len() <= LANES, "at most {LANES} lanes per batch");
        let bits = words.first().map_or(0, BitVec::len);
        let blocks = bits.div_ceil(64).max(1);
        let mut planes = vec![0u64; blocks * 64];
        for c in 0..blocks {
            let mut scratch = [0u64; 64];
            for (l, w) in words.iter().enumerate() {
                assert_eq!(w.len(), bits, "lane {l} length mismatch");
                scratch[l] = w.as_words().get(c).copied().unwrap_or(0);
            }
            transpose64(&mut scratch);
            planes[c * 64..(c + 1) * 64].copy_from_slice(&scratch);
        }
        SlicedBatch {
            planes,
            bits,
            lanes: words.len(),
        }
    }

    /// Transpose back to one [`BitVec`] per lane (the inverse of
    /// [`SlicedBatch::from_lanes`]).
    pub fn to_lanes(&self) -> Vec<BitVec> {
        let blocks = self.bits.div_ceil(64).max(1);
        let mut lane_words = vec![vec![0u64; blocks]; self.lanes];
        for c in 0..blocks {
            let mut scratch = [0u64; 64];
            scratch.copy_from_slice(&self.planes[c * 64..(c + 1) * 64]);
            transpose64(&mut scratch);
            for (l, words) in lane_words.iter_mut().enumerate() {
                words[c] = scratch[l];
            }
        }
        lane_words
            .into_iter()
            .map(|w| BitVec::from_words(w, self.bits))
            .collect()
    }

    /// The position-major planes (length padded to a multiple of 64).
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// Bits per lane.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Flip lane `lane`'s bit at position `e` (a batch error correction).
    #[inline]
    pub fn toggle(&mut self, e: usize, lane: usize) {
        // pcm-lint: allow(no-panic-lib) — bounds contract, the same failure mode as slice indexing
        assert!(e < self.bits && lane < self.lanes);
        self.planes[e] ^= 1u64 << lane;
    }
}

/// Bit-sliced syndromes of up to 64 received words.
///
/// Returns `2t · m` planes: `synd[(j−1)·m + b]` holds bit `b` of syndrome
/// `S_j` across lanes. Odd syndromes come from one sweep over the `used`
/// positions (per position: one scalar constant advance plus one masked
/// XOR per set bit of the constant, shared by all 64 lanes); even
/// syndromes are derived by the Frobenius identity `S_{2j} = S_j²`, one
/// linear map per even row (`sq_cols[b]` = `(α^b)²`, from the code
/// registry) instead of another position sweep.
pub(crate) fn syndromes_sliced(
    gf: &GfTables,
    t: usize,
    sq_cols: &[u32],
    planes: &[u64],
    used: usize,
) -> Vec<u64> {
    let m = gf.m() as usize;
    let mut synd = vec![0u64; 2 * t * m];
    // Odd rows S_1, S_3, …, S_{2t−1}: position sweep.
    let mut c = vec![1u32; t];
    let step: Vec<u32> = (0..t).map(|i| gf.alpha_pow((2 * i + 1) as u64)).collect();
    for &mask in planes.iter().take(used) {
        if mask != 0 {
            for (i, &ci) in c.iter().enumerate() {
                let row = 2 * i * m; // S_{2i+1} lives at index (2i+1)−1
                let mut v = ci;
                while v != 0 {
                    let b = v.trailing_zeros() as usize;
                    synd[row + b] ^= mask;
                    v &= v - 1;
                }
            }
        }
        for (ci, &si) in c.iter_mut().zip(&step) {
            *ci = gf.mul(*ci, si);
        }
    }
    // Even rows S_{2k} = S_k², ascending so the source row is ready.
    for j in (2..=2 * t).step_by(2) {
        let src = (j / 2 - 1) * m;
        let mut sq = [0u64; MAX_M];
        for b in 0..m {
            let p = synd[src + b];
            if p != 0 {
                let mut v = sq_cols[b];
                while v != 0 {
                    let o = v.trailing_zeros() as usize;
                    sq[o] ^= p;
                    v &= v - 1;
                }
            }
        }
        synd[(j - 1) * m..(j - 1) * m + m].copy_from_slice(&sq[..m]);
    }
    synd
}

/// Extract lane `lane`'s scalar syndromes from the sliced planes.
pub(crate) fn extract_lane_syndromes(synd: &[u64], m: usize, t2: usize, lane: usize) -> Vec<u32> {
    (0..t2)
        .map(|j| {
            let mut s = 0u32;
            for b in 0..m {
                s |= (((synd[j * m + b] >> lane) & 1) as u32) << b;
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_words(lanes: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..lanes)
            .map(|_| {
                let bools: Vec<bool> = (0..bits)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x & 1 == 1
                    })
                    .collect();
                BitVec::from_bools(&bools)
            })
            .collect()
    }

    #[test]
    fn transpose64_is_exact_and_involutive() {
        let mut a = [0u64; 64];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for w in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        let orig = a;
        transpose64(&mut a);
        for (i, o) in orig.iter().enumerate() {
            for (j, t) in a.iter().enumerate() {
                assert_eq!(
                    t >> i & 1,
                    o >> j & 1,
                    "transposed[{j}] bit {i} != orig[{i}] bit {j}"
                );
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose must be an involution");
    }

    #[test]
    fn lanes_roundtrip_at_odd_sizes() {
        for &(lanes, bits) in &[(1usize, 1usize), (3, 63), (64, 64), (17, 130), (64, 712)] {
            let words = pseudo_words(lanes, bits, (lanes * 1000 + bits) as u64);
            let batch = SlicedBatch::from_lanes(&words);
            assert_eq!(batch.lanes(), lanes);
            assert_eq!(batch.bits(), bits);
            assert_eq!(batch.to_lanes(), words, "lanes={lanes} bits={bits}");
        }
    }

    #[test]
    fn planes_are_position_major() {
        let words = pseudo_words(5, 100, 9);
        let batch = SlicedBatch::from_lanes(&words);
        for (l, w) in words.iter().enumerate() {
            for e in 0..100 {
                assert_eq!(
                    batch.planes()[e] >> l & 1 == 1,
                    w.get(e),
                    "lane {l} pos {e}"
                );
            }
        }
    }

    #[test]
    fn toggle_flips_one_lane_bit() {
        let words = pseudo_words(8, 70, 4);
        let mut batch = SlicedBatch::from_lanes(&words);
        batch.toggle(69, 3);
        let back = batch.to_lanes();
        for (l, w) in words.iter().enumerate() {
            for e in 0..70 {
                let expect = if (l, e) == (3, 69) {
                    !w.get(e)
                } else {
                    w.get(e)
                };
                assert_eq!(back[l].get(e), expect);
            }
        }
    }

    #[test]
    fn sliced_syndromes_match_scalar_accumulation() {
        // Reference: S_j = Σ_{e set} α^(j·e), computed per lane with plain
        // table arithmetic, against the masked-XOR + Frobenius kernel.
        let gf = GfTables::new(8);
        let m = gf.m() as usize;
        let t = 4;
        let sq_cols: Vec<u32> = (0..m as u64)
            .map(|b| gf.mul(gf.alpha_pow(b), gf.alpha_pow(b)))
            .collect();
        let used = 200;
        let words = pseudo_words(23, used, 77);
        let batch = SlicedBatch::from_lanes(&words);
        let synd = syndromes_sliced(&gf, t, &sq_cols, batch.planes(), used);
        for (l, w) in words.iter().enumerate() {
            let got = extract_lane_syndromes(&synd, m, 2 * t, l);
            for (j, &g) in got.iter().enumerate() {
                let mut want = 0u32;
                for e in w.ones() {
                    want ^= gf.alpha_pow(((j + 1) * e) as u64);
                }
                assert_eq!(g, want, "lane {l} S_{}", j + 1);
            }
        }
    }
}
