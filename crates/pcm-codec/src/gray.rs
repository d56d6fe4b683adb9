//! Two-bit Gray coding for four-level cells (§6.6).
//!
//! The paper stores 4LC data Gray-coded "so that a drift error manifests as
//! a one-bit error": adjacent resistance states differ in exactly one bit,
//! which is what lets a t-bit BCH code correct t drifted *cells*.
//!
//! State order (by resistance): S1 → `00`, S2 → `01`, S3 → `11`, S4 → `10`.

use pcm_ecc::bitvec::BitVec;

/// Gray code of each state index as a 2-bit value (low bit first).
const STATE_CODE: [u64; 4] = [0b00, 0b01, 0b11, 0b10];

/// State index of each 2-bit Gray code (the inverse of `STATE_CODE`).
const CODE_STATE: [u8; 4] = [0, 1, 3, 2];

/// Encode two bits into a 4LC state index.
#[inline]
pub fn encode_2bits(low: bool, high: bool) -> usize {
    usize::from(CODE_STATE[usize::from(low) | usize::from(high) << 1])
}

/// Decode a 4LC state index into two bits `(low, high)`.
#[inline]
pub fn decode_state(state: usize) -> (bool, bool) {
    (STATE_CODE[state] & 1 == 1, STATE_CODE[state] & 2 == 2)
}

/// Encode a bit block into 4LC state indices, two bits per cell
/// (LSB-first); odd tails are zero-padded.
pub fn encode_block(data: &BitVec) -> Vec<usize> {
    let mut out = vec![0; data.len().div_ceil(2)];
    encode_into(data, &mut out);
    out
}

/// [`encode_block`] into a caller buffer of `data.len().div_ceil(2)`
/// states, read straight off the packed words.
pub fn encode_into<S: From<u8>>(data: &BitVec, out: &mut [S]) {
    assert_eq!(out.len(), data.len().div_ceil(2), "one state per bit pair");
    for (cells, &w) in out.chunks_mut(32).zip(data.as_words()) {
        for (k, s) in cells.iter_mut().enumerate() {
            *s = S::from(CODE_STATE[(w >> (2 * k) & 0b11) as usize]);
        }
    }
}

/// Decode 4LC state indices back into `len_bits` of data, 32 cells per
/// word.
pub fn decode_block<S: Copy + Into<usize>>(states: &[S], len_bits: usize) -> BitVec {
    // pcm-lint: allow(no-panic-lib) — decode contract: callers size `states` from the block geometry; a mismatch is a wiring bug
    assert!(states.len() * 2 >= len_bits);
    let words = states
        .chunks(32)
        .map(|c| {
            c.iter()
                .rev()
                .fold(0u64, |w, &s| w << 2 | STATE_CODE[s.into()])
        })
        .collect();
    BitVec::from_words(words, len_bits)
}

/// Replace every cell's state `s` by `map[s]` (each below 4) in a
/// Gray-coded bit block, 32 cells per word: [`encode_into`], the map on
/// each state, then [`decode_block`] to `bits.len()`, without the state
/// buffer. Each state's cells are found with a mask over the (low, high)
/// bit planes, and the mask times the mapped 2-bit code fills those cells
/// (the mask's bits sit two apart, so the product never carries).
pub fn map_states(bits: &BitVec, map: [u8; 4]) -> BitVec {
    const LOW: u64 = 0x5555_5555_5555_5555;
    let code: [u64; 4] =
        std::array::from_fn(|g| STATE_CODE[usize::from(map[usize::from(CODE_STATE[g])])]);
    let words = bits
        .as_words()
        .iter()
        .map(|&w| {
            let (lo, hi) = (w & LOW, w >> 1 & LOW);
            let cells = [!(lo | hi) & LOW, lo & !hi, !lo & hi, lo & hi];
            cells.iter().zip(code).fold(0, |out, (&m, c)| out | (m * c))
        })
        .collect();
    BitVec::from_words(words, bits.len())
}

/// The bit-at-a-time originals, kept as oracles for the word-level
/// versions above.
#[cfg(test)]
mod per_bit {
    use super::*;

    pub fn encode_block(data: &BitVec) -> Vec<usize> {
        let cells = data.len().div_ceil(2);
        (0..cells)
            .map(|c| {
                let low = data.get(2 * c);
                let high = 2 * c + 1 < data.len() && data.get(2 * c + 1);
                encode_2bits(low, high)
            })
            .collect()
    }

    pub fn decode_block(states: &[usize], len_bits: usize) -> BitVec {
        assert!(states.len() * 2 >= len_bits);
        let mut out = BitVec::zeros(len_bits);
        for (c, &s) in states.iter().enumerate() {
            let (low, high) = decode_state(s);
            if 2 * c < len_bits && low {
                out.set(2 * c, true);
            }
            if 2 * c + 1 < len_bits && high {
                out.set(2 * c + 1, true);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lengths around word boundaries and the block sizes in use.
    const ORACLE_LENS: [usize; 9] = [0, 1, 63, 64, 65, 100, 512, 708, 1000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn word_level_matches_per_bit(li in 0usize..9, seed in any::<u64>(), cut in 0usize..3) {
            let len = ORACLE_LENS[li];
            let data = BitVec::from_words(
                (0..len.div_ceil(64)).map(|k| seed.rotate_left(k as u32 * 11) ^ k as u64).collect(),
                len,
            );
            let states = encode_block(&data);
            prop_assert_eq!(&states, &per_bit::encode_block(&data));
            let mut small = vec![0u8; states.len()];
            encode_into(&data, &mut small);
            prop_assert!(small.iter().zip(&states).all(|(&a, &b)| usize::from(a) == b));
            // Decoding to shorter lengths drops the tail bits.
            let len_bits = len.saturating_sub(cut);
            let want = per_bit::decode_block(&states, len_bits);
            prop_assert_eq!(&decode_block(&states, len_bits), &want);
            prop_assert_eq!(&decode_block(&small, len_bits), &want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn map_states_matches_the_state_round_trip(li in 0usize..9, seed in any::<u64>(), m in any::<u8>()) {
            let len = ORACLE_LENS[li];
            let data = BitVec::from_words(
                (0..len.div_ceil(64)).map(|k| seed.rotate_left(k as u32 * 7) ^ k as u64).collect(),
                len,
            );
            // Every map, permutations and merges alike: two bits per state.
            let map: [u8; 4] = std::array::from_fn(|s| m >> (2 * s) & 0b11);
            let mut states = encode_block(&data);
            for s in &mut states {
                *s = usize::from(map[*s]);
            }
            prop_assert_eq!(map_states(&data, map), decode_block(&states, len));
        }
    }

    #[test]
    fn state_order_is_the_documented_gray_code() {
        // S1 → 00, S2 → 01, S3 → 11, S4 → 10, as (low, high).
        let want = [(false, false), (true, false), (true, true), (false, true)];
        for (s, &(low, high)) in want.iter().enumerate() {
            assert_eq!(decode_state(s), (low, high));
            assert_eq!(encode_2bits(low, high), s);
        }
    }

    #[test]
    fn roundtrip_all_symbols() {
        for s in 0..4 {
            let (l, h) = decode_state(s);
            assert_eq!(encode_2bits(l, h), s);
        }
    }

    #[test]
    fn adjacent_states_differ_in_one_bit() {
        for s in 0..3 {
            let (l0, h0) = decode_state(s);
            let (l1, h1) = decode_state(s + 1);
            let d = usize::from(l0 != l1) + usize::from(h0 != h1);
            assert_eq!(d, 1, "states {s} and {}", s + 1);
        }
    }

    #[test]
    fn block_roundtrip() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 151 + 7) as u8).collect();
        let data = BitVec::from_bytes(&bytes, 512);
        let states = encode_block(&data);
        assert_eq!(states.len(), 256, "64B block → 256 cells (§6.6)");
        assert_eq!(decode_block(&states, 512), data);
    }

    #[test]
    fn odd_length_padding() {
        let data = BitVec::from_bools(&[true, false, true]);
        let states = encode_block(&data);
        assert_eq!(states.len(), 2);
        assert_eq!(decode_block(&states, 3), data);
    }

    #[test]
    fn drift_error_flips_one_data_bit() {
        // A cell sensed one state too high corrupts exactly one bit of the
        // decoded block.
        let data = BitVec::from_bytes(&[0b0110_1001], 8);
        let mut states = encode_block(&data);
        for c in 0..states.len() {
            if states[c] < 3 {
                let saved = states[c];
                states[c] += 1;
                let corrupted = decode_block(&states, 8);
                assert_eq!(corrupted.hamming_distance(&data), 1, "cell {c}");
                states[c] = saved;
            }
        }
    }
}
