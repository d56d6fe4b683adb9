//! The 3-ON-2 encoding (§6.2, Table 2): three bits stored on a pair of
//! ternary cells.
//!
//! A pair of trits has nine states; eight encode the three-bit values
//! 0b000..0b111 and the ninth — `[S4, S4]`, both cells at the highest
//! resistance — is the INV marker that the mark-and-spare wearout mechanism
//! claims for itself (§6.4). The INV state *must* be `[S4, S4]` because a
//! worn-out (stuck-reset) cell is stuck at S4, and a stuck-set cell can be
//! forced into S4 by reverse current (§6.4).
//!
//! Table 2's assignment is exactly the mixed-radix interpretation
//! `value = 3·first + second` with digits S1=0, S2=1, S4=2:
//!
//! | pair        | bits | pair        | bits |
//! |-------------|------|-------------|------|
//! | S1 S1       | 000  | S2 S4       | 101  |
//! | S1 S2       | 001  | S4 S1       | 110  |
//! | S1 S4       | 010  | S4 S2       | 111  |
//! | S2 S1       | 011  | S4 S4       | INV  |
//! | S2 S2       | 100  |             |      |

use crate::ternary::Trit;
use pcm_ecc::bitvec::BitVec;

/// Number of data cells for a 64B block: 512 bits → 171 pairs (the last
/// pair carries one padding bit) → 342 cells (§6.2).
pub const BLOCK_DATA_CELLS: usize = 342;

/// Pairs per 64B block.
pub const BLOCK_DATA_PAIRS: usize = BLOCK_DATA_CELLS / 2;

/// A decoded pair: either three bits of data or the INV marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairValue {
    /// A valid three-bit value (0..=7).
    Data(u8),
    /// The `[S4, S4]` invalid/marker state.
    Inv,
}

/// Encode three bits (0..=7) onto a pair of trits per Table 2.
#[inline]
pub fn encode_pair(value: u8) -> (Trit, Trit) {
    // pcm-lint: allow(no-panic-lib) — encode contract: 3-ON-2 carries 3 bits per pair; callers split input accordingly
    assert!(value < 8, "3-ON-2 encodes 3 bits, got {value}");
    (
        Trit::from_index((value / 3) as usize),
        Trit::from_index((value % 3) as usize),
    )
}

/// The INV marker pair (§6.2).
#[inline]
pub fn inv_pair() -> (Trit, Trit) {
    (Trit::S4, Trit::S4)
}

/// Decode a pair of trits per Table 2.
#[inline]
pub fn decode_pair(first: Trit, second: Trit) -> PairValue {
    let v = 3 * first.index() + second.index();
    if v == 8 {
        PairValue::Inv
    } else {
        PairValue::Data(v as u8)
    }
}

/// TEC image (see [`crate::tec`]) of each pair value: 4 bits, first
/// cell in the low two (S1 → `00`, S2 → `01`, S4 → `11`). Index 8 is INV.
pub const PAIR_TEC: [u64; 9] = [
    0b0000, 0b0100, 0b1100, 0b0001, 0b0101, 0b1101, 0b0011, 0b0111, 0b1111,
];

/// Pair value (0..=7 data, 8 = INV) of each 4-bit TEC pair code, the
/// inverse of [`PAIR_TEC`]. A cell holding the `01` pattern (code `0b10`)
/// reads as S2, as in [`crate::tec::bits_to_trits`].
pub const TEC_PAIR: [u8; 16] = [0, 3, 3, 6, 1, 4, 4, 7, 1, 4, 4, 7, 2, 5, 5, 8];

/// Encode a bit block into trits: bits are consumed three at a time
/// (LSB-first); the tail is zero-padded to a full pair. 512 bits become
/// exactly [`BLOCK_DATA_CELLS`] trits.
pub fn encode_block(data: &BitVec) -> Vec<Trit> {
    (0..data.len().div_ceil(3))
        .flat_map(|p| {
            let (a, b) = encode_pair(data.get_bits(3 * p, 3) as u8);
            [a, b]
        })
        .collect()
}

/// Decode trits back into `len_bits` of data. Pairs decoding to INV are
/// reported in the returned mask (one flag per pair) and contribute zero
/// bits; the wearout layer substitutes spares *before* calling this in the
/// real read path (Figure 9), so INV here means an unrepaired failure.
pub fn decode_block(trits: &[Trit], len_bits: usize) -> (BitVec, Vec<bool>) {
    // pcm-lint: allow(no-panic-lib) — decode contract: trit streams are whole pairs; an odd length is an upstream framing bug
    assert!(
        trits.len().is_multiple_of(2),
        "trit stream must be whole pairs"
    );
    // pcm-lint: allow(no-panic-lib) — decode contract: callers request at most the bits the pairs can carry
    assert!(
        trits.len() / 2 * 3 >= len_bits,
        "not enough pairs for {len_bits} bits"
    );
    let mut data = BitVec::zeros(len_bits);
    let inv = trits
        .chunks_exact(2)
        .enumerate()
        .map(|(p, pair)| match decode_pair(pair[0], pair[1]) {
            PairValue::Inv => true,
            PairValue::Data(v) => {
                data.or_bits(3 * p, 3, u64::from(v));
                false
            }
        })
        .collect();
    (data, inv)
}

/// The bit-at-a-time originals, kept as oracles for the word-level
/// versions above.
#[cfg(test)]
mod per_bit {
    use super::*;

    pub fn encode_block(data: &BitVec) -> Vec<Trit> {
        let pairs = data.len().div_ceil(3);
        let mut out = Vec::with_capacity(pairs * 2);
        for p in 0..pairs {
            let mut v = 0u8;
            for b in 0..3 {
                let idx = p * 3 + b;
                if idx < data.len() && data.get(idx) {
                    v |= 1 << b;
                }
            }
            let (a, b) = encode_pair(v);
            out.push(a);
            out.push(b);
        }
        out
    }

    pub fn decode_block(trits: &[Trit], len_bits: usize) -> (BitVec, Vec<bool>) {
        let pairs = trits.len() / 2;
        let mut data = BitVec::zeros(len_bits);
        let mut inv = vec![false; pairs];
        for p in 0..pairs {
            match decode_pair(trits[2 * p], trits[2 * p + 1]) {
                PairValue::Inv => inv[p] = true,
                PairValue::Data(v) => {
                    for b in 0..3 {
                        let idx = p * 3 + b;
                        if idx < len_bits && v >> b & 1 == 1 {
                            data.set(idx, true);
                        }
                    }
                }
            }
        }
        (data, inv)
    }
}

/// Information density of 3-ON-2 in bits per cell (1.5; §6.2 quotes the
/// ideal ternary capacity as log2(3) ≈ 1.58).
pub fn bits_per_cell() -> f64 {
    1.5
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
        fn word_level_matches_per_bit(li in 0usize..9, seed in any::<u64>(), invs in 0usize..4) {
            let len = ORACLE_LENS[li];
            let data = BitVec::from_words(
                (0..len.div_ceil(64)).map(|k| seed.rotate_left(k as u32 * 13) ^ k as u64).collect(),
                len,
            );
            let mut trits = encode_block(&data);
            prop_assert_eq!(&trits, &per_bit::encode_block(&data));
            // INV pairs anywhere, and shorter decode lengths.
            let pairs = trits.len() / 2;
            for k in 0..invs.min(pairs) {
                let p = (seed as usize >> (8 * k)) % pairs;
                trits[2 * p] = Trit::S4;
                trits[2 * p + 1] = Trit::S4;
            }
            for len_bits in [len, len.saturating_sub(1), len / 2] {
                prop_assert_eq!(decode_block(&trits, len_bits), per_bit::decode_block(&trits, len_bits));
            }
        }
    }

    #[test]
    fn pair_tec_tables_follow_table2_and_the_tec_mapping() {
        for v in 0..9u8 {
            let (a, b) = if v == 8 { inv_pair() } else { encode_pair(v) };
            let tec = crate::tec::per_bit::trits_to_bits(&[a, b]);
            assert_eq!(PAIR_TEC[v as usize], tec.get_bits(0, 4), "value {v}");
            assert_eq!(TEC_PAIR[PAIR_TEC[v as usize] as usize], v);
        }
        // Every code, `01` cells included, decodes as `bits_to_trits` would.
        for c in 0..16u64 {
            let (t, _) = crate::tec::per_bit::bits_to_trits(&BitVec::from_words(vec![c], 4));
            let want = match decode_pair(t[0], t[1]) {
                PairValue::Inv => 8,
                PairValue::Data(v) => v,
            };
            assert_eq!(TEC_PAIR[c as usize], want, "code {c:04b}");
        }
    }

    #[test]
    fn table2_exact_mapping() {
        use Trit::*;
        let table = [
            ((S1, S1), 0b000),
            ((S1, S2), 0b001),
            ((S1, S4), 0b010),
            ((S2, S1), 0b011),
            ((S2, S2), 0b100),
            ((S2, S4), 0b101),
            ((S4, S1), 0b110),
            ((S4, S2), 0b111),
        ];
        for ((a, b), v) in table {
            assert_eq!(encode_pair(v), (a, b), "encode {v:03b}");
            assert_eq!(decode_pair(a, b), PairValue::Data(v), "decode {a:?}{b:?}");
        }
        assert_eq!(decode_pair(S4, S4), PairValue::Inv);
        assert_eq!(inv_pair(), (S4, S4));
    }

    #[test]
    fn pair_roundtrip_all_values() {
        for v in 0..8u8 {
            let (a, b) = encode_pair(v);
            assert_eq!(decode_pair(a, b), PairValue::Data(v));
        }
    }

    #[test]
    fn block_geometry_matches_section_6_2() {
        let data = BitVec::zeros(512);
        let trits = encode_block(&data);
        assert_eq!(trits.len(), BLOCK_DATA_CELLS, "512 bits → 342 cells");
        assert_eq!(BLOCK_DATA_PAIRS, 171);
    }

    #[test]
    fn block_roundtrip_patterned_data() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 73 + 29) as u8).collect();
        let data = BitVec::from_bytes(&bytes, 512);
        let trits = encode_block(&data);
        let (decoded, inv) = decode_block(&trits, 512);
        assert_eq!(decoded, data);
        assert!(inv.iter().all(|&f| !f), "no INV pairs in clean data");
    }

    #[test]
    fn block_roundtrip_non_multiple_of_three() {
        // 16 bits → 6 pairs (18 bit slots, 2 padding).
        let data = BitVec::from_bytes(&[0xDE, 0xAD], 16);
        let trits = encode_block(&data);
        assert_eq!(trits.len(), 12);
        let (decoded, _) = decode_block(&trits, 16);
        assert_eq!(decoded, data);
    }

    #[test]
    fn inv_pairs_are_flagged() {
        let data = BitVec::from_bytes(&[0xFF; 8], 64);
        let mut trits = encode_block(&data);
        // Corrupt pair 3 into INV (a marked wearout failure).
        trits[6] = Trit::S4;
        trits[7] = Trit::S4;
        let (_, inv) = decode_block(&trits, 64);
        assert!(inv[3]);
        assert_eq!(inv.iter().filter(|&&f| f).count(), 1);
    }

    #[test]
    fn no_data_value_touches_inv() {
        // Structural guarantee behind mark-and-spare: valid data never
        // produces [S4, S4].
        for v in 0..8u8 {
            assert_ne!(encode_pair(v), inv_pair());
        }
    }

    #[test]
    fn density_is_1_5() {
        assert_eq!(bits_per_cell(), 1.5);
        assert!(bits_per_cell() < 3f64.log2()); // below ideal ternary
    }
}
