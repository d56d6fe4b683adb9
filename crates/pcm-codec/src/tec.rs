//! Transient-error-correction (TEC) bit mapping for the 3LC design (§6.3).
//!
//! The 3-ON-2 data mapping cannot represent the INV state in its three-bit
//! output, so an ECC built over decoded data bits could never correct a
//! drift error that turns a valid pair into `[S4, S4]`. The paper therefore
//! re-interprets each cell as *two bits* for ECC purposes only —
//! S1 → 00, S2 → 01, S4 → 11 — under which any single drift error is a
//! single bit error, INV included.
//!
//! The ECC message covers all 354 cells of a block (342 data + 12 spare,
//! §6.3) giving 708 bits, protected by BCH-1 (10 check bits stored in SLC
//! mode so the check bits themselves cannot drift).

use crate::ternary::Trit;
use pcm_ecc::bch::{Bch, BchError};
use pcm_ecc::bitvec::BitVec;

/// Cells covered by the TEC codeword: 342 data + 12 spare (§6.3).
pub const TEC_CELLS: usize = 354;

/// TEC message length in bits (2 bits per covered cell).
pub const TEC_MESSAGE_BITS: usize = 2 * TEC_CELLS;

/// Check bits of the paper's BCH-1 over the 708-bit message.
pub const TEC_CHECK_BITS: usize = 10;

/// TEC code of each three-level state index (S1 → `00`, S2 → `01`,
/// S4 → `11`, read low bit first), i.e. [`Trit::tec_bits`] as a 2-bit
/// value. It is also the thermometer code of the sensed state: bit `k` is
/// set when the resistance reached threshold `k` (ascending thresholds).
pub const STATE_CODE: [u64; 3] = [0b00, 0b01, 0b11];

/// State index of each 2-bit TEC code. The code `0b10` (low = 0,
/// high = 1), the `01` pattern, encodes no state and reads as S2, as in
/// [`bits_to_trits`].
pub const CODE_STATE: [u8; 4] = [0, 1, 1, 2];

/// Pack one 2-bit TEC code per cell, 32 cells per word.
fn pack<T: Copy>(cells: &[T], state: impl Fn(T) -> usize) -> BitVec {
    let words = cells
        .chunks(32)
        .map(|c| {
            c.iter()
                .rev()
                .fold(0u64, |w, &x| w << 2 | STATE_CODE[state(x)])
        })
        .collect();
    BitVec::from_words(words, 2 * cells.len())
}

/// Map a trit slice to its TEC bit representation (2 bits per trit,
/// low bit first).
pub fn trits_to_bits(trits: &[Trit]) -> BitVec {
    pack(trits, Trit::index)
}

/// [`trits_to_bits`] of sensed three-level state indices (0..=2).
pub fn states_to_bits(states: &[u8]) -> BitVec {
    pack(states, usize::from)
}

/// Map TEC bits back to trits. Returns the positions of `01`-pattern cells
/// (low=0, high=1), which encode no state; any such cell is forced to S2
/// (the pattern's nearest valid neighbors are S1 and S4 — one bit each —
/// so any choice is one bit from truth; S2 is the middle ground). With a
/// correctly functioning ECC ahead of this step the list is empty.
pub fn bits_to_trits(bits: &BitVec) -> (Vec<Trit>, Vec<usize>) {
    // pcm-lint: allow(no-panic-lib) — decode contract: TEC codewords are bit pairs; an odd length is an upstream framing bug
    assert!(bits.len().is_multiple_of(2));
    let words = bits.as_words();
    let mut bad = Vec::new();
    let out = (0..bits.len() / 2)
        .map(|i| {
            let code = (words[i / 32] >> (2 * (i % 32)) & 0b11) as usize;
            if code == 0b10 {
                bad.push(i);
            }
            Trit::ALL[usize::from(CODE_STATE[code])]
        })
        .collect();
    (out, bad)
}

/// The transient-error corrector for a 3LC block: BCH-1 over the TEC bits.
#[derive(Debug, Clone)]
pub struct TecCodec {
    bch: Bch,
}

/// Result of a TEC decode pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TecOutcome {
    /// Corrected trits (same length as the input).
    pub trits: Vec<Trit>,
    /// Number of bit corrections applied by the ECC.
    pub corrected_bits: usize,
}

impl Default for TecCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl TecCodec {
    /// Build the paper's BCH-1 TEC codec (GF(2^10), 10 check bits).
    pub fn new() -> Self {
        let bch = Bch::new(10, 1);
        debug_assert_eq!(bch.parity_bits(), TEC_CHECK_BITS);
        Self { bch }
    }

    /// Build a stronger variant (used by ablation benches).
    pub fn with_strength(t: usize) -> Self {
        Self {
            bch: Bch::new(10, t),
        }
    }

    /// Check bits added per block.
    pub fn check_bits(&self) -> usize {
        self.bch.parity_bits()
    }

    /// Bit errors per block the codec corrects (the BCH `t`).
    pub fn strength(&self) -> usize {
        self.bch.t()
    }

    /// Compute the SLC-stored check bits for a cell block.
    pub fn encode(&self, trits: &[Trit]) -> BitVec {
        self.encode_bits(&trits_to_bits(trits))
    }

    /// [`Self::encode`] of an already packed TEC message.
    pub fn encode_bits(&self, bits: &BitVec) -> BitVec {
        self.bch.encode(bits)
    }

    /// Correct drift errors in sensed trits given the stored check bits.
    /// Check-bit cells are SLC and drift-immune, but the decoder still
    /// corrects them if flipped by other faults.
    pub fn decode(&self, sensed: &[Trit], check: &BitVec) -> Result<TecOutcome, BchError> {
        let mut bits = trits_to_bits(sensed);
        let corrected_bits = self.decode_bits(&mut bits, &mut check.clone())?;
        Ok(TecOutcome {
            trits: bits_to_trits(&bits).0,
            corrected_bits,
        })
    }

    /// [`Self::decode`] in place on a packed TEC message and its check
    /// bits; returns the number of corrected bits.
    pub fn decode_bits(&self, bits: &mut BitVec, check: &mut BitVec) -> Result<usize, BchError> {
        let corrected_bits = self.bch.decode(bits, check)?;
        // A cell left holding the `01` pattern (high bit set, low clear)
        // means the error pattern exceeded the code. Surface it as
        // uncorrectable rather than silently passing garbage downstream.
        let low = 0x5555_5555_5555_5555u64;
        if bits.as_words().iter().any(|&w| (w >> 1) & !w & low != 0) {
            return Err(BchError::Uncorrectable);
        }
        Ok(corrected_bits)
    }
}

/// The bit-at-a-time originals, kept as oracles for the word-level
/// versions above.
#[cfg(test)]
pub(crate) mod per_bit {
    use super::*;

    pub fn trits_to_bits(trits: &[Trit]) -> BitVec {
        let mut v = BitVec::zeros(trits.len() * 2);
        for (i, t) in trits.iter().enumerate() {
            let (low, high) = t.tec_bits();
            if low {
                v.set(2 * i, true);
            }
            if high {
                v.set(2 * i + 1, true);
            }
        }
        v
    }

    pub fn bits_to_trits(bits: &BitVec) -> (Vec<Trit>, Vec<usize>) {
        assert!(bits.len().is_multiple_of(2));
        let n = bits.len() / 2;
        let mut out = Vec::with_capacity(n);
        let mut bad = Vec::new();
        for i in 0..n {
            match (bits.get(2 * i), bits.get(2 * i + 1)) {
                (false, false) => out.push(Trit::S1),
                (true, false) => out.push(Trit::S2),
                (true, true) => out.push(Trit::S4),
                (false, true) => {
                    bad.push(i);
                    out.push(Trit::S2);
                }
            }
        }
        (out, bad)
    }

    /// The original `TecCodec::decode`, on a raw TEC word.
    pub fn decode_bits(
        bch: &Bch,
        bits: &mut BitVec,
        check: &mut BitVec,
    ) -> Result<(usize, Vec<Trit>), BchError> {
        let corrected = bch.decode(bits, check)?;
        let (trits, bad) = bits_to_trits(bits);
        if !bad.is_empty() {
            return Err(BchError::Uncorrectable);
        }
        Ok((corrected, trits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_on_two;
    use proptest::prelude::*;

    /// Lengths around word boundaries and the block sizes in use.
    const ORACLE_LENS: [usize; 9] = [0, 1, 63, 64, 65, 100, 512, 708, 1000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn word_level_mappings_match_per_bit(li in 0usize..9, seed in any::<u64>()) {
            let n = ORACLE_LENS[li];
            let trits = sample_trits(n, seed);
            let states: Vec<u8> = trits.iter().map(|t| t.index() as u8).collect();
            let bits = trits_to_bits(&trits);
            prop_assert_eq!(&bits, &per_bit::trits_to_bits(&trits));
            prop_assert_eq!(&states_to_bits(&states), &bits);
            // Arbitrary bit patterns, `01` cells included.
            let raw = BitVec::from_words(
                (0..n.div_ceil(32)).map(|k| seed.rotate_left(k as u32 * 7) ^ k as u64).collect(),
                2 * n,
            );
            prop_assert_eq!(bits_to_trits(&raw), per_bit::bits_to_trits(&raw));
        }

        #[test]
        fn decode_matches_per_bit_original(
            seed in any::<u64>(),
            flips in proptest::collection::vec(0usize..TEC_MESSAGE_BITS + TEC_CHECK_BITS, 0..4),
            drifts in proptest::collection::vec(0usize..TEC_CELLS, 0..3),
        ) {
            let codec = TecCodec::new();
            let trits = sample_trits(TEC_CELLS, seed);
            let check = codec.encode(&trits);
            prop_assert_eq!(&check, &codec.bch.encode(&per_bit::trits_to_bits(&trits)));
            // Drift errors through the trit API.
            let mut sensed = trits.clone();
            for &c in &drifts {
                if let Some(next) = sensed[c].drift_successor() {
                    sensed[c] = next;
                }
            }
            let want = per_bit::decode_bits(
                &codec.bch,
                &mut per_bit::trits_to_bits(&sensed),
                &mut check.clone(),
            );
            let got = codec.decode(&sensed, &check).map(|o| (o.corrected_bits, o.trits));
            prop_assert_eq!(got, want);
            // Raw bit flips, which can leave `01` patterns behind.
            let mut bits = trits_to_bits(&trits);
            let mut parity = check.clone();
            for &f in &flips {
                if f < TEC_MESSAGE_BITS {
                    bits.toggle(f);
                } else {
                    parity.toggle(f - TEC_MESSAGE_BITS);
                }
            }
            let (mut b2, mut p2) = (bits.clone(), parity.clone());
            let want = per_bit::decode_bits(&codec.bch, &mut b2, &mut p2);
            let got = codec
                .decode_bits(&mut bits, &mut parity)
                .map(|c| (c, bits_to_trits(&bits).0));
            prop_assert_eq!(got, want);
        }
    }

    fn sample_trits(n: usize, seed: u64) -> Vec<Trit> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Trit::from_index((x % 3) as usize)
            })
            .collect()
    }

    #[test]
    fn bit_mapping_roundtrip() {
        let trits = sample_trits(354, 3);
        let bits = trits_to_bits(&trits);
        assert_eq!(bits.len(), TEC_MESSAGE_BITS);
        let (back, bad) = bits_to_trits(&bits);
        assert_eq!(back, trits);
        assert!(bad.is_empty());
    }

    #[test]
    fn paper_dimensions() {
        let codec = TecCodec::new();
        // §6.3: message length 708 bits, 10 check bits.
        assert_eq!(TEC_MESSAGE_BITS, 708);
        assert_eq!(codec.check_bits(), 10);
    }

    #[test]
    fn clean_decode_is_identity() {
        let codec = TecCodec::new();
        let trits = sample_trits(TEC_CELLS, 5);
        let check = codec.encode(&trits);
        let out = codec.decode(&trits, &check).unwrap();
        assert_eq!(out.trits, trits);
        assert_eq!(out.corrected_bits, 0);
    }

    #[test]
    fn corrects_single_drift_error_anywhere() {
        let codec = TecCodec::new();
        let trits = sample_trits(TEC_CELLS, 7);
        let check = codec.encode(&trits);
        for i in (0..TEC_CELLS).step_by(23) {
            if let Some(next) = trits[i].drift_successor() {
                let mut drifted = trits.clone();
                drifted[i] = next;
                let out = codec.decode(&drifted, &check).unwrap();
                assert_eq!(out.trits, trits, "cell {i}");
                assert_eq!(out.corrected_bits, 1);
            }
        }
    }

    #[test]
    fn corrects_drift_into_inv_state() {
        // The whole point of the TEC re-encoding (§6.3): a valid pair
        // drifting into [S4, S4] must be correctable.
        let codec = TecCodec::new();
        let data = pcm_ecc::bitvec::BitVec::from_bytes(&[0x5A; 64], 512);
        let mut trits = three_on_two::encode_block(&data);
        trits.resize(TEC_CELLS, Trit::S1); // spares at S1
        let check = codec.encode(&trits);

        // Find a pair [x, S4] and drift x → S4, creating INV.
        let pair = (0..three_on_two::BLOCK_DATA_PAIRS)
            .find(|&p| trits[2 * p] == Trit::S2 && trits[2 * p + 1] == Trit::S4)
            .expect("patterned data has an S2,S4 pair");
        let mut sensed = trits.clone();
        sensed[2 * pair] = Trit::S4;
        assert_eq!(
            three_on_two::decode_pair(sensed[2 * pair], sensed[2 * pair + 1]),
            three_on_two::PairValue::Inv,
            "setup: the drifted pair must read INV"
        );
        let out = codec.decode(&sensed, &check).unwrap();
        assert_eq!(out.trits, trits, "INV restored to the written pair");
    }

    #[test]
    fn two_errors_detected_not_miscorrected() {
        let codec = TecCodec::new();
        let trits = sample_trits(TEC_CELLS, 11);
        let check = codec.encode(&trits);
        let mut sensed = trits.clone();
        let mut flipped = 0;
        for cell in sensed.iter_mut() {
            if flipped < 2 {
                if let Some(n) = cell.drift_successor() {
                    *cell = n;
                    flipped += 1;
                }
            }
        }
        assert_eq!(flipped, 2);
        // BCH-1 against 2 errors: either clean failure or (for S2→S4 = one
        // specific 1-bit-per-cell pattern) possibly a miscorrection the
        // residual check catches. Never a silent wrong answer equal to
        // neither truth nor detected failure with corrected_bits == 1.
        match codec.decode(&sensed, &check) {
            Err(BchError::Uncorrectable) => {}
            Ok(out) => assert_ne!(out.trits, trits, "cannot claim full correction of 2 errors"),
        }
    }

    #[test]
    fn stronger_variant_corrects_more() {
        let codec = TecCodec::with_strength(3);
        let trits = sample_trits(TEC_CELLS, 13);
        let check = codec.encode(&trits);
        let mut sensed = trits.clone();
        let mut flipped = 0;
        for i in (0..TEC_CELLS).step_by(50) {
            if flipped < 3 {
                if let Some(n) = sensed[i].drift_successor() {
                    sensed[i] = n;
                    flipped += 1;
                }
            }
        }
        let out = codec.decode(&sensed, &check).unwrap();
        assert_eq!(out.trits, trits);
    }
}
