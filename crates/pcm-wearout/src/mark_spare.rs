//! Mark-and-spare: the paper's low-overhead wearout-tolerance mechanism
//! for 3-ON-2-encoded blocks (§6.4, Figures 10–12).
//!
//! When write-and-verify detects a worn-out cell, the *pair* containing it
//! is programmed to the INV state (`[S4, S4]` — reachable even by faulty
//! cells: stuck-reset is already S4, stuck-set is revived into S4 by
//! reverse current). Logical data simply skips INV pairs, overflowing into
//! spare pairs at the end of the block. Cost: **two spare cells per
//! tolerated failure**, versus five for ECP (§6.6).
//!
//! Correction in hardware is a cascade of MUX stages (Figure 12), one per
//! tolerable failure, each deleting the first remaining INV pair; the MUX
//! select signals are prefix ORs over the INV flags ([`crate::or_chain`]).
//! Both that staged datapath and the straightforward skip-scan are
//! implemented here and tested equivalent.

use pcm_codec::tec;
use pcm_codec::ternary::Trit;
use pcm_codec::three_on_two::{decode_pair, PairValue, PAIR_TEC, TEC_PAIR};
use pcm_ecc::bitvec::BitVec;

/// Data pairs in a 64B block (§6.2).
pub const DATA_PAIRS: usize = 171;

/// Spare pairs per block: tolerates six wearout failures at two cells each
/// (§6.4: "12 spare cells").
pub const SPARE_PAIRS: usize = 6;

/// Mark-and-spare failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkSpareError {
    /// More INV-marked pairs than the block has spares.
    TooManyFailures {
        /// Number of pairs marked INV.
        marked: usize,
        /// Spare pairs available.
        spares: usize,
    },
}

impl std::fmt::Display for MarkSpareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkSpareError::TooManyFailures { marked, spares } => {
                write!(f, "{marked} failed pairs exceed {spares} spares")
            }
        }
    }
}

impl std::error::Error for MarkSpareError {}

/// A mark-and-spare layout (data pairs + spare pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkSpareCodec {
    /// Logical data pairs.
    pub data_pairs: usize,
    /// Physical spare pairs.
    pub spare_pairs: usize,
}

impl Default for MarkSpareCodec {
    fn default() -> Self {
        Self {
            data_pairs: DATA_PAIRS,
            spare_pairs: SPARE_PAIRS,
        }
    }
}

impl MarkSpareCodec {
    /// A custom geometry (used by Figure 10's 4-data/2-spare example and
    /// the capacity sweeps).
    pub fn new(data_pairs: usize, spare_pairs: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: mark-and-spare needs at least one data pair
        assert!(data_pairs >= 1);
        Self {
            data_pairs,
            spare_pairs,
        }
    }

    /// Total physical pairs.
    pub fn total_pairs(&self) -> usize {
        self.data_pairs + self.spare_pairs
    }

    /// Total physical cells.
    pub fn total_cells(&self) -> usize {
        self.total_pairs() * 2
    }

    /// Spare cells consumed per tolerated wearout failure — the Table 3
    /// headline: 2, vs ECP's 5.
    pub fn cells_per_failure() -> usize {
        2
    }

    /// Lay out `values` (one 3-bit value per data pair) onto physical
    /// pairs, marking `failed_pairs` (physical indices, any order) as INV.
    pub fn encode_pairs(
        &self,
        values: &[u8],
        failed_pairs: &[usize],
    ) -> Result<Vec<(Trit, Trit)>, MarkSpareError> {
        assert_eq!(
            values.len(),
            self.data_pairs,
            "need one value per data pair"
        );
        let mut data = BitVec::zeros(self.data_pairs * 3);
        for (p, &v) in values.iter().enumerate() {
            // pcm-lint: allow(no-panic-lib) — encode contract: 3-ON-2 carries 3 bits per pair; callers split input accordingly
            assert!(v < 8, "3-ON-2 encodes 3 bits, got {v}");
            data.or_bits(3 * p, 3, u64::from(v));
        }
        let trits = self.encode_block(&data, failed_pairs)?;
        Ok(trits.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }

    /// Recover the logical values by skipping INV pairs (reference
    /// semantics for the hardware datapath).
    pub fn decode_pairs(&self, pairs: &[(Trit, Trit)]) -> Result<Vec<u8>, MarkSpareError> {
        assert_eq!(pairs.len(), self.total_pairs());
        let trits: Vec<Trit> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let data = self.decode_block(&trits, self.data_pairs * 3)?;
        Ok((0..self.data_pairs)
            .map(|p| data.get_bits(3 * p, 3) as u8)
            .collect())
    }

    /// The Figure 12 hardware datapath: `spare_pairs` MUX stages, each
    /// deleting the first remaining INV pair, selects driven by prefix ORs
    /// of the INV flags. Bit-exact against [`Self::decode_pairs`].
    pub fn decode_pairs_staged(&self, pairs: &[(Trit, Trit)]) -> Result<Vec<u8>, MarkSpareError> {
        assert_eq!(pairs.len(), self.total_pairs());
        #[derive(Clone, Copy)]
        enum Slot {
            Inv,
            Data(u8),
        }
        let mut slots: Vec<Slot> = pairs
            .iter()
            .map(|&(a, b)| match decode_pair(a, b) {
                PairValue::Inv => Slot::Inv,
                PairValue::Data(v) => Slot::Data(v),
            })
            .collect();
        let marked = slots.iter().filter(|s| matches!(s, Slot::Inv)).count();

        for stage in 0..self.spare_pairs {
            let live = self.total_pairs() - stage;
            // Prefix OR over INV flags of the live slots (the OR chain).
            let flags: Vec<bool> = slots[..live]
                .iter()
                .map(|s| matches!(s, Slot::Inv))
                .collect();
            let net = crate::or_chain::PrefixOrNetwork::sklansky(live);
            let selects = net.evaluate(&flags);
            // MUX row: out[k] = select[k] ? in[k+1] : in[k].
            let mut next = Vec::with_capacity(live - 1);
            for k in 0..live - 1 {
                next.push(if selects[k] { slots[k + 1] } else { slots[k] });
            }
            slots.truncate(0);
            slots.extend(next);
        }

        let mut out = Vec::with_capacity(self.data_pairs);
        for s in slots.iter().take(self.data_pairs) {
            match s {
                Slot::Data(v) => out.push(*v),
                Slot::Inv => {
                    return Err(MarkSpareError::TooManyFailures {
                        marked,
                        spares: self.spare_pairs,
                    })
                }
            }
        }
        if out.len() < self.data_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: self.spare_pairs,
            });
        }
        Ok(out)
    }

    /// Encode a 512-bit block (or shorter) into the full physical trit
    /// stream, 3-ON-2 packing + mark-and-spare layout.
    pub fn encode_block(
        &self,
        data: &BitVec,
        failed_pairs: &[usize],
    ) -> Result<Vec<Trit>, MarkSpareError> {
        Ok(tec::bits_to_trits(&self.encode_tec(data, failed_pairs)?).0)
    }

    /// [`Self::encode_block`] straight into the TEC bit image of the trit
    /// stream (2 bits per cell, [`tec::trits_to_bits`]), one 4-bit
    /// [`PAIR_TEC`] code per physical pair.
    pub fn encode_tec(
        &self,
        data: &BitVec,
        failed_pairs: &[usize],
    ) -> Result<BitVec, MarkSpareError> {
        // pcm-lint: allow(no-panic-lib) — contract: data length is bounded by the block layout
        assert!(data.len() <= self.data_pairs * 3);
        let mut failed = vec![false; self.total_pairs()];
        for &f in failed_pairs {
            // pcm-lint: allow(no-panic-lib) — contract: failed-pair indices are bounded by the block layout
            assert!(f < self.total_pairs(), "failed pair {f} out of range");
            failed[f] = true;
        }
        let marked = failed.iter().filter(|&&b| b).count();
        if marked > self.spare_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: self.spare_pairs,
            });
        }
        let mut out = BitVec::zeros(self.total_cells() * 2);
        let mut next_value = 0usize;
        for (p, &is_failed) in failed.iter().enumerate() {
            let value = if is_failed {
                8 // INV
            } else if next_value < self.data_pairs {
                next_value += 1;
                data.get_bits(3 * (next_value - 1), 3) as usize
            } else {
                0 // unused spare: park at a benign data value
            };
            out.or_bits(4 * p, 4, PAIR_TEC[value]);
        }
        Ok(out)
    }

    /// Decode the full physical trit stream back to `len_bits` of data.
    pub fn decode_block(&self, trits: &[Trit], len_bits: usize) -> Result<BitVec, MarkSpareError> {
        assert_eq!(trits.len(), self.total_cells());
        self.decode_tec(&tec::trits_to_bits(trits), len_bits)
    }

    /// [`Self::decode_block`] of the TEC bit image of the trit stream:
    /// each 4-bit pair code goes through the [`TEC_PAIR`] table, INV pairs
    /// are skipped, and data values are packed 3 bits at a time. A cell
    /// holding the `01` pattern reads as S2, as in
    /// [`tec::bits_to_trits`]. Pairs are read two per `TEC_TWO_PAIRS`
    /// lookup while both values fit in the data, then one at a time.
    pub fn decode_tec(&self, bits: &BitVec, len_bits: usize) -> Result<BitVec, MarkSpareError> {
        assert_eq!(bits.len(), self.total_cells() * 2);
        let data_bits = 3 * self.data_pairs;
        let mut out = vec![0u64; data_bits.max(len_bits).div_ceil(64)];
        // OR the `n`-bit `values` in at `at`; callers keep `at + n` within
        // the data bits.
        let mut put = |at: usize, n: usize, values: u64| {
            let (wi, off) = (at / 64, at % 64);
            out[wi] |= values << off;
            if off + n > 64 {
                out[wi + 1] |= values >> (64 - off);
            }
        };
        let codes = bits.as_words();
        let code = |p: usize, mask: u64| codes[p / 16] >> (4 * (p % 16)) & mask;
        let (mut kept_bits, mut marked, mut p) = (0usize, 0usize, 0usize);
        while p + 2 <= self.total_pairs() && kept_bits + 6 <= data_bits {
            let two = TEC_TWO_PAIRS[code(p, 0xFF) as usize];
            put(kept_bits, 6, u64::from(two & 0x3F));
            kept_bits += 3 * usize::from(two >> 6 & 0b11);
            marked += usize::from(two >> 8);
            p += 2;
        }
        for p in p..self.total_pairs() {
            match TEC_PAIR[code(p, 0xF) as usize] {
                8 => marked += 1,
                v if kept_bits < data_bits => {
                    put(kept_bits, 3, u64::from(v));
                    kept_bits += 3;
                }
                _ => {}
            }
        }
        if kept_bits < data_bits {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: self.spare_pairs,
            });
        }
        Ok(BitVec::from_words(out, len_bits))
    }
}

/// [`TEC_PAIR`] of two adjacent pair codes (one byte of the TEC image,
/// first pair in the low nibble): the data values packed 3 bits each in
/// pair order with INV pairs skipped (bits 0..6), how many there are
/// (bits 6..8) and how many pairs are INV (bits 8..10).
const TEC_TWO_PAIRS: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut values, mut kept, mut inv) = (0u16, 0u16, 0u16);
        let mut k = 0;
        while k < 2 {
            let v = TEC_PAIR[byte >> (4 * k) & 0xF] as u16;
            if v == 8 {
                inv += 1;
            } else {
                values |= v << (3 * kept);
                kept += 1;
            }
            k += 1;
        }
        table[byte] = values | kept << 6 | inv << 8;
        byte += 1;
    }
    table
};

/// The bit-at-a-time originals, kept as oracles for the word-level
/// versions above.
#[cfg(test)]
mod per_bit {
    use super::*;
    use pcm_codec::three_on_two::{encode_pair, inv_pair};

    pub fn encode_pairs(
        c: &MarkSpareCodec,
        values: &[u8],
        failed_pairs: &[usize],
    ) -> Result<Vec<(Trit, Trit)>, MarkSpareError> {
        assert_eq!(values.len(), c.data_pairs, "need one value per data pair");
        let mut failed = vec![false; c.total_pairs()];
        for &f in failed_pairs {
            assert!(f < c.total_pairs(), "failed pair {f} out of range");
            failed[f] = true;
        }
        let marked = failed.iter().filter(|&&b| b).count();
        if marked > c.spare_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: c.spare_pairs,
            });
        }
        let mut out = Vec::with_capacity(c.total_pairs());
        let mut next_value = 0usize;
        for &is_failed in &failed {
            if is_failed {
                out.push(inv_pair());
            } else if next_value < values.len() {
                out.push(encode_pair(values[next_value]));
                next_value += 1;
            } else {
                // Unused spare: park at a benign data value.
                out.push(encode_pair(0));
            }
        }
        debug_assert_eq!(next_value, values.len(), "all data placed");
        Ok(out)
    }

    pub fn decode_pairs(
        c: &MarkSpareCodec,
        pairs: &[(Trit, Trit)],
    ) -> Result<Vec<u8>, MarkSpareError> {
        assert_eq!(pairs.len(), c.total_pairs());
        let mut out = Vec::with_capacity(c.data_pairs);
        let mut marked = 0usize;
        for &(a, b) in pairs {
            match decode_pair(a, b) {
                PairValue::Inv => marked += 1,
                PairValue::Data(v) => {
                    if out.len() < c.data_pairs {
                        out.push(v);
                    }
                }
            }
        }
        if out.len() < c.data_pairs {
            return Err(MarkSpareError::TooManyFailures {
                marked,
                spares: c.spare_pairs,
            });
        }
        Ok(out)
    }

    pub fn encode_block(
        c: &MarkSpareCodec,
        data: &BitVec,
        failed_pairs: &[usize],
    ) -> Result<Vec<Trit>, MarkSpareError> {
        assert!(data.len() <= c.data_pairs * 3);
        let mut values = Vec::with_capacity(c.data_pairs);
        for p in 0..c.data_pairs {
            let mut v = 0u8;
            for b in 0..3 {
                let idx = p * 3 + b;
                if idx < data.len() && data.get(idx) {
                    v |= 1 << b;
                }
            }
            values.push(v);
        }
        let pairs = encode_pairs(c, &values, failed_pairs)?;
        Ok(pairs.into_iter().flat_map(|(a, b)| [a, b]).collect())
    }

    pub fn decode_block(
        c: &MarkSpareCodec,
        trits: &[Trit],
        len_bits: usize,
    ) -> Result<BitVec, MarkSpareError> {
        assert_eq!(trits.len(), c.total_cells());
        let pairs: Vec<(Trit, Trit)> = trits.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let values = decode_pairs(c, &pairs)?;
        let mut out = BitVec::zeros(len_bits);
        for (p, &v) in values.iter().enumerate() {
            for b in 0..3 {
                let idx = p * 3 + b;
                if idx < len_bits && v >> b & 1 == 1 {
                    out.set(idx, true);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_codec::three_on_two::inv_pair;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn word_level_block_codec_matches_per_bit(
            geometry in 0usize..5,
            seed in any::<u64>(),
            failed in vec(0usize..177, 0..9),
            invs in vec(0usize..177, 0..9),
            len_cut in 0usize..4,
        ) {
            // The paper's block plus small and odd geometries, and one
            // whose data ends on a word boundary.
            let (data_pairs, spare_pairs) = [(171, 6), (4, 2), (21, 0), (33, 5), (64, 3)][geometry];
            let c = MarkSpareCodec::new(data_pairs, spare_pairs);
            let len = [data_pairs * 3, data_pairs * 3 - 1, data_pairs * 3 / 2, 1][len_cut];
            let data = BitVec::from_words(
                (0..len.div_ceil(64)).map(|k| seed.rotate_left(k as u32 * 5) ^ k as u64).collect(),
                len,
            );
            let failed: Vec<usize> = failed.iter().map(|&f| f % c.total_pairs()).collect();
            let values: Vec<u8> = (0..data_pairs).map(|p| (seed >> (p % 61)) as u8 & 7).collect();
            let pairs = per_bit::encode_pairs(&c, &values, &failed);
            prop_assert_eq!(c.encode_pairs(&values, &failed), pairs.clone());
            if let Ok(pairs) = pairs {
                prop_assert_eq!(c.decode_pairs(&pairs), per_bit::decode_pairs(&c, &pairs));
            }
            let want = per_bit::encode_block(&c, &data, &failed);
            prop_assert_eq!(c.encode_block(&data, &failed), want.clone());
            // Decode the encoding with extra pairs forced to INV (drifted
            // or marked), at full and shorter lengths.
            let mut trits = want.unwrap_or_else(|_| c.encode_block(&data, &[]).unwrap());
            for &p in &invs {
                let p = p % c.total_pairs();
                trits[2 * p] = Trit::S4;
                trits[2 * p + 1] = Trit::S4;
            }
            let pairs: Vec<(Trit, Trit)> = trits.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            prop_assert_eq!(c.decode_pairs(&pairs), per_bit::decode_pairs(&c, &pairs));
            for len_bits in [len, len / 2, data_pairs * 3] {
                let want = per_bit::decode_block(&c, &trits, len_bits);
                prop_assert_eq!(c.decode_block(&trits, len_bits), want.clone());
                prop_assert_eq!(c.decode_tec(&tec::trits_to_bits(&trits), len_bits), want);
            }
        }

        #[test]
        fn tec_decode_reads_01_cells_as_s2(seed in any::<u64>(), len_bits in 0usize..=512) {
            // Raw TEC words, `01` patterns included: decode_tec equals
            // bits_to_trits (which forces them to S2) then decode_block.
            let c = MarkSpareCodec::default();
            let bits = BitVec::from_words(
                (0..12).map(|k| seed.rotate_left(k * 9) ^ u64::from(k)).collect(),
                c.total_cells() * 2,
            );
            let (trits, _) = tec::bits_to_trits(&bits);
            prop_assert_eq!(c.decode_tec(&bits, len_bits), per_bit::decode_block(&c, &trits, len_bits));
        }
    }

    fn values(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 8) as u8
            })
            .collect()
    }

    #[test]
    fn paper_geometry() {
        let c = MarkSpareCodec::default();
        assert_eq!(c.total_cells(), 354, "342 data + 12 spare cells");
        assert_eq!(MarkSpareCodec::cells_per_failure(), 2);
    }

    #[test]
    fn no_failures_roundtrip() {
        let c = MarkSpareCodec::default();
        let vals = values(DATA_PAIRS, 1);
        let pairs = c.encode_pairs(&vals, &[]).unwrap();
        assert_eq!(c.decode_pairs(&pairs).unwrap(), vals);
    }

    #[test]
    fn figure10_example() {
        // Figure 10: 8 data cells (4 pairs) with 4 spare cells (2 pairs);
        // one failure marked INV, data shifts into the first spare.
        let c = MarkSpareCodec::new(4, 2);
        let vals = vec![1u8, 2, 3, 4];
        let pairs = c.encode_pairs(&vals, &[1]).unwrap();
        assert_eq!(decode_pair(pairs[1].0, pairs[1].1), PairValue::Inv);
        // Data 2..4 shifted right by one physical slot; spare 0 in use.
        assert_eq!(decode_pair(pairs[4].0, pairs[4].1), PairValue::Data(4));
        assert_eq!(c.decode_pairs(&pairs).unwrap(), vals);
    }

    #[test]
    fn tolerates_exactly_spare_pairs_failures() {
        let c = MarkSpareCodec::default();
        let vals = values(DATA_PAIRS, 2);
        // Six failures across the block, including a spare-slot failure.
        let failed = [0usize, 42, 99, 140, 170, 173];
        let pairs = c.encode_pairs(&vals, &failed).unwrap();
        assert_eq!(c.decode_pairs(&pairs).unwrap(), vals);
        // Seven must fail.
        let failed7 = [0usize, 42, 99, 140, 170, 173, 176];
        assert_eq!(
            c.encode_pairs(&vals, &failed7),
            Err(MarkSpareError::TooManyFailures {
                marked: 7,
                spares: 6
            })
        );
    }

    #[test]
    fn staged_datapath_matches_reference() {
        // The Figure-12 MUX cascade must agree with the skip-scan on every
        // failure placement pattern we can throw at it.
        let c = MarkSpareCodec::new(12, 3);
        let vals = values(12, 3);
        let patterns: [&[usize]; 7] = [
            &[],
            &[0],
            &[14],         // a spare slot itself fails
            &[0, 1, 2],    // clustered at the front
            &[12, 13, 14], // all spares dead
            &[3, 7, 11],
            &[0, 7, 14],
        ];
        for failed in patterns {
            let pairs = c.encode_pairs(&vals, failed).unwrap();
            assert_eq!(
                c.decode_pairs_staged(&pairs).unwrap(),
                c.decode_pairs(&pairs).unwrap(),
                "pattern {failed:?}"
            );
        }
    }

    #[test]
    fn staged_datapath_full_block() {
        let c = MarkSpareCodec::default();
        let vals = values(DATA_PAIRS, 7);
        let failed = [5usize, 50, 100, 150, 171, 176];
        let pairs = c.encode_pairs(&vals, &failed).unwrap();
        assert_eq!(c.decode_pairs_staged(&pairs).unwrap(), vals);
    }

    #[test]
    fn block_bits_roundtrip_with_failures() {
        let c = MarkSpareCodec::default();
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 201 + 3) as u8).collect();
        let data = BitVec::from_bytes(&bytes, 512);
        let trits = c.encode_block(&data, &[10, 20, 30]).unwrap();
        assert_eq!(trits.len(), 354);
        assert_eq!(c.decode_block(&trits, 512).unwrap(), data);
    }

    #[test]
    fn too_many_failures_at_decode_detected() {
        // A block whose pairs drifted/were corrupted into 7 INVs (more
        // than spares) must fail loudly at decode.
        let c = MarkSpareCodec::new(4, 2);
        let vals = vec![7u8, 6, 5, 4];
        let mut pairs = c.encode_pairs(&vals, &[]).unwrap();
        pairs[0] = inv_pair();
        pairs[1] = inv_pair();
        pairs[2] = inv_pair();
        assert!(c.decode_pairs(&pairs).is_err());
        assert!(c.decode_pairs_staged(&pairs).is_err());
    }
}
