//! Generalized non-power-of-two-level blocks (§8).
//!
//! The paper closes by arguing its three techniques — optimal state
//! mapping, enumerative information encoding, and marker-state wearout
//! tolerance — generalize to any K-level cell. This module is that
//! generalization, as a working block datapath:
//!
//! * **data**: `k` bits per group of `m` base-K symbols
//!   ([`EnumerativeCode`]), e.g. 6 bits on 3 five-level cells;
//! * **TEC**: each cell re-read as `ceil(log2 K)` bits of a reflected
//!   Gray code, so a one-step drift error is a single bit error,
//!   protected by a shortened BCH whose strength is a parameter;
//! * **wearout**: groups containing a worn cell are marked with a spare
//!   codeword — the all-top-states group, reachable by stuck-reset and
//!   revived stuck-set cells exactly like 3-ON-2's INV — and skipped,
//!   with spare groups at the block's end (generalized mark-and-spare).
//!   Stuck cells no marker covers (dead stuck-set, SLC check cells) are
//!   left to the BCH; a write they would leave more wrong bits in than
//!   it corrects fails as [`BlockError::WearoutExhausted`].
//!
//! `ThreeLevelBlock` has this datapath's (K=3, m=2, BCH-1) shape and
//! cell count, but it is not its instance cell for cell: the generic
//! block writes each group's least significant digit first, while
//! 3-ON-2 writes `value / 3` first, so the two store every pair with
//! its cells swapped. The dedicated implementation matches the paper's
//! §6 description cell for cell.

use crate::array::CellArray;
use crate::block::{program_cells, BlockError, ReadReport, WriteReport, BLOCK_BYTES};
use pcm_codec::enumerative::EnumerativeCode;
use pcm_core::level::LevelDesign;
use pcm_ecc::bch::Bch;
use pcm_ecc::bitvec::BitVec;

/// Reflected binary Gray code of `i` (the first K entries are pairwise
/// single-bit adjacent for consecutive indices).
fn gray(i: usize) -> usize {
    i ^ (i >> 1)
}

/// Inverse Gray code.
fn gray_inverse(mut g: usize) -> usize {
    let mut i = g;
    while g > 0 {
        g >>= 1;
        i ^= g;
    }
    i
}

/// A generalized K-level block.
#[derive(Debug)]
pub struct GenericBlock {
    design: LevelDesign,
    slc: LevelDesign,
    code: EnumerativeCode,
    bch: Bch,
    base_cell: usize,
    data_groups: usize,
    spare_groups: usize,
    bits_per_cell_tec: usize,
    failed_groups: Vec<usize>,
    /// Stuck cells no group mark covers, as offsets in the block: dead
    /// stuck-set MLC cells and stuck SLC check cells.
    unmarked_stuck: Vec<usize>,
}

impl GenericBlock {
    /// Reject an organization this block cannot realize. The device
    /// builder routes [`CellOrganization::Generic`] through this before
    /// any block is constructed, so misconfiguration surfaces as a typed
    /// [`ConfigError`](crate::builder::ConfigError) instead of a panic.
    pub(crate) fn check_config(
        design: &LevelDesign,
        code: &EnumerativeCode,
        spare_groups: usize,
        tec_strength: usize,
    ) -> Result<(), &'static str> {
        if design.n_levels() != code.base() as usize {
            return Err("the data code's base must match the level design");
        }
        if spare_groups > 0 && code.spare_codewords() == 0 {
            return Err("marker-based wearout tolerance needs a spare codeword");
        }
        if tec_strength < 1 || 2 * tec_strength >= 1023 {
            return Err("TEC strength must satisfy 1 <= t and 2t < n = 1023");
        }
        let bch = Bch::new(10, tec_strength);
        let data_groups = (512usize).div_ceil(code.bits_per_group());
        let bits_per_cell_tec =
            usize::BITS as usize - (design.n_levels() - 1).leading_zeros() as usize;
        let message_bits =
            (data_groups + spare_groups) * code.symbols_per_group() * bits_per_cell_tec;
        if message_bits > bch.max_data_bits() {
            return Err("the TEC message exceeds the BCH-1023 code's capacity");
        }
        Ok(())
    }

    /// Build a block at `base_cell` for `design` (K = design levels),
    /// packing data with `code` (must share the same base), tolerating
    /// `spare_groups` worn groups, protected by BCH-`tec_strength`.
    pub fn new(
        design: LevelDesign,
        code: EnumerativeCode,
        base_cell: usize,
        spare_groups: usize,
        tec_strength: usize,
    ) -> Self {
        if let Err(reason) = Self::check_config(&design, &code, spare_groups, tec_strength) {
            // pcm-lint: allow(no-panic-lib) — direct construction keeps the panicking contract; builder paths get ConfigError.
            panic!("invalid generic organization: {reason}");
        }
        let data_groups = (512usize).div_ceil(code.bits_per_group());
        let bits_per_cell_tec =
            usize::BITS as usize - (design.n_levels() - 1).leading_zeros() as usize;
        let bch = Bch::new(10, tec_strength);
        Self {
            design,
            slc: LevelDesign::two_level(),
            code,
            bch,
            base_cell,
            data_groups,
            spare_groups,
            bits_per_cell_tec,
            failed_groups: Vec::new(),
            unmarked_stuck: Vec::new(),
        }
    }

    /// Cells in the MLC region (data + spare groups).
    pub fn mlc_cells(&self) -> usize {
        (self.data_groups + self.spare_groups) * self.code.symbols_per_group()
    }

    /// Total cells including the SLC check region.
    pub fn cells(&self) -> usize {
        self.mlc_cells() + self.bch.parity_bits()
    }

    /// Storage density in bits per cell, including all overheads.
    pub fn density(&self) -> f64 {
        512.0 / self.cells() as f64
    }

    /// Groups currently marked as worn.
    pub fn marked_groups(&self) -> &[usize] {
        &self.failed_groups
    }

    /// The marker codeword: every symbol at the top state (all digits
    /// `base − 1`), which is a spare because `2^k < base^m` whenever the
    /// code has spares.
    fn marker_digits(&self) -> Vec<u8> {
        vec![self.code.base() - 1; self.code.symbols_per_group()]
    }

    /// Lay data groups onto physical groups, skipping marked ones.
    fn layout(&self, data: &BitVec) -> Result<Vec<u8>, BlockError> {
        if self.failed_groups.len() > self.spare_groups {
            return Err(BlockError::WearoutExhausted);
        }
        let per = self.code.symbols_per_group();
        let total = self.data_groups + self.spare_groups;
        let groups = self.code.encode_block(data);
        debug_assert_eq!(groups.len(), self.data_groups * per);
        let mut out = Vec::with_capacity(total * per);
        let mut next = 0usize;
        for g in 0..total {
            if self.failed_groups.contains(&g) {
                out.extend(self.marker_digits());
            } else if next < self.data_groups {
                out.extend_from_slice(&groups[next * per..(next + 1) * per]);
                next += 1;
            } else {
                out.extend(std::iter::repeat_n(0u8, per)); // unused spare
            }
        }
        if next < self.data_groups {
            return Err(BlockError::WearoutExhausted);
        }
        Ok(out)
    }

    /// TEC bit image of a symbol stream, one Gray-coded field per cell.
    fn tec_bits(&self, symbols: &[u8]) -> BitVec {
        let w = self.bits_per_cell_tec;
        let mut v = BitVec::zeros(symbols.len() * w);
        for (i, &s) in symbols.iter().enumerate() {
            v.or_bits(i * w, w, gray(s as usize) as u64);
        }
        v
    }

    /// Inverse of [`Self::tec_bits`]; out-of-alphabet patterns fail.
    fn symbols_from_tec(&self, bits: &BitVec) -> Result<Vec<u8>, BlockError> {
        let w = self.bits_per_cell_tec;
        (0..bits.len() / w)
            .map(|i| {
                let s = gray_inverse(bits.get_bits(i * w, w) as usize);
                if s >= self.design.n_levels() {
                    return Err(BlockError::Uncorrectable);
                }
                Ok(s as u8)
            })
            .collect()
    }

    /// Write 64 bytes through the generalized path.
    pub fn write(
        &mut self,
        array: &mut CellArray,
        now: f64,
        data: &[u8],
    ) -> Result<WriteReport, BlockError> {
        assert_eq!(data.len(), BLOCK_BYTES);
        let bits = BitVec::from_bytes(data, 512);
        let per = self.code.symbols_per_group();
        let mut new_faults = 0usize;
        let mut attempts = 0u64;
        let mlc = self.mlc_cells();
        for _round in 0..=self.spare_groups + 1 {
            let symbols = self.layout(&bits)?;
            let check = self.bch.encode(&self.tec_bits(&symbols));
            let mut discovered = Vec::new();
            let unmarked = &mut self.unmarked_stuck;
            attempts += program_cells(
                array,
                self.base_cell,
                &self.design,
                &symbols,
                now,
                |i, fault| {
                    new_faults += 1;
                    if fault.can_force_s4() {
                        discovered.push(i / per);
                    } else {
                        unmarked.push(i);
                    }
                    Ok(())
                },
            )?;
            let check_states: Vec<u8> = (0..check.len()).map(|j| u8::from(check.get(j))).collect();
            attempts += program_cells(
                array,
                self.base_cell + mlc,
                &self.slc,
                &check_states,
                now,
                |j, _| {
                    new_faults += 1;
                    unmarked.push(mlc + j);
                    Ok(())
                },
            )?;
            if discovered.is_empty() {
                // The stuck cells the BCH must hide may not leave it more
                // wrong bits than it corrects.
                let wrong: u32 = self
                    .unmarked_stuck
                    .iter()
                    .map(|&c| match c.checked_sub(mlc) {
                        None => {
                            let sensed = array.sense(self.base_cell + c, &self.design, now);
                            (gray(usize::from(symbols[c])) ^ gray(sensed)).count_ones()
                        }
                        Some(j) => {
                            let sensed = array.sense(self.base_cell + c, &self.slc, now);
                            u32::from(check.get(j) != (sensed == 1))
                        }
                    })
                    .sum();
                if wrong as usize > self.bch.t() {
                    return Err(BlockError::WearoutExhausted);
                }
                return Ok(WriteReport {
                    new_faults,
                    attempts,
                });
            }
            for g in discovered {
                if !self.failed_groups.contains(&g) {
                    self.failed_groups.push(g);
                }
            }
        }
        Err(BlockError::WriteFailed)
    }

    /// Read 64 bytes: sense → BCH over Gray bits → marker skip →
    /// enumerative decode.
    pub fn read(&self, array: &CellArray, now: f64) -> Result<ReadReport, BlockError> {
        let per = self.code.symbols_per_group();
        let mut sensed = vec![0u8; self.cells()];
        let (mlc, check_states) = sensed.split_at_mut(self.mlc_cells());
        array.sense_range(self.base_cell, &self.design, now, mlc);
        array.sense_range(self.base_cell + mlc.len(), &self.slc, now, check_states);
        let mut bits = self.tec_bits(mlc);
        let mut check = BitVec::zeros(check_states.len());
        for (j, &b) in check_states.iter().enumerate() {
            check.set(j, b == 1);
        }
        let corrected = self
            .bch
            .decode(&mut bits, &mut check)
            .map_err(|_| BlockError::Uncorrectable)?;
        let symbols = self.symbols_from_tec(&bits)?;

        // Marker skip (generalized mark-and-spare).
        let marker = self.marker_digits();
        let mut kept = Vec::with_capacity(self.data_groups * per);
        let mut skipped = 0usize;
        for chunk in symbols.chunks_exact(per) {
            if chunk == marker.as_slice() {
                skipped += 1;
                continue;
            }
            if kept.len() < self.data_groups * per {
                kept.extend_from_slice(chunk);
            }
        }
        if kept.len() < self.data_groups * per {
            return Err(BlockError::WearoutExhausted);
        }
        let data = self
            .code
            .decode_block(&kept, 512)
            .ok_or(BlockError::Uncorrectable)?;
        Ok(ReadReport {
            data: data.to_bytes(),
            corrected_bits: corrected,
            repaired_cells: skipped * per,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::params::StateLabel;
    use pcm_wearout::fault::EnduranceModel;

    fn five_level_design() -> LevelDesign {
        // From the design-explorer recipe: five levels across [3, 6] need
        // a tighter write spread (σR ≈ 0.112).
        let nominals = [3.0, 3.75, 4.5, 5.25, 6.0];
        let labels = [
            StateLabel::S1,
            StateLabel::S2,
            StateLabel::S2,
            StateLabel::S3,
            StateLabel::S4,
        ];
        let thresholds: Vec<f64> = nominals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        let states = labels
            .iter()
            .zip(nominals)
            .map(|(&label, nominal_logr)| pcm_core::LevelState {
                label,
                nominal_logr,
                occupancy: 0.2,
            })
            .collect();
        let d = LevelDesign {
            name: "5LC".into(),
            states,
            thresholds,
            sigma_logr: 0.11,
            write_tolerance_sigma: 2.75,
            drift_switch: None,
        };
        d.validate().unwrap();
        d
    }

    fn block() -> (CellArray, GenericBlock) {
        let code = EnumerativeCode::new(5, 3); // 6 bits on 3 cells
        let blk = GenericBlock::new(five_level_design(), code, 0, 4, 2);
        let arr = CellArray::new(blk.cells(), EnduranceModel::mlc(), 33);
        (arr, blk)
    }

    #[test]
    fn tec_fields_match_per_bit_originals() {
        // The bit-at-a-time originals of `tec_bits` / `symbols_from_tec`.
        fn tec_bits_per_bit(w: usize, symbols: &[u8]) -> BitVec {
            let mut v = BitVec::zeros(symbols.len() * w);
            for (i, &s) in symbols.iter().enumerate() {
                let g = gray(s as usize);
                for b in 0..w {
                    if g >> b & 1 == 1 {
                        v.set(i * w + b, true);
                    }
                }
            }
            v
        }
        fn symbols_per_bit(w: usize, levels: usize, bits: &BitVec) -> Option<Vec<u8>> {
            (0..bits.len() / w)
                .map(|i| {
                    let g = (0..w)
                        .filter(|&b| bits.get(i * w + b))
                        .fold(0usize, |g, b| g | 1 << b);
                    let s = gray_inverse(g);
                    (s < levels).then_some(s as u8)
                })
                .collect()
        }
        let (_, blk) = block();
        let w = blk.bits_per_cell_tec;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in [0usize, 1, 21, 22, 64, 65, 270] {
            let symbols: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 5) as u8
                })
                .collect();
            let bits = blk.tec_bits(&symbols);
            assert_eq!(bits, tec_bits_per_bit(w, &symbols), "len {len}");
            assert_eq!(blk.symbols_from_tec(&bits).ok(), Some(symbols.clone()));
            // Arbitrary words, out-of-alphabet fields included.
            let raw = BitVec::from_words(
                (0..(len * w).div_ceil(64))
                    .map(|k| x.rotate_left(k as u32))
                    .collect(),
                len * w,
            );
            assert_eq!(blk.symbols_from_tec(&raw).ok(), symbols_per_bit(w, 5, &raw));
        }
    }

    #[test]
    fn gray_codes_are_adjacent() {
        for i in 0..8 {
            let d = (gray(i) ^ gray(i + 1)).count_ones();
            assert_eq!(d, 1, "gray({i}) -> gray({})", i + 1);
            assert_eq!(gray_inverse(gray(i)), i);
        }
    }

    #[test]
    fn five_level_geometry() {
        let (_, blk) = block();
        // 512 bits / 6 per group = 86 groups × 3 cells = 258 data cells,
        // + 4 spare groups (12 cells) + BCH-2 (20 SLC cells).
        assert_eq!(blk.mlc_cells(), (86 + 4) * 3);
        assert_eq!(blk.cells(), 270 + 20);
        assert!(blk.density() > 1.7, "five-level density {}", blk.density());
    }

    #[test]
    fn roundtrip_fresh() {
        let (mut arr, mut blk) = block();
        let data = (0..64u32).map(|i| (i * 7 + 1) as u8).collect::<Vec<_>>();
        blk.write(&mut arr, 0.0, &data).unwrap();
        let r = blk.read(&arr, 0.0).unwrap();
        assert_eq!(r.data, data);
    }

    #[test]
    fn five_level_volatile_like_4lc() {
        // §8's frontier: five levels drift-fail within hours — the
        // generalized block must report it rather than return garbage.
        let (mut arr, mut blk) = block();
        let data = vec![0x3Au8; 64];
        blk.write(&mut arr, 0.0, &data).unwrap();
        let day = 86_400.0;
        match blk.read(&arr, day) {
            Err(BlockError::Uncorrectable) => {}
            Ok(r) => assert_ne!(r.data, data, "silent corruption"),
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn wearout_marks_groups_and_recovers() {
        let (mut arr, mut blk) = block();
        for (k, cell) in [0usize, 31, 100].into_iter().enumerate() {
            arr.set_lifetime(cell, k as u64 + 1);
        }
        let data = (0..64u32).map(|i| (i * 13 + 5) as u8).collect::<Vec<_>>();
        let mut ok = false;
        for w in 0..6 {
            if blk.write(&mut arr, w as f64, &data).is_ok() {
                ok = true;
            }
        }
        assert!(ok);
        // Markable faults get their groups marked; the read must succeed
        // whenever all injected faults were markable.
        let all_markable = [0usize, 31, 100]
            .iter()
            .all(|&c| arr.fault(c).is_some_and(|f| f.can_force_s4()));
        if all_markable {
            assert_eq!(blk.marked_groups().len(), 3);
            assert_eq!(blk.read(&arr, 6.0).unwrap().data, data);
        }
    }

    #[test]
    fn check_cell_wearout_counts_as_a_new_fault() {
        // A worn SLC check cell is left to the BCH, but it is still a new
        // fault of the write, as in the 3LC and 4LC datapaths.
        let (mut arr, mut blk) = block();
        let check_cell = blk.mlc_cells();
        arr.set_lifetime(check_cell, 1);
        let report = blk.write(&mut arr, 0.0, &[0xA5; 64]).unwrap();
        assert!(arr.fault(check_cell).is_some());
        assert_eq!(report.new_faults, 1);
    }

    #[test]
    fn spare_exhaustion_detected() {
        let (mut arr, mut blk) = block();
        for g in 0..6 {
            arr.set_lifetime(g * 3, 1); // six distinct groups, 4 spares
        }
        let data = vec![1u8; 64];
        let mut exhausted = false;
        for w in 0..10 {
            if let Err(BlockError::WearoutExhausted) = blk.write(&mut arr, w as f64, &data) {
                exhausted = true;
                break;
            }
        }
        assert!(exhausted);
    }

    #[test]
    fn ternary_instance_matches_three_on_two_density_logic() {
        // The generalized block instantiated at K=3, m=2, BCH-1 must use
        // exactly the paper's 354 + 10 cells.
        let code = EnumerativeCode::new(3, 2);
        let blk = GenericBlock::new(LevelDesign::three_level_naive(), code, 0, 6, 1);
        assert_eq!(blk.mlc_cells(), (171 + 6) * 2);
        assert_eq!(blk.cells(), 354 + 10);
        assert!((blk.density() - 512.0 / 364.0).abs() < 1e-12);
    }
}
