//! Block-level read/write datapaths (Figure 9).
//!
//! Two complete 64-byte block organizations:
//!
//! * [`ThreeLevelBlock`] — the paper's proposal: 342 data cells (3-ON-2) +
//!   12 spare cells (mark-and-spare) + 10 SLC check cells (BCH-1 over the
//!   708-bit TEC message). Read path: array read → transient error
//!   correction (BCH-1 in the TEC bit domain) → hard error correction
//!   (mark-and-spare INV skip) → symbol decoding (3-ON-2) — exactly
//!   Figure 9's ordering. Wearout failures discovered by write-and-verify
//!   mark the victim pair INV and the block re-encodes around it. A
//!   stuck cell that cannot be marked (dead stuck-set, or an SLC check
//!   cell) is left to BCH-1, and a write whose data those cells get
//!   wrong in more bits than BCH-1 corrects fails with
//!   [`BlockError::WearoutExhausted`] instead of storing a block that
//!   reads back wrong.
//!
//! * [`FourLevelBlock`] — the optimized 4LC baseline: 256 Gray-coded data
//!   cells + 50 cells of BCH-10 parity, ECP-6 for wearout. The ECP MUX
//!   applies at array read (Figure 14), BCH-10 then handles drift, and the
//!   optional smart-encoding symbol decode runs last (§6.6). ECP metadata
//!   is modeled as fault-free side-band storage (the paper stores it in
//!   guarded cells; its drift exposure is why Figure 9 orders TEC before
//!   HEC — with fault-free metadata the orders are equivalent, see
//!   DESIGN.md).

use crate::array::CellArray;
use pcm_codec::gray;
use pcm_codec::smart;
use pcm_codec::tec::{self, TecCodec, CODE_STATE, STATE_CODE};
use pcm_core::level::LevelDesign;
use pcm_ecc::bch::Bch;
use pcm_ecc::bitvec::BitVec;
use pcm_wearout::fault::FaultKind;
use pcm_wearout::mark_spare::MarkSpareCodec;
use pcm_wearout::EcpMlc;

/// Block datapath failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// Wearout tolerance exhausted (needs block remapping, e.g. FREE-p).
    WearoutExhausted,
    /// Transient-error ECC could not correct the read.
    Uncorrectable,
    /// A write could not converge to a verified state.
    WriteFailed,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::WearoutExhausted => write!(f, "wearout tolerance exhausted"),
            BlockError::Uncorrectable => write!(f, "uncorrectable transient errors"),
            BlockError::WriteFailed => write!(f, "write did not verify"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Result of a successful block read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReport {
    /// The 64 recovered data bytes.
    pub data: Vec<u8>,
    /// Bits fixed by the transient-error ECC on this read.
    pub corrected_bits: usize,
    /// INV-marked pairs skipped (3LC) / ECP entries in use (4LC).
    pub repaired_cells: usize,
}

/// Result of a successful block write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReport {
    /// Wearout faults newly discovered by this write's verify loops.
    pub new_faults: usize,
    /// Total program-and-verify iterations across all cells.
    pub attempts: u64,
}

/// Program `states` into the cells from `base` through
/// [`CellArray::program_range`], handing each newly discovered fault (its
/// index in `states`) to `on_fault` before the next cell is programmed;
/// an error from `on_fault` stops the write there. Returns the
/// program-and-verify iterations spent.
pub(crate) fn program_cells(
    array: &mut CellArray,
    base: usize,
    design: &LevelDesign,
    states: &[u8],
    now: f64,
    mut on_fault: impl FnMut(usize, FaultKind) -> Result<(), BlockError>,
) -> Result<u64, BlockError> {
    let mut attempts = 0;
    let mut done = 0;
    while done < states.len() {
        let run = array.program_range(base + done, design, &states[done..], now);
        attempts += run.attempts;
        done += run.programmed;
        if let Some(fault) = run.new_fault {
            on_fault(done - 1, fault)?;
        }
    }
    Ok(attempts)
}

/// Data payload size per block, bytes.
pub const BLOCK_BYTES: usize = 64;

const DATA_BITS: usize = 512;

// ---------------------------------------------------------------------
// Three-level block
// ---------------------------------------------------------------------

/// The paper's 3LCo + 3-ON-2 + mark-and-spare + BCH-1 block (364 cells).
#[derive(Debug)]
pub struct ThreeLevelBlock {
    design: LevelDesign,
    slc: LevelDesign,
    codec: MarkSpareCodec,
    tec: TecCodec,
    base: usize,
    failed_pairs: Vec<usize>,
    /// Stuck cells no pair mark covers, as offsets in the block: dead
    /// stuck-set data cells and stuck SLC check cells.
    unmarked_stuck: Vec<usize>,
}

/// Cells used by a [`ThreeLevelBlock`]: 354 MLC + 10 SLC check cells.
pub const THREE_LEVEL_BLOCK_CELLS: usize = 364;

impl ThreeLevelBlock {
    /// Create a block over cells `[base, base + 364)` of the array.
    pub fn new(design: LevelDesign, base: usize) -> Self {
        assert_eq!(design.n_levels(), 3, "ThreeLevelBlock needs a 3LC design");
        Self {
            design,
            slc: LevelDesign::two_level(),
            codec: MarkSpareCodec::default(),
            tec: TecCodec::new(),
            base,
            failed_pairs: Vec::new(),
            unmarked_stuck: Vec::new(),
        }
    }

    /// Physical cells this block occupies.
    pub fn cells(&self) -> usize {
        THREE_LEVEL_BLOCK_CELLS
    }

    /// Pairs currently marked INV.
    pub fn marked_pairs(&self) -> &[usize] {
        &self.failed_pairs
    }

    /// Write 64 bytes through the full encode path.
    pub fn write(
        &mut self,
        array: &mut CellArray,
        now: f64,
        data: &[u8],
    ) -> Result<WriteReport, BlockError> {
        assert_eq!(data.len(), BLOCK_BYTES);
        let bits = BitVec::from_bytes(data, DATA_BITS);
        let mut new_faults = 0usize;
        let mut attempts = 0u64;

        // Re-encode around newly discovered failures until a clean pass.
        for _round in 0..=pcm_wearout::mark_spare::SPARE_PAIRS + 1 {
            let tec_bits = self
                .codec
                .encode_tec(&bits, &self.failed_pairs)
                .map_err(|_| BlockError::WearoutExhausted)?;
            let check = self.tec.encode_bits(&tec_bits);

            let mlc = self.codec.total_cells();
            let mut states = [0u8; THREE_LEVEL_BLOCK_CELLS];
            let (data_states, check_states) = states.split_at_mut(mlc);
            for (i, state) in data_states.iter_mut().enumerate() {
                *state = CODE_STATE[tec_bits.get_bits(2 * i, 2) as usize];
            }
            for (j, state) in check_states.iter_mut().enumerate() {
                *state = u8::from(check.get(j));
            }

            let mut discovered = Vec::new();
            let unmarked = &mut self.unmarked_stuck;
            attempts += program_cells(
                array,
                self.base,
                &self.design,
                data_states,
                now,
                |i, fault| {
                    new_faults += 1;
                    if fault.can_force_s4() {
                        discovered.push(i / 2);
                    } else {
                        // Non-markable (dead stuck-set) cells are left to
                        // the BCH-1 safety net (§6.4).
                        unmarked.push(i);
                    }
                    Ok(())
                },
            )?;
            // SLC check cell faults → BCH absorbs.
            attempts += program_cells(
                array,
                self.base + mlc,
                &self.slc,
                check_states,
                now,
                |j, _| {
                    new_faults += 1;
                    unmarked.push(mlc + j);
                    Ok(())
                },
            )?;

            if discovered.is_empty() {
                // The stuck cells BCH-1 must hide may not leave it more
                // wrong bits than it corrects.
                let wrong: u32 = self
                    .unmarked_stuck
                    .iter()
                    .map(|&c| match c.checked_sub(mlc) {
                        None => {
                            let sensed = array.sense(self.base + c, &self.design, now);
                            (tec_bits.get_bits(2 * c, 2) ^ STATE_CODE[sensed]).count_ones()
                        }
                        Some(j) => {
                            let sensed = array.sense(self.base + c, &self.slc, now);
                            u32::from(check.get(j) != (sensed == 1))
                        }
                    })
                    .sum();
                if wrong as usize > self.tec.strength() {
                    return Err(BlockError::WearoutExhausted);
                }
                return Ok(WriteReport {
                    new_faults,
                    attempts,
                });
            }
            for p in discovered {
                if !self.failed_pairs.contains(&p) {
                    self.failed_pairs.push(p);
                }
            }
        }
        Err(BlockError::WriteFailed)
    }

    /// Read 64 bytes through the full Figure-9 decode path.
    pub fn read(&self, array: &CellArray, now: f64) -> Result<ReadReport, BlockError> {
        // 1. PCM array read, packed straight into the TEC bit image.
        let mlc = self.codec.total_cells();
        let mut states = [0u8; THREE_LEVEL_BLOCK_CELLS];
        let (data_states, check_states) = states.split_at_mut(mlc);
        array.sense_range(self.base, &self.design, now, data_states);
        array.sense_range(self.base + mlc, &self.slc, now, check_states);
        let mut bits = tec::states_to_bits(data_states);
        let mut check = BitVec::zeros(check_states.len());
        for (j, &b) in check_states.iter().enumerate() {
            check.set(j, b == 1);
        }
        // 2. Transient error correction (TEC).
        let corrected_bits = self
            .tec
            .decode_bits(&mut bits, &mut check)
            .map_err(|_| BlockError::Uncorrectable)?;
        // 3. Hard error correction (mark-and-spare) + 4. symbol decoding.
        let data = self
            .codec
            .decode_tec(&bits, DATA_BITS)
            .map_err(|_| BlockError::WearoutExhausted)?;
        Ok(ReadReport {
            data: data.to_bytes(),
            corrected_bits,
            repaired_cells: self.failed_pairs.len() * 2,
        })
    }
}

// ---------------------------------------------------------------------
// Four-level block
// ---------------------------------------------------------------------

/// The optimized 4LC baseline block: Gray + smart encoding, BCH-10, ECP-6
/// (306 cells + side-band ECP metadata).
#[derive(Debug)]
pub struct FourLevelBlock {
    design: LevelDesign,
    bch: Bch,
    ecp: EcpMlc,
    base: usize,
    smart_tag: u8,
    use_smart: bool,
}

/// Cells used by a [`FourLevelBlock`]: 256 data + 50 parity.
pub const FOUR_LEVEL_BLOCK_CELLS: usize = 306;

const DATA_CELLS_4LC: usize = 256;
const PARITY_BITS_4LC: usize = 100;

impl FourLevelBlock {
    /// Create a block over cells `[base, base + 306)`; `use_smart` enables
    /// the §5.1 smart encoding pass.
    pub fn new(design: LevelDesign, base: usize, use_smart: bool) -> Self {
        assert_eq!(design.n_levels(), 4, "FourLevelBlock needs a 4LC design");
        Self {
            design,
            bch: Bch::new(10, 10),
            ecp: EcpMlc::paper(),
            base,
            smart_tag: 0,
            use_smart,
        }
    }

    /// Physical cells this block occupies.
    pub fn cells(&self) -> usize {
        FOUR_LEVEL_BLOCK_CELLS
    }

    /// ECP entries consumed so far.
    pub fn ecp_entries_used(&self) -> usize {
        pcm_wearout::ecp::PAPER_ENTRIES - self.ecp.free_entries()
    }

    /// Write 64 bytes.
    pub fn write(
        &mut self,
        array: &mut CellArray,
        now: f64,
        data: &[u8],
    ) -> Result<WriteReport, BlockError> {
        assert_eq!(data.len(), BLOCK_BYTES);
        let bits = BitVec::from_bytes(data, DATA_BITS);
        let mut states = [0u8; FOUR_LEVEL_BLOCK_CELLS];
        let (data_states, parity_states) = states.split_at_mut(DATA_CELLS_4LC);
        gray::encode_into(&bits, data_states);
        self.smart_tag = if self.use_smart {
            smart::encode_block(data_states)
        } else {
            0
        };
        // BCH protects the *stored* (transformed) bits so the read path
        // can correct before un-transforming (§6.6 ordering).
        let stored_bits = gray::decode_block(data_states, DATA_BITS);
        let parity = self.bch.encode(&stored_bits);
        gray::encode_into(&parity, parity_states);

        let mut new_faults = 0usize;
        let ecp = &mut self.ecp;
        let attempts = program_cells(array, self.base, &self.design, &states, now, |i, _| {
            new_faults += 1;
            // Parity-cell faults land on BCH's budget.
            if i < DATA_CELLS_4LC {
                ecp.mark(i, usize::from(states[i]))
                    .map_err(|_| BlockError::WearoutExhausted)?;
            }
            Ok(())
        })?;
        // Keep replacement symbols in sync with the data just written.
        self.ecp.update_for_write(&states[..DATA_CELLS_4LC]);
        Ok(WriteReport {
            new_faults,
            attempts,
        })
    }

    /// Read 64 bytes: array read (with the ECP MUX of Figure 14) →
    /// BCH-10 → smart-encoding symbol decode.
    pub fn read(&self, array: &CellArray, now: f64) -> Result<ReadReport, BlockError> {
        let mut states = [0u8; FOUR_LEVEL_BLOCK_CELLS];
        array.sense_range(self.base, &self.design, now, &mut states);
        let (data_states, parity_states) = states.split_at_mut(DATA_CELLS_4LC);
        self.ecp.apply(data_states);

        let mut stored_bits = gray::decode_block(data_states, DATA_BITS);
        let mut parity = gray::decode_block(parity_states, PARITY_BITS_4LC);
        let corrected = self
            .bch
            .decode(&mut stored_bits, &mut parity)
            .map_err(|_| BlockError::Uncorrectable)?;

        // Without smart encoding the stored bits are the data bits; with
        // it, the transform is undone on the Gray-coded words.
        let data = if self.use_smart {
            let unapply = std::array::from_fn(|s| smart::unapply(self.smart_tag, s) as u8);
            gray::map_states(&stored_bits, unapply)
        } else {
            stored_bits
        };
        Ok(ReadReport {
            data: data.to_bytes(),
            corrected_bits: corrected,
            repaired_cells: self.ecp_entries_used(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_wearout::fault::EnduranceModel;

    fn payload(seed: u8) -> Vec<u8> {
        (0..64u32)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    fn fresh_array(cells: usize, seed: u64) -> CellArray {
        CellArray::new(cells, EnduranceModel::mlc(), seed)
    }

    #[test]
    fn three_level_roundtrip_immediate() {
        let mut arr = fresh_array(THREE_LEVEL_BLOCK_CELLS, 1);
        let mut blk = ThreeLevelBlock::new(LevelDesign::three_level_naive(), 0);
        let data = payload(7);
        blk.write(&mut arr, 0.0, &data).unwrap();
        let r = blk.read(&arr, 0.0).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.corrected_bits, 0);
    }

    #[test]
    fn three_level_retains_a_decade_without_refresh() {
        // The headline claim: ten-year retention, no refresh, BCH-1 only.
        let mut arr = fresh_array(THREE_LEVEL_BLOCK_CELLS, 2);
        let mut blk = ThreeLevelBlock::new(LevelDesign::three_level_naive(), 0);
        let data = payload(42);
        blk.write(&mut arr, 0.0, &data).unwrap();
        let ten_years = pcm_core::params::TEN_YEARS_SECS;
        let r = blk.read(&arr, ten_years).unwrap();
        assert_eq!(r.data, data);
    }

    #[test]
    fn four_level_roundtrip_and_17min_refresh_window() {
        let mut arr = fresh_array(FOUR_LEVEL_BLOCK_CELLS, 3);
        let mut blk =
            FourLevelBlock::new(pcm_core::optimize::four_level_optimal().clone(), 0, true);
        let data = payload(9);
        blk.write(&mut arr, 0.0, &data).unwrap();
        // Within the refresh interval BCH-10 holds the block together.
        let r = blk
            .read(&arr, pcm_core::params::REFRESH_17MIN_SECS)
            .unwrap();
        assert_eq!(r.data, data);
    }

    #[test]
    fn four_level_loses_data_at_long_horizons() {
        // The volatility contrast: a 4LC block left unrefreshed for a year
        // accumulates far more than 10 drift errors.
        let mut arr = fresh_array(FOUR_LEVEL_BLOCK_CELLS, 4);
        let mut blk = FourLevelBlock::new(LevelDesign::four_level_naive(), 0, false);
        let data = payload(1);
        blk.write(&mut arr, 0.0, &data).unwrap();
        let year = pcm_core::params::SECS_PER_YEAR;
        match blk.read(&arr, year) {
            Err(BlockError::Uncorrectable) => {}
            Ok(r) => assert_ne!(r.data, data, "silent corruption would be a bug"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn three_level_wearout_marks_and_survives() {
        // Find a seed whose four injected wearout faults are all markable
        // (stuck-reset or revivable stuck-set — 81% of seeds): the paper's
        // mark-and-spare guarantees full recovery exactly for that class;
        // non-revivable stuck-set cells are explicitly left to BCH-1 /
        // block remapping (§6.4) and are tested separately below.
        let victims = [0usize, 21, 100, 339];
        let data = payload(13);
        'seed: for seed in 0..20u64 {
            let mut arr = fresh_array(THREE_LEVEL_BLOCK_CELLS, seed);
            for (k, idx) in victims.into_iter().enumerate() {
                arr.set_lifetime(idx, k as u64 + 1);
            }
            let mut blk = ThreeLevelBlock::new(LevelDesign::three_level_naive(), 0);
            for w in 0..6 {
                blk.write(&mut arr, w as f64, &data).unwrap();
            }
            for &v in &victims {
                match arr.fault(v) {
                    Some(f) if f.can_force_s4() => {}
                    _ => continue 'seed, // a dead stuck-set cell: skip seed
                }
            }
            assert_eq!(blk.marked_pairs().len(), 4, "all four pairs marked");
            let r = blk.read(&arr, 5.0).unwrap();
            assert_eq!(r.data, data);
            assert_eq!(r.repaired_cells, 8);
            return;
        }
        panic!("no seed in 0..20 yielded four markable faults (p ≈ 1e-15)");
    }

    #[test]
    fn three_level_dead_stuck_set_hides_behind_bch1() {
        // §6.4: "Even when a stuck-set cell cannot be forced into S4, the
        // 1-bit correcting ECC can hide it" — provided the intended state
        // is one TEC bit away (S2) and the budget isn't already spent.
        // Find a seed producing a non-revivable stuck-set fault.
        for seed in 0..200u64 {
            let mut arr = fresh_array(THREE_LEVEL_BLOCK_CELLS, seed);
            arr.set_lifetime(4, 1);
            let mut blk = ThreeLevelBlock::new(LevelDesign::three_level_naive(), 0);
            // Data chosen so pair 2 (cells 4, 5) holds S2 in cell 4:
            // bits 6..9 = 0b011 → (S2, S1) per Table 2.
            let mut data = vec![0u8; 64];
            data[0] = 0b1100_0000;
            blk.write(&mut arr, 0.0, &data).unwrap();
            if matches!(
                arr.fault(4),
                Some(pcm_wearout::fault::FaultKind::StuckSet { revivable: false })
            ) {
                assert!(blk.marked_pairs().is_empty(), "unmarkable fault");
                let r = blk.read(&arr, 1.0).unwrap();
                assert_eq!(r.data, data, "BCH-1 hides the S2→S1 stuck cell");
                assert_eq!(r.corrected_bits, 1);
                return;
            }
        }
        panic!("no seed in 0..200 produced a dead stuck-set fault (p ≈ 1e-4 to miss)");
    }

    #[test]
    fn three_level_wearout_exhaustion_detected() {
        let mut arr = fresh_array(THREE_LEVEL_BLOCK_CELLS, 6);
        // Kill 8 cells in 8 distinct pairs — beyond the 6 spare pairs.
        for p in 0..8 {
            arr.set_lifetime(p * 2, 1);
        }
        let mut blk = ThreeLevelBlock::new(LevelDesign::three_level_naive(), 0);
        let data = payload(21);
        let mut exhausted = false;
        for w in 0..12 {
            match blk.write(&mut arr, w as f64, &data) {
                Ok(_) => {}
                Err(BlockError::WearoutExhausted) => {
                    exhausted = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(exhausted, "8 failed pairs must exhaust 6 spares");
    }

    #[test]
    fn four_level_wearout_uses_ecp() {
        let mut arr = fresh_array(FOUR_LEVEL_BLOCK_CELLS, 7);
        for idx in [3usize, 77, 200] {
            arr.set_lifetime(idx, 1);
        }
        let mut blk = FourLevelBlock::new(LevelDesign::four_level_naive(), 0, false);
        let data = payload(3);
        blk.write(&mut arr, 0.0, &data).unwrap();
        assert_eq!(blk.ecp_entries_used(), 3);
        let r = blk.read(&arr, 1.0).unwrap();
        assert_eq!(r.data, data);
        // Rewrites keep working and replacements track the new data.
        let data2 = payload(99);
        blk.write(&mut arr, 2.0, &data2).unwrap();
        assert_eq!(blk.read(&arr, 3.0).unwrap().data, data2);
    }

    #[test]
    fn four_level_ecp_exhaustion_detected() {
        let mut arr = fresh_array(FOUR_LEVEL_BLOCK_CELLS, 8);
        for idx in 0..7 {
            arr.set_lifetime(idx * 30, 1);
        }
        let mut blk = FourLevelBlock::new(LevelDesign::four_level_naive(), 0, false);
        assert_eq!(
            blk.write(&mut arr, 0.0, &payload(0)),
            Err(BlockError::WearoutExhausted)
        );
    }

    #[test]
    fn smart_encoding_transparent_to_data() {
        let mut arr = fresh_array(FOUR_LEVEL_BLOCK_CELLS, 9);
        let mut blk = FourLevelBlock::new(LevelDesign::four_level_naive(), 0, true);
        // Highly biased data (all 0xFF) exercises a non-identity tag.
        let data = vec![0xFFu8; 64];
        blk.write(&mut arr, 0.0, &data).unwrap();
        assert_eq!(blk.read(&arr, 1.0).unwrap().data, data);
    }
}
