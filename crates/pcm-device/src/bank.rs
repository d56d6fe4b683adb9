//! One PCM bank: a self-contained slice of the device.
//!
//! The SC'13 performance model (§7) treats the device as independent
//! banks — a bank is the unit of occupancy, refresh rotation, and queueing.
//! This module makes the bank a first-class *functional* unit too: each
//! [`PcmBank`] owns its cell array, its block datapaths, its statistics,
//! and — crucially — its own deterministic RNG stream derived from
//! `(device_seed, bank_id)` via [`pcm_core::rng::stream_seed`].
//!
//! Per-bank RNG streams are what make the device engine
//! ([`crate::concurrent::ShardedPcmDevice`]) deterministic at any thread
//! count: a bank's outcomes depend only on the sequence of operations
//! applied *to that bank*, never on how operations interleave across
//! banks or which thread executed them.
//!
//! A bank also carries the device engine's causal-profiling state, for
//! the same reason: its demand correlation-id counter and its scrub
//! debt are touched only under the bank's lock, so they too evolve as a
//! pure function of the bank's operation order.

use crate::array::CellArray;
use crate::block::{BlockError, FourLevelBlock, ReadReport, ThreeLevelBlock, WriteReport};
use crate::builder::CellOrganization;
use crate::generic_block::GenericBlock;
use pcm_core::rng::stream_seed;
use pcm_wearout::fault::EnduranceModel;

/// Cumulative device statistics (per bank, or summed across banks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Completed block writes.
    pub writes: u64,
    /// Completed block reads.
    pub reads: u64,
    /// Bits corrected by transient-error ECC across all reads.
    pub corrected_bits: u64,
    /// Reads that failed as uncorrectable.
    pub uncorrectable_reads: u64,
    /// Wearout faults discovered by write-and-verify.
    pub wearout_faults: u64,
    /// Blocks refreshed (scrubbed), whether by a scrubber or by a
    /// directly issued `refresh_block`.
    pub refreshes: u64,
    /// Total program-and-verify iterations (wear cycles) issued.
    pub write_attempts: u64,
}

impl DeviceStats {
    /// Fold another stats record into this one (per-bank aggregation).
    pub fn accumulate(&mut self, other: &DeviceStats) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.corrected_bits += other.corrected_bits;
        self.uncorrectable_reads += other.uncorrectable_reads;
        self.wearout_faults += other.wearout_faults;
        self.refreshes += other.refreshes;
        self.write_attempts += other.write_attempts;
    }
}

/// A block datapath of any supported organization.
pub(crate) enum AnyBlock {
    /// 3LCo + 3-ON-2 + mark-and-spare + BCH-1.
    Three(ThreeLevelBlock),
    /// 4LCo + Gray(+smart) + BCH-10 + ECP-6.
    Four(FourLevelBlock),
    /// Generalized K-level stack (§8).
    Generic(Box<GenericBlock>),
}

impl AnyBlock {
    fn for_org(org: &CellOrganization, cell_offset: usize) -> Self {
        match org {
            CellOrganization::ThreeLevel(d) => {
                AnyBlock::Three(ThreeLevelBlock::new(d.clone(), cell_offset))
            }
            CellOrganization::FourLevel { design, smart } => {
                AnyBlock::Four(FourLevelBlock::new(design.clone(), cell_offset, *smart))
            }
            CellOrganization::Generic {
                design,
                code,
                spare_groups,
                tec_strength,
            } => AnyBlock::Generic(Box::new(GenericBlock::new(
                design.clone(),
                *code,
                cell_offset,
                *spare_groups,
                *tec_strength,
            ))),
        }
    }

    fn write(
        &mut self,
        arr: &mut CellArray,
        now: f64,
        data: &[u8],
    ) -> Result<WriteReport, BlockError> {
        match self {
            AnyBlock::Three(b) => b.write(arr, now, data),
            AnyBlock::Four(b) => b.write(arr, now, data),
            AnyBlock::Generic(b) => b.write(arr, now, data),
        }
    }

    fn read(&self, arr: &CellArray, now: f64) -> Result<ReadReport, BlockError> {
        match self {
            AnyBlock::Three(b) => b.read(arr, now),
            AnyBlock::Four(b) => b.read(arr, now),
            AnyBlock::Generic(b) => b.read(arr, now),
        }
    }
}

/// One bank: cells, block datapaths, statistics, and an independent RNG
/// stream. All block/cell indices here are *bank-local*; the device layer
/// owns the global ↔ local mapping.
pub struct PcmBank {
    id: usize,
    array: CellArray,
    blocks: Vec<AnyBlock>,
    cells_per_block: usize,
    stats: DeviceStats,
    /// Sequence number of the next demand correlation id handed to a
    /// plain (ctx-less) op on this bank; advanced only while tracing.
    pub(crate) demand_seq: u64,
    /// Modeled ns of refresh work this bank performed that no
    /// ctx-carrying demand op has yet paid for. A successful refresh
    /// deposits its busy window; the next `*_block_ctx` read or write
    /// drains the whole balance as a `scrub_stall` span. Deposited only
    /// while tracing, so untraced runs always read 0.
    pub(crate) scrub_debt: u64,
}

impl PcmBank {
    /// Build bank `id` holding `blocks` blocks of `org`, with its RNG
    /// stream derived from `(device_seed, id)`.
    pub fn new(
        org: &CellOrganization,
        id: usize,
        blocks: usize,
        device_seed: u64,
        endurance: EnduranceModel,
    ) -> Self {
        let cells_per_block = org.cells_per_block();
        let array = CellArray::for_designs(
            blocks * cells_per_block,
            endurance,
            stream_seed(device_seed, id as u64),
            org.has_drift_switch(),
        );
        let blocks = (0..blocks)
            .map(|b| AnyBlock::for_org(org, b * cells_per_block))
            .collect();
        Self {
            id,
            array,
            blocks,
            cells_per_block,
            stats: DeviceStats::default(),
            demand_seq: 0,
            scrub_debt: 0,
        }
    }

    /// This bank's id within its device.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of blocks in this bank.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Physical cells per block under this bank's organization.
    pub fn cells_per_block(&self) -> usize {
        self.cells_per_block
    }

    /// Statistics accumulated by this bank.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Write 64 bytes to bank-local block `block` at device time `now`.
    pub fn write(
        &mut self,
        block: usize,
        now: f64,
        data: &[u8],
    ) -> Result<WriteReport, BlockError> {
        let r = self.blocks[block].write(&mut self.array, now, data);
        if let Ok(rep) = &r {
            self.stats.writes += 1;
            self.stats.wearout_faults += rep.new_faults as u64;
            self.stats.write_attempts += rep.attempts;
        }
        r
    }

    /// Read 64 bytes from bank-local block `block` at device time `now`.
    pub fn read(&mut self, block: usize, now: f64) -> Result<ReadReport, BlockError> {
        let r = self.blocks[block].read(&self.array, now);
        match &r {
            Ok(rep) => {
                self.stats.reads += 1;
                self.stats.corrected_bits += rep.corrected_bits as u64;
            }
            Err(_) => self.stats.uncorrectable_reads += 1,
        }
        r
    }

    /// Refresh (scrub) bank-local block `block`: read, correct,
    /// rewrite. Returns the bits the scrub read corrected — the
    /// steady-state signal of drift.
    pub fn refresh(&mut self, block: usize, now: f64) -> Result<u64, BlockError> {
        let rep = self.blocks[block].read(&self.array, now)?;
        let corrected = rep.corrected_bits as u64;
        self.blocks[block].write(&mut self.array, now, &rep.data)?;
        self.stats.refreshes += 1;
        self.stats.corrected_bits += corrected;
        Ok(corrected)
    }

    /// Fault-injection hook: force a bank-local cell's lifetime.
    pub fn set_lifetime(&mut self, cell: usize, cycles: u64) {
        self.array.set_lifetime(cell, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::level::LevelDesign;

    fn bank(id: usize, seed: u64) -> PcmBank {
        PcmBank::new(
            &CellOrganization::ThreeLevel(LevelDesign::three_level_naive()),
            id,
            4,
            seed,
            EnduranceModel::mlc(),
        )
    }

    #[test]
    fn bank_roundtrips_blocks() {
        let mut b = bank(0, 7);
        for blk in 0..4 {
            let data = vec![blk as u8 ^ 0x3C; 64];
            b.write(blk, 0.0, &data).unwrap();
            assert_eq!(b.read(blk, 0.0).unwrap().data, data);
        }
        assert_eq!(b.stats().writes, 4);
        assert_eq!(b.stats().reads, 4);
    }

    #[test]
    fn banks_have_independent_streams() {
        // Two banks of the same device seed draw from different RNG
        // streams: the cells they program land at different resistances.
        let mut a = bank(0, 99);
        let mut b = bank(1, 99);
        let data = vec![0x55u8; 64];
        for blk in 0..4 {
            a.write(blk, 0.0, &data).unwrap();
            b.write(blk, 0.0, &data).unwrap();
        }
        let cells = a.array.len();
        // At t = 0 no cell has drifted, so one design senses them all.
        let design = LevelDesign::three_level_naive();
        let same = (0..cells)
            .filter(|&c| a.array.logr(c, &design, 0.0) == b.array.logr(c, &design, 0.0))
            .count();
        assert_eq!(same, 0, "{same} of {cells} cells written identically");
    }

    #[test]
    fn same_id_and_seed_reproduces_exactly() {
        let mut a = bank(2, 5);
        let mut b = bank(2, 5);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        for blk in 0..4 {
            let ra = a.write(blk, 0.0, &data).unwrap();
            let rb = b.write(blk, 0.0, &data).unwrap();
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
    }
}
