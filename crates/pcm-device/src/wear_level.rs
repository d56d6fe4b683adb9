//! Start-Gap wear leveling (Qureshi et al., MICRO'09 — the paper's
//! reference \[26\] for PCM lifetime management).
//!
//! MLC-PCM endures ~10⁵ writes per cell, so a write-hot block would die
//! in seconds without leveling. Start-Gap rotates the logical-to-physical
//! mapping algebraically — no remap table: `N` logical blocks live in
//! `N + 1` physical slots; one slot (the *gap*) is unused. Every ψ demand
//! writes, the block adjacent to the gap is copied into it and the gap
//! moves down one slot; each full lap of the gap advances the *start*
//! offset, so over time every logical block visits every physical slot
//! and pathological write traffic is spread device-wide.
//!
//! Mapping (as in the original paper):
//! ```text
//! q  = (LA + start) mod N          // N logical blocks
//! PA = q + 1 if q >= gap else q    // N+1 physical slots, slot `gap` free
//! ```

use crate::block::{ReadReport, WriteReport};
use crate::concurrent::ShardedPcmDevice;
use crate::error::PcmError;

/// The Start-Gap address-rotation state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGap {
    n: usize,
    gap: usize,
    start: usize,
    psi: u32,
    writes_since_move: u32,
    gap_moves: u64,
}

/// A required data movement: copy physical block `from` into `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapMove {
    /// Source physical block.
    pub from: usize,
    /// Destination physical block (the current gap).
    pub to: usize,
}

impl StartGap {
    /// Leveler for `n` logical blocks (needs `n + 1` physical slots),
    /// moving the gap every `psi` writes (the original paper uses 100).
    pub fn new(n: usize, psi: u32) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: start-gap needs two blocks and a positive gap-move period
        assert!(n >= 2 && psi >= 1);
        Self {
            n,
            gap: n,
            start: 0,
            psi,
            writes_since_move: 0,
            gap_moves: 0,
        }
    }

    /// Logical blocks managed.
    pub fn logical_blocks(&self) -> usize {
        self.n
    }

    /// Physical slots required.
    pub fn physical_blocks(&self) -> usize {
        self.n + 1
    }

    /// Current gap slot.
    pub fn gap(&self) -> usize {
        self.gap
    }

    /// Total gap movements so far.
    pub fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// Translate a logical block to its physical slot.
    pub fn translate(&self, logical: usize) -> usize {
        // pcm-lint: allow(no-panic-lib) — contract: logical block bounds are the public API limit
        assert!(logical < self.n, "logical block {logical} out of range");
        let q = (logical + self.start) % self.n;
        if q >= self.gap {
            q + 1
        } else {
            q
        }
    }

    /// Account one demand write; when ψ writes have accumulated, returns
    /// the data movement the caller must perform, *after which*
    /// [`Self::complete_move`] must be called.
    pub fn note_write(&mut self) -> Option<GapMove> {
        self.writes_since_move += 1;
        if self.writes_since_move < self.psi {
            return None;
        }
        self.writes_since_move = 0;
        let from = if self.gap == 0 { self.n } else { self.gap - 1 };
        Some(GapMove { from, to: self.gap })
    }

    /// Advance the gap after the caller performed the copy.
    pub fn complete_move(&mut self) {
        if self.gap == 0 {
            self.gap = self.n;
            self.start = (self.start + 1) % self.n;
        } else {
            self.gap -= 1;
        }
        self.gap_moves += 1;
    }
}

/// A PCM device wrapped with Start-Gap wear leveling.
///
/// The wrapper owns one extra physical block (the gap) and performs gap
/// movements transparently on writes. Reads and writes use *logical*
/// block numbers.
pub struct WearLeveledDevice {
    device: ShardedPcmDevice,
    leveler: StartGap,
}

impl WearLeveledDevice {
    /// Wrap `device`; it must have exactly `logical_blocks + 1` blocks.
    pub fn new(device: ShardedPcmDevice, logical_blocks: usize, psi: u32) -> Self {
        let leveler = StartGap::new(logical_blocks, psi);
        assert_eq!(
            device.blocks(),
            leveler.physical_blocks(),
            "device must provide n+1 physical blocks"
        );
        Self { device, leveler }
    }

    /// Logical capacity in blocks.
    pub fn blocks(&self) -> usize {
        self.leveler.logical_blocks()
    }

    /// The wrapped device (stats, clock, fault injection).
    pub fn device(&self) -> &ShardedPcmDevice {
        &self.device
    }

    /// The leveler state (for inspection).
    pub fn leveler(&self) -> &StartGap {
        &self.leveler
    }

    /// Read a logical block.
    pub fn read_block(&self, logical: usize) -> Result<ReadReport, PcmError> {
        PcmError::check_block(logical, self.blocks())?;
        self.device.read_block(self.leveler.translate(logical))
    }

    /// Write a logical block, performing any due gap movement first. An
    /// out-of-range block is rejected before any state changes.
    pub fn write_block(&mut self, logical: usize, data: &[u8]) -> Result<WriteReport, PcmError> {
        PcmError::check_block(logical, self.blocks())?;
        if let Some(mv) = self.leveler.note_write() {
            // The `from` slot may never have been written (fresh device);
            // in that case the gap swallows an empty block.
            if let Ok(r) = self.device.read_block(mv.from) {
                self.device.write_block(mv.to, &r.data)?;
            }
            self.leveler.complete_move();
        }
        self.device
            .write_block(self.leveler.translate(logical), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CellOrganization, DeviceBuilder};
    use pcm_core::level::LevelDesign;

    #[test]
    fn translation_is_injective_and_avoids_gap() {
        let mut sg = StartGap::new(16, 3);
        for _round in 0..200 {
            let mut seen = vec![false; sg.physical_blocks()];
            for la in 0..16 {
                let pa = sg.translate(la);
                assert!(pa < 17);
                assert_ne!(pa, sg.gap(), "mapping must skip the gap");
                assert!(!seen[pa], "collision at {pa}");
                seen[pa] = true;
            }
            if sg.note_write().is_some() {
                sg.complete_move();
            }
        }
    }

    #[test]
    fn full_lap_advances_start() {
        let mut sg = StartGap::new(8, 1);
        let before: Vec<usize> = (0..8).map(|la| sg.translate(la)).collect();
        // n+1 gap moves = one full lap.
        for _ in 0..9 {
            sg.note_write().unwrap();
            sg.complete_move();
        }
        let after: Vec<usize> = (0..8).map(|la| sg.translate(la)).collect();
        assert_ne!(before, after, "one lap must rotate the mapping");
        assert_eq!(sg.gap_moves(), 9);
    }

    #[test]
    fn gap_move_preserves_the_displaced_block() {
        // The logical block whose slot the gap consumes must re-map to
        // exactly the slot its data was copied into.
        let mut sg = StartGap::new(8, 1);
        for _ in 0..50 {
            let mv = sg.note_write().unwrap();
            // Find which logical block currently maps to mv.from.
            let displaced = (0..8).find(|&la| sg.translate(la) == mv.from);
            sg.complete_move();
            if let Some(la) = displaced {
                assert_eq!(
                    sg.translate(la),
                    mv.to,
                    "displaced block must follow its data"
                );
            }
        }
    }

    fn leveled_device(psi: u32) -> WearLeveledDevice {
        let dev = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(9)
            .banks(3)
            .seed(7)
            .build_sharded()
            .unwrap();
        WearLeveledDevice::new(dev, 8, psi)
    }

    #[test]
    fn data_survives_gap_rotation() {
        let mut dev = leveled_device(2);
        let pattern =
            |b: usize, v: u8| -> Vec<u8> { (0..64).map(|i| (b * 64 + i) as u8 ^ v).collect() };
        for b in 0..8 {
            dev.write_block(b, &pattern(b, 0x11)).unwrap();
        }
        // Hammer one block so the gap does several laps.
        for k in 0..120u32 {
            dev.write_block(3, &pattern(3, k as u8)).unwrap();
        }
        assert!(dev.leveler().gap_moves() > 18, "gap must have lapped");
        assert_eq!(dev.read_block(3).unwrap().data, pattern(3, 119));
        for b in [0usize, 1, 2, 4, 5, 6, 7] {
            assert_eq!(
                dev.read_block(b).unwrap().data,
                pattern(b, 0x11),
                "block {b}"
            );
        }
    }

    #[test]
    fn hot_writes_spread_across_physical_slots() {
        let mut dev = leveled_device(4);
        let data = vec![0xEEu8; 64];
        for b in 0..8 {
            dev.write_block(b, &data).unwrap();
        }
        // 400 writes to one logical block: without leveling one physical
        // block takes all of them; with ψ=4 the gap rotates ~100 times
        // (11+ laps), so the hot traffic touches every slot.
        for _ in 0..400 {
            dev.write_block(0, &data).unwrap();
        }
        // Count distinct physical slots logical 0 visited by replaying the
        // translation history — equivalently, the device-level write count
        // must exceed any single block's possible share.
        let moves = dev.leveler().gap_moves();
        assert!(moves >= 100, "gap moves: {moves}");
        // All 9 physical slots have been the gap at some point per lap.
        assert!(moves as usize >= dev.leveler().physical_blocks());
    }

    #[test]
    fn psi_controls_overhead() {
        // Write amplification = 1 + 1/ψ gap-copy writes per demand write.
        let mut a = leveled_device(1);
        let mut b = leveled_device(100);
        let data = vec![1u8; 64];
        for dev in [&mut a, &mut b] {
            for blk in 0..8 {
                dev.write_block(blk, &data).unwrap();
            }
            for _ in 0..200 {
                dev.write_block(2, &data).unwrap();
            }
        }
        let (wa, wb) = (a.device().stats().writes, b.device().stats().writes);
        assert!(
            wa > wb + 150,
            "psi=1 must roughly double write traffic: {wa} vs {wb}"
        );
    }

    #[test]
    fn out_of_range_is_rejected_before_any_state_changes() {
        // ψ = 2: after one write, the next write is the one that moves
        // the gap. An out-of-range block must fail before that move.
        let mut dev = leveled_device(2);
        dev.write_block(0, &[5u8; 64]).unwrap();
        let (leveler, stats) = (dev.leveler().clone(), dev.device().stats());
        let oob = PcmError::BlockOutOfRange {
            block: 8,
            blocks: 8,
        };
        assert_eq!(dev.write_block(8, &[6u8; 64]).unwrap_err(), oob);
        assert_eq!(dev.read_block(8).unwrap_err(), oob);
        assert_eq!(dev.leveler().gap_moves(), 0);
        assert_eq!(dev.leveler(), &leveler);
        assert_eq!(dev.device().stats(), stats);
        // The next in-range write is still the ψ-th and moves the gap.
        dev.write_block(0, &[7u8; 64]).unwrap();
        assert_eq!(dev.leveler().gap_moves(), 1);
    }
}
