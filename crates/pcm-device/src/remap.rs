//! FREE-p-style fine-grained block remapping (Yoon et al., HPCA'11 —
//! the paper's reference \[39\], invoked in §6.4 as the backstop "to
//! provide end-to-end protection" once a block's in-place wearout
//! tolerance is exhausted).
//!
//! When mark-and-spare (or ECP) runs out of spares, the block itself is
//! retired and its data forwarded to a block from a reserve pool. The
//! remap table here is controller metadata (FREE-p stores forwarding
//! pointers in the dead block itself; the observable behavior — capacity
//! sacrificed from a reserve pool, transparent forwarding, bounded
//! indirection — is the same and is what the device-level lifetime
//! analysis needs).

use crate::block::{BlockError, ReadReport, WriteReport};
use crate::concurrent::ShardedPcmDevice;
use crate::error::PcmError;
use crate::trace_hooks;
use std::collections::BTreeMap;

/// A device with a reserve pool and transparent bad-block forwarding.
pub struct RemappedDevice {
    device: ShardedPcmDevice,
    /// Logical (user-visible) block count; blocks ≥ this are reserve.
    logical_blocks: usize,
    /// Forwarding table: retired physical block → reserve block.
    forward: BTreeMap<usize, usize>,
    /// Next unused reserve block.
    next_reserve: usize,
}

impl RemappedDevice {
    /// Wrap `device`, reserving its last `reserve_blocks` blocks.
    pub fn new(device: ShardedPcmDevice, reserve_blocks: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: the reserve must leave at least one data block
        assert!(reserve_blocks < device.blocks());
        let logical_blocks = device.blocks() - reserve_blocks;
        Self {
            device,
            logical_blocks,
            forward: BTreeMap::new(),
            next_reserve: logical_blocks,
        }
    }

    /// User-visible capacity in blocks.
    pub fn blocks(&self) -> usize {
        self.logical_blocks
    }

    /// Blocks retired so far.
    pub fn retired(&self) -> usize {
        self.forward.len()
    }

    /// Reserve blocks still available.
    pub fn reserve_left(&self) -> usize {
        self.device.blocks() - self.next_reserve
    }

    /// The wrapped device (stats, clock, fault injection).
    pub fn device(&self) -> &ShardedPcmDevice {
        &self.device
    }

    /// Resolve forwarding (bounded: a reserve block that itself dies is
    /// forwarded again).
    fn resolve(&self, block: usize) -> usize {
        let mut pa = block;
        let mut hops = 0;
        while let Some(&next) = self.forward.get(&pa) {
            pa = next;
            hops += 1;
            // pcm-lint: allow(no-panic-lib) — invariant: remap chains are acyclic by construction; a cycle means table corruption
            assert!(hops <= self.device.blocks(), "forwarding cycle");
        }
        pa
    }

    /// Read a logical block through the forwarding table.
    pub fn read_block(&self, block: usize) -> Result<ReadReport, PcmError> {
        PcmError::check_block(block, self.logical_blocks)?;
        self.device.read_block(self.resolve(block))
    }

    /// Write a logical block; on wearout exhaustion the block is retired
    /// and the write retried on a fresh reserve block. Fails with
    /// [`PcmError::ReserveExhausted`] once no reserve block is left.
    pub fn write_block(&mut self, block: usize, data: &[u8]) -> Result<WriteReport, PcmError> {
        PcmError::check_block(block, self.logical_blocks)?;
        loop {
            let pa = self.resolve(block);
            match self.device.write_block(pa, data) {
                Err(PcmError::Block(BlockError::WearoutExhausted | BlockError::WriteFailed)) => {
                    if self.next_reserve >= self.device.blocks() {
                        return Err(PcmError::ReserveExhausted);
                    }
                    let replacement = self.next_reserve;
                    self.next_reserve += 1;
                    self.forward.insert(pa, replacement);
                    trace_hooks::remap_event(
                        self.device.tracer(),
                        self.device.bank_of(pa),
                        pa,
                        self.device.now(),
                        replacement,
                        self.forward.len() as u64,
                    );
                    // Loop: retry the write on the replacement.
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CellOrganization, DeviceBuilder};
    use pcm_core::level::LevelDesign;

    fn device(blocks: usize, seed: u64) -> ShardedPcmDevice {
        DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(blocks)
            .banks(1)
            .seed(seed)
            .build_sharded()
            .unwrap()
    }

    fn kill_block_pairs(dev: &ShardedPcmDevice, block: usize, pairs: usize) {
        for p in 0..pairs {
            dev.inject_lifetime(block * 364 + p * 2, 1).unwrap();
        }
    }

    #[test]
    fn healthy_device_passes_through() {
        let mut dev = RemappedDevice::new(device(12, 1), 4);
        assert_eq!(dev.blocks(), 8);
        let data = vec![0x42u8; 64];
        dev.write_block(0, &data).unwrap();
        assert_eq!(dev.read_block(0).unwrap().data, data);
        assert_eq!(dev.retired(), 0);
    }

    #[test]
    fn dead_block_is_retired_and_forwarded() {
        let raw = device(12, 2);
        kill_block_pairs(&raw, 3, 8); // beyond 6 spares
        let mut dev = RemappedDevice::new(raw, 4);
        let data = vec![0x17u8; 64];
        // Hammer block 3 until its spares run out; the remap layer must
        // absorb the failure transparently.
        for _ in 0..12 {
            dev.write_block(3, &data).unwrap();
        }
        assert_eq!(dev.retired(), 1);
        assert_eq!(dev.reserve_left(), 3);
        assert_eq!(dev.read_block(3).unwrap().data, data);
        // Ten years later the forwarded data is still there.
        dev.device().advance_time(pcm_core::params::TEN_YEARS_SECS);
        assert_eq!(dev.read_block(3).unwrap().data, data);
    }

    #[test]
    fn chained_forwarding_survives_reserve_death() {
        let raw = device(12, 3);
        kill_block_pairs(&raw, 1, 8); // logical block 1 dies
        kill_block_pairs(&raw, 8, 8); // ...and so does the 1st reserve
        let mut dev = RemappedDevice::new(raw, 4);
        let data = vec![0x5Au8; 64];
        for _ in 0..24 {
            dev.write_block(1, &data).unwrap();
        }
        assert_eq!(dev.retired(), 2, "block 1 and its first replacement");
        assert_eq!(dev.read_block(1).unwrap().data, data);
    }

    #[test]
    fn reserve_exhaustion_is_end_of_life() {
        let raw = device(6, 4);
        // Kill every block including reserves.
        for b in 0..6 {
            kill_block_pairs(&raw, b, 8);
        }
        let mut dev = RemappedDevice::new(raw, 2);
        let data = vec![9u8; 64];
        let mut died = false;
        for _ in 0..40 {
            match dev.write_block(0, &data) {
                Ok(_) => {}
                Err(PcmError::ReserveExhausted) => {
                    died = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(died);
        assert_eq!(dev.reserve_left(), 0);
    }

    #[test]
    fn other_blocks_unaffected_by_retirement() {
        let raw = device(12, 5);
        kill_block_pairs(&raw, 2, 8);
        let mut dev = RemappedDevice::new(raw, 4);
        let pat = |b: usize| vec![b as u8 | 0x80; 64];
        for b in 0..8 {
            for _ in 0..10 {
                dev.write_block(b, &pat(b)).unwrap();
            }
        }
        for b in 0..8 {
            assert_eq!(dev.read_block(b).unwrap().data, pat(b), "block {b}");
        }
        assert_eq!(dev.retired(), 1);
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let mut dev = RemappedDevice::new(device(12, 6), 4);
        let oob = PcmError::BlockOutOfRange {
            block: 8,
            blocks: 8,
        };
        // Block 8 exists physically, but it is reserve, not user-visible.
        assert_eq!(dev.write_block(8, &[1u8; 64]).unwrap_err(), oob);
        assert_eq!(dev.read_block(8).unwrap_err(), oob);
        assert_eq!(dev.device().stats(), Default::default());
        assert_eq!(dev.reserve_left(), 4);
    }
}
