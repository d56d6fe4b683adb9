//! The block-datapath bit-identity oracle.
//!
//! Host-side speedups of the block datapaths (cell-array sensing, the TEC,
//! Gray, 3-ON-2 and mark-and-spare codecs) must not move a single
//! simulated bit. Each case below drives a seeded `ShardedPcmDevice`
//! through writes, reads at 0 s, 1024 s and ten years, refreshes, and
//! injected short lifetimes that trigger INV marking (3LC, generic), ECP
//! entries (4LC) and exhausted spares, then hashes every `ReadReport`, `WriteReport` and
//! error plus the final `DeviceStats`. The expected digests are constants:
//! any change to what the device returns, including which operations fail
//! and how, changes the digest.

use mlc_pcm::codec::enumerative::EnumerativeCode;
use mlc_pcm::core::optimize::{four_level_optimal, three_level_optimal};
use mlc_pcm::core::params::{REFRESH_17MIN_SECS, TEN_YEARS_SECS};
use mlc_pcm::device::{CellOrganization, DeviceBuilder};

const BLOCKS: usize = 24;
const BANKS: usize = 4;

/// FNV-1a over the `Debug` rendering of every value fed to it.
struct Digest(u64);

impl Digest {
    fn feed(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}\n").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Key-derived payload bytes (SplitMix64 stream per block and round).
fn payload(block: usize, round: u64) -> Vec<u8> {
    let mut s = (block as u64) << 32 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..8)
        .flat_map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)).to_le_bytes()
        })
        .collect()
}

/// Run the fixed workload on `org` and return its digest.
fn digest(org: CellOrganization, seed: u64, short_lived: usize) -> u64 {
    let org_cells = org.cells_per_block();
    let cells = org_cells * BLOCKS;
    let dev = DeviceBuilder::new()
        .organization(org)
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .build_sharded()
        .unwrap();
    // Short lifetimes spread over the array: the first rewrites wear these
    // cells out, so write-and-verify marks pairs or groups (3LC, generic)
    // or fills ECP entries (4LC), and a few blocks run out of spares.
    for k in 0..short_lived {
        dev.inject_lifetime((k * 7919 + 13) % cells, k as u64 % 5 + 1)
            .unwrap();
    }
    // Eight dead cells in distinct pairs, groups or ECP slots of block 2:
    // more than any organization can spare, so its writes fail.
    for k in 0..8 {
        dev.inject_lifetime(2 * org_cells + 4 * k, 1).unwrap();
    }
    let mut h = Digest(0xcbf2_9ce4_8422_2325);
    for round in 0..3 {
        for b in 0..BLOCKS {
            h.feed(&dev.write_block(b, &payload(b, round)));
        }
        for b in (0..BLOCKS).rev() {
            h.feed(&dev.read_block(b));
        }
    }
    // Revive some worn cells with a fresh short budget: already-stuck cells
    // wear out a second time on the next rewrites.
    for k in 0..short_lived / 4 {
        dev.inject_lifetime((k * 7919 + 13) % cells, 2).unwrap();
    }
    for b in 0..BLOCKS {
        h.feed(&dev.write_block(b, &payload(b, 5)));
    }
    dev.advance_time(REFRESH_17MIN_SECS);
    for b in 0..BLOCKS {
        h.feed(&dev.read_block(b));
    }
    for b in (0..BLOCKS).step_by(3) {
        h.feed(&dev.refresh_block(b));
    }
    for b in (1..BLOCKS).step_by(2) {
        h.feed(&dev.write_block(b, &payload(b, 9)));
    }
    dev.advance_time(TEN_YEARS_SECS);
    for b in 0..BLOCKS {
        h.feed(&dev.read_block(b));
    }
    h.feed(&dev.stats());
    h.0
}

fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: block datapath output changed (digest {got:#018x}, expected {want:#018x})"
    );
}

#[test]
fn three_level_device_is_bit_identical() {
    let org = CellOrganization::ThreeLevel(three_level_optimal().clone());
    assert_digest("3LC", digest(org, 2013, 96), 0xd8c9_df52_3111_58c2);
}

#[test]
fn four_level_smart_device_is_bit_identical() {
    let org = CellOrganization::FourLevel {
        design: four_level_optimal().clone(),
        smart: true,
    };
    assert_digest("4LC smart", digest(org, 7, 64), 0x9cf6_47d1_3fb8_529b);
}

#[test]
fn four_level_plain_device_is_bit_identical() {
    let org = CellOrganization::FourLevel {
        design: four_level_optimal().clone(),
        smart: false,
    };
    assert_digest("4LC plain", digest(org, 8, 64), 0x9959_db26_83b3_200c);
}

#[test]
fn generic_device_is_bit_identical() {
    let org = CellOrganization::Generic {
        design: three_level_optimal().clone(),
        code: EnumerativeCode::new(3, 2),
        spare_groups: 4,
        tec_strength: 2,
    };
    assert_digest("generic", digest(org, 99, 64), 0x4aa9_bc28_8625_cc0a);
}
