//! A persistent append-only record log on 3LC-PCM (§1: "persistent data
//! structures", "high-bandwidth file systems").
//!
//! Demonstrates the full storage stack under *hostile* conditions: the
//! log keeps appending while cells wear out; mark-and-spare absorbs the
//! failures pair by pair (2 cells each), and the BCH-1 transient-error
//! code scrubs the occasional drift upset — all invisible to the
//! application until a block genuinely exhausts its spares.
//!
//! Run with: `cargo run --release --example persistent_log`

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::device::{BlockError, CellOrganization, DeviceBuilder, PcmError, ShardedPcmDevice};

/// A fixed-size record: tag byte + 62 payload bytes + checksum byte.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    tag: u8,
    payload: [u8; 62],
}

impl Record {
    fn new(tag: u8, fill: u8) -> Self {
        let mut payload = [0u8; 62];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = fill.wrapping_add(i as u8).rotate_left(3);
        }
        Self { tag, payload }
    }

    fn to_block(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[0] = self.tag;
        out[1..63].copy_from_slice(&self.payload);
        out[63] = self
            .payload
            .iter()
            .fold(self.tag, |acc, &b| acc.wrapping_add(b));
        out
    }

    fn from_block(block: &[u8]) -> Option<Record> {
        let tag = block[0];
        let payload: [u8; 62] = block[1..63].try_into().ok()?;
        let sum = payload.iter().fold(tag, |acc, &b| acc.wrapping_add(b));
        (sum == block[63]).then_some(Record { tag, payload })
    }
}

/// The log: blocks 0.. of a PCM device, one record per block.
struct PcmLog {
    dev: ShardedPcmDevice,
    head: usize,
    retired_blocks: usize,
}

impl PcmLog {
    fn new(blocks: usize) -> Self {
        Self {
            dev: DeviceBuilder::new()
                .organization(CellOrganization::ThreeLevel(
                    LevelDesign::three_level_naive(),
                ))
                .blocks(blocks)
                .banks(8)
                .seed(99)
                .build_sharded()
                .unwrap(),
            head: 0,
            retired_blocks: 0,
        }
    }

    /// Append a record; skips (retires) blocks whose wearout tolerance is
    /// exhausted — the paper's pointer to FREE-p-style remapping (§6.4).
    fn append(&mut self, rec: &Record) -> Result<usize, PcmError> {
        loop {
            if self.head >= self.dev.blocks() {
                return Err(PcmError::Block(BlockError::WearoutExhausted));
            }
            match self.dev.write_block(self.head, &rec.to_block()) {
                Ok(_) => {
                    let at = self.head;
                    self.head += 1;
                    return Ok(at);
                }
                Err(PcmError::Block(BlockError::WearoutExhausted | BlockError::WriteFailed)) => {
                    self.retired_blocks += 1;
                    self.head += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn get(&self, at: usize) -> Option<Record> {
        let data = self.dev.read_block(at).ok()?.data;
        Record::from_block(&data)
    }
}

fn main() {
    const BLOCKS: usize = 64;
    let mut log = PcmLog::new(BLOCKS);

    // Sabotage: shorten the lifetime of a scattering of cells so wearout
    // strikes during the run (MLC cells normally last ~1e5 cycles).
    for k in 0..40 {
        let cell = k * 547 % (BLOCKS * 364);
        log.dev.inject_lifetime(cell, (k % 3) as u64 + 1).unwrap();
    }

    let mut index = Vec::new();
    let mut appended = 0;
    for i in 0..48u32 {
        let rec = Record::new(i as u8, (i * 37) as u8);
        match log.append(&rec) {
            Ok(at) => {
                index.push((at, rec));
                appended += 1;
            }
            Err(e) => {
                println!("append {i} failed: {e}");
                break;
            }
        }
    }
    let faults = log.dev.stats().wearout_faults;
    println!("appended {appended} records over {} blocks", log.head);
    println!("wearout faults discovered by write-verify: {faults}");
    println!(
        "blocks retired (spares exhausted):          {}",
        log.retired_blocks
    );

    // Age the log: three years unpowered, then verify every record.
    log.dev.advance_time(3.0 * 365.25 * 86_400.0);
    let mut verified = 0;
    for (at, rec) in &index {
        match log.get(*at) {
            Some(r) if &r == rec => verified += 1,
            other => println!("record at block {at} corrupt: {other:?}"),
        }
    }
    println!(
        "after 3 unpowered years: {verified}/{} records verified, \
         {} drift bits scrubbed by BCH-1",
        index.len(),
        log.dev.stats().corrected_bits
    );
    assert_eq!(verified, index.len(), "the log must survive intact");
    assert!(faults > 0, "the sabotage should have caused wearout faults");

    println!(
        "\nEvery record survived cell wearout (mark-and-spare: 2 spare cells\n\
         per failure) plus three years of drift (BCH-1 safety net) — the\n\
         storage-class behavior §1 wants from MLC-PCM."
    );
}
