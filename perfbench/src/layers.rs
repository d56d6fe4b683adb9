//! Isolated host timings of each lower layer's public functions, on the
//! workload's organization and data age.
//!
//! A traced run times the layers after every pair of rounds. Each
//! timing is the median of several batches, and the run reports each
//! layer's typical timing over those repetitions, as it does for the
//! per-call latencies, so a layer sum and an end-to-end figure sample
//! the same host states.

use crate::workload::{Org, BANKS};
use pcm_codec::ternary::Trit;
use pcm_codec::{gray, smart, tec::TecCodec, three_on_two};
use pcm_core::rng::Xoshiro256pp;
use pcm_device::block::{FOUR_LEVEL_BLOCK_CELLS, THREE_LEVEL_BLOCK_CELLS};
use pcm_device::{CellArray, DeviceBuilder, FourLevelBlock, ThreeLevelBlock};
use pcm_ecc::bch::Bch;
use pcm_ecc::bitvec::BitVec;
use pcm_wearout::fault::EnduranceModel;
use pcm_wearout::mark_spare::MarkSpareCodec;
use pcm_wearout::EcpMlc;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 21;
/// Blocks (or codewords) per timed batch.
const BLOCKS: usize = crate::workload::SAMPLE_PAGES;
const DATA_BITS: usize = 512;
/// Age of the codewords the BCH-10 decoder is timed on: one 4LC
/// refresh period, where drift errors are common but correctable.
const BCH_AGE_SECS: f64 = 1024.0;

/// Host time per call of each layer function.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub cell_program_ns: f64,
    pub cell_sense_ns: f64,
    pub block_read_us: f64,
    pub block_write_us: f64,
    pub device_read_block_us: f64,
    pub device_write_block_us: f64,
    pub tec_decode_us: f64,
    pub bch10_encode_us: f64,
    /// BCH-10 decode of codewords one refresh period old.
    pub bch10_decode_us: f64,
    /// BCH-10 decode of freshly written (error-free) codewords.
    pub bch10_decode_fresh_us: f64,
    pub bch10_decode_batch_us: f64,
    pub three_on_two_us: f64,
    pub gray_smart_us: f64,
    pub ecp_apply_us: f64,
    /// Share of block and device reads taken at the aged error mix (the
    /// rest are fresh): chosen so the isolated reads correct as many
    /// symbols per read as the workload's demand reads did.
    pub aged_share: f64,
}

impl LayerTimes {
    /// Field-wise typical value (as for per-call latencies, see
    /// `typical_index`) of repetitions spread over the run.
    pub fn typical(reps: &[LayerTimes]) -> LayerTimes {
        let pick = |f: fn(&LayerTimes) -> f64| crate::typical(reps.iter().map(f).collect());
        LayerTimes {
            cell_program_ns: pick(|t| t.cell_program_ns),
            cell_sense_ns: pick(|t| t.cell_sense_ns),
            block_read_us: pick(|t| t.block_read_us),
            block_write_us: pick(|t| t.block_write_us),
            device_read_block_us: pick(|t| t.device_read_block_us),
            device_write_block_us: pick(|t| t.device_write_block_us),
            tec_decode_us: pick(|t| t.tec_decode_us),
            bch10_encode_us: pick(|t| t.bch10_encode_us),
            bch10_decode_us: pick(|t| t.bch10_decode_us),
            bch10_decode_fresh_us: pick(|t| t.bch10_decode_fresh_us),
            bch10_decode_batch_us: pick(|t| t.bch10_decode_batch_us),
            three_on_two_us: pick(|t| t.three_on_two_us),
            gray_smart_us: pick(|t| t.gray_smart_us),
            ecp_apply_us: pick(|t| t.ecp_apply_us),
            aged_share: pick(|t| t.aged_share),
        }
    }
}

/// Host ns per call of one batch: `run` returns how many calls it made.
fn time_batch(run: impl FnOnce() -> usize) -> f64 {
    let t = Instant::now();
    let calls = run();
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median batch, in ns per call: `prepare` builds a batch's inputs
/// untimed, `run` consumes them and returns how many calls it made.
fn per_call<T>(mut prepare: impl FnMut() -> T, mut run: impl FnMut(T) -> usize) -> f64 {
    median(
        (0..BATCHES)
            .map(|_| {
                let input = prepare();
                time_batch(|| run(input))
            })
            .collect(),
    )
}

/// [`per_call`] of two batch kinds timed in alternation, so both see
/// the same host state.
fn per_call_pair(mut a: impl FnMut() -> usize, mut b: impl FnMut() -> usize) -> (f64, f64) {
    let (ta, tb): (Vec<f64>, Vec<f64>) = (0..BATCHES)
        .map(|_| (time_batch(&mut a), time_batch(&mut b)))
        .unzip();
    (median(ta), median(tb))
}

/// A block datapath of either organization.
enum Block {
    Three(ThreeLevelBlock),
    Four(FourLevelBlock),
}

impl Block {
    fn write(&mut self, array: &mut CellArray, now: f64, data: &[u8]) -> bool {
        match self {
            Block::Three(b) => b.write(array, now, data).is_ok(),
            Block::Four(b) => b.write(array, now, data).is_ok(),
        }
    }

    /// The bytes read and the symbols ECC corrected.
    fn read(&self, array: &CellArray, now: f64) -> Option<(Vec<u8>, usize)> {
        let r = match self {
            Block::Three(b) => b.read(array, now),
            Block::Four(b) => b.read(array, now),
        };
        r.ok().map(|r| (r.data, r.corrected_bits))
    }
}

/// Time every layer for `org` on pages the workload read (`reads`) and
/// wrote (`writes`). Reads are timed on fresh data and on
/// data `age_secs` old, and the two are weighted to match the
/// workload's `corrected_per_read`: puts keep rewriting hot pages, so
/// most demand reads see younger data than the aging alone implies.
/// Returns an error if any layer returns bytes other than those written.
pub fn measure(
    org: Org,
    reads: &[Vec<u8>],
    writes: &[Vec<u8>],
    age_secs: f64,
    corrected_per_read: f64,
    seed: u64,
) -> Result<LayerTimes, String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let design = org.design();
    let levels = design.n_levels();

    // pcm-core: one cell's program-and-verify, and one sense at age.
    let mut t = LayerTimes {
        cell_program_ns: per_call(
            || (),
            |()| {
                for i in 0..4096 {
                    black_box(pcm_core::cell::write_cell(&design, i % levels, &mut rng));
                }
                4096
            },
        ),
        ..LayerTimes::default()
    };
    let cells: Vec<_> = (0..4096)
        .map(|i| pcm_core::cell::write_cell(&design, i % levels, &mut rng))
        .collect();
    t.cell_sense_ns = per_call(
        || (),
        |()| {
            for c in &cells {
                black_box(pcm_core::cell::sense_at(&design, c, black_box(age_secs)));
            }
            cells.len()
        },
    );

    // pcm-device block datapaths on a bare cell array.
    let cells_per_block = match org {
        Org::ThreeLevel => THREE_LEVEL_BLOCK_CELLS,
        Org::FourLevel => FOUR_LEVEL_BLOCK_CELLS,
    };
    let mut array = CellArray::new(BLOCKS * cells_per_block, EnduranceModel::mlc(), seed);
    let mut blocks: Vec<Block> = (0..BLOCKS)
        .map(|i| match org {
            Org::ThreeLevel => {
                Block::Three(ThreeLevelBlock::new(design.clone(), i * cells_per_block))
            }
            Org::FourLevel => Block::Four(FourLevelBlock::new(
                design.clone(),
                i * cells_per_block,
                true,
            )),
        })
        .collect();
    // pcm-device engine: the same calls through the sharded device. Each
    // block batch alternates with the device batch doing the same work,
    // so both see the same host state and "device - block" is the
    // engine's own cost.
    let dev = DeviceBuilder::new()
        .organization(org.organization())
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .build_sharded()
        .map_err(|e| e.to_string())?;
    let (mut block_ok, mut dev_ok) = (true, true);
    let (block_write, device_write) = per_call_pair(
        || {
            for (b, d) in blocks.iter_mut().zip(writes) {
                block_ok &= b.write(&mut array, 0.0, d);
            }
            BLOCKS
        },
        || {
            for (i, d) in writes.iter().enumerate() {
                dev_ok &= dev.write_block(i, d).is_ok();
            }
            BLOCKS
        },
    );
    t.block_write_us = block_write / 1e3;
    t.device_write_block_us = device_write / 1e3;
    for (i, (b, d)) in blocks.iter_mut().zip(reads).enumerate() {
        block_ok &= b.write(&mut array, 0.0, d);
        dev_ok &= dev.write_block(i, d).is_ok();
    }
    let mut corrected = 0usize;
    let mut reads_at = |now: f64, corrected: &mut usize| {
        let (block, device) = per_call_pair(
            || {
                *corrected = 0;
                for (b, d) in blocks.iter().zip(reads) {
                    match b.read(&array, now) {
                        Some((bytes, c)) if bytes == *d => *corrected += c,
                        _ => block_ok = false,
                    }
                }
                BLOCKS
            },
            || {
                for (i, d) in reads.iter().enumerate() {
                    dev_ok &= dev.read_block(i).ok().map(|r| r.data).as_ref() == Some(d);
                }
                BLOCKS
            },
        );
        (block / 1e3, device / 1e3)
    };
    let (block_fresh, device_fresh) = reads_at(0.0, &mut 0);
    dev.advance_time(age_secs);
    let (block_aged, device_aged) = reads_at(age_secs, &mut corrected);
    let corrected_aged = corrected as f64 / BLOCKS as f64;
    t.aged_share = if corrected_aged > 0.0 {
        (corrected_per_read / corrected_aged).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mix = |fresh: f64, aged: f64| fresh + t.aged_share * (aged - fresh);
    t.block_read_us = mix(block_fresh, block_aged);
    t.device_read_block_us = mix(device_fresh, device_aged);
    if !block_ok || !dev_ok {
        return Err(format!(
            "a block or device op failed or returned wrong bytes at age {age_secs} s"
        ));
    }

    ecc_and_codec(&mut t, reads, age_secs, seed)?;
    Ok(t)
}

/// pcm-ecc, pcm-codec and pcm-wearout on the inputs their block
/// datapaths make of `pages`: TEC (BCH-1) on 3LC trits sensed at the
/// workload's age, BCH-10 on 4LC codewords sensed one refresh period
/// after writing.
fn ecc_and_codec(
    t: &mut LayerTimes,
    pages: &[Vec<u8>],
    age_secs: f64,
    seed: u64,
) -> Result<(), String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xECC);
    let bits: Vec<BitVec> = pages
        .iter()
        .map(|p| BitVec::from_bytes(p, DATA_BITS))
        .collect();

    // TEC: 3-ON-2 + mark-and-spare trits programmed as 3LC cells.
    let three = pcm_core::optimize::three_level_optimal();
    let codec = MarkSpareCodec::default();
    let tec = TecCodec::new();
    let mut tec_inputs = Vec::with_capacity(BLOCKS);
    for b in &bits {
        let trits = codec.encode_block(b, &[]).map_err(|e| e.to_string())?;
        let check = tec.encode(&trits);
        let mut array = CellArray::new(trits.len(), EnduranceModel::mlc(), rng.next_u64());
        for (i, tr) in trits.iter().enumerate() {
            array.program(i, three, tr.index(), 0.0);
        }
        let sensed: Vec<Trit> = (0..trits.len())
            .map(|i| Trit::from_index(array.sense(i, three, age_secs)))
            .collect();
        tec_inputs.push((trits, sensed, check));
    }
    let mut tec_ok = true;
    t.tec_decode_us = per_call(
        || (),
        |()| {
            for (trits, sensed, check) in &tec_inputs {
                tec_ok &= tec.decode(sensed, check).is_ok_and(|o| o.trits == *trits);
            }
            BLOCKS
        },
    ) / 1e3;
    if !tec_ok {
        return Err("BCH-1 TEC failed to restore the sensed trits".to_string());
    }

    // BCH-10: Gray + smart states and parity programmed as 4LC cells.
    let four = pcm_core::optimize::four_level_optimal();
    let bch = Bch::new(10, 10);
    let mut stored = Vec::with_capacity(BLOCKS);
    let mut sensed_data = Vec::with_capacity(BLOCKS);
    let mut sensed_parity = Vec::with_capacity(BLOCKS);
    for b in &bits {
        let mut states = gray::encode_block(b);
        smart::encode_block(&mut states);
        let stored_bits = gray::decode_block(&states, DATA_BITS);
        let parity = bch.encode(&stored_bits);
        let all: Vec<usize> = states
            .iter()
            .copied()
            .chain(gray::encode_block(&parity))
            .collect();
        let mut array = CellArray::new(all.len(), EnduranceModel::mlc(), rng.next_u64());
        for (i, &s) in all.iter().enumerate() {
            array.program(i, four, s, 0.0);
        }
        let sensed: Vec<usize> = (0..all.len())
            .map(|i| array.sense(i, four, BCH_AGE_SECS))
            .collect();
        sensed_data.push(gray::decode_block(&sensed[..states.len()], DATA_BITS));
        sensed_parity.push(gray::decode_block(&sensed[states.len()..], parity.len()));
        stored.push(stored_bits);
    }
    t.bch10_encode_us = per_call(
        || (),
        |()| {
            for s in &stored {
                black_box(bch.encode(s));
            }
            BLOCKS
        },
    ) / 1e3;
    let mut decoded_ok = true;
    t.bch10_decode_fresh_us = per_call(
        || {
            (
                stored.clone(),
                stored.iter().map(|s| bch.encode(s)).collect::<Vec<_>>(),
            )
        },
        |(mut d, mut p)| {
            for (d, p) in d.iter_mut().zip(p.iter_mut()) {
                decoded_ok &= bch.decode(d, p) == Ok(0);
            }
            BLOCKS
        },
    ) / 1e3;
    t.bch10_decode_us = per_call(
        || (sensed_data.clone(), sensed_parity.clone()),
        |(mut d, mut p)| {
            for (i, (d, p)) in d.iter_mut().zip(p.iter_mut()).enumerate() {
                decoded_ok &= bch.decode(d, p).is_ok() && *d == stored[i];
            }
            BLOCKS
        },
    ) / 1e3;
    t.bch10_decode_batch_us = per_call(
        || (sensed_data.clone(), sensed_parity.clone()),
        |(mut d, mut p)| {
            let results = bch.decode_batch(&mut d, &mut p);
            decoded_ok &= results.iter().all(Result::is_ok) && d == stored;
            BLOCKS
        },
    ) / 1e3;
    if !decoded_ok {
        return Err("BCH-10 failed to restore aged codewords".to_string());
    }

    t.three_on_two_us = per_call(
        || (),
        |()| {
            for b in &bits {
                let trits = three_on_two::encode_block(b);
                black_box(three_on_two::decode_block(&trits, DATA_BITS));
            }
            BLOCKS
        },
    ) / 1e3;
    t.gray_smart_us = per_call(
        || (),
        |()| {
            for b in &bits {
                let mut states = gray::encode_block(b);
                let tag = smart::encode_block(&mut states);
                smart::decode_block(&mut states, tag);
                black_box(gray::decode_block(&states, DATA_BITS));
            }
            BLOCKS
        },
    ) / 1e3;
    let ecp = EcpMlc::paper();
    let states: Vec<Vec<usize>> = bits.iter().map(gray::encode_block).collect();
    t.ecp_apply_us = per_call(
        || states.clone(),
        |mut states| {
            for s in &mut states {
                ecp.apply(black_box(s));
            }
            BLOCKS
        },
    ) / 1e3;
    Ok(())
}
