//! Integration tests for the wearout/endurance stack: mark-and-spare
//! (in-block) × FREE-p remapping (device) × Start-Gap wear leveling ×
//! the analytic lifetime model, plus the §8 generalized K-level block.

use mlc_pcm::codec::enumerative::EnumerativeCode;
use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::optimize::four_level_optimal;
use mlc_pcm::device::{
    CellOrganization, DeviceBuilder, GenericBlock, RemappedDevice, ShardedPcmDevice,
    WearLeveledDevice,
};
use mlc_pcm::wearout::fault::EnduranceModel;
use mlc_pcm::wearout::lifetime;

fn weak(median: f64) -> EnduranceModel {
    EnduranceModel {
        median_cycles: median,
        ..EnduranceModel::mlc()
    }
}

fn weak_device(blocks: usize, banks: usize, seed: u64, median: f64) -> ShardedPcmDevice {
    weak_org_device(
        CellOrganization::ThreeLevel(LevelDesign::three_level_naive()),
        blocks,
        banks,
        seed,
        median,
    )
}

fn weak_org_device(
    org: CellOrganization,
    blocks: usize,
    banks: usize,
    seed: u64,
    median: f64,
) -> ShardedPcmDevice {
    DeviceBuilder::new()
        .organization(org)
        .blocks(blocks)
        .banks(banks)
        .seed(seed)
        .endurance(weak(median))
        .build_sharded()
        .unwrap()
}

#[test]
fn leveling_beats_no_leveling_under_hot_traffic() {
    let data = vec![0x42u8; 64];
    let budget = 100_000u64;

    let bare = weak_device(8, 1, 3, 1000.0);
    let mut bare_writes = 0;
    while bare_writes < budget && bare.write_block(0, &data).is_ok() {
        bare_writes += 1;
    }

    let mut leveled = WearLeveledDevice::new(weak_device(9, 1, 3, 1000.0), 8, 8);
    let mut leveled_writes = 0;
    while leveled_writes < budget && leveled.write_block(0, &data).is_ok() {
        leveled_writes += 1;
    }

    assert!(
        leveled_writes as f64 > 3.0 * bare_writes as f64,
        "leveling must multiply hot-spot lifetime: {leveled_writes} vs {bare_writes}"
    );
}

#[test]
fn remap_reserve_extends_life_proportionally() {
    let data = vec![0x24u8; 64];
    let run = |reserve: usize, seed: u64| -> u64 {
        let mut dev = RemappedDevice::new(weak_device(8 + reserve, 1, seed, 800.0), reserve);
        let mut writes = 0;
        while writes < 200_000 && dev.write_block(0, &data).is_ok() {
            writes += 1;
        }
        writes
    };
    let r0 = run(1, 5);
    let r4 = run(4, 5);
    assert!(
        r4 as f64 > 2.0 * r0 as f64,
        "4 reserve blocks must far outlive 1: {r4} vs {r0}"
    );
}

#[test]
fn leveled_device_data_integrity_to_the_end() {
    // Under leveling, *every* block's data must stay correct right up to
    // the first reported failure — no silent corruption on the way down.
    let pattern = |b: usize| -> Vec<u8> { vec![(b as u8) ^ 0x3C; 64] };
    let mut dev = WearLeveledDevice::new(weak_device(9, 1, 9, 700.0), 8, 4);
    for b in 0..8 {
        dev.write_block(b, &pattern(b)).unwrap();
    }
    let mut hot = 0u64;
    loop {
        if dev.write_block(2, &pattern(2)).is_err() {
            break;
        }
        hot += 1;
        for b in 0..8 {
            if let Ok(rep) = dev.read_block(b) {
                assert_eq!(rep.data, pattern(b), "block {b} after {hot} hot writes");
            }
        }
        assert!(hot < 200_000, "weakened cells must eventually fail");
    }
    assert!(hot > 100, "some useful life before failure: {hot}");
}

/// Key-derived payload bytes, different for every block and write.
fn payload(block: usize, write: u64) -> Vec<u8> {
    let mut s = (block as u64) << 40 ^ write.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..64)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 56) as u8
        })
        .collect()
}

/// Hot-write logical block 0 of `blocks` with fresh data until a write
/// fails, reading every block back after every write. Returns the reads
/// that came back `Ok` with bytes other than the last ones written.
fn wrong_reads_until_worn_out(
    blocks: usize,
    mut write: impl FnMut(usize, &[u8]) -> bool,
    read: impl Fn(usize) -> Option<Vec<u8>>,
) -> usize {
    let mut current: Vec<Vec<u8>> = (0..blocks).map(|b| payload(b, 0)).collect();
    for (b, data) in current.iter().enumerate() {
        assert!(write(b, data), "fresh write of block {b}");
    }
    let mut wrong = 0;
    for n in 1..20_000 {
        let data = payload(0, n);
        if !write(0, &data) {
            return wrong;
        }
        current[0] = data;
        wrong += (0..blocks)
            .filter(|&b| read(b).is_some_and(|got| got != current[b]))
            .count();
    }
    panic!("weakened cells must eventually fail");
}

#[test]
fn worn_blocks_never_read_back_wrong_bytes() {
    // Every organization, bare and under Start-Gap, hot-written to its
    // first failed write with cells of median endurance 700: a write that
    // returns Ok must read back right. Stuck cells that no mark or ECP
    // entry covers are the ECC's to hide, and a write they would leave
    // more wrong bits in than it corrects must fail instead.
    let generic = |tec_strength| CellOrganization::Generic {
        design: LevelDesign::three_level_naive(),
        code: EnumerativeCode::new(3, 2),
        spare_groups: 6,
        tec_strength,
    };
    let orgs = [
        (
            "3LC",
            CellOrganization::ThreeLevel(LevelDesign::three_level_naive()),
        ),
        ("generic t=1", generic(1)),
        ("generic t=2", generic(2)),
        (
            "4LC",
            CellOrganization::FourLevel {
                design: four_level_optimal().clone(),
                smart: true,
            },
        ),
    ];
    let seeds = 0..8u64;
    let mut report = Vec::new();
    for (name, org) in &orgs {
        let (mut bare_wrong, mut leveled_wrong) = (0, 0);
        for seed in seeds.clone() {
            let dev = weak_org_device(org.clone(), 2, 1, seed, 700.0);
            bare_wrong += wrong_reads_until_worn_out(
                2,
                |b, d| dev.write_block(b, d).is_ok(),
                |b| dev.read_block(b).ok().map(|r| r.data),
            );
            let dev = weak_org_device(org.clone(), 5, 1, seed, 700.0);
            let dev = std::cell::RefCell::new(WearLeveledDevice::new(dev, 4, 4));
            leveled_wrong += wrong_reads_until_worn_out(
                4,
                |b, d| dev.borrow_mut().write_block(b, d).is_ok(),
                |b| dev.borrow().read_block(b).ok().map(|r| r.data),
            );
        }
        report.push(format!(
            "{name}: {bare_wrong} bare, {leveled_wrong} leveled"
        ));
    }
    let clean = report.iter().all(|r| r.contains(": 0 bare, 0 leveled"));
    assert!(clean, "wrong-bytes reads over seeds {seeds:?}: {report:?}");
}

#[test]
fn analytic_lifetime_brackets_simulation_across_endurance() {
    let data = vec![7u8; 64];
    for median in [600.0, 2000.0] {
        let dev = weak_device(4, 1, 13, median);
        let mut writes = 0u64;
        while writes < 300_000 && dev.write_block(0, &data).is_ok() {
            writes += 1;
        }
        let model = weak(median);
        let predicted = lifetime::block_lifetime_cycles(&model, 354, 6, 0.5);
        let ratio = writes as f64 / predicted;
        assert!(
            (0.2..5.0).contains(&ratio),
            "median {median}: measured {writes} vs predicted {predicted}"
        );
    }
}

#[test]
fn generic_five_level_block_integrates_with_array() {
    use mlc_pcm::codec::enumerative::EnumerativeCode;
    use mlc_pcm::core::params::StateLabel;
    // Five-level design with the tightened write spread from the §8
    // exploration.
    let nominals = [3.0, 3.75, 4.5, 5.25, 6.0];
    let labels = [
        StateLabel::S1,
        StateLabel::S2,
        StateLabel::S2,
        StateLabel::S3,
        StateLabel::S4,
    ];
    let states = labels
        .iter()
        .zip(nominals)
        .map(|(&label, nominal_logr)| mlc_pcm::core::LevelState {
            label,
            nominal_logr,
            occupancy: 0.2,
        })
        .collect();
    let thresholds: Vec<f64> = nominals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let design = LevelDesign {
        name: "5LC".into(),
        states,
        thresholds,
        sigma_logr: 0.11,
        write_tolerance_sigma: 2.75,
        drift_switch: None,
    };
    design.validate().unwrap();

    let code = EnumerativeCode::new(5, 3);
    let mut blk = GenericBlock::new(design, code, 0, 4, 2);
    let mut arr = mlc_pcm::device::CellArray::new(blk.cells(), EnduranceModel::mlc(), 71);

    // Round-trip + short-horizon retention (five-level cells are dense
    // but volatile — the §8 frontier).
    let data: Vec<u8> = (0..64u32).map(|i| (i * 11 + 3) as u8).collect();
    blk.write(&mut arr, 0.0, &data).unwrap();
    assert_eq!(
        blk.read(&arr, 60.0).unwrap().data,
        data,
        "survives a minute"
    );
    assert!(blk.density() > 1.7, "worth it: {} bits/cell", blk.density());
}
