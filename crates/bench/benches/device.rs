//! Device-level datapath throughput: the full Figure-9 read and write
//! paths for both block organizations, plus refresh (scrub) cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcm_core::level::LevelDesign;
use pcm_device::{CellOrganization, DeviceBuilder, ShardedPcmDevice};
use pcm_wearout::fault::EnduranceModel;

// Criterion drives hundreds of thousands of iterations at the same
// block; with MLC endurance (1e5 cycles) the cells would genuinely wear
// out mid-benchmark. Use SLC endurance (1e8) so the datapath cost is
// measured, not the wearout machinery.
fn three_level_device() -> ShardedPcmDevice {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(16)
        .banks(4)
        .seed(11)
        .endurance(EnduranceModel::slc())
        .build_sharded()
        .unwrap()
}

fn four_level_device() -> ShardedPcmDevice {
    DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: pcm_core::optimize::four_level_optimal().clone(),
            smart: true,
        })
        .blocks(16)
        .banks(4)
        .seed(11)
        .endurance(EnduranceModel::slc())
        .build_sharded()
        .unwrap()
}

fn bench_writes(c: &mut Criterion) {
    let data = pcm_bench::payload(3);
    let mut g = c.benchmark_group("block_write_64B");
    g.throughput(Throughput::Bytes(64));
    let d3 = three_level_device();
    g.bench_function("3LC_full_path", |b| {
        b.iter(|| std::hint::black_box(d3.write_block(0, &data).unwrap()))
    });
    let d4 = four_level_device();
    g.bench_function("4LCo_full_path", |b| {
        b.iter(|| std::hint::black_box(d4.write_block(0, &data).unwrap()))
    });
    g.finish();
}

fn bench_reads(c: &mut Criterion) {
    let data = pcm_bench::payload(4);
    let mut g = c.benchmark_group("block_read_64B");
    g.throughput(Throughput::Bytes(64));
    let d3 = three_level_device();
    d3.write_block(0, &data).unwrap();
    d3.advance_time(3600.0);
    g.bench_function("3LC_full_path", |b| {
        b.iter(|| std::hint::black_box(d3.read_block(0).unwrap()))
    });
    let d4 = four_level_device();
    d4.write_block(0, &data).unwrap();
    d4.advance_time(600.0);
    g.bench_function("4LCo_full_path", |b| {
        b.iter(|| std::hint::black_box(d4.read_block(0).unwrap()))
    });
    g.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let data = pcm_bench::payload(5);
    let dev = four_level_device();
    for b in 0..16 {
        dev.write_block(b, &data).unwrap();
    }
    dev.advance_time(1024.0);
    c.bench_function("refresh_block_scrub", |b| {
        b.iter(|| {
            dev.refresh_block(3).unwrap();
            std::hint::black_box(())
        })
    });
}

fn bench_wear_leveling(c: &mut Criterion) {
    use pcm_device::WearLeveledDevice;
    let data = pcm_bench::payload(6);
    let raw = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(17)
        .banks(1)
        .seed(13)
        .endurance(EnduranceModel::slc())
        .build_sharded()
        .unwrap();
    let mut dev = WearLeveledDevice::new(raw, 16, 16);
    for b in 0..16 {
        dev.write_block(b, &data).unwrap();
    }
    c.bench_function("wear_leveled_write_psi16", |b| {
        b.iter(|| std::hint::black_box(dev.write_block(5, &data).unwrap()))
    });
}

fn bench_generic_block(c: &mut Criterion) {
    use pcm_codec::enumerative::EnumerativeCode;
    use pcm_device::{CellArray, GenericBlock};
    // Ternary instance of the generalized datapath, for comparison with
    // the dedicated 3LC block above.
    let code = EnumerativeCode::new(3, 2);
    let mut blk = GenericBlock::new(LevelDesign::three_level_naive(), code, 0, 6, 1);
    let mut arr = CellArray::new(blk.cells(), pcm_wearout_endurance(), 3);
    let data = pcm_bench::payload(8);
    blk.write(&mut arr, 0.0, &data).unwrap();
    let mut g = c.benchmark_group("generic_block_ternary");
    g.bench_function("write", |b| {
        b.iter(|| std::hint::black_box(blk.write(&mut arr, 0.0, &data).unwrap()))
    });
    g.bench_function("read", |b| {
        b.iter(|| std::hint::black_box(blk.read(&arr, 1.0).unwrap()))
    });
    g.finish();
}

fn pcm_wearout_endurance() -> pcm_wearout::fault::EnduranceModel {
    pcm_wearout::fault::EnduranceModel::slc() // effectively wear-free for benching
}

criterion_group!(
    benches,
    bench_writes,
    bench_reads,
    bench_refresh,
    bench_wear_leveling,
    bench_generic_block
);
criterion_main!(benches);
