//! Property-based tests (proptest) over the cross-crate invariants:
//! codec round-trips, ECC correction guarantees, wearout-tolerance
//! closure, drift-model laws, and device read-after-write identity.

mod common;

use mlc_pcm::codec::{enumerative::EnumerativeCode, gray, permutation, three_on_two};
use mlc_pcm::core::drift::DriftTrajectory;
use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::math::special as sf;
use mlc_pcm::ecc::{bch::Bch, bitvec::BitVec};
use mlc_pcm::wearout::mark_spare::MarkSpareCodec;
use proptest::collection::vec;
use proptest::prelude::*;

fn bitvec_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    vec(any::<bool>(), len).prop_map(|bools| BitVec::from_bools(&bools))
}

/// One noisy lane per `(weight, shortened)` pair for the code `(m, t)`
/// over `data_bits`: `weight` distinct flips in the used positions plus
/// `shortened` distinct error positions past them, folded into the
/// parity as their remainders `x^e mod g` so the received word carries
/// their syndromes (σ then has roots in the shortened region). Decodes
/// every lane through `decode`, `decode_reference` and one
/// `decode_batch` call, and requires identical results and bits.
fn assert_decoders_agree(m: u32, t: usize, data_bits: usize, seed: u64, lanes: &[(usize, usize)]) {
    let bch = Bch::new(m, t);
    let pb = bch.parity_bits();
    let used = pb + data_bits;
    let n = bch.n();
    let mut x = seed | 1;
    let mut next = |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let mut noisy_d = Vec::new();
    let mut noisy_p = Vec::new();
    for &(weight, shortened) in lanes {
        let bits: Vec<bool> = (0..data_bits).map(|_| next(2) == 1).collect();
        let mut d = BitVec::from_bools(&bits);
        let mut p = bch.encode(&d);
        let mut flips = std::collections::BTreeSet::new();
        while flips.len() < weight.min(used) {
            flips.insert(next(used));
        }
        for &e in &flips {
            if e < pb {
                p.toggle(e);
            } else {
                d.toggle(e - pb);
            }
        }
        let mut outside = std::collections::BTreeSet::new();
        while outside.len() < shortened.min(n - used) {
            outside.insert(used + next(n - used));
        }
        for &e in &outside {
            let mut unit = BitVec::zeros(e - pb + 1);
            unit.set(e - pb, true);
            p.xor_assign(&bch.encode(&unit));
        }
        noisy_d.push(d);
        noisy_p.push(p);
    }
    let (mut ref_d, mut ref_p) = (noisy_d.clone(), noisy_p.clone());
    let want: Vec<_> = ref_d
        .iter_mut()
        .zip(ref_p.iter_mut())
        .map(|(d, p)| bch.decode_reference(d, p))
        .collect();
    let (mut dec_d, mut dec_p) = (noisy_d.clone(), noisy_p.clone());
    let got: Vec<_> = dec_d
        .iter_mut()
        .zip(dec_p.iter_mut())
        .map(|(d, p)| bch.decode(d, p))
        .collect();
    let tag = format!("({m},{t})/{data_bits} lanes {lanes:?}");
    assert_eq!(got, want, "decode results, {tag}");
    assert_eq!(dec_d, ref_d, "decode data, {tag}");
    assert_eq!(dec_p, ref_p, "decode parity, {tag}");
    let (mut bat_d, mut bat_p) = (noisy_d, noisy_p);
    let batch = bch.decode_batch(&mut bat_d, &mut bat_p);
    assert_eq!(batch, want, "decode_batch results, {tag}");
    assert_eq!(bat_d, ref_d, "decode_batch data, {tag}");
    assert_eq!(bat_p, ref_p, "decode_batch parity, {tag}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- codecs ----------------

    #[test]
    fn three_on_two_roundtrip(data in bitvec_strategy(512)) {
        let trits = three_on_two::encode_block(&data);
        prop_assert_eq!(trits.len(), 342);
        let (decoded, inv) = three_on_two::decode_block(&trits, 512);
        prop_assert_eq!(decoded, data);
        prop_assert!(inv.iter().all(|&f| !f));
    }

    #[test]
    fn gray_roundtrip_and_single_bit_property(data in bitvec_strategy(512), cell in 0usize..256) {
        let mut states = gray::encode_block(&data);
        prop_assert_eq!(gray::decode_block(&states, 512), data.clone());
        // A one-step drift error flips exactly one decoded bit.
        if states[cell] < 3 {
            states[cell] += 1;
            let corrupted = gray::decode_block(&states, 512);
            prop_assert_eq!(corrupted.hamming_distance(&data), 1);
        }
    }

    #[test]
    fn smart_encode_is_invertible(states in vec(0usize..4, 256)) {
        let mut transformed = states.clone();
        let tag = mlc_pcm::codec::smart::encode_block(&mut transformed);
        mlc_pcm::codec::smart::decode_block(&mut transformed, tag);
        prop_assert_eq!(transformed, states);
    }

    #[test]
    fn permutation_rank_unrank(v in 0u16..2048) {
        let perm = permutation::encode(v);
        prop_assert_eq!(permutation::rank(&perm), Ok(v));
        // Analog decode of exact levels agrees.
        let levels: Vec<f64> = perm.iter().map(|&r| 3.0 + 0.45 * r as f64).collect();
        let arr: [f64; 7] = levels.try_into().unwrap();
        prop_assert_eq!(permutation::decode_analog(&arr), Ok(v));
    }

    #[test]
    fn enumerative_roundtrip(base in 3u8..=6, data in bitvec_strategy(128)) {
        let code = EnumerativeCode::new(base, 4);
        let symbols = code.encode_block(&data);
        prop_assert_eq!(code.decode_block(&symbols, 128), Some(data));
    }

    // ---------------- ECC ----------------

    #[test]
    fn bch_corrects_any_pattern_up_to_t(
        data in bitvec_strategy(512),
        flips in proptest::collection::btree_set(0usize..612, 0..=5),
    ) {
        let bch = Bch::new(10, 5);
        let parity = bch.encode(&data);
        let pb = bch.parity_bits(); // 50 for t = 5
        let mut d = data.clone();
        let mut p = parity.clone();
        let flips: std::collections::BTreeSet<usize> =
            flips.into_iter().map(|e| e % (pb + 512)).collect();
        for &e in &flips {
            if e < pb { p.toggle(e); } else { d.toggle(e - pb); }
        }
        let n = bch.decode(&mut d, &mut p).unwrap();
        prop_assert_eq!(n, flips.len());
        prop_assert_eq!(d, data);
        prop_assert_eq!(p, parity);
    }

    #[test]
    fn bch_never_silently_corrupts_with_double_t(
        data in bitvec_strategy(256),
        flips in proptest::collection::btree_set(0usize..276, 4..=4),
    ) {
        // t = 2 code facing 4 errors: either detected or corrected onto a
        // *valid* codeword (classic miscorrection); re-encoding the
        // decoder's output must then be self-consistent.
        let bch = Bch::new(10, 2);
        let parity = bch.encode(&data);
        let mut d = data.clone();
        let mut p = parity.clone();
        for &e in &flips {
            if e < 20 { p.toggle(e); } else { d.toggle(e - 20); }
        }
        if bch.decode(&mut d, &mut p).is_ok() {
            prop_assert_eq!(bch.encode(&d), p, "decoder output must be a codeword");
        }
    }

    #[test]
    fn bch_decode_matches_reference_and_batch(
        seed in any::<u64>(),
        weights in vec(0usize..=23, 6),
        shortened in vec(0usize..=3, 6),
    ) {
        // decode ≡ decode_reference ≡ decode_batch, results and corrected
        // bits, on the paper's codes (BCH-1 over the 708-bit 3LC word,
        // BCH-10 over the 512-bit 4LC block), a (10,4)/128 code and the
        // unshortened (5,2)/21 code. Weights run 0..=2t+3, and some lanes
        // put error positions in the shortened region.
        for (m, t, bits) in [(10u32, 1usize, 708usize), (10, 10, 512), (10, 4, 128), (5, 2, 21)] {
            let lanes: Vec<(usize, usize)> = weights
                .iter()
                .zip(&shortened)
                .map(|(&w, &s)| (w % (2 * t + 4), s))
                .collect();
            assert_decoders_agree(m, t, bits, seed ^ (m as u64) << 32 ^ t as u64, &lanes);
        }
    }

    #[test]
    fn bch_decode_matches_reference_at_random_lengths(
        seed in any::<u64>(),
        weights in vec(0usize..=13, 6),
        shortened in vec(0usize..=2, 6),
        length in any::<u64>(),
    ) {
        // decode ≡ decode_reference, results and corrected bits, at
        // weights 0..=t+3 (the one-error, two-error and general paths,
        // and words past capacity) and a random shortened data length,
        // for BCH-10/512, BCH-2, (8,3)/120 and the 3LC word's BCH-1/708.
        let bch2_max = Bch::new(10, 2).max_data_bits();
        for (m, t, max_bits) in [(10u32, 10usize, 512usize), (10, 2, bch2_max), (8, 3, 120), (10, 1, 708)] {
            let bits = (length % (max_bits as u64 + 1)) as usize;
            let lanes: Vec<(usize, usize)> = weights
                .iter()
                .zip(&shortened)
                .map(|(&w, &s)| (w % (t + 4), s))
                .collect();
            assert_decoders_agree(m, t, bits, seed ^ (m as u64) << 32 ^ t as u64, &lanes);
        }
    }

    #[test]
    fn bch1_corrects_any_single_error(
        data in bitvec_strategy(708),
        flip in 0usize..718,
    ) {
        // The 3LC block's SEC code (§6.3): BCH-1 over the 708-bit
        // message, 10 parity bits. A flip anywhere in the 718-bit word,
        // parity (0..10) or data (10..718), corrects back to the data.
        let bch = Bch::new(10, 1);
        let parity = bch.encode(&data);
        let pb = bch.parity_bits();
        let mut d = data.clone();
        let mut p = parity.clone();
        if flip < pb { p.toggle(flip); } else { d.toggle(flip - pb); }
        prop_assert_eq!(bch.decode(&mut d, &mut p), Ok(1));
        prop_assert_eq!(d, data);
        prop_assert_eq!(p, parity);
    }

    // ---------------- wearout ----------------

    #[test]
    fn mark_spare_tolerates_any_failure_placement(
        values in vec(0u8..8, 171),
        failed in proptest::collection::btree_set(0usize..177, 0..=6),
    ) {
        let codec = MarkSpareCodec::default();
        let failed: Vec<usize> = failed.into_iter().collect();
        let pairs = codec.encode_pairs(&values, &failed).unwrap();
        prop_assert_eq!(codec.decode_pairs(&pairs).unwrap(), values.clone());
        prop_assert_eq!(codec.decode_pairs_staged(&pairs).unwrap(), values);
    }

    #[test]
    fn start_gap_translation_stays_bijective(
        n in 2usize..40,
        moves in 0usize..300,
    ) {
        use mlc_pcm::device::StartGap;
        let mut sg = StartGap::new(n, 1);
        for _ in 0..moves {
            sg.note_write().expect("psi = 1 always moves");
            sg.complete_move();
        }
        let mut seen = std::collections::BTreeSet::new();
        for la in 0..n {
            let pa = sg.translate(la);
            prop_assert!(pa <= n);
            prop_assert!(pa != sg.gap());
            prop_assert!(seen.insert(pa), "collision at {pa}");
        }
    }

    #[test]
    fn trace_files_roundtrip_ops(
        records in vec((1u64..1_000_000, any::<bool>(), 0u64..1u64 << 40), 0..50),
    ) {
        use mlc_pcm::sim::FileTrace;
        let mut sorted = records;
        sorted.sort_by_key(|r| r.0);
        let text: String = sorted
            .iter()
            .map(|(i, w, a)| format!("{i} {} {a}\n", if *w { "W" } else { "R" }))
            .collect();
        let trace = FileTrace::parse(&text, 4096).unwrap();
        prop_assert_eq!(trace.len(), sorted.len());
        for (op, (_, w, a)) in trace.ops().iter().zip(&sorted) {
            prop_assert_eq!(op.is_write, *w);
            prop_assert_eq!(op.block, (a / 64) % 4096);
        }
        // Strictly increasing instruction counts.
        for w in trace.ops().windows(2) {
            prop_assert!(w[1].at_instruction > w[0].at_instruction);
        }
    }

    #[test]
    fn prefix_or_networks_agree(inputs in vec(any::<bool>(), 1..200)) {
        use mlc_pcm::wearout::PrefixOrNetwork;
        let n = inputs.len();
        let r = PrefixOrNetwork::ripple(n).evaluate(&inputs);
        let s = PrefixOrNetwork::sklansky(n).evaluate(&inputs);
        let k = PrefixOrNetwork::kogge_stone(n).evaluate(&inputs);
        prop_assert_eq!(&r, &s);
        prop_assert_eq!(&r, &k);
    }

    // ---------------- drift model ----------------

    #[test]
    fn sense_range_matches_per_cell_sense(
        design_idx in 0usize..6,
        seed in any::<u64>(),
        writes in vec((0usize..96, 0u32..4, 0usize..5), 1..160),
        worn in vec(0usize..96, 0..24),
        age_idx in 0usize..4,
        base in 0usize..96,
    ) {
        use mlc_pcm::device::CellArray;
        use mlc_pcm::wearout::fault::EnduranceModel;
        use mlc_pcm::core::params::StateLabel;
        // One, two and three thresholds (the counts `sense_range` binds in
        // registers, with and without a rate switch) and five levels (its
        // general path).
        let designs = [
            LevelDesign::three_level_naive(),
            mlc_pcm::core::optimize::three_level_optimal().clone(),
            mlc_pcm::core::optimize::four_level_optimal().clone(),
            LevelDesign::two_level(),
            LevelDesign::four_level_naive(),
            LevelDesign::uniform_occupancy(
                "5LC",
                &[StateLabel::S1, StateLabel::S2, StateLabel::S2, StateLabel::S3, StateLabel::S4],
                &[2.0, 3.0, 4.0, 5.0, 6.0],
                &[2.5, 3.5, 4.5, 5.5],
                None,
            ),
        ];
        let d = &designs[design_idx];
        let mut arr = CellArray::new(96, EnduranceModel::mlc(), seed);
        for &c in &worn {
            arr.set_lifetime(c, 1);
        }
        // Writes at a few distinct times, so one range mixes write times
        // (and, below, includes cells written after `now`).
        let times = [0.0, 17.5, 1024.0, 3.0e8];
        for &(c, t, state) in &writes {
            arr.program(c, d, state % d.n_levels(), times[t as usize]);
        }
        let now = [0.0, 1024.0, mlc_pcm::core::params::TEN_YEARS_SECS, 20.0][age_idx];
        let mut out = vec![0u8; 96 - base];
        arr.sense_range(base, d, now, &mut out);
        for (k, &s) in out.iter().enumerate() {
            prop_assert_eq!(usize::from(s), arr.sense(base + k, d, now), "cell {}", base + k);
        }
    }

    #[test]
    fn drift_is_monotone_for_nonnegative_alpha(
        logr0 in 3.0f64..6.0,
        alpha in 0.0f64..0.2,
        t1 in 1.0f64..1e10,
        factor in 1.0f64..1e5,
    ) {
        let tr = DriftTrajectory::simple(logr0, alpha);
        prop_assert!(tr.logr_at(t1 * factor) >= tr.logr_at(t1) - 1e-12);
    }

    #[test]
    fn drift_switch_only_accelerates(
        logr0 in 3.5f64..4.45,
        alpha1 in 0.001f64..0.05,
        alpha2 in 0.06f64..0.2,
        t in 1.0f64..1e12,
    ) {
        let plain = DriftTrajectory::simple(logr0, alpha1);
        let switched = DriftTrajectory::with_switch(logr0, alpha1, 4.5, alpha2);
        prop_assert!(switched.logr_at(t) >= plain.logr_at(t) - 1e-12);
    }

    #[test]
    fn sense_is_order_preserving(
        a in 2.5f64..6.5,
        b in 2.5f64..6.5,
    ) {
        let d = LevelDesign::four_level_naive();
        if a <= b {
            prop_assert!(d.sense(a) <= d.sense(b));
        } else {
            prop_assert!(d.sense(a) >= d.sense(b));
        }
    }

    // ---------------- numerics ----------------

    #[test]
    fn binomial_sf_bounds_and_monotonicity(
        n in 1u64..600,
        k in 0u64..20,
        p in 0.0f64..1.0,
    ) {
        let s = sf::binomial_sf(n, k, p);
        prop_assert!((0.0..=1.0).contains(&s));
        if k + 1 < n {
            prop_assert!(sf::binomial_sf(n, k + 1, p) <= s + 1e-12);
        }
    }

    #[test]
    fn normal_cdf_is_a_cdf(a in -8.0f64..8.0, b in -8.0f64..8.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(sf::normal_cdf(lo) <= sf::normal_cdf(hi) + 1e-15);
        prop_assert!(sf::normal_cdf(lo) >= 0.0 && sf::normal_cdf(hi) <= 1.0);
    }
}

proptest! {
    // Device round-trips are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn device_read_after_write_identity(
        payloads in vec(vec(any::<u8>(), 64), 4),
        age_days in 0u32..3650,
    ) {
        use mlc_pcm::device::{CellOrganization, DeviceBuilder};
        let dev = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(LevelDesign::three_level_naive()))
            .blocks(4)
            .banks(4)
            .seed(9)
            .build_sharded()
            .unwrap();
        for (b, p) in payloads.iter().enumerate() {
            dev.write_block(b, p).unwrap();
        }
        dev.advance_time(age_days as f64 * 86_400.0);
        for (b, p) in payloads.iter().enumerate() {
            prop_assert_eq!(&dev.read_block(b).unwrap().data, p);
        }
    }

    #[test]
    fn sharded_engine_matches_sequential_at_any_thread_count(
        seed in 0u64..1000,
        payloads in vec(vec(any::<u8>(), 64), 8),
        ops in vec((0usize..8, any::<bool>()), 0..40),
    ) {
        // The determinism guarantee: a bank's outcomes are a pure
        // function of its op sequence, so as long as per-bank order is
        // preserved, data AND stats are bit-identical to the same ops
        // issued inline on one thread, no matter how many threads drive
        // the shards.
        use mlc_pcm::device::{CellOrganization, DeviceBuilder};
        const BLOCKS: usize = 8;
        const BANKS: usize = 4;
        let build = || {
            DeviceBuilder::new()
                .organization(CellOrganization::ThreeLevel(
                    LevelDesign::three_level_naive(),
                ))
                .blocks(BLOCKS)
                .banks(BANKS)
                .seed(seed)
        };

        // Inline reference run.
        let seq = build().build_sharded().unwrap();
        for (b, p) in payloads.iter().enumerate() {
            seq.write_block(b, p).unwrap();
        }
        for &(block, is_write) in &ops {
            if is_write {
                seq.write_block(block, &payloads[block]).unwrap();
            } else {
                seq.read_block(block).unwrap();
            }
        }
        let seq_stats = seq.bank_stats();
        let seq_data: Vec<Vec<u8>> =
            (0..BLOCKS).map(|b| seq.read_block(b).unwrap().data).collect();

        for threads in [1usize, 2, 8] {
            let dev = build().build_sharded().unwrap();
            // Thread t owns banks t, t+threads, … — disjoint ownership
            // keeps each bank's op order identical to the inline run.
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let payloads = &payloads;
                    let ops = &ops;
                    let dev = &dev;
                    scope.spawn(move || {
                        let owns = |block: usize| block % BANKS % threads == t;
                        for (b, p) in payloads.iter().enumerate() {
                            if owns(b) {
                                dev.write_block(b, p).unwrap();
                            }
                        }
                        for &(block, is_write) in ops {
                            if !owns(block) {
                                continue;
                            }
                            if is_write {
                                dev.write_block(block, &payloads[block]).unwrap();
                            } else {
                                dev.read_block(block).unwrap();
                            }
                        }
                    });
                }
            });
            prop_assert_eq!(&dev.bank_stats(), &seq_stats, "stats, threads={}", threads);
            for (b, want) in seq_data.iter().enumerate() {
                prop_assert_eq!(
                    &dev.read_block(b).unwrap().data,
                    want,
                    "block {} at threads={}", b, threads
                );
            }
        }
    }

    #[test]
    fn concurrent_scrub_matches_sequential_refresh_path(
        seed in 0u64..1000,
        rounds in vec(vec((0usize..16, any::<bool>()), 0..12), 1..4),
    ) {
        // The scrub determinism rule: scrub-by-cursor, interleaved with
        // demand ops on the scrubbing threads, is bit-identical to the
        // inline scrub-then-demand run whenever the per-bank order of
        // operations matches — here, each round does that bank's due
        // scrubs first, then its demand ops in list order.
        use mlc_pcm::device::{CellOrganization, DeviceBuilder, ShardedPcmDevice};
        const BLOCKS: usize = 16;
        const INTERVAL: f64 = 1.6; // step = 0.1 s: boundaries are exact
        let payload = |b: usize| vec![b as u8 ^ 0x5A; 64];
        let run = |threads: Option<usize>| {
            let dev = DeviceBuilder::new()
                .organization(CellOrganization::ThreeLevel(
                    LevelDesign::three_level_naive(),
                ))
                .blocks(BLOCKS)
                .banks(4)
                .seed(seed)
                .build_sharded()
                .unwrap();
            for b in 0..BLOCKS {
                dev.write_block(b, &payload(b)).unwrap();
            }
            let apply = |dev: &ShardedPcmDevice, &(block, is_write): &(usize, bool)| {
                if is_write {
                    dev.write_block(block, &payload(block)).unwrap();
                } else {
                    dev.read_block(block).unwrap();
                }
            };
            common::run_rounds(&dev, INTERVAL, &rounds, threads, |op| op.0, apply);
            let data: Vec<Vec<u8>> =
                (0..BLOCKS).map(|b| dev.read_block(b).unwrap().data).collect();
            (dev.bank_stats(), dev.metrics().snapshot(), data)
        };
        let want = run(None);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(&run(Some(threads)), &want, "threads={}", threads);
        }
    }
}
