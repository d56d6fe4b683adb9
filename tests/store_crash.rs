//! Corruption-safety and allocator-soundness properties of the store.
//!
//! 1. A store reopened over a device with injected bit errors either
//!    returns the correct value or a typed `CorruptPage` error — it
//!    never silently returns wrong bytes (the page CRC sits above the
//!    block stack's ECC precisely for errors that slip through).
//! 2. The allocator never hands the same page to two chains, no matter
//!    how many concurrent sessions hammer put/delete: after every round
//!    `fsck` finds every page reached at most once, the in-memory free
//!    count equal to the walked one, and the volatile directory equal to
//!    the one it rebuilds from the media.
//! 3. Free space is whatever the directory does not reach, so reopening
//!    after any op — a full store's failed put included — rebuilds the
//!    free count the live store had.

use mlc_pcm::core::rng::Xoshiro256pp;
use mlc_pcm::device::{DeviceBuilder, ShardedPcmDevice};
use mlc_pcm::store::workload::value_for;
use mlc_pcm::store::{PcmStore, StoreConfig, StoreError};
use proptest::prelude::*;
use std::collections::BTreeMap;

const BLOCKS: usize = 256;
const BANKS: usize = 4;

fn device(seed: u64) -> ShardedPcmDevice {
    DeviceBuilder::new()
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .build_sharded()
        .unwrap()
}

fn preload(store: &PcmStore, keys: u64, value_bytes: usize) {
    for k in 0..keys {
        store.put(k, &value_for(k, value_bytes)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flip one bit anywhere on the device, reopen, and read every key:
    /// each get must yield the original bytes or a typed store error.
    #[test]
    fn injected_bit_errors_never_yield_wrong_values(
        seed in 0u64..8,
        keys in 4u64..20,
        target in 0usize..BLOCKS,
        byte in 0usize..64,
        bit in 0u8..8,
    ) {
        let value_bytes = 70; // two pages per value
        let dev = device(seed);
        let store = PcmStore::format(dev, StoreConfig { dir_buckets: 8, stripes: 4 }).unwrap();
        preload(&store, keys, value_bytes);

        // Inject: a post-ECC single-bit error on one stored page.
        let dev = store.into_device();
        let mut raw = dev.read_block(target).unwrap().data;
        raw[byte] ^= 1 << bit;
        dev.write_block(target, &raw).unwrap();

        match PcmStore::open(dev) {
            // Superblock corruption: a typed error at open, never a
            // store that serves garbage.
            Err(StoreError::CorruptPage { page, .. }) => prop_assert_eq!(page, target as u32),
            Err(StoreError::BadVersion(_)) => prop_assert_eq!(target, 0),
            Err(e) => panic!("unexpected open error {e}"),
            Ok(reopened) => {
                for k in 0..keys {
                    match reopened.get(k) {
                        Ok(Some(v)) => prop_assert_eq!(
                            v,
                            value_for(k, value_bytes),
                            "key {} returned wrong bytes",
                            k
                        ),
                        Ok(None) => panic!("preloaded key {k} vanished without an error"),
                        Err(StoreError::CorruptPage { .. }) => {} // typed, expected
                        Err(e) => panic!("untyped failure: {e}"),
                    }
                }
            }
        }
    }
}

/// Concurrent put/delete churn from 1, 2, and 8 sessions: after every
/// round `fsck` must find no page reached twice, no damaged page and a
/// rebuilt directory equal to the live one, the live free count must
/// equal the walked one and survive a reopen, and every
/// surviving key must read back exactly its own bytes (a double
/// allocation would splice one key's page into another's chain, which
/// the per-page key field and CRC would expose).
#[test]
fn free_list_never_double_allocates_under_concurrency() {
    for sessions in [1usize, 2, 8] {
        let dev = device(11 + sessions as u64);
        let mut store = PcmStore::format(
            dev,
            StoreConfig {
                dir_buckets: 8,
                stripes: 4,
            },
        )
        .unwrap();
        let keys_per_session = 6u64;
        let rounds = 25u64;

        for round in 0..rounds {
            std::thread::scope(|s| {
                for t in 0..sessions {
                    let store = &store;
                    s.spawn(move || {
                        let base = t as u64 * keys_per_session;
                        for k in base..base + keys_per_session {
                            // Vary value size so chains grow and shrink,
                            // forcing constant allocator traffic.
                            let len = 20 + ((k + round) % 3) as usize * 44;
                            store.put(k, &value_for(k ^ round, len)).unwrap();
                            if (k + round) % 3 == 0 {
                                store.delete(k).unwrap();
                            }
                        }
                    });
                }
            });
            // Between rounds: the media and the live directory agree.
            let report = store.fsck().unwrap();
            assert!(
                report.is_clean(),
                "{sessions} sessions, round {round}: {report:?}"
            );
            assert_eq!(
                report.free,
                store.free_pages(),
                "{sessions} sessions, round {round}"
            );
        }

        let report = store.fsck().unwrap();
        assert!(report.is_clean(), "{sessions} sessions: {report:?}");
        assert_eq!(report.free, store.free_pages(), "{sessions} sessions");
        // Every key that survived the final round reads back its exact
        // final bytes; a cross-linked chain could not do this.
        let last = rounds - 1;
        for t in 0..sessions as u64 {
            for k in t * keys_per_session..(t + 1) * keys_per_session {
                let len = 20 + ((k + last) % 3) as usize * 44;
                match store.get(k).unwrap() {
                    Some(v) => {
                        assert!(
                            !(k + last).is_multiple_of(3),
                            "deleted key {k} still present"
                        );
                        assert_eq!(v, value_for(k ^ last, len), "key {k} cross-linked");
                    }
                    None => assert!((k + last).is_multiple_of(3), "live key {k} lost"),
                }
            }
        }
        let free = store.free_pages();
        let store = PcmStore::open(store.into_device()).unwrap();
        assert_eq!(store.free_pages(), free, "{sessions} sessions: reopen");
    }
}

/// A seeded put/delete sequence that runs the store full, checked with
/// `fsck` and reopened after every op: the live directory always equals
/// the one rebuilt from the media, each reopen rebuilds exactly the free
/// count the live store had, so no op — a put refused for lack of space included — leaks or
/// double-counts a page, and the reopened store serves the right bytes.
#[test]
fn reopen_after_every_op_keeps_the_free_count() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_F5C4);
    let dev = DeviceBuilder::new()
        .blocks(48)
        .banks(BANKS)
        .seed(5)
        .build_sharded()
        .unwrap();
    let config = StoreConfig {
        dir_buckets: 4,
        stripes: 2,
    };
    let mut store = PcmStore::format(dev, config).unwrap();
    let mut model = BTreeMap::new();
    let mut refused = 0;
    for op in 0..120u64 {
        let key = rng.next_u64() % 24;
        if rng.next_u64().is_multiple_of(4) {
            assert_eq!(store.delete(key).unwrap(), model.remove(&key).is_some());
        } else {
            let value = value_for(key ^ op, (rng.next_u64() % 180) as usize);
            match store.put(key, &value) {
                Ok(()) => {
                    model.insert(key, value);
                }
                Err(StoreError::StoreFull) => refused += 1,
                Err(e) => panic!("op {op}: put of key {key} failed: {e}"),
            }
        }
        let report = store.fsck().unwrap();
        assert!(report.is_clean(), "op {op}: {report:?}");
        assert_eq!(report.free, store.free_pages(), "op {op}");
        let free = store.free_pages();
        store = PcmStore::open_with(store.into_device(), config.stripes).unwrap();
        assert_eq!(
            store.free_pages(),
            free,
            "op {op}: reopen changed the free count"
        );
        assert_eq!(store.get(key).unwrap().as_ref(), model.get(&key), "op {op}");
    }
    assert!(refused > 0, "the sequence never filled the store");
    let report = store.fsck().unwrap();
    assert!(report.is_clean(), "{report:?}");
    for (key, value) in &model {
        assert_eq!(store.get(*key).unwrap().as_ref(), Some(value), "key {key}");
    }
}
