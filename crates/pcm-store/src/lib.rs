//! # pcm-store — a KV serving layer on the MLC-PCM device stack
//!
//! The SC'13 prototype is only meaningful as storage if something
//! serves traffic through it. This crate maps a get/put/delete
//! key-value store onto the bank-sharded
//! [`ShardedPcmDevice`](pcm_device::ShardedPcmDevice):
//!
//! * [`page`] — fixed 64-byte pages (one per device block) with a
//!   CRC32-checked header, so a drifted codeword that slips past the
//!   block layer's ECC is still caught before bytes reach a caller;
//! * [`alloc`] — explicit allocation from an in-memory free bitmap
//!   (writes never implicitly allocate); nothing on the device records
//!   free space — a page is free when the directory does not reach it;
//! * [`fsck`] — the reachability walk `open` rebuilds the free bitmap
//!   and the volatile directory from, also exposed as
//!   [`PcmStore::fsck`];
//! * [`directory`] — a hash-directory index at fixed page ids, with
//!   overflow index pages allocated like value pages, and the volatile
//!   in-memory copy of it the store serves lookups from;
//! * [`store`] — [`PcmStore`]: the serving surface, striped bucket
//!   locks over concurrent sessions, every failure a typed
//!   [`StoreError`] (corruption is [`StoreError::CorruptPage`] — the
//!   store never returns unverified bytes);
//! * [`workload`] — a closed-loop, deterministic zipfian workload
//!   generator (YCSB-A/B/C-style mixes) whose op totals are invariant
//!   across thread counts, reporting model-time latency percentiles
//!   through the device's `DeviceMetrics` histograms and emitting
//!   `kv_get`/`kv_put`/`kv_delete` spans into `pcm-trace`.
//!
//! ```
//! use pcm_device::DeviceBuilder;
//! use pcm_store::{PcmStore, StoreConfig};
//!
//! let dev = DeviceBuilder::new().blocks(128).banks(4).seed(7)
//!     .build_sharded().unwrap();
//! let store = PcmStore::format(dev, StoreConfig { dir_buckets: 8, stripes: 4 }).unwrap();
//! store.put(1, b"value").unwrap();
//! assert_eq!(store.get(1).unwrap().as_deref(), Some(&b"value"[..]));
//! assert!(store.delete(1).unwrap());
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod crc;
pub mod directory;
pub mod error;
pub mod fsck;
pub mod page;
pub mod store;
pub mod workload;

pub use alloc::{Allocator, Superblock};
pub use error::StoreError;
pub use fsck::FsckReport;
pub use page::{Page, PageDefect, PageType, NO_PAGE, PAGE_BYTES, PAGE_PAYLOAD_BYTES};
pub use store::{
    pages_for_value, PcmStore, StoreConfig, StoreSession, ANON_KV_STREAM, MAX_VALUE_BYTES,
};
pub use workload::{Mix, OpTotals, PhasedConfig, WorkloadConfig, WorkloadError, WorkloadReport};
