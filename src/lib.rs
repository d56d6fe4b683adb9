//! # mlc-pcm — Practical Nonvolatile Multilevel-Cell Phase Change Memory
//!
//! A from-scratch Rust reproduction of *Yoon, Chang, Schreiber, Jouppi —
//! "Practical Nonvolatile Multilevel-Cell Phase Change Memory", SC 2013*:
//! the resistance-drift models, the three-level-cell (3LC) proposal, the
//! 3-ON-2 ternary encoding, the mark-and-spare wearout mechanism, the BCH
//! error-correction stack, a functional device simulator, and the
//! performance/energy evaluation of refresh overheads.
//!
//! This crate is a facade: it re-exports the workspace's crates so
//! applications depend on one name.
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | drift law, level designs, Monte-Carlo/analytic cell error rates, mapping optimizer, BLER/retention analysis |
//! | [`ecc`] | GF(2^m), BCH encode/decode, Hamming, FO4 latency model |
//! | [`codec`] | 3-ON-2, Gray/TEC mappings, smart encoding, permutation coding, enumerative codes |
//! | [`wearout`] | endurance/stuck-at faults, mark-and-spare, ECP, prefix-OR networks, capacity accounting |
//! | [`device`] | cell arrays, full 3LC/4LC block datapaths, the banked device engine, scrub |
//! | [`sim`] | trace-driven performance & energy simulation (Figure 16) |
//! | [`trace`] | deterministic model-time event tracing (ring buffers, JSONL/Chrome exporters) |
//! | [`telemetry`] | model-time series sampling, per-bank drift-risk estimators, `obs-report` analyzer |
//! | [`store`] | KV serving layer: CRC-checked pages, reachability-defined free space, hash directory, deterministic YCSB-style workloads |
//!
//! ## Quickstart
//!
//! ```
//! use mlc_pcm::device::{CellOrganization, DeviceBuilder};
//! use mlc_pcm::core::level::LevelDesign;
//!
//! // A three-level-cell device: genuinely nonvolatile MLC-PCM.
//! let dev = DeviceBuilder::new()
//!     .organization(CellOrganization::ThreeLevel(LevelDesign::three_level_naive()))
//!     .blocks(16)
//!     .banks(4)
//!     .seed(1)
//!     .build_sharded()
//!     .unwrap();
//! dev.write_block(0, &[0x42u8; 64]).unwrap();
//! dev.advance_time(10.0 * 365.25 * 86_400.0); // ten years unpowered
//! assert_eq!(dev.read_block(0).unwrap().data, vec![0x42u8; 64]);
//! ```
//!
//! ## Concurrent access
//!
//! The device is bank-sharded: every operation takes `&self` and locks
//! only its block's bank, and a bank's outcomes depend only on its own
//! operation order — so shared references drop straight into scoped
//! threads, with results independent of the thread count:
//!
//! ```
//! use mlc_pcm::device::DeviceBuilder;
//!
//! let dev = DeviceBuilder::new().blocks(16).banks(4).build_sharded().unwrap();
//! std::thread::scope(|scope| {
//!     for t in 0..4 {
//!         let dev = &dev;
//!         scope.spawn(move || {
//!             dev.write_block(t, &[t as u8; 64]).unwrap();
//!         });
//!     }
//! });
//! assert_eq!(dev.read_block(2).unwrap().data, vec![2u8; 64]);
//! ```

pub use pcm_codec as codec;
pub use pcm_core as core;
pub use pcm_device as device;
pub use pcm_ecc as ecc;
pub use pcm_sim as sim;
pub use pcm_store as store;
pub use pcm_telemetry as telemetry;
pub use pcm_trace as trace;
pub use pcm_wearout as wearout;
