//! # pcm-device — a functional MLC-PCM device simulator
//!
//! Integrates every substrate of the SC'13 reproduction into a device you
//! can write bytes to, age, wear out, scrub, and read back:
//!
//! * [`array`](mod@array) — physical cells with real analog state (program-and-verify
//!   outcome, per-cell drift exponents, wear, stuck-at faults).
//! * [`block`] — the two complete 64-byte block datapaths: the proposed
//!   3LC stack (3-ON-2 + mark-and-spare + BCH-1, Figure 9) and the 4LC
//!   baseline (Gray + smart + BCH-10 + ECP-6).
//! * [`bank`] — one bank: a slice of cells, its block datapaths, its
//!   statistics and its own RNG stream.
//! * [`concurrent`] — the device engine, [`ShardedPcmDevice`]: banks
//!   behind per-bank locks and a global drift clock, shared by reference
//!   across threads. Single-threaded use is the same engine driven from
//!   one thread.
//! * [`scrub`] — the integer-tick scrub schedule that makes 4LC usable as
//!   volatile memory (§4.1) — and that the 3LC design gets to switch off —
//!   run inline, fanned out over threads, or as per-bank cursors.
//! * [`metrics`] — per-bank atomic counters and log2 latency histograms,
//!   recorded on every operation.
//!
//! ```
//! use pcm_device::{CellOrganization, DeviceBuilder};
//! use pcm_core::level::LevelDesign;
//!
//! let dev = DeviceBuilder::new()
//!     .organization(CellOrganization::ThreeLevel(LevelDesign::three_level_naive()))
//!     .blocks(16)
//!     .banks(4)
//!     .seed(42)
//!     .build_sharded()
//!     .unwrap();
//! dev.write_block(0, &[0xA5; 64]).unwrap();
//! dev.advance_time(10.0 * 365.25 * 86_400.0);   // ten years, no power
//! assert_eq!(dev.read_block(0).unwrap().data, vec![0xA5; 64]);
//! ```
//!
//! Every operation takes `&self` and locks only its block's bank, so the
//! same device serves many threads (see the [`concurrent`] module docs
//! for the determinism rule):
//!
//! ```
//! use pcm_device::DeviceBuilder;
//!
//! let dev = DeviceBuilder::new().blocks(64).banks(8).build_sharded().unwrap();
//! std::thread::scope(|s| {
//!     for t in 0..4u8 {
//!         let dev = &dev;
//!         s.spawn(move || dev.write_block(t as usize, &[t; 64]).unwrap());
//!     }
//! });
//! assert_eq!(dev.stats().writes, 4);
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod bank;
pub mod block;
pub mod builder;
pub mod concurrent;
pub mod error;
pub mod generic_block;
pub mod metrics;
pub mod remap;
pub mod scrub;
mod trace_hooks;
pub mod wear_level;

pub use array::{CellArray, ProgramOutcome, RangeOutcome};
pub use bank::{DeviceStats, PcmBank};
pub use block::{BlockError, FourLevelBlock, ReadReport, ThreeLevelBlock, WriteReport};
pub use builder::{CellOrganization, ConfigError, DeviceBuilder};
pub use concurrent::ShardedPcmDevice;
pub use error::{Error, PcmError};
pub use generic_block::GenericBlock;
pub use metrics::{BankMetrics, DeviceMetrics, LogHistogram, MetricsSnapshot};
pub use remap::RemappedDevice;
pub use scrub::{BankScrubCursor, RefreshReport, ScrubScheduler, ShardedScrubber};
// The tracing vocabulary, re-exported so device users need not depend
// on pcm-trace directly. The ctx items are the correlation-id scheme
// the profiling layer shares with `pcm-store`.
pub use pcm_trace::{
    ctx_base, ctx_class, ctx_is_index, ctx_seq, ctx_stream, jsonl, pack_ctx, CtxClass, CtxCounter,
    DecodeError, Recorder, TraceConfig, CTX_INDEX_FLAG, NO_CTX,
};
pub use wear_level::{GapMove, StartGap, WearLeveledDevice};

// Telemetry vocabulary, so embedders rarely need a direct
// `pcm-telemetry` dependency (mirrors the `pcm-trace` re-export above).
pub use pcm_telemetry::{TelemetryConfig, TelemetryRecorder, TelemetrySnapshot};
