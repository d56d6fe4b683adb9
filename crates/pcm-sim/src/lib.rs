//! # pcm-sim — performance and energy simulation of PCM main memory
//!
//! The §7 evaluation substrate of the SC'13 MLC-PCM reproduction: a
//! trace-driven core + memory-system model that reproduces Figure 16's
//! execution-time / energy / power comparison of the four design points
//! (4LC-REF, 4LC-REF-OPT, 4LC-NO-REF, 3LC).
//!
//! * [`config`] — Table 5 parameters, the four design points, the energy
//!   model, and the scaled device geometry (refresh *op rate* preserved
//!   exactly; see DESIGN.md §3).
//! * [`workload`] — deterministic synthetic traces standing in for
//!   SPEC CPU 2006 + STREAM (the McSim substitution).
//! * [`engine`] — the timing/energy engine: banked PCM, 200 ns reads
//!   plus ECC adders, 1 µs writes, the four-write-window (40 MB/s), and
//!   per-bank refresh interference.
//! * [`report`] — the Figure 16 matrix and headline summaries.
//! * [`parallel`] — the concurrent backend: the same matrix fanned out
//!   across OS threads, bit-identical to the sequential run.
//! * [`trace_report`] — offline analysis of `pcm-trace` JSONL files
//!   (the model behind `cargo run -p xtask -- trace-report`).
//! * [`profile`] — causal request profiling: correlation-id grouping,
//!   per-request latency attribution into named buckets, and folded
//!   flamegraph export (behind `cargo run -p xtask -- profile-report`).
//!
//! ```
//! use pcm_sim::config::{DesignPoint, EnergyModel, SimParams};
//! use pcm_sim::engine::simulate;
//! use pcm_sim::workload::WorkloadProfile;
//!
//! let stream = WorkloadProfile::by_name("STREAM").unwrap();
//! let p = SimParams::default();
//! let e = EnergyModel::default();
//! let slow = simulate(&p, &e, DesignPoint::FourLcRef, stream, 500_000, 1);
//! let fast = simulate(&p, &e, DesignPoint::ThreeLc, stream, 500_000, 1);
//! assert!(fast.exec_time_ns < slow.exec_time_ns);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod parallel;
pub mod profile;
pub mod report;
pub mod trace_file;
pub mod trace_report;
pub mod workload;

pub use config::{DesignPoint, EnergyModel, SimParams};
pub use engine::{simulate, simulate_ops, SimResult};
pub use parallel::{figure16_parallel, simulate_matrix};
pub use profile::{ChildSpan, KindAttribution, LatencyBuckets, Profile, RequestProfile};
pub use report::{figure16, summary_gains, Figure16Bar};
pub use trace_file::{FileTrace, TraceParseError};
pub use trace_report::{analyze, analyze_top, TraceReport};
pub use workload::{AccessPattern, MemOp, TraceGenerator, WorkloadProfile};
