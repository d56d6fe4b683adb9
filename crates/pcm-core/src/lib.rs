//! # pcm-core — MLC-PCM resistance-drift modeling
//!
//! Core library of the reproduction of *Practical Nonvolatile
//! Multilevel-Cell Phase Change Memory* (Yoon, Chang, Schreiber, Jouppi —
//! SC 2013). This crate owns the paper's physical and statistical models:
//!
//! * [`params`] — Table 1 resistance/drift parameters and device geometry.
//! * [`level`] — level designs (4LCn/4LCs/3LCn, and the optimal mappings
//!   via [`optimize`]): nominal resistances, thresholds, occupancies.
//! * [`drift`] — the `R(t) = R0·(t/t0)^α` drift law, including the
//!   conservative 3LC rate switch at 10^4.5 Ω (§5.3).
//! * [`cell`] — the stochastic single-cell write (program-and-verify) and
//!   sense model.
//! * [`cer`] — cell-error-rate estimation: multithreaded Monte Carlo (the
//!   paper's method) and a deterministic quadrature estimator, mutually
//!   cross-validated (Figures 3 and 8).
//! * [`optimize`] — the §5.1 optimal state-mapping problem (Figures 6, 7).
//! * [`bler`] — binomial block-error-rate analysis and BCH sizing
//!   (Figure 5).
//! * [`retention`] — refresh availability (Figure 4), feasibility and
//!   nonvolatility checks.
//! * [`math`], [`rng`] — self-contained numerics and deterministic PRNG.
//!
//! ## Quick taste
//!
//! ```
//! use pcm_core::cer::{AnalyticCer, CerEstimator};
//! use pcm_core::level::LevelDesign;
//!
//! let est = AnalyticCer::default();
//! let four = est.cer(&LevelDesign::four_level_naive(), 1024.0);
//! let three = est.cer(&LevelDesign::three_level_naive(), 1024.0);
//! assert!(three < four * 1e-6); // §5.3: orders of magnitude apart
//! ```

#![warn(missing_docs)]

pub mod bler;
pub mod cell;
pub mod cer;
pub mod drift;
pub mod level;
pub mod math;
pub mod optimize;
pub mod params;
pub mod retention;
pub mod rng;
pub mod sensing;

pub use cell::{
    is_error_at, retention_secs, sense_at, write_cell, write_cell_with_tolerance, WrittenCell,
};
pub use cer::{AnalyticCer, CerEstimator, MonteCarloCer};
pub use drift::DriftTrajectory;
pub use level::{DesignError, DriftSwitch, LevelDesign, LevelState};
pub use optimize::{canonical_designs, four_level_optimal, three_level_optimal, MappingOptimizer};
pub use params::{DeviceGeometry, StateLabel};
pub use rng::Xoshiro256pp;
pub use sensing::SensingScheme;
