//! Device construction: the named-setter builder is the only way to
//! construct the device engine, [`ShardedPcmDevice`].
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
//! ```

use crate::bank::PcmBank;
use crate::block::{FOUR_LEVEL_BLOCK_CELLS, THREE_LEVEL_BLOCK_CELLS};
use crate::concurrent::ShardedPcmDevice;
use crate::generic_block::GenericBlock;
use pcm_codec::enumerative::EnumerativeCode;
use pcm_core::level::LevelDesign;
use pcm_telemetry::{TelemetryConfig, TelemetryRecorder};
use pcm_trace::{Recorder, TraceConfig};
use pcm_wearout::fault::EnduranceModel;
use std::sync::Arc;

/// Which block organization a device uses.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOrganization {
    /// The paper's 3LCo + 3-ON-2 + mark-and-spare + BCH-1 stack.
    ThreeLevel(LevelDesign),
    /// The 4LCo + Gray(+smart) + BCH-10 + ECP-6 stack.
    FourLevel {
        /// The four-level design (usually `four_level_optimal()`).
        design: LevelDesign,
        /// Enable the §5.1 smart-encoding pass.
        smart: bool,
    },
    /// The §8 generalized K-level stack: enumerative data code + Gray
    /// TEC + marker-state mark-and-spare ([`GenericBlock`]).
    Generic {
        /// The K-level design (K = `code.base()`).
        design: LevelDesign,
        /// The k-bits-in-m-symbols data code.
        code: EnumerativeCode,
        /// Worn groups tolerated per block.
        spare_groups: usize,
        /// BCH correction strength of the TEC.
        tec_strength: usize,
    },
}

impl CellOrganization {
    /// Physical cells one block of this organization occupies.
    pub fn cells_per_block(&self) -> usize {
        match self {
            CellOrganization::ThreeLevel(_) => THREE_LEVEL_BLOCK_CELLS,
            CellOrganization::FourLevel { .. } => FOUR_LEVEL_BLOCK_CELLS,
            CellOrganization::Generic {
                design,
                code,
                spare_groups,
                tec_strength,
            } => GenericBlock::new(design.clone(), *code, 0, *spare_groups, *tec_strength).cells(),
        }
    }

    /// Whether the organization's data design has a §5.3 rate switch.
    pub(crate) fn has_drift_switch(&self) -> bool {
        let (CellOrganization::ThreeLevel(design)
        | CellOrganization::FourLevel { design, .. }
        | CellOrganization::Generic { design, .. }) = self;
        design.drift_switch.is_some()
    }
}

/// A rejected device configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `blocks` was zero.
    ZeroBlocks,
    /// `banks` was zero.
    ZeroBanks,
    /// Low-order interleaving requires `blocks % banks == 0`.
    BlocksNotDivisibleByBanks {
        /// Requested block count.
        blocks: usize,
        /// Requested bank count.
        banks: usize,
    },
    /// A [`CellOrganization::Generic`] stack the block layer cannot
    /// realize (base mismatch, missing spare codeword, or a TEC message
    /// that does not fit the BCH code).
    InvalidOrganization {
        /// What the block layer rejected.
        reason: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBlocks => write!(f, "device needs at least one block"),
            ConfigError::ZeroBanks => write!(f, "device needs at least one bank"),
            ConfigError::BlocksNotDivisibleByBanks { blocks, banks } => write!(
                f,
                "block count {blocks} is not divisible by bank count {banks} \
                 (low-order interleaving needs equal banks)"
            ),
            ConfigError::InvalidOrganization { reason } => {
                write!(f, "invalid cell organization: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ShardedPcmDevice`].
///
/// Defaults: the paper's proposed 3LCo organization, 16 blocks, 4 banks,
/// seed 0, MLC endurance.
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    organization: CellOrganization,
    blocks: usize,
    banks: usize,
    seed: u64,
    endurance: EnduranceModel,
    trace: Option<TraceConfig>,
    telemetry: Option<TelemetryConfig>,
}

impl Default for DeviceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceBuilder {
    /// A builder with the default configuration.
    pub fn new() -> Self {
        Self {
            organization: CellOrganization::ThreeLevel(LevelDesign::three_level_naive()),
            blocks: 16,
            banks: 4,
            seed: 0,
            endurance: EnduranceModel::mlc(),
            trace: None,
            telemetry: None,
        }
    }

    /// Block organization (3LC stack, 4LC stack, or generic K-level).
    pub fn organization(mut self, org: CellOrganization) -> Self {
        self.organization = org;
        self
    }

    /// Number of 64-byte blocks.
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Number of banks (must divide `blocks`).
    pub fn banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Base RNG seed; bank `i` draws from the independent stream
    /// `stream_seed(seed, i)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Endurance model (defaults to MLC; SLC for accelerated studies).
    pub fn endurance(mut self, endurance: EnduranceModel) -> Self {
        self.endurance = endurance;
        self
    }

    /// Enable deterministic model-time event tracing: the device (and
    /// every handle derived from it — sessions, scrubbers and their
    /// per-bank cursors) records into a shared per-bank
    /// ring buffer reachable via `tracer().buffer()`. Without this,
    /// tracing costs one branch per operation.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Enable deterministic model-time telemetry: `advance_time` claims
    /// integer sample ticks and records per-bank counter deltas into
    /// ring-buffered series reachable via `telemetry()`. Without this,
    /// telemetry costs one `Option` check per clock advance.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Check the configuration without building.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.blocks == 0 {
            return Err(ConfigError::ZeroBlocks);
        }
        if self.banks == 0 {
            return Err(ConfigError::ZeroBanks);
        }
        if !self.blocks.is_multiple_of(self.banks) {
            return Err(ConfigError::BlocksNotDivisibleByBanks {
                blocks: self.blocks,
                banks: self.banks,
            });
        }
        if let CellOrganization::Generic {
            design,
            code,
            spare_groups,
            tec_strength,
        } = &self.organization
        {
            GenericBlock::check_config(design, code, *spare_groups, *tec_strength)
                .map_err(|reason| ConfigError::InvalidOrganization { reason })?;
        }
        Ok(())
    }

    fn build_banks(&self) -> Result<Vec<PcmBank>, ConfigError> {
        self.validate()?;
        let per_bank = self.blocks / self.banks;
        Ok((0..self.banks)
            .map(|id| PcmBank::new(&self.organization, id, per_bank, self.seed, self.endurance))
            .collect())
    }

    fn recorder(&self) -> Recorder {
        match &self.trace {
            Some(config) => Recorder::buffered(self.banks, config),
            None => Recorder::disabled(),
        }
    }

    fn telemetry_recorder(&self) -> Option<Arc<TelemetryRecorder>> {
        self.telemetry
            .as_ref()
            .map(|config| Arc::new(TelemetryRecorder::new(self.banks, config.clone())))
    }

    /// Build the lock-sharded device engine.
    pub fn build_sharded(self) -> Result<ShardedPcmDevice, ConfigError> {
        Ok(ShardedPcmDevice::from_banks(
            self.build_banks()?,
            self.recorder(),
            self.telemetry_recorder(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let dev = DeviceBuilder::new().build_sharded().unwrap();
        assert_eq!(dev.blocks(), 16);
        assert_eq!(dev.banks(), 4);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert_eq!(
            DeviceBuilder::new().blocks(0).build_sharded().err(),
            Some(ConfigError::ZeroBlocks)
        );
        assert_eq!(
            DeviceBuilder::new().banks(0).build_sharded().err(),
            Some(ConfigError::ZeroBanks)
        );
        assert_eq!(
            DeviceBuilder::new()
                .blocks(10)
                .banks(4)
                .build_sharded()
                .err(),
            Some(ConfigError::BlocksNotDivisibleByBanks {
                blocks: 10,
                banks: 4
            })
        );
    }

    #[test]
    fn rejects_unrealizable_generic_organization() {
        use pcm_codec::enumerative::EnumerativeCode;
        // A 3-level design cannot carry a base-4 enumerative code.
        let err = DeviceBuilder::new()
            .organization(CellOrganization::Generic {
                design: LevelDesign::three_level_naive(),
                code: EnumerativeCode::new(4, 5),
                spare_groups: 0,
                tec_strength: 1,
            })
            .build_sharded()
            .err();
        assert_eq!(
            err,
            Some(ConfigError::InvalidOrganization {
                reason: "the data code's base must match the level design"
            })
        );
    }

    #[test]
    fn config_error_displays() {
        let e = ConfigError::BlocksNotDivisibleByBanks {
            blocks: 10,
            banks: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("10") && msg.contains('4'), "{msg}");
    }

    #[test]
    fn same_config_builds_identical_devices() {
        use pcm_core::level::LevelDesign;
        let config = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(8)
            .banks(2)
            .seed(33);
        let a = config.clone().build_sharded().unwrap();
        let b = config
            .endurance(EnduranceModel::mlc())
            .build_sharded()
            .unwrap();
        let data = vec![0xC3u8; 64];
        let ra = a.write_block(5, &data).unwrap();
        let rb = b.write_block(5, &data).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.read_block(5).unwrap(), b.read_block(5).unwrap());
    }
}
