//! The workspace-wide device error types.
//!
//! Two layers:
//!
//! * [`PcmError`] wraps the operation-path errors ([`BlockError`],
//!   [`ConfigError`], out-of-range addressing, an exhausted remap
//!   reserve) behind one
//!   `std::error::Error` implementation, so callers match on a single
//!   `#[non_exhaustive]` enum instead of per-layer types — and new
//!   failure classes can be added without breaking downstream matches.
//! * [`Error`] is the crate's single public error hierarchy: every
//!   fallible surface of pcm-device — construction ([`ConfigError`]),
//!   operation ([`PcmError`]), and trace decoding
//!   ([`pcm_trace::TraceDecodeError`], re-exported here since pcm-device
//!   re-exports the tracing vocabulary) — folds into it via `From`, so
//!   external consumers such as `pcm-store` propagate one type with `?`.
//!   The inner types stay reachable as variants, not duplicates.

use crate::block::BlockError;
use crate::builder::ConfigError;
use pcm_trace::TraceDecodeError;

/// Any error a PCM device operation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcmError {
    /// A block datapath failure (uncorrectable read, exhausted wearout
    /// tolerance, unverifiable write).
    Block(BlockError),
    /// A rejected device configuration.
    Config(ConfigError),
    /// A block address outside the device.
    BlockOutOfRange {
        /// The requested block.
        block: usize,
        /// The device's block count.
        blocks: usize,
    },
    /// A [`RemappedDevice`](crate::remap::RemappedDevice) had no reserve
    /// block left to retire a worn-out block into: device end of life.
    ReserveExhausted,
}

impl PcmError {
    /// `Ok` when `block < blocks`, else [`PcmError::BlockOutOfRange`] —
    /// the bounds check the wrappers run before touching any state.
    pub(crate) fn check_block(block: usize, blocks: usize) -> Result<(), PcmError> {
        if block < blocks {
            Ok(())
        } else {
            Err(PcmError::BlockOutOfRange { block, blocks })
        }
    }
}

impl std::fmt::Display for PcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcmError::Block(e) => write!(f, "block datapath error: {e}"),
            PcmError::Config(e) => write!(f, "device configuration error: {e}"),
            PcmError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range (device has {blocks} blocks)")
            }
            PcmError::ReserveExhausted => write!(f, "remap reserve pool exhausted"),
        }
    }
}

impl std::error::Error for PcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcmError::Block(e) => Some(e),
            PcmError::Config(e) => Some(e),
            PcmError::BlockOutOfRange { .. } | PcmError::ReserveExhausted => None,
        }
    }
}

impl From<BlockError> for PcmError {
    fn from(e: BlockError) -> Self {
        PcmError::Block(e)
    }
}

impl From<ConfigError> for PcmError {
    fn from(e: ConfigError) -> Self {
        PcmError::Config(e)
    }
}

/// The unified public error for everything pcm-device can fail at.
///
/// `pcm-store` and other downstream callers match on (or simply
/// propagate) this single type; the layer-specific enums remain
/// reachable as variants for callers that need the detail. `From` impls
/// exist for each inner type, so `?` converts automatically.
///
/// Note: a [`ConfigError`] arriving through a [`PcmError::Config`] stays
/// wrapped as [`Error::Device`]; [`Error::Config`] is the construction
/// path. Match `Error::Config(_) | Error::Device(PcmError::Config(_))`
/// when the distinction does not matter.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A rejected device configuration (construction path).
    Config(ConfigError),
    /// A device operation failure (read/write/refresh/addressing).
    Device(PcmError),
    /// A malformed JSONL trace fed back into the trace parser.
    Trace(TraceDecodeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(e) => write!(f, "configuration: {e}"),
            Error::Device(e) => write!(f, "device: {e}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Device(e) => Some(e),
            Error::Trace(e) => Some(e),
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<PcmError> for Error {
    fn from(e: PcmError) -> Self {
        Error::Device(e)
    }
}

impl From<TraceDecodeError> for Error {
    fn from(e: TraceDecodeError) -> Self {
        Error::Trace(e)
    }
}

impl From<BlockError> for Error {
    fn from(e: BlockError) -> Self {
        Error::Device(PcmError::Block(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_and_sources() {
        let e: PcmError = BlockError::Uncorrectable.into();
        assert!(e.to_string().contains("uncorrectable"));
        assert!(e.source().is_some());

        let e: PcmError = ConfigError::ZeroBanks.into();
        assert!(matches!(e, PcmError::Config(_)));
        assert!(e.source().is_some());

        let e = PcmError::BlockOutOfRange {
            block: 99,
            blocks: 16,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.source().is_none());
    }

    #[test]
    fn unified_error_folds_every_layer() {
        let config: super::Error = ConfigError::ZeroBanks.into();
        assert!(matches!(config, super::Error::Config(_)));
        assert!(config.source().is_some());
        assert!(config.to_string().contains("configuration"));

        let device: super::Error = PcmError::from(BlockError::Uncorrectable).into();
        assert!(matches!(
            device,
            super::Error::Device(PcmError::Block(BlockError::Uncorrectable))
        ));
        assert!(device.to_string().contains("uncorrectable"));

        let block: super::Error = BlockError::WearoutExhausted.into();
        assert!(matches!(block, super::Error::Device(PcmError::Block(_))));

        let trace: super::Error = TraceDecodeError {
            line: 3,
            what: "missing field",
        }
        .into();
        assert!(trace.source().is_some());
        assert!(trace.to_string().contains("line 3"));
    }
}
