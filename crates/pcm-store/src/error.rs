//! The store's error type and its mapping onto the device hierarchy.
//!
//! Policy: anything that means "the stored bytes cannot be trusted" —
//! a CRC mismatch, a malformed header, a dangling chain pointer, or an
//! uncorrectable device read under a data/index page — surfaces as
//! [`StoreError::CorruptPage`] naming the page. The store never returns
//! value bytes that failed verification. Everything else (write
//! failures, wearout exhaustion, addressing bugs) passes through as the
//! unified [`pcm_device::Error`].

use crate::page::PageDefect;
use pcm_device::{BlockError, PcmError};

/// Any error a store operation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A page failed verification; its contents were not returned.
    CorruptPage {
        /// The page (= device block) that failed.
        page: u32,
        /// What failed.
        defect: PageDefect,
    },
    /// A device-layer failure (wraps the unified device error).
    Device(pcm_device::Error),
    /// No free page is left.
    StoreFull,
    /// The value does not fit the page-chain limit.
    ValueTooLarge {
        /// Offered value length.
        len: usize,
        /// Maximum supported length.
        max: usize,
    },
    /// The device is too small for the requested store geometry.
    TooSmall {
        /// Pages the geometry needs.
        needed: usize,
        /// Pages (blocks) the device has.
        have: usize,
    },
    /// The superblock is valid but from an incompatible format version.
    BadVersion(u32),
    /// An invalid workload configuration (rejected before any device op).
    Workload(crate::workload::WorkloadError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::CorruptPage { page, defect } => {
                write!(f, "page {page} is corrupt: {defect}")
            }
            StoreError::Device(e) => write!(f, "device error: {e}"),
            StoreError::StoreFull => write!(f, "store is full (no free pages)"),
            StoreError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the {max}-byte limit")
            }
            StoreError::TooSmall { needed, have } => write!(
                f,
                "device has {have} blocks but the store layout needs {needed}"
            ),
            StoreError::BadVersion(v) => write!(f, "unsupported store format version {v}"),
            StoreError::Workload(e) => write!(f, "invalid workload: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Device(e) => Some(e),
            StoreError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::workload::WorkloadError> for StoreError {
    fn from(e: crate::workload::WorkloadError) -> Self {
        StoreError::Workload(e)
    }
}

impl From<pcm_device::Error> for StoreError {
    fn from(e: pcm_device::Error) -> Self {
        StoreError::Device(e)
    }
}

impl From<PcmError> for StoreError {
    fn from(e: PcmError) -> Self {
        StoreError::Device(pcm_device::Error::Device(e))
    }
}

/// Classify a device read failure under page `page`: an uncorrectable
/// block is corruption of that page; anything else is a device error.
pub(crate) fn read_failure(page: u32, e: PcmError) -> StoreError {
    match e {
        PcmError::Block(BlockError::Uncorrectable) => StoreError::CorruptPage {
            page,
            defect: PageDefect::Unreadable,
        },
        other => other.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_and_sources() {
        let e = StoreError::CorruptPage {
            page: 7,
            defect: PageDefect::BadCrc,
        };
        assert!(e.to_string().contains("page 7"));
        assert!(e.source().is_none());

        let e: StoreError = PcmError::Block(BlockError::WriteFailed).into();
        assert!(matches!(e, StoreError::Device(_)));
        assert!(e.source().is_some());
    }

    #[test]
    fn uncorrectable_reads_become_corrupt_pages() {
        let e = read_failure(3, PcmError::Block(BlockError::Uncorrectable));
        assert!(matches!(
            e,
            StoreError::CorruptPage {
                page: 3,
                defect: PageDefect::Unreadable
            }
        ));
        let e = read_failure(3, PcmError::Block(BlockError::WriteFailed));
        assert!(matches!(e, StoreError::Device(_)));
    }
}
