//! Expected-fail fixture for `no-deprecated-internal`.

#[deprecated(since = "0.3.0", note = "use modern_device")] //~ no-deprecated-internal
pub fn legacy_device() -> ShardedPcmDevice {
    modern_device()
}

#[allow(deprecated)] //~ no-deprecated-internal
pub fn calls_legacy() -> ShardedPcmDevice {
    legacy_device()
}

#[deprecated] //~ no-deprecated-internal
pub struct OldHandle;
