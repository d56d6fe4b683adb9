//! Expected-pass fixture for `no-deprecated-internal`: modern builder
//! API, and compat suppressions confined to test code.

pub fn modern_device() -> Result<ShardedPcmDevice, ConfigError> {
    DeviceBuilder::new().blocks(64).banks(8).seed(42).build_sharded()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)]
    fn compat_suppression_is_fine_in_tests() {
        let _ = modern_device();
    }
}
