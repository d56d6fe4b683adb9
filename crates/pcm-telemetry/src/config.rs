//! Telemetry configuration: the sampling cadence and series capacity.
//!
//! Everything here is integers: the cadence is a fixed number of model
//! nanoseconds between samples, so the `no-float-tick` lint holds by
//! construction.

/// Telemetry layer configuration, handed to
/// `DeviceBuilder::telemetry` (pcm-device) or used directly with
/// [`TelemetryRecorder::new`](crate::TelemetryRecorder::new).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Model nanoseconds between samples. Sample `k` (1-based) is due
    /// at exactly `k * sample_interval_ns`. Clamped to at least 1.
    pub sample_interval_ns: u64,
    /// Ring capacity of each per-bank series: once full, the oldest
    /// sample is overwritten and the bank's dropped counter advances.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_interval_ns: 1_000_000,
            capacity: 1024,
        }
    }
}

impl TelemetryConfig {
    /// A config sampling every `sample_interval_ns` model nanoseconds,
    /// defaults elsewhere.
    pub fn new(sample_interval_ns: u64) -> Self {
        Self {
            sample_interval_ns,
            ..Self::default()
        }
    }

    /// Builder-style capacity override.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// The interval with the at-least-1 clamp applied.
    pub fn interval_ns(&self) -> u64 {
        self.sample_interval_ns.max(1)
    }

    /// The capacity with the at-least-1 clamp applied.
    pub fn ring_capacity(&self) -> usize {
        self.capacity.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TelemetryConfig::default();
        assert_eq!(c.interval_ns(), 1_000_000);
        assert_eq!(c.ring_capacity(), 1024);
    }

    #[test]
    fn clamps_guard_degenerate_configs() {
        let c = TelemetryConfig::new(0).with_capacity(0);
        assert_eq!(c.interval_ns(), 1);
        assert_eq!(c.ring_capacity(), 1);
    }

    #[test]
    fn builder_style_overrides_compose() {
        let c = TelemetryConfig::new(500).with_capacity(8);
        assert_eq!(c.sample_interval_ns, 500);
        assert_eq!(c.capacity, 8);
    }
}
