//! Machine fingerprint, peak memory, and the calibration loop that
//! diagnoses host noise. The calibration time is recorded beside the
//! metrics and never used to rescale them.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process, MiB: `VmHWM` of
/// `/proc/self/status`. (getrusage's `ru_maxrss` would not do: Linux
/// carries the high-water mark of the pre-exec image, here `cargo`, into
/// it.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The CPU's brand string, read with CPUID (no file access).
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// A fixed integer loop over a 512 KiB table: (fastest, median) host
/// µs of 9 repeats. Its drift across runs shows how noisy the host was.
pub fn calibrate() -> (f64, f64) {
    let mut table = vec![0u64; 1 << 16];
    let mut times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = (x as usize) & 0xFFFF;
                table[j] = table[j].wrapping_add(i);
            }
            black_box(&table);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[0], times[times.len() / 2])
}
