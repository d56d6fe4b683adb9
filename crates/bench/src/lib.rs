//! Shared helpers for the figure/table reproduction harness (`repro`
//! binary) and the `store_throughput` and `math_kernels` gates.

pub mod experiments;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Where CSV outputs land (created on demand).
pub fn results_dir(base: Option<&str>) -> PathBuf {
    let dir = PathBuf::from(base.unwrap_or("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write rows of a CSV file; header first.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) {
    let mut f = fs::File::create(path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    println!("  -> wrote {}", path.display());
}

/// Pretty scientific-notation formatting used by the console tables.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 0.01 && x.abs() < 1000.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

/// Deterministic pseudo-random 64-byte payload for experiments and demos.
pub fn payload(seed: u8) -> Vec<u8> {
    (0..64u32)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed).rotate_left(3))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats_reasonably() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.5), "0.5000");
        assert_eq!(sci(1.0e-9), "1.00e-9");
        assert_eq!(sci(3.73e-9), "3.73e-9");
    }

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(payload(7), payload(7));
        assert_ne!(payload(7), payload(8));
        assert_eq!(payload(0).len(), 64);
    }
}
