//! FO4 latency model for bit-parallel BCH encoders/decoders (Table 3).
//!
//! The paper sizes its ECC logic with Strukov's area/latency model for
//! bit-parallel BCH decoders \[32\] and reports, for the 64B block:
//!
//! | code    | encode | decode |
//! |---------|--------|--------|
//! | BCH-10  | 18 FO4 | 569 FO4|
//! | BCH-1   | 18 FO4 | 68 FO4 |
//!
//! We reproduce those endpoints with a structural model:
//!
//! * **Encode** — a parity-forest of XOR trees over the k message bits:
//!   depth `ceil(log2 k)` XOR2 stages at 2 FO4 each (log2(512) = 9 → 18
//!   FO4, matching the paper's "the number of message bits is the dominant
//!   factor").
//! * **Decode** — syndrome XOR trees + a bit-parallel key-equation solver
//!   whose critical path scales with t (2t Berlekamp–Massey iterations,
//!   each a GF(2^m) multiply-accumulate) + a combinational Chien/correction
//!   stage. The per-iteration and fixed-stage constants are calibrated to
//!   the two published endpoints; with them the model is exact at t = 1 and
//!   t = 10 and interpolates/extrapolates elsewhere.
//!
//! Only Table 3 consumes these numbers; everything else in the reproduction
//! measures real (software) decode latency with the `math_kernels` gate
//! and perfbench's `ecc.bch10_*` rows.

/// FO4 delay of one XOR2 gate stage (standard-cell rule of thumb).
pub const XOR2_FO4: f64 = 2.0;

/// Encoder latency in FO4 for a k-bit message: XOR-tree depth.
pub fn encode_fo4(message_bits: usize) -> f64 {
    // pcm-lint: allow(no-panic-lib) — contract: latency models need a positive message length
    assert!(message_bits >= 1);
    XOR2_FO4 * (message_bits as f64).log2().ceil()
}

/// Fixed decoder stages (syndrome tree + correction mux) in FO4,
/// calibrated so that `decode_fo4(1, 512) = 68` with the per-iteration
/// cost below.
const DECODE_FIXED_FO4: f64 = 12.0 + 1.0 / 3.0;

/// Key-equation solver cost per corrected bit in FO4 (calibrated so that
/// `decode_fo4(10, 512) = 569`).
const DECODE_PER_T_FO4: f64 = 55.0 + 2.0 / 3.0;

/// Decoder latency in FO4 for a t-bit-correcting BCH over a k-bit message.
///
/// The message length enters through the syndrome/Chien tree depth, which
/// scales as `log2` of the codeword length; the paper's two calibration
/// points share k = 512-ish codewords, so the length correction is applied
/// relative to that baseline.
pub fn decode_fo4(t: usize, message_bits: usize) -> f64 {
    // pcm-lint: allow(no-panic-lib) — contract: latency models need positive t and message length
    assert!(t >= 1 && message_bits >= 1);
    let tree_scale = ((message_bits as f64).log2().ceil()) / 9.0; // baseline log2(512)
    DECODE_FIXED_FO4 * tree_scale + DECODE_PER_T_FO4 * t as f64
}

/// Convert FO4 delays to nanoseconds for a given FO4 delay in picoseconds
/// (the paper's §7 evaluation uses 36.25 ns for BCH-10 at its technology
/// point; `fo4_ps ≈ 63.7` reproduces that).
pub fn fo4_to_ns(fo4: f64, fo4_ps: f64) -> f64 {
    fo4 * fo4_ps / 1000.0
}

/// The FO4 delay (ps) that maps BCH-10's 569 FO4 onto the paper's 36.25 ns
/// read-latency adder (§7).
pub fn calibrated_fo4_ps() -> f64 {
    36.25 * 1000.0 / decode_fo4(10, 512)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_encode_endpoint() {
        // Both BCH-1 and BCH-10 encode a ~512-bit message in 18 FO4.
        assert_eq!(encode_fo4(512), 18.0);
        // The 708-bit 3LC message rounds up one stage.
        assert_eq!(encode_fo4(708), 20.0);
    }

    #[test]
    fn table3_decode_endpoints() {
        assert!((decode_fo4(1, 512) - 68.0).abs() < 0.5);
        assert!((decode_fo4(10, 512) - 569.0).abs() < 0.5);
    }

    #[test]
    fn bch1_is_8x_faster_than_bch10() {
        // The headline Table 3 claim: "8× faster ECC decoding".
        let speedup = decode_fo4(10, 512) / decode_fo4(1, 512);
        assert!(speedup > 8.0, "speedup {speedup}");
    }

    #[test]
    fn decode_monotone_in_t() {
        let mut last = 0.0;
        for t in 1..=16 {
            let d = decode_fo4(t, 512);
            assert!(d > last);
            last = d;
        }
    }

    #[test]
    fn ns_conversion_matches_section7() {
        let ps = calibrated_fo4_ps();
        let ns = fo4_to_ns(decode_fo4(10, 512), ps);
        assert!((ns - 36.25).abs() < 1e-9);
        // BCH-1's adder at the same technology point is ~4.3 ns — the
        // paper budgets 5 ns for the whole 3LC read-path addition (§7).
        let ns1 = fo4_to_ns(decode_fo4(1, 512), ps);
        assert!((3.5..5.0).contains(&ns1), "{ns1}");
    }
}
