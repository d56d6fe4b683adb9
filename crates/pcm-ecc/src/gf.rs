//! Finite-field arithmetic over GF(2^m), 3 ≤ m ≤ 13, via log/antilog
//! tables.
//!
//! BCH codes over GF(2^10) (n = 1023) cover every codeword in the paper:
//! the 512-bit 4LC data block with BCH-10 (§6.6) and the 708-bit 3LC
//! transient-error codeword with BCH-1 (§6.3). Other field sizes support
//! the generalization experiments (§8).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A finite field GF(2^m) with precomputed discrete-log tables.
#[derive(Debug, Clone)]
pub struct GfTables {
    m: u32,
    /// Field size minus one: the multiplicative order, 2^m − 1.
    n: u32,
    log: Vec<u32>,
    alog: Vec<u32>,
}

/// Primitive polynomials (bit i = coefficient of x^i) for m = 3..=13.
const PRIMITIVE_POLYS: [(u32, u32); 11] = [
    (3, 0b1011),
    (4, 0b1_0011),
    (5, 0b10_0101),
    (6, 0b100_0011),
    (7, 0b1000_1001),
    (8, 0b1_0001_1101),
    (9, 0b10_0001_0001),
    (10, 0b100_0000_1001),
    (11, 0b1000_0000_0101),
    (12, 0b1_0000_0101_0011),
    (13, 0b10_0000_0001_1011),
];

/// The process-wide GF-table registry: the declared lock wrapper for
/// the `gf-registry` class (innermost in the workspace lock order —
/// see DESIGN.md §15). The guard never escapes: the map lock is held
/// only long enough to clone or insert an `Arc`.
pub fn gf_registry(m: u32) -> Arc<GfTables> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<u32, Arc<GfTables>>>> = OnceLock::new();
    let map = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.entry(m)
        .or_insert_with(|| Arc::new(GfTables::new(m)))
        .clone()
}

impl GfTables {
    /// Build tables for GF(2^m).
    pub fn new(m: u32) -> Self {
        let poly = PRIMITIVE_POLYS
            .iter()
            .find(|&&(mm, _)| mm == m)
            // pcm-lint: allow(no-panic-lib) — contract: supported m is a compile-time property of the code tables
            .unwrap_or_else(|| panic!("unsupported field GF(2^{m}); supported m = 3..=13"))
            .1;
        let n = (1u32 << m) - 1;
        let mut log = vec![0u32; (n + 1) as usize];
        let mut alog = vec![0u32; 2 * n as usize];
        let mut x = 1u32;
        for i in 0..n {
            alog[i as usize] = x;
            log[x as usize] = i;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        // Double the antilog table so pow/mul can skip a modulo.
        for i in n..2 * n {
            alog[i as usize] = alog[(i - n) as usize];
        }
        Self { m, n, log, alog }
    }

    /// Process-wide shared tables for GF(2^m): built once per field on
    /// first use, then handed out as cheap `Arc` clones. The tables are a
    /// pure function of `m`, so sharing cannot leak state between codes —
    /// it only removes the ~16 KiB log/antilog rebuild from every
    /// constructor call on the hot decode paths.
    pub fn shared(m: u32) -> Arc<GfTables> {
        gf_registry(m)
    }

    /// Field extension degree m.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Multiplicative order 2^m − 1 (the natural BCH code length).
    pub fn order(&self) -> u32 {
        self.n
    }

    /// α^e for e ≥ 0 (α the primitive element).
    #[inline]
    pub fn alpha_pow(&self, e: u64) -> u32 {
        self.alog[(e % self.n as u64) as usize]
    }

    /// α^e for `e < 2·order()`: a direct read of the doubled antilog
    /// table, with no modulo, for loops that keep their exponents reduced
    /// incrementally.
    #[inline]
    pub(crate) fn alog(&self, e: usize) -> u32 {
        self.alog[e]
    }

    /// Discrete log of a nonzero element.
    #[inline]
    pub fn log(&self, a: u32) -> u32 {
        debug_assert!(a != 0 && a <= self.n, "log of 0 or out-of-field element");
        self.log[a as usize]
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        if a == 0 || b == 0 {
            0
        } else {
            self.alog[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// Multiplicative inverse of a nonzero element.
    #[inline]
    pub fn inv(&self, a: u32) -> u32 {
        // pcm-lint: allow(no-panic-lib) — contract: zero has no inverse — the same class as integer division by zero
        assert!(a != 0, "inverse of zero");
        self.alog[(self.n - self.log[a as usize]) as usize]
    }

    /// Field division `a / b` (b nonzero).
    #[inline]
    pub fn div(&self, a: u32, b: u32) -> u32 {
        // pcm-lint: allow(no-panic-lib) — contract: division by zero
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            self.alog[(self.log[a as usize] + self.n - self.log[b as usize]) as usize]
        }
    }

    /// `a^e` for arbitrary field element and exponent.
    pub fn pow(&self, a: u32, e: u64) -> u32 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        self.alog[((self.log[a as usize] as u64 * e) % self.n as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_supported_field_has_full_order() {
        for m in 3..=13 {
            let gf = GfTables::new(m);
            // α generates the full multiplicative group iff the poly is
            // primitive: all alog entries in the first period are distinct.
            let mut seen = vec![false; (gf.order() + 1) as usize];
            for e in 0..gf.order() as u64 {
                let v = gf.alpha_pow(e);
                assert!(
                    v != 0 && !seen[v as usize],
                    "GF(2^{m}) not primitive at e={e}"
                );
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn shared_tables_are_cached_per_field() {
        let a = GfTables::shared(10);
        let b = GfTables::shared(10);
        assert!(Arc::ptr_eq(&a, &b), "same field must share one table");
        let c = GfTables::shared(9);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.order(), 1023);
        assert_eq!(c.order(), 511);
    }

    #[test]
    fn mul_identities() {
        let gf = GfTables::new(10);
        for a in [1u32, 2, 57, 900, 1023] {
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(1, a), a);
            assert_eq!(gf.mul(a, 0), 0);
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        let gf = GfTables::new(8);
        let xs = [3u32, 17, 100, 200, 255];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(gf.mul(a, b), gf.mul(b, a));
                for &c in &xs {
                    assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_and_division() {
        let gf = GfTables::new(10);
        for a in 1..=gf.order() {
            assert_eq!(gf.mul(a, gf.inv(a)), 1, "a = {a}");
        }
        assert_eq!(gf.div(57, 57), 1);
        assert_eq!(gf.div(0, 5), 0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let gf = GfTables::new(6);
        let a = 5u32;
        let mut acc = 1u32;
        for e in 0..200u64 {
            assert_eq!(gf.pow(a, e), acc, "e = {e}");
            acc = gf.mul(acc, a);
        }
        assert_eq!(gf.pow(0, 0), 1);
        assert_eq!(gf.pow(0, 5), 0);
    }

    #[test]
    fn alpha_pow_wraps_at_order() {
        let gf = GfTables::new(5);
        assert_eq!(gf.alpha_pow(0), 1);
        assert_eq!(gf.alpha_pow(gf.order() as u64), 1);
        assert_eq!(gf.alpha_pow(3), gf.alpha_pow(3 + gf.order() as u64));
    }

    #[test]
    fn frobenius_squaring_is_additive_on_logs() {
        // (α^i)² = α^(2i): squaring via mul must match pow with doubled log.
        let gf = GfTables::new(9);
        for e in [0u64, 1, 7, 100, 500] {
            let a = gf.alpha_pow(e);
            assert_eq!(gf.mul(a, a), gf.alpha_pow(2 * e));
        }
    }
}
