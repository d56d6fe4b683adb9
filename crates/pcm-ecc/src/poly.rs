//! Polynomials for BCH code construction.
//!
//! Two representations are needed:
//!
//! * [`GfPoly`] — dense polynomials with coefficients in GF(2^m), used to
//!   build minimal polynomials `Π (x − α^j)` over a cyclotomic coset and to
//!   run the decoder's error-locator algebra.
//! * [`BinPoly`] — polynomials over GF(2) packed into `u64` words, used to
//!   build the code's generator polynomial and the rows of its LFSR
//!   remainder table (degree ≈ m·t ≈ 130 for the strongest codes here).

use crate::gf::GfTables;

/// Dense polynomial over GF(2^m); `coeffs[i]` multiplies x^i.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfPoly {
    /// Coefficients, lowest degree first; kept trimmed (no trailing zeros,
    /// except the zero polynomial which is `[0]`).
    pub coeffs: Vec<u32>,
}

impl GfPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: vec![0] }
    }

    /// The constant 1.
    pub fn one() -> Self {
        Self { coeffs: vec![1] }
    }

    /// From raw coefficients (lowest first); trims trailing zeros.
    pub fn from_coeffs(coeffs: Vec<u32>) -> Self {
        let mut p = Self { coeffs };
        p.trim();
        p
    }

    fn trim(&mut self) {
        // pcm-lint: allow(no-panic-lib) — infallible: the loop guard keeps coeffs non-empty
        while self.coeffs.len() > 1 && *self.coeffs.last().unwrap() == 0 {
            self.coeffs.pop();
        }
    }

    /// Degree (0 for constants, including the zero polynomial).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.len() == 1 && self.coeffs[0] == 0
    }

    /// Addition (= subtraction in characteristic 2).
    pub fn add(&self, other: &GfPoly) -> GfPoly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0u32; n];
        for (i, o) in out.iter_mut().enumerate() {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = other.coeffs.get(i).copied().unwrap_or(0);
            *o = a ^ b;
        }
        GfPoly::from_coeffs(out)
    }

    /// Multiplication in `GF(2^m)[x]`.
    pub fn mul(&self, other: &GfPoly, gf: &GfTables) -> GfPoly {
        if self.is_zero() || other.is_zero() {
            return GfPoly::zero();
        }
        let mut out = vec![0u32; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] ^= gf.mul(a, b);
            }
        }
        GfPoly::from_coeffs(out)
    }

    /// Multiply by the monomial `(x + root)`.
    pub fn mul_linear(&self, root: u32, gf: &GfTables) -> GfPoly {
        self.mul(&GfPoly::from_coeffs(vec![root, 1]), gf)
    }

    /// Scale every coefficient by a field element.
    pub fn scale(&self, c: u32, gf: &GfTables) -> GfPoly {
        GfPoly::from_coeffs(self.coeffs.iter().map(|&a| gf.mul(a, c)).collect())
    }

    /// Multiply by x^k (shift up).
    pub fn shift(&self, k: usize) -> GfPoly {
        if self.is_zero() {
            return GfPoly::zero();
        }
        let mut coeffs = vec![0u32; k];
        coeffs.extend_from_slice(&self.coeffs);
        GfPoly::from_coeffs(coeffs)
    }

    /// Horner evaluation at a field point.
    pub fn eval(&self, x: u32, gf: &GfTables) -> u32 {
        let mut acc = 0u32;
        for &c in self.coeffs.iter().rev() {
            acc = gf.mul(acc, x) ^ c;
        }
        acc
    }

    /// Formal derivative. In characteristic 2 even-power terms vanish:
    /// d/dx Σ cᵢ xⁱ = Σ_{i odd} cᵢ x^{i−1}.
    pub fn derivative(&self) -> GfPoly {
        if self.coeffs.len() <= 1 {
            return GfPoly::zero();
        }
        let out: Vec<u32> = self.coeffs[1..]
            .iter()
            .enumerate()
            .map(|(i, &c)| if i % 2 == 0 { c } else { 0 })
            .collect();
        GfPoly::from_coeffs(out)
    }
}

/// Polynomial over GF(2), bit-packed; bit `i` of the word array is the
/// coefficient of x^i.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinPoly {
    words: Vec<u64>,
}

impl BinPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { words: vec![0] }
    }

    /// The constant 1.
    pub fn one() -> Self {
        Self { words: vec![1] }
    }

    /// From explicit coefficient bits (index = power).
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut p = Self {
            words: vec![0; bits.len().div_ceil(64).max(1)],
        };
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.words[i / 64] |= 1 << (i % 64);
            }
        }
        p
    }

    /// Coefficient of x^i.
    pub fn coeff(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Degree; 0 for the zero polynomial.
    pub fn degree(&self) -> usize {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return wi * 64 + (63 - w.leading_zeros() as usize);
            }
        }
        0
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// XOR-in `other << shift` (i.e. add `other · x^shift`).
    pub fn add_shifted(&mut self, other: &BinPoly, shift: usize) {
        let need = (other.degree() + shift) / 64 + 1;
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        let (word_shift, bit_shift) = (shift / 64, shift % 64);
        for (i, &w) in other.words.iter().enumerate() {
            if w == 0 {
                continue;
            }
            self.words[i + word_shift] ^= w << bit_shift;
            if bit_shift != 0 && i + word_shift + 1 < self.words.len() {
                self.words[i + word_shift + 1] ^= w >> (64 - bit_shift);
            } else if bit_shift != 0 && w >> (64 - bit_shift) != 0 {
                self.words.push(w >> (64 - bit_shift));
            }
        }
    }

    /// Product of two binary polynomials.
    pub fn mul(&self, other: &BinPoly) -> BinPoly {
        let mut out = BinPoly {
            words: vec![0; (self.degree() + other.degree()) / 64 + 2],
        };
        for i in 0..=self.degree() {
            if self.coeff(i) {
                out.add_shifted(other, i);
            }
        }
        out
    }

    /// Remainder of `self mod divisor` (long division over GF(2)).
    pub fn rem(&self, divisor: &BinPoly) -> BinPoly {
        // pcm-lint: allow(no-panic-lib) — contract: polynomial division by zero
        assert!(!divisor.is_zero(), "division by zero polynomial");
        let d = divisor.degree();
        let mut r = self.clone();
        while !r.is_zero() && r.degree() >= d {
            let shift = r.degree() - d;
            r.add_shifted(divisor, shift);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gfpoly_add_is_xor() {
        let a = GfPoly::from_coeffs(vec![1, 2, 3]);
        let b = GfPoly::from_coeffs(vec![3, 2, 3]);
        let c = a.add(&b);
        assert_eq!(c.coeffs, vec![2]); // x²+x² = 0 trimmed
        assert_eq!(a.add(&a), GfPoly::zero());
    }

    #[test]
    fn gfpoly_mul_linear_roots() {
        let gf = GfTables::new(4);
        // (x + α)(x + α²) must vanish at α and α² and nowhere else obvious.
        let a1 = gf.alpha_pow(1);
        let a2 = gf.alpha_pow(2);
        let p = GfPoly::one().mul_linear(a1, &gf).mul_linear(a2, &gf);
        assert_eq!(p.degree(), 2);
        assert_eq!(p.eval(a1, &gf), 0);
        assert_eq!(p.eval(a2, &gf), 0);
        assert_ne!(p.eval(gf.alpha_pow(3), &gf), 0);
    }

    #[test]
    fn gfpoly_eval_horner() {
        let gf = GfTables::new(5);
        // p(x) = 3 + 5x + x³ at x = 7, cross-checked term by term.
        let p = GfPoly::from_coeffs(vec![3, 5, 0, 1]);
        let x = 7u32;
        let expect = 3 ^ gf.mul(5, x) ^ gf.pow(x, 3);
        assert_eq!(p.eval(x, &gf), expect);
    }

    #[test]
    fn gfpoly_derivative_char2() {
        // d/dx (c0 + c1 x + c2 x² + c3 x³) = c1 + c3 x² in char 2.
        let p = GfPoly::from_coeffs(vec![9, 7, 5, 3]);
        assert_eq!(p.derivative().coeffs, vec![7, 0, 3]);
        assert_eq!(GfPoly::one().derivative(), GfPoly::zero());
    }

    #[test]
    fn binpoly_degree_and_coeff() {
        let p = BinPoly::from_bits(&[true, false, false, true]); // 1 + x³
        assert_eq!(p.degree(), 3);
        assert!(p.coeff(0) && p.coeff(3) && !p.coeff(1));
        assert_eq!(BinPoly::zero().degree(), 0);
    }

    #[test]
    fn binpoly_mul_known_product() {
        // (1+x)(1+x) = 1 + x² over GF(2).
        let a = BinPoly::from_bits(&[true, true]);
        let sq = a.mul(&a);
        assert_eq!(sq.degree(), 2);
        assert!(sq.coeff(0) && !sq.coeff(1) && sq.coeff(2));
    }

    #[test]
    fn binpoly_rem_properties() {
        // x⁴ mod (x²+x+1): x⁴ = (x²+x)(x²+x+1) + x ⇒ remainder x... compute:
        let x4 = BinPoly::from_bits(&[false, false, false, false, true]);
        let d = BinPoly::from_bits(&[true, true, true]);
        let r = x4.rem(&d);
        assert!(r.degree() < 2);
        // Verify by reconstruction: (x4 + r) divisible by d.
        let mut sum = x4.clone();
        sum.add_shifted(&r, 0);
        assert!(sum.rem(&d).is_zero());
    }

    #[test]
    fn binpoly_mul_across_word_boundaries() {
        // x^63 * x^5 = x^68 — exercises the carry path in add_shifted.
        let mut a63 = vec![false; 64];
        a63[63] = true;
        let mut b5 = vec![false; 6];
        b5[5] = true;
        let p = BinPoly::from_bits(&a63).mul(&BinPoly::from_bits(&b5));
        assert_eq!(p.degree(), 68);
        assert!(p.coeff(68));
    }

    #[test]
    fn minimal_polynomial_has_binary_coeffs() {
        // The product over a full cyclotomic coset must land in GF(2)[x]:
        // coset of 1 in GF(2^4): {1, 2, 4, 8}.
        let gf = GfTables::new(4);
        let mut p = GfPoly::one();
        for e in [1u64, 2, 4, 8] {
            p = p.mul_linear(gf.alpha_pow(e), &gf);
        }
        assert!(p.coeffs.iter().all(|&c| c <= 1), "{:?}", p.coeffs);
        // And it is the field's primitive polynomial x⁴+x+1.
        assert_eq!(p.coeffs, vec![1, 1, 0, 0, 1]);
    }
}
