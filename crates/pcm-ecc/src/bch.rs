//! Binary BCH codes: construction, systematic encoding, and full hard-
//! decision decoding (syndromes → Berlekamp–Massey → Chien search).
//!
//! The paper uses BCH-n as its transient-error code (§3, §6.3, §6.6):
//! BCH-10 over the 512-bit 4LC block and BCH-1 (Hamming-equivalent) over
//! the 708-bit 3LC codeword. Codes here are *shortened* systematic BCH over
//! GF(2^m): any message length up to `n − parity_bits` is supported by
//! treating the high-order data coefficients as zero.
//!
//! Codeword layout (coefficient exponents of the code polynomial):
//! parity bit `j` ↔ x^j, data bit `i` ↔ x^(parity_bits + i).
//!
//! # Remainder first
//!
//! Encoder and decoder are both built on the remainder `r(x) = c(x) mod
//! g(x)`, computed by a byte-wise table-driven LFSR (the CRC technique):
//! one 256-row table per code, each row `⌈p/64⌉` words, so a single
//! implementation covers every `(m, t)`. The register lives in a
//! `[u64; 1]` or `[u64; 2]` on the stack for codes of up to 128 parity
//! bits (BCH-1 and BCH-10 over GF(2^10)), so the LFSR runs at a
//! compile-time width with no allocation; wider codes run the same LFSR
//! on a heap register. The encoder's parity is the remainder of
//! `x^p·d(x)`; the decoder XORs that with the received parity. A zero
//! remainder is exactly the all-zero-syndrome condition, because g is
//! the LCM of the minimal polynomials of α¹…α^(2t): `g | c` iff
//! `c(α^j) = 0` for every j ≤ 2t. So a clean word costs one LFSR pass
//! (≈0.2 µs for BCH-10 over 512 bits and for BCH-1 over the 708-bit TEC
//! message, on a 2-vCPU Xeon VM) and nothing else.
//!
//! Only a dirty word pays for decoding, and even then on the
//! `≤ p`-bit remainder rather than the whole word: `c = q·g + r` and
//! `g(α^j) = 0` give `S_j = c(α^j) = r(α^j)`. What it pays depends on its
//! error count. One pass over the remainder's set bits gives S1 and,
//! when α³ is a root of g (t ≥ 2), S3; then:
//!
//! * **One error** at e has `S1 = α^e` and `S3 = S1³`. Bit `e = log S1`
//!   is toggled and kept if the word is then a codeword.
//! * **Two errors** at `X1 = α^a`, `X2 = α^b` have `S3 ≠ S1³`, and the
//!   locator `X² + σ1·X + σ2` with `σ1 = S1`, `σ2 = (S3 + S1³)/S1`
//!   (Peterson). `X = S1·y` turns it into `y² + y = S3/S1³ + 1`, whose
//!   root is one read of a per-code half-trace table. Both positions are
//!   toggled and kept if the word is then a codeword.
//! * **Three or more**, or a candidate that failed its check: odd
//!   syndromes from the same remainder (even ones are squares), a binary
//!   Berlekamp–Massey on fixed registers, a Chien search over the used
//!   positions that stops once deg σ roots are found, and a residual
//!   check.
//!
//! Skipping a shape whose syndromes do not fit loses no correction: one
//! error forces `S3 = S1³`, and two force `S1 ≠ 0`, `S3 ≠ S1³`. A t = 1
//! code (BCH-1) has no α³ among g's roots, so it never reads S3 and only
//! tries the one error. A candidate is accepted only when the
//! toggled word is a codeword c, and then c is what the reference
//! decoder returns too: the received word lies within w ≤ t of c, the
//! code's distance is at least 2t + 1, so c is the one codeword that
//! close, and Berlekamp–Massey on 2t syndromes finds exactly the w
//! toggled positions, all inside the used length.
//!
//! Host cost per BCH-10/512 word on a 2-vCPU Xeon VM (`math_kernels`'
//! `bch.decode_us_by_errors`): 0.2 µs clean, 0.5 µs at one error and at
//! two, 2.9 µs at three rising to 7.5 µs at ten, where the Chien search
//! is most of it (DESIGN.md §14 has the table). [`Bch::decode_reference`]
//! keeps the original whole-word decoder as the oracle all of this is
//! tested against.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::bitvec::BitVec;
use crate::gf::GfTables;
use crate::poly::{BinPoly, GfPoly};

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BchError {
    /// More errors than the code can correct (detected, not miscorrected).
    Uncorrectable,
}

impl std::fmt::Display for BchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable error pattern")
    }
}

impl std::error::Error for BchError {}

/// Per-code immutable tables: the field, the generator polynomial, the
/// LFSR remainder table and the half-trace table. Built once per
/// `(m, t)` and shared process-wide through [`Bch::new`].
#[derive(Debug)]
struct BchTables {
    gf: Arc<GfTables>,
    t: usize,
    n: usize,
    parity_bits: usize,
    generator: BinPoly,
    /// Byte-wise LFSR table: row `v` (`⌈p/64⌉` words, left-aligned so
    /// x^(p−1) is the last word's top bit) is `v(x)·x^p mod g(x)` for the
    /// 8-bit polynomial `v` — what one byte shifted past the top of the
    /// register feeds back.
    lfsr: Vec<u64>,
    /// Half-trace table, `n + 1` entries: entry c is a root y of
    /// `y² + y = c`, or 0 when there is none. (0 is a root only of c = 0,
    /// which the two-error solve never asks about.) Half the elements
    /// have roots; y and y + 1 share their c, and the even one is kept.
    half_trace: Vec<u32>,
}

/// Largest t whose Berlekamp–Massey and Chien registers live on the
/// stack; wider codes (GenericBlock's) put the same registers on the
/// heap, once per decode.
const STACK_T: usize = 16;

/// A t-error-correcting binary BCH code over GF(2^m).
///
/// Cheap to construct and clone: the heavy tables live in a process-wide
/// registry keyed by `(m, t)` and are shared across all instances.
#[derive(Debug, Clone)]
pub struct Bch {
    tables: Arc<BchTables>,
}

impl BchTables {
    /// Construct the code tables with designed distance 2t+1 over GF(2^m).
    fn build(m: u32, t: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — constructor contract: (m, t) are design-table constants; device configs are pre-validated by the builder
        assert!(t >= 1, "BCH needs t >= 1");
        let gf = GfTables::shared(m);
        let n = gf.order() as usize;
        // pcm-lint: allow(no-panic-lib) — constructor contract: (m, t) are design-table constants; device configs are pre-validated by the builder
        assert!(2 * t < n, "t = {t} too large for n = {n}");

        // Generator = lcm of minimal polynomials of α^1, α^3, …, α^(2t−1).
        // Each minimal polynomial is the product over a cyclotomic coset;
        // distinct cosets multiply into g(x).
        let mut covered = vec![false; n];
        let mut generator = BinPoly::one();
        for root in 1..=2 * t {
            if covered[root % n] {
                continue;
            }
            // Cyclotomic coset of `root` under doubling mod n.
            let mut coset = Vec::new();
            let mut e = root % n;
            loop {
                if covered[e] {
                    break;
                }
                covered[e] = true;
                coset.push(e);
                e = (e * 2) % n;
                if e == root % n {
                    break;
                }
            }
            if coset.is_empty() {
                continue;
            }
            let mut minpoly = GfPoly::one();
            for &e in &coset {
                minpoly = minpoly.mul_linear(gf.alpha_pow(e as u64), &gf);
            }
            debug_assert!(
                minpoly.coeffs.iter().all(|&c| c <= 1),
                "minimal polynomial must have GF(2) coefficients"
            );
            let bits: Vec<bool> = minpoly.coeffs.iter().map(|&c| c == 1).collect();
            generator = generator.mul(&BinPoly::from_bits(&bits));
        }

        let parity_bits = generator.degree();
        // Single-bit rows x^(p+b) mod g by long division; the other rows
        // follow by linearity (row v = row(v without its low bit) ^ row(low bit)).
        // Rows are left-aligned like the register: x^j sits at bit j + pad.
        let reg_words = parity_bits.div_ceil(64);
        let pad = 64 * reg_words - parity_bits;
        let mut lfsr = vec![0u64; 256 * reg_words];
        for b in 0..8 {
            let mut xpb = BinPoly::zero();
            xpb.add_shifted(&BinPoly::one(), parity_bits + b);
            let r = xpb.rem(&generator);
            let row = &mut lfsr[(1 << b) * reg_words..((1 << b) + 1) * reg_words];
            for j in (0..parity_bits).filter(|&j| r.coeff(j)) {
                row[(j + pad) / 64] |= 1 << ((j + pad) % 64);
            }
        }
        for v in 3..256usize {
            let low = v & v.wrapping_neg();
            if low != v {
                for w in 0..reg_words {
                    lfsr[v * reg_words + w] =
                        lfsr[(v ^ low) * reg_words + w] ^ lfsr[low * reg_words + w];
                }
            }
        }
        let mut half_trace = vec![0u32; n + 1];
        for y in (2..n as u32).step_by(2) {
            half_trace[(gf.mul(y, y) ^ y) as usize] = y;
        }
        Self {
            gf,
            t,
            n,
            parity_bits,
            generator,
            lfsr,
            half_trace,
        }
    }
}

/// Call `f` with the index of each set bit of `words` (bit j of word w
/// is index 64·w + j), in increasing order.
#[inline(always)]
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The process-wide BCH-table registry: the declared lock wrapper for
/// the `bch-registry` class. Building a missing `(m, t)` entry
/// populates the GF registry while this lock is held, which is the
/// `bch-registry → gf-registry` edge of the declared workspace lock
/// order (DESIGN.md §15); the guard never escapes this function.
fn bch_registry(m: u32, t: usize) -> Arc<BchTables> {
    type Registry = OnceLock<Mutex<BTreeMap<(u32, usize), Arc<BchTables>>>>;
    static REGISTRY: Registry = OnceLock::new();
    let map = REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    map.entry((m, t))
        .or_insert_with(|| Arc::new(BchTables::build(m, t)))
        .clone()
}

impl Bch {
    /// Construct the BCH code with designed distance 2t+1 over GF(2^m).
    ///
    /// The generator polynomial and the GF log/antilog tables are built at
    /// most once per `(m, t)` pair; later calls (and clones) share them.
    pub fn new(m: u32, t: usize) -> Self {
        Self {
            tables: bch_registry(m, t),
        }
    }

    /// Designed correction capability t.
    pub fn t(&self) -> usize {
        self.tables.t
    }

    /// Natural (unshortened) code length 2^m − 1.
    pub fn n(&self) -> usize {
        self.tables.n
    }

    /// Number of parity bits (degree of the generator polynomial; m·t when
    /// every designated coset has full size, e.g. 100 for BCH-10 / m=10).
    pub fn parity_bits(&self) -> usize {
        self.tables.parity_bits
    }

    /// Longest supported message, in bits.
    pub fn max_data_bits(&self) -> usize {
        self.tables.n - self.tables.parity_bits
    }

    /// The generator polynomial g(x): the LCM of the minimal polynomials
    /// of α¹…α^(2t).
    pub fn generator(&self) -> &BinPoly {
        &self.tables.generator
    }

    /// Systematically encode `data`, returning the parity block
    /// (`parity_bits` bits): the LFSR remainder `x^p·d(x) mod g(x)`.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        self.check_data_len(data);
        let p = self.tables.parity_bits;
        self.with_remainder(data, None, |rem| BitVec::from_words(rem.to_vec(), p))
    }

    /// The message-length contract shared by [`Bch::encode`] and
    /// [`Bch::decode`]: past `max_data_bits` the code is not defined
    /// (positions ≥ n would alias onto positions mod n).
    fn check_data_len(&self, data: &BitVec) {
        // pcm-lint: allow(no-panic-lib) — encode/decode contract: block layouts fix the message length at construction
        assert!(
            data.len() <= self.max_data_bits(),
            "message of {} bits exceeds k = {}",
            data.len(),
            self.max_data_bits()
        );
    }

    /// Run `f` on `x^p·d(x) mod g(x)`, plus `parity` when given (then it
    /// is the received word's remainder: zero iff every syndrome
    /// S_1..S_2t vanishes), as `⌈p/64⌉` words with bit j ↔ x^j. One- and
    /// two-word registers (BCH-1 and BCH-10 over GF(2^10)) are fixed-size
    /// arrays, so the LFSR runs at a constant width with no allocation;
    /// wider codes run the same LFSR on a heap register.
    #[inline]
    fn with_remainder<R>(
        &self,
        data: &BitVec,
        parity: Option<&BitVec>,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        match self.tables.parity_bits.div_ceil(64) {
            1 => f(self.lfsr_remainder(data, parity, &mut [0; 1])),
            2 => f(self.lfsr_remainder(data, parity, &mut [0; 2])),
            w => f(self.lfsr_remainder(data, parity, &mut vec![0; w])),
        }
    }

    /// The byte-wise table-driven LFSR behind [`Self::with_remainder`],
    /// in the zeroed register `reg` of `⌈p/64⌉` words. Bytes are fed
    /// highest degree first; the zero tail of `data`'s last word pads a
    /// partial leading byte with zero coefficients, which leave a zero
    /// register unchanged.
    #[inline(always)]
    fn lfsr_remainder<'r>(
        &self,
        data: &BitVec,
        parity: Option<&BitVec>,
        reg: &'r mut [u64],
    ) -> &'r [u64] {
        let tb = &*self.tables;
        let w = reg.len();
        let table = &tb.lfsr[..256 * w];
        // The register is kept left-aligned (coefficient x^(p−1) at the
        // top bit of the last word), so its top byte is always the last
        // word's high byte and shifting by 8 drops exactly that byte.
        let bytes = data.len().div_ceil(8);
        for (wi, &word) in data.as_words().iter().enumerate().rev() {
            for k in (0..8.min(bytes - wi * 8)).rev() {
                // Register·x^8 + byte·x^p = H·x^p + low part, where H is
                // the register's top byte plus the data byte; H·x^p mod g
                // is table row H.
                let h = ((reg[w - 1] >> 56 ^ word >> (8 * k)) & 0xFF) as usize;
                for i in (1..w).rev() {
                    reg[i] = reg[i] << 8 | reg[i - 1] >> 56;
                }
                reg[0] <<= 8;
                for (r, &t) in reg.iter_mut().zip(&table[h * w..h * w + w]) {
                    *r ^= t;
                }
            }
        }
        // Right-align: bit j ↔ x^j.
        let pad = 64 * w - tb.parity_bits;
        if pad > 0 {
            for i in 0..w {
                reg[i] = reg[i] >> pad | reg.get(i + 1).map_or(0, |&hi| hi << (64 - pad));
            }
        }
        if let Some(parity) = parity {
            for (r, &q) in reg.iter_mut().zip(parity.as_words()) {
                *r ^= q;
            }
        }
        reg
    }

    /// Decode in place: corrects up to t bit errors across `data` and
    /// `parity`. Returns the number of corrected bits, or
    /// [`BchError::Uncorrectable`] when the pattern exceeds the code's
    /// capability *and* this is detectable (the residual check catches
    /// every miscorrection attempt that leaves the codeword space).
    ///
    /// Remainder first (module docs): a clean word costs one LFSR pass.
    /// A dirty one tries the single error or the error pair that S1 and
    /// S3 name, accepting it only if it leaves a codeword, and otherwise
    /// runs Berlekamp–Massey and Chien on syndromes from the same
    /// remainder. The result and every corrected bit equal
    /// [`Bch::decode_reference`]'s.
    pub fn decode(&self, data: &mut BitVec, parity: &mut BitVec) -> Result<usize, BchError> {
        self.check_data_len(data);
        assert_eq!(
            parity.len(),
            self.tables.parity_bits,
            "parity length mismatch"
        );
        // `with_remainder`'s register dispatch, spelled out: the decode
        // mutates `data` and `parity` while the remainder is alive.
        match self.tables.parity_bits.div_ceil(64) {
            1 => self.decode_in(data, parity, &mut [0; 1]),
            2 => self.decode_in(data, parity, &mut [0; 2]),
            w => self.decode_in(data, parity, &mut vec![0; w]),
        }
    }

    /// [`Bch::decode`] with the remainder in `reg`.
    #[inline(always)]
    fn decode_in(
        &self,
        data: &mut BitVec,
        parity: &mut BitVec,
        reg: &mut [u64],
    ) -> Result<usize, BchError> {
        let rem = self.lfsr_remainder(data, Some(parity), reg);
        if rem.iter().all(|&w| w == 0) {
            return Ok(0);
        }
        self.decode_dirty(rem, data, parity)
    }

    /// [`Bch::decode`] of a word whose remainder `rem` is nonzero.
    fn decode_dirty(
        &self,
        rem: &[u64],
        data: &mut BitVec,
        parity: &mut BitVec,
    ) -> Result<usize, BchError> {
        let tb = &*self.tables;
        let gf = &*tb.gf;
        let used_len = tb.parity_bits + data.len();
        let (s1, s3) = self.s1_s3(rem);
        // S1 = 0 fits neither one error (S1 = α^e) nor two (S1 = X1 + X2).
        if s1 != 0 {
            let s1_cubed = gf.mul(gf.mul(s1, s1), s1);
            if tb.t == 1 || s3 == s1_cubed {
                // One error at e: S1 = α^e (and S3 = α^(3e) = S1³).
                if self.try_correction(&[gf.log(s1)], used_len, data, parity) {
                    return Ok(1);
                }
            } else if let Some(pair) = self.error_pair(s1, s1_cubed, s3) {
                if self.try_correction(&pair, used_len, data, parity) {
                    return Ok(2);
                }
            }
        }
        self.decode_general(rem, used_len, data, parity)
    }

    /// The two positions a two-error word with these syndromes has
    /// (S1 ≠ 0, S3 ≠ S1³), or `None` when its locator has no roots.
    /// Errors at X1, X2 give σ1 = S1 and σ2 = X1·X2 = (S3 + S1³)/S1
    /// (Peterson), so the locator is X² + S1·X + σ2. X = S1·y turns it
    /// into y² + y = c with c = S3/S1³ + 1 ≠ 0; a root y is one read of
    /// the half-trace table, and then X1 = S1·y, X2 = X1 + S1.
    fn error_pair(&self, s1: u32, s1_cubed: u32, s3: u32) -> Option<[u32; 2]> {
        let gf = &*self.tables.gf;
        let y = self.tables.half_trace[(gf.div(s3, s1_cubed) ^ 1) as usize];
        (y != 0).then(|| {
            let x1 = gf.mul(s1, y);
            [gf.log(x1), gf.log(x1 ^ s1)]
        })
    }

    /// Toggle the bits at `positions` and keep them if the word is then a
    /// codeword c. Then c lies within `positions.len() ≤ t` of the
    /// received word, so it is the one codeword the reference decoder
    /// can return. Positions past the used length are rejected untouched.
    fn try_correction(
        &self,
        positions: &[u32],
        used_len: usize,
        data: &mut BitVec,
        parity: &mut BitVec,
    ) -> bool {
        if positions.iter().any(|&e| e as usize >= used_len) {
            return false;
        }
        self.toggle(positions, data, parity);
        if self.is_codeword(data, parity) {
            return true;
        }
        self.toggle(positions, data, parity);
        false
    }

    /// Flip the bits at the codeword positions `positions`.
    fn toggle(&self, positions: &[u32], data: &mut BitVec, parity: &mut BitVec) {
        let pb = self.tables.parity_bits;
        for &e in positions {
            let e = e as usize;
            if e < pb {
                parity.toggle(e);
            } else {
                data.toggle(e - pb);
            }
        }
    }

    /// The general path: all 2t syndromes from the remainder, binary
    /// Berlekamp–Massey, Chien search and the residual check, on fixed
    /// registers (on the stack up to t = [`STACK_T`]).
    fn decode_general(
        &self,
        rem: &[u64],
        used_len: usize,
        data: &mut BitVec,
        parity: &mut BitVec,
    ) -> Result<usize, BchError> {
        let t = self.tables.t;
        // 2t syndromes, σ and the previous σ (2t + 1 coefficients each,
        // since deg σ ≤ L ≤ 2t), and t each of Chien logs, Chien steps and
        // roots.
        let words = 9 * t + 2;
        let mut stack = [0u32; 9 * STACK_T + 2];
        let mut heap = Vec::new();
        let regs = if t <= STACK_T {
            &mut stack[..words]
        } else {
            heap.resize(words, 0);
            &mut heap[..]
        };
        let (s, regs) = regs.split_at_mut(2 * t);
        let (sigma, regs) = regs.split_at_mut(2 * t + 1);
        let (prev, regs) = regs.split_at_mut(2 * t + 1);
        let (logs, regs) = regs.split_at_mut(t);
        let (steps, located) = regs.split_at_mut(t);

        self.odd_syndromes(rem, s);
        let gf = &*self.tables.gf;
        for j in (2..=2 * t).step_by(2) {
            let h = s[j / 2 - 1];
            s[j - 1] = gf.mul(h, h);
        }
        let errors = self.binary_berlekamp_massey(s, sigma, prev);
        if errors == 0 || errors > t {
            return Err(BchError::Uncorrectable);
        }
        let sigma = &sigma[..=errors];
        if !self.chien(sigma, used_len, logs, steps, located) {
            return Err(BchError::Uncorrectable);
        }
        // Residual check: a successful correction must land on a codeword.
        if !self.try_correction(&located[..errors], used_len, data, parity) {
            return Err(BchError::Uncorrectable);
        }
        Ok(errors)
    }

    /// Whether `(data, parity)` is a codeword: a zero remainder.
    fn is_codeword(&self, data: &BitVec, parity: &BitVec) -> bool {
        self.with_remainder(data, Some(parity), |rem| rem.iter().all(|&w| w == 0))
    }

    /// `S1 = r(α)` and, when α³ is a root of g (t ≥ 2), `S3 = r(α³)`;
    /// S3 is 0 for a t = 1 code, whose g has no such root. Both are
    /// summed over the remainder's set bits; 3e < 3n is reduced into the
    /// doubled antilog table by one conditional subtract.
    fn s1_s3(&self, rem: &[u64]) -> (u32, u32) {
        let gf = &*self.tables.gf;
        let two_n = 2 * self.tables.n;
        let with_s3 = self.tables.t >= 2;
        let (mut s1, mut s3) = (0, 0);
        for_each_set_bit(rem, |e| {
            s1 ^= gf.alog(e);
            if with_s3 {
                let x = 3 * e;
                s3 ^= gf.alog(if x >= two_n { x - two_n } else { x });
            }
        });
        (s1, s3)
    }

    /// XOR the odd syndromes into `s = [S_1, S_2, …]`, leaving its even
    /// entries as they are: `S_j = r(α^j)` summed over the remainder's
    /// set bits, since `g(α^j) = 0` for j ≤ 2t. Each bit e < p < n steps
    /// its exponent by 2e, reduced without a modulo.
    fn odd_syndromes(&self, rem: &[u64], s: &mut [u32]) {
        let gf = &*self.tables.gf;
        let n = self.tables.n;
        for_each_set_bit(rem, |e| {
            let step = if 2 * e >= n { 2 * e - n } else { 2 * e };
            let mut x = e;
            for sj in s.iter_mut().step_by(2) {
                *sj ^= gf.alog(x);
                x += step;
                if x >= n {
                    x -= n;
                }
            }
        });
    }

    /// Berlekamp–Massey over the syndromes `s`, on the zeroed registers
    /// `sigma` and `prev` of 2t + 1 coefficients each; returns deg σ. It
    /// runs the steps of [`Self::berlekamp_massey`] for the odd
    /// syndromes only: a binary word's syndromes have `S_2k = S_k²`, which
    /// makes every even step's discrepancy zero (Berlekamp), so an even
    /// step only ages `prev` by one more power of x. σ is the same
    /// polynomial, built with no allocation.
    fn binary_berlekamp_massey(&self, s: &[u32], sigma: &mut [u32], prev: &mut [u32]) -> usize {
        let gf = &*self.tables.gf;
        sigma[0] = 1;
        prev[0] = 1;
        let (mut l, mut m, mut b) = (0usize, 1usize, 1u32);
        for i in (0..s.len()).step_by(2) {
            // Discrepancy d = S_i + Σ_{j=1..L} σ_j · S_{i−j}.
            let mut d = s[i];
            for j in 1..=l {
                d ^= gf.mul(sigma[j], s[i - j]);
            }
            if d != 0 {
                // σ += (d/b)·x^m·prev; on a length change prev becomes the
                // old σ. Descending, so prev[j − m] is read before slot
                // j − m is overwritten.
                let factor = gf.div(d, b);
                let grow = 2 * l <= i;
                for j in (0..sigma.len()).rev() {
                    let old = sigma[j];
                    if j >= m {
                        sigma[j] ^= gf.mul(factor, prev[j - m]);
                    }
                    if grow {
                        prev[j] = old;
                    }
                }
                if grow {
                    l = i + 1 - l;
                    b = d;
                    m = 0;
                }
            }
            // This step, and the even one after it.
            m += 2;
        }
        sigma.iter().rposition(|&c| c != 0).unwrap_or(0)
    }

    /// Chien search over the used positions: position e is erroneous iff
    /// σ(α^(n−e)) = 0. Register k holds `log(σ_k · α^(−k·e))` and steps
    /// by n − k per position, reduced by a conditional subtract. Writes
    /// the roots to `located` and returns true once deg σ of them are
    /// found (σ has no more), or false when the used positions hold
    /// fewer — the rest lie in the shortened region or nowhere, both > t
    /// errors. `logs` and `steps` are scratch of deg σ entries.
    fn chien(
        &self,
        sigma: &[u32],
        used_len: usize,
        logs: &mut [u32],
        steps: &mut [u32],
        located: &mut [u32],
    ) -> bool {
        let gf = &*self.tables.gf;
        let n = self.tables.n as u32;
        let deg = sigma.len() - 1;
        let mut regs = 0;
        for (k, &c) in sigma.iter().enumerate().skip(1) {
            if c != 0 {
                logs[regs] = gf.log(c);
                steps[regs] = n - k as u32;
                regs += 1;
            }
        }
        let (logs, steps) = (&mut logs[..regs], &steps[..regs]);
        let mut found = 0;
        for e in 0..used_len as u32 {
            let mut v = sigma[0];
            for (l, &step) in logs.iter_mut().zip(steps) {
                v ^= gf.alog(*l as usize);
                let next = *l + step;
                *l = if next >= n { next - n } else { next };
            }
            if v == 0 {
                located[found] = e;
                found += 1;
                if found == deg {
                    return true;
                }
            }
        }
        false
    }

    /// The original whole-word decoder, kept as the oracle for
    /// [`Bch::decode`]: syndromes over every set
    /// bit of the received word, Berlekamp–Massey, and a Chien search by
    /// Horner evaluation at all n field points. Tests and the
    /// `math_kernels` gate compare against it; the device never calls it.
    #[doc(hidden)]
    pub fn decode_reference(
        &self,
        data: &mut BitVec,
        parity: &mut BitVec,
    ) -> Result<usize, BchError> {
        assert_eq!(
            parity.len(),
            self.tables.parity_bits,
            "parity length mismatch"
        );
        let used_len = self.tables.parity_bits + data.len();

        let syndromes = self.syndromes(data, parity);
        if syndromes.iter().all(|&s| s == 0) {
            return Ok(0);
        }

        let sigma = self.berlekamp_massey(&syndromes);
        let errors = sigma.degree();
        if errors == 0 || errors > self.tables.t {
            return Err(BchError::Uncorrectable);
        }

        // Chien search: position e (coefficient exponent) is erroneous iff
        // σ(α^(n−e)) = 0.
        let gf = &*self.tables.gf;
        let n = self.tables.n;
        let mut located = Vec::with_capacity(errors);
        for e in 0..n {
            let x = gf.alpha_pow((n - e) as u64);
            if sigma.eval(x, gf) == 0 {
                if e >= used_len {
                    // Error "located" in the shortened (always-zero) region:
                    // the true pattern exceeded t.
                    return Err(BchError::Uncorrectable);
                }
                located.push(e);
            }
        }
        if located.len() != errors {
            // σ does not split over the field: > t errors.
            return Err(BchError::Uncorrectable);
        }

        let pb = self.tables.parity_bits;
        for &e in &located {
            if e < pb {
                parity.toggle(e);
            } else {
                data.toggle(e - pb);
            }
        }

        // Residual check: a successful correction must land on a codeword.
        if self.syndromes(data, parity).iter().any(|&s| s != 0) {
            // Roll back and report.
            for &e in &located {
                if e < pb {
                    parity.toggle(e);
                } else {
                    data.toggle(e - pb);
                }
            }
            return Err(BchError::Uncorrectable);
        }
        Ok(located.len())
    }

    /// Decode a batch of codewords in place: [`Bch::decode`] on each
    /// `(data[i], parity[i])` pair in turn, so the corrected bits and the
    /// per-pair `Result`s are exactly `decode`'s. The pairs' data lengths
    /// need not match.
    pub fn decode_batch(
        &self,
        data: &mut [BitVec],
        parity: &mut [BitVec],
    ) -> Vec<Result<usize, BchError>> {
        assert_eq!(data.len(), parity.len(), "data/parity batch mismatch");
        data.iter_mut()
            .zip(parity.iter_mut())
            .map(|(d, p)| self.decode(d, p))
            .collect()
    }

    /// Syndromes S_1..S_2t of the whole received word (reference path).
    fn syndromes(&self, data: &BitVec, parity: &BitVec) -> Vec<u32> {
        let gf = &*self.tables.gf;
        let mut s = vec![0u32; 2 * self.tables.t];
        let mut accumulate = |e: usize| {
            for (j, sj) in s.iter_mut().enumerate() {
                *sj ^= gf.alpha_pow(((j + 1) * e) as u64);
            }
        };
        for j in parity.ones() {
            accumulate(j);
        }
        for i in data.ones() {
            accumulate(self.tables.parity_bits + i);
        }
        s
    }

    /// Berlekamp–Massey: smallest LFSR (error-locator polynomial σ)
    /// generating the syndrome sequence.
    fn berlekamp_massey(&self, s: &[u32]) -> GfPoly {
        let gf = &*self.tables.gf;
        let mut sigma = GfPoly::one();
        let mut prev = GfPoly::one();
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u32;
        for i in 0..s.len() {
            // Discrepancy d = S_i + Σ_{j=1..L} σ_j · S_{i−j}.
            let mut d = s[i];
            for j in 1..=l.min(sigma.degree()) {
                if sigma.coeffs[j] != 0 && s[i - j] != 0 {
                    d ^= gf.mul(sigma.coeffs[j], s[i - j]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                let factor = gf.div(d, b);
                sigma = sigma.add(&prev.scale(factor, gf).shift(m));
                l = i + 1 - l;
                prev = temp;
                b = d;
                m = 1;
            } else {
                let factor = gf.div(d, b);
                sigma = sigma.add(&prev.scale(factor, gf).shift(m));
                m += 1;
            }
        }
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(data: &BitVec, parity: &BitVec, flips: &[usize]) -> (BitVec, BitVec) {
        let p = parity.len();
        let (mut d, mut q) = (data.clone(), parity.clone());
        for &e in flips {
            if e < p {
                q.toggle(e);
            } else {
                d.toggle(e - p);
            }
        }
        (d, q)
    }

    fn pseudo_data(len: usize, seed: u64) -> BitVec {
        let mut v = BitVec::zeros(len);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                v.set(i, true);
            }
        }
        v
    }

    #[test]
    fn paper_code_dimensions() {
        // §6.6: BCH-10 on a 512-bit block needs 100 check bits; §6.3: BCH-1
        // on a 708-bit message needs 10 check bits.
        let bch10 = Bch::new(10, 10);
        assert_eq!(bch10.parity_bits(), 100);
        assert!(bch10.max_data_bits() >= 512);
        let bch1 = Bch::new(10, 1);
        assert_eq!(bch1.parity_bits(), 10);
        assert!(bch1.max_data_bits() >= 708);
    }

    #[test]
    fn clean_roundtrip() {
        let bch = Bch::new(10, 4);
        let data = pseudo_data(512, 1);
        let mut parity = bch.encode(&data);
        let mut d = data.clone();
        assert_eq!(bch.decode(&mut d, &mut parity), Ok(0));
        assert_eq!(d, data);
    }

    #[test]
    fn corrects_up_to_t_errors_everywhere() {
        let bch = Bch::new(10, 5);
        let data = pseudo_data(512, 2);
        let parity = bch.encode(&data);
        let pb = bch.parity_bits(); // 50 for t=5, m=10
                                    // Error patterns spanning data, parity, and the boundary.
        let patterns: Vec<Vec<usize>> = vec![
            vec![0],
            vec![pb - 1],   // last parity bit
            vec![pb],       // first data bit
            vec![pb + 511], // last data bit
            vec![3, pb - 1, pb, pb + 156],
            vec![0, 1, 2, 3, 4], // exactly t errors
        ];
        for flips in &patterns {
            let (mut d, mut p) = noisy(&data, &parity, flips);
            let n = bch
                .decode(&mut d, &mut p)
                .unwrap_or_else(|e| panic!("pattern {flips:?} failed: {e}"));
            assert_eq!(n, flips.len());
            assert_eq!(d, data, "pattern {flips:?}");
        }
    }

    #[test]
    fn bch1_is_single_error_correcting() {
        let bch = Bch::new(10, 1);
        let data = pseudo_data(708, 3);
        let parity = bch.encode(&data);
        for &e in &[0usize, 9, 10, 400, 717] {
            let (mut d, mut p) = noisy(&data, &parity, &[e]);
            assert_eq!(bch.decode(&mut d, &mut p), Ok(1), "flip at {e}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn detects_more_than_t_errors() {
        // With t=2 and 4 well-spread errors, decoding must either report
        // Uncorrectable or (rarely) miscorrect into a different codeword —
        // but the residual check makes silent wrong-data impossible unless
        // the pattern lands exactly on another codeword. For these spread
        // patterns it must fail cleanly.
        let bch = Bch::new(10, 2);
        let data = pseudo_data(400, 4);
        let parity = bch.encode(&data);
        let mut failures = 0;
        for s in 0..20u64 {
            let flips: Vec<usize> = (0..4)
                .map(|i| ((s * 131 + i * 97) % 420) as usize)
                .collect();
            let mut uniq = flips.clone();
            uniq.sort_unstable();
            uniq.dedup();
            if uniq.len() != 4 {
                continue;
            }
            let (mut d, mut p) = noisy(&data, &parity, &uniq);
            match bch.decode(&mut d, &mut p) {
                Err(BchError::Uncorrectable) => failures += 1,
                Ok(_) => {} // miscorrection to a valid codeword is allowed by BCH theory
            }
        }
        assert!(
            failures >= 10,
            "most 2t patterns should be detected, got {failures}"
        );
    }

    #[test]
    fn shortened_region_errors_rejected() {
        // Simulate a decoder seeing garbage that implies errors past the
        // message: encode short data, flip > t scattered bits so σ roots
        // spill outside; must never place corrections beyond used length.
        let bch = Bch::new(8, 2);
        let data = pseudo_data(64, 5);
        let parity = bch.encode(&data);
        let (mut d, mut p) = noisy(&data, &parity, &[1, 20, 40, 60, 70]);
        // Whatever the outcome, decode must not panic and must leave
        // lengths intact.
        let _ = bch.decode(&mut d, &mut p);
        assert_eq!(d.len(), 64);
    }

    #[test]
    fn works_across_field_sizes() {
        for (m, t, len) in [
            (6u32, 2usize, 40usize),
            (8, 3, 150),
            (11, 4, 1000),
            (13, 6, 4000),
        ] {
            let bch = Bch::new(m, t);
            assert!(bch.max_data_bits() >= len, "m={m} t={t}");
            let data = pseudo_data(len, m as u64);
            let parity = bch.encode(&data);
            let flips: Vec<usize> = (0..t).map(|i| i * (len / t) + 1).collect();
            let (mut d, mut p) = noisy(&data, &parity, &flips);
            assert_eq!(bch.decode(&mut d, &mut p), Ok(t), "m={m} t={t}");
            assert_eq!(d, data);
        }
    }

    #[test]
    fn parity_only_errors() {
        let bch = Bch::new(10, 3);
        let data = pseudo_data(512, 7);
        let parity = bch.encode(&data);
        let (mut d, mut p) = noisy(&data, &parity, &[5, 50, 95]);
        assert_eq!(bch.decode(&mut d, &mut p), Ok(3));
        assert_eq!(d, data);
        assert_eq!(p, parity);
    }

    #[test]
    fn exhaustive_small_field_single_error() {
        // GF(2^4), t = 1, k = 11 (the classic (15,11) Hamming-equivalent
        // BCH): for EVERY message and EVERY single-bit error position the
        // decoder must recover exactly. 2^11 × 15 = 30720 cases.
        let bch = Bch::new(4, 1);
        assert_eq!(bch.parity_bits(), 4);
        assert_eq!(bch.max_data_bits(), 11);
        for msg in 0..(1u16 << 11) {
            let bits: Vec<bool> = (0..11).map(|b| msg >> b & 1 == 1).collect();
            let data = BitVec::from_bools(&bits);
            let parity = bch.encode(&data);
            for e in 0..15 {
                let (mut d, mut p) = noisy(&data, &parity, &[e]);
                assert_eq!(bch.decode(&mut d, &mut p), Ok(1), "msg {msg} flip {e}");
                assert_eq!(d, data, "msg {msg} flip {e}");
                assert_eq!(p, parity, "msg {msg} flip {e}");
            }
        }
    }

    #[test]
    fn exhaustive_double_errors_t2_small_field() {
        // GF(2^5), t = 2 (the (31,21) BCH): every double-error pattern on
        // a fixed message corrects exactly. C(31,2) = 465 cases.
        let bch = Bch::new(5, 2);
        assert_eq!(bch.parity_bits(), 10);
        let data = pseudo_data(21, 99);
        let parity = bch.encode(&data);
        for a in 0..31usize {
            for b in (a + 1)..31 {
                let (mut d, mut p) = noisy(&data, &parity, &[a, b]);
                assert_eq!(bch.decode(&mut d, &mut p), Ok(2), "flips {a},{b}");
                assert_eq!(d, data);
            }
        }
    }

    #[test]
    fn generator_divides_every_codeword() {
        // Structural: for random messages, the full code polynomial
        // x^p·d(x) + r(x) must be divisible by g(x).
        use crate::poly::BinPoly;
        let bch = Bch::new(8, 3);
        for seed in 1..6u64 {
            let data = pseudo_data(120, seed);
            let parity = bch.encode(&data);
            let mut cw = BinPoly::zero();
            for j in parity.ones() {
                cw.add_shifted(&BinPoly::one(), j);
            }
            for i in data.ones() {
                cw.add_shifted(&BinPoly::one(), bch.parity_bits() + i);
            }
            assert!(cw.rem(bch.generator()).is_zero(), "seed {seed}");
        }
    }

    /// Run `decode` and `decode_reference` on each noisy lane and demand
    /// identical results AND identical corrected bits.
    fn assert_decode_matches_reference(
        bch: &Bch,
        data_bits: usize,
        lanes: Vec<Vec<usize>>,
        tag: &str,
    ) {
        for (l, flips) in lanes.iter().enumerate() {
            let data = pseudo_data(data_bits, (l as u64 + 1) * 7919);
            let (mut d, mut p) = noisy(&data, &bch.encode(&data), flips);
            let (mut ref_d, mut ref_p) = (d.clone(), p.clone());
            let want = bch.decode_reference(&mut ref_d, &mut ref_p);
            assert_eq!(
                bch.decode(&mut d, &mut p),
                want,
                "{tag}: lane {l} result diverged"
            );
            assert_eq!(d, ref_d, "{tag}: lane {l} data diverged");
            assert_eq!(p, ref_p, "{tag}: lane {l} parity diverged");
        }
    }

    /// `x^p·d(x) mod g(x)` by `BinPoly` long division: the encoder the
    /// LFSR replaced, kept here as its oracle.
    fn long_division_parity(bch: &Bch, data: &BitVec) -> BitVec {
        let pb = bch.parity_bits();
        let mut shifted = BinPoly::zero();
        for i in data.ones() {
            shifted.add_shifted(&BinPoly::one(), pb + i);
        }
        let r = shifted.rem(bch.generator());
        let bits: Vec<bool> = (0..pb).map(|j| r.coeff(j)).collect();
        BitVec::from_bools(&bits)
    }

    #[test]
    fn lfsr_encode_matches_long_division() {
        // Every code the workspace builds (t = 1, 3, 4, 10 over GF(2^10),
        // (13, 6)), a register under one byte (GF(2^4), p = 4), and t > 12
        // codes whose register spans 3+ words, up to GenericBlock's
        // t = 511. Lengths off a byte boundary exercise the partial
        // leading byte; the empty message must encode to zero parity.
        let codes = [
            (4u32, 1usize),
            (10, 1),
            (10, 3),
            (10, 4),
            (10, 10),
            (13, 6),
            (10, 15),
            (10, 40),
            (10, 511),
        ];
        for (m, t) in codes {
            let bch = Bch::new(m, t);
            if t > 12 {
                assert!(bch.parity_bits() > 128, "m={m} t={t}: register < 3 words");
            }
            for len in [0usize, 1, 7, 8, 11, 21, 63, 65, 512, 708, 1000] {
                if len > bch.max_data_bits() {
                    continue;
                }
                for seed in 1..4u64 {
                    let data = pseudo_data(len, seed * 31 + len as u64);
                    let parity = bch.encode(&data);
                    assert_eq!(
                        parity,
                        long_division_parity(&bch, &data),
                        "m={m} t={t} len={len} seed={seed}"
                    );
                }
            }
            let full = BitVec::from_bools(&vec![true; bch.max_data_bits()]);
            assert_eq!(bch.encode(&full), long_division_parity(&bch, &full));
            assert_eq!(
                bch.encode(&BitVec::zeros(0)),
                BitVec::zeros(bch.parity_bits())
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds k")]
    fn decode_rejects_oversize_message() {
        let bch = Bch::new(10, 10);
        let mut data = BitVec::zeros(bch.max_data_bits() + 1);
        let mut parity = BitVec::zeros(bch.parity_bits());
        let _ = bch.decode(&mut data, &mut parity);
    }

    #[test]
    #[should_panic(expected = "exceeds k")]
    fn decode_batch_rejects_oversize_message() {
        let bch = Bch::new(10, 1);
        let mut data = vec![BitVec::zeros(bch.max_data_bits() + 1)];
        let mut parity = vec![BitVec::zeros(bch.parity_bits())];
        let _ = bch.decode_batch(&mut data, &mut parity);
    }

    #[test]
    fn decode_matches_reference_with_roots_in_the_shortened_region() {
        // Give the received word the syndromes of an error pattern that
        // includes positions past the used length: flip the used positions
        // directly and add the shortened ones' remainders x^e mod g into
        // the parity. σ then has roots in the shortened region, and every
        // decoder must reject the word without touching it.
        let bch = Bch::new(10, 4);
        let data_bits = 128;
        let pb = bch.parity_bits();
        let used = pb + data_bits;
        let unit_remainder = |e: usize| {
            let mut d = BitVec::zeros(e - pb + 1);
            d.set(e - pb, true);
            bch.encode(&d)
        };
        for (i, shortened) in [vec![used], vec![900, 1000], vec![used + 5, 1022]]
            .iter()
            .enumerate()
        {
            for inside in 0..=(bch.t() - shortened.len()) {
                let data = pseudo_data(data_bits, 11 + i as u64);
                let mut parity = bch.encode(&data);
                for &e in shortened {
                    parity.xor_assign(&unit_remainder(e));
                }
                let flips: Vec<usize> = (0..inside).map(|k| (k * 37 + i) % used).collect();
                let (d, p) = noisy(&data, &parity, &flips);
                let (mut rd, mut rp) = (d.clone(), p.clone());
                assert_eq!(
                    bch.decode_reference(&mut rd, &mut rp),
                    Err(BchError::Uncorrectable)
                );
                let (mut sd, mut sp) = (d.clone(), p.clone());
                assert_eq!(bch.decode(&mut sd, &mut sp), Err(BchError::Uncorrectable));
                assert_eq!((sd, sp), (d, p), "rejected word is untouched");
            }
        }
    }

    #[test]
    fn one_error_shortcut_matches_reference() {
        // BCH-10/512 and BCH-1/708 at 0, 1, 2, t and t + 1 errors, all in
        // the parity, all in the data and spread over both; then single
        // remainders of shortened positions, alone and with a flip, so S1
        // points past the used length. `decode` must return what
        // `decode_reference` does and leave the same bits.
        for (t, data_bits) in [(10, 512), (1, 708)] {
            let bch = Bch::new(10, t);
            let pb = bch.parity_bits();
            let used = pb + data_bits;
            let unit_remainder = |e: usize| {
                let mut d = BitVec::zeros(e - pb + 1);
                d.set(e - pb, true);
                bch.encode(&d)
            };
            let mut x = 0x5EED_u64 + t as u64;
            let mut pick = |lo: usize, hi: usize, k: usize| {
                let mut flips = Vec::new();
                while flips.len() < k {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let e = lo + (x % (hi - lo) as u64) as usize;
                    if !flips.contains(&e) {
                        flips.push(e);
                    }
                }
                flips
            };
            let mut cases = Vec::new();
            for weight in [0, 1, 2, t, t + 1] {
                for _ in 0..20 {
                    for (lo, hi) in [(0, pb), (pb, used), (0, used)] {
                        cases.push((pick(lo, hi, weight), None));
                    }
                }
            }
            for shortened in [used, used + 1, bch.n() - 1] {
                cases.push((Vec::new(), Some(shortened)));
                for _ in 0..20 {
                    cases.push((pick(0, used, 1), Some(shortened)));
                }
            }
            let mut single = 0;
            for (i, (flips, shortened)) in cases.iter().enumerate() {
                let data = pseudo_data(data_bits, 40 + i as u64);
                let mut parity = bch.encode(&data);
                if let Some(e) = shortened {
                    parity.xor_assign(&unit_remainder(*e));
                }
                let (d, p) = noisy(&data, &parity, flips);
                let (mut rd, mut rp) = (d.clone(), p.clone());
                let (mut sd, mut sp) = (d, p);
                let expected = bch.decode_reference(&mut rd, &mut rp);
                let got = bch.decode(&mut sd, &mut sp);
                let case = format!("BCH-{t} flips {flips:?} shortened {shortened:?}");
                assert_eq!(got, expected, "{case}");
                assert_eq!((sd, sp), (rd, rp), "{case}");
                single += usize::from(got == Ok(1));
            }
            assert!(single >= 60, "BCH-{t}: {single} one-error corrections");
        }
    }

    #[test]
    fn decode_matches_reference_at_every_weight_up_to_capacity() {
        // 64 words, error weights 0..=t per word (cycling), positions
        // spread across parity, data, and the boundary — for the paper's
        // BCH-10 code and smaller t=4 and t=3 codes.
        for (m, t, bits) in [(10u32, 10usize, 512usize), (10, 4, 512), (8, 3, 120)] {
            let bch = Bch::new(m, t);
            let used = bch.parity_bits() + bits;
            let lanes: Vec<Vec<usize>> = (0..64)
                .map(|l| {
                    let w = l % (t + 1);
                    (0..w)
                        .map(|i| (l * 131 + i * (used / t.max(1))) % used)
                        .collect::<Vec<_>>()
                })
                .map(|mut v: Vec<usize>| {
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            assert_decode_matches_reference(&bch, bits, lanes, &format!("m={m} t={t}"));
        }
    }

    #[test]
    fn decode_matches_reference_beyond_capacity() {
        // Words carrying t+1 .. 2t+3 errors: `decode` must agree with the
        // reference on every failure (and on any lucky miscorrection).
        let bch = Bch::new(10, 4);
        let used = bch.parity_bits() + 512;
        let lanes: Vec<Vec<usize>> = (0..64)
            .map(|l| {
                let w = 5 + l % 7;
                let mut v: Vec<usize> = (0..w).map(|i| (l * 997 + i * 83 + 7) % used).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        assert_decode_matches_reference(&bch, 512, lanes, "overweight");
    }

    #[test]
    fn batch_empty_and_all_clean() {
        let bch = Bch::new(10, 4);
        assert!(bch.decode_batch(&mut [], &mut []).is_empty());
        let data: Vec<BitVec> = (0..5).map(|l| pseudo_data(512, l + 1)).collect();
        let mut parity: Vec<BitVec> = data.iter().map(|d| bch.encode(d)).collect();
        let mut d = data.clone();
        let res = bch.decode_batch(&mut d, &mut parity);
        assert_eq!(res, vec![Ok(0); 5]);
        assert_eq!(d, data);
    }

    #[test]
    fn codes_share_tables_through_the_registry() {
        let a = Bch::new(10, 10);
        let b = Bch::new(10, 10);
        assert!(
            Arc::ptr_eq(&a.tables, &b.tables),
            "same (m, t) must share one table set"
        );
        let c = Bch::new(10, 1);
        assert!(!Arc::ptr_eq(&a.tables, &c.tables));
        // Distinct codes over the same field still share the GF tables.
        assert!(Arc::ptr_eq(&a.tables.gf, &c.tables.gf));
        let cloned = a.clone();
        assert!(Arc::ptr_eq(&a.tables, &cloned.tables));
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        let bch = Bch::new(10, 10);
        for fill in [false, true] {
            let data = BitVec::from_bools(&vec![fill; 512]);
            let parity = bch.encode(&data);
            let flips: Vec<usize> = (0..10).map(|i| 37 * i + 2).collect();
            let (mut d, mut p) = noisy(&data, &parity, &flips);
            assert_eq!(bch.decode(&mut d, &mut p), Ok(10), "fill={fill}");
            assert_eq!(d, data);
        }
    }

    /// `(S1, S3)` of a received word, taken from its remainder as
    /// `decode` takes them.
    fn word_s1_s3(bch: &Bch, d: &BitVec, p: &BitVec) -> (u32, u32) {
        bch.with_remainder(d, Some(p), |rem| {
            assert!(rem.iter().any(|&w| w != 0), "word is clean");
            bch.s1_s3(rem)
        })
    }

    /// Decode a copy of `(d, p)` with both decoders; demand the same
    /// result and bits, and return the result.
    fn decode_both(bch: &Bch, d: &BitVec, p: &BitVec, case: &str) -> Result<usize, BchError> {
        let (mut rd, mut rp) = (d.clone(), p.clone());
        let want = bch.decode_reference(&mut rd, &mut rp);
        let (mut sd, mut sp) = (d.clone(), p.clone());
        assert_eq!(bch.decode(&mut sd, &mut sp), want, "{case}");
        assert_eq!((sd, sp), (rd, rp), "{case}: bits");
        want
    }

    /// Noisy BCH-`t`/`data_bits` words with `weight` errors, drawn from a
    /// seeded xorshift, until `accept` takes one: returns its flips and
    /// the noisy word.
    fn find_word(
        bch: &Bch,
        data_bits: usize,
        weight: usize,
        mut accept: impl FnMut(&[usize], &BitVec, &BitVec) -> bool,
    ) -> (Vec<usize>, BitVec, BitVec) {
        let used = bch.parity_bits() + data_bits;
        let mut x = 0xB0C4_u64 + weight as u64;
        for seed in 0..100_000u64 {
            let mut flips = Vec::new();
            while flips.len() < weight {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let e = (x % used as u64) as usize;
                if !flips.contains(&e) {
                    flips.push(e);
                }
            }
            let data = pseudo_data(data_bits, seed + 1);
            let (d, p) = noisy(&data, &bch.encode(&data), &flips);
            if accept(&flips, &d, &p) {
                return (flips, d, p);
            }
        }
        panic!("no word of weight {weight} found");
    }

    #[test]
    fn zero_s1_with_a_nonzero_remainder_takes_the_general_path() {
        // Three errors at a, b and c = log(α^a + α^b): S1 = 0 names no
        // single error and no pair, yet the word is dirty. BCH-10 corrects
        // all three; BCH-2 must agree with the reference on the failure.
        for (t, want) in [(10, Ok(3)), (2, Err(BchError::Uncorrectable))] {
            let bch = Bch::new(10, t);
            let gf = &*bch.tables.gf;
            let used = bch.parity_bits() + 512;
            let mut words = 0;
            for (a, b) in [(3, 200), (99, 100), (150, 511), (0, 1), (20, 400)] {
                let c = gf.log(gf.alog(a) ^ gf.alog(b)) as usize;
                if c >= used {
                    continue;
                }
                let data = pseudo_data(512, a as u64);
                let (d, p) = noisy(&data, &bch.encode(&data), &[a, b, c]);
                assert_eq!(word_s1_s3(&bch, &d, &p).0, 0);
                let case = format!("BCH-{t} flips {a}, {b}, {c}");
                assert_eq!(decode_both(&bch, &d, &p, &case), want, "{case}");
                words += 1;
            }
            assert!(words >= 2, "BCH-{t}: {words} words");
        }
    }

    #[test]
    fn two_error_solve_without_a_quadratic_root_falls_through() {
        // A 3-error BCH-10 word whose (S1, S3) give a c of trace 1: y² + y
        // = c has no root, so no pair is tried and the general path
        // corrects all three.
        let bch = Bch::new(10, 10);
        let gf = &*bch.tables.gf;
        let (flips, d, p) = find_word(&bch, 512, 3, |_, d, p| {
            let (s1, s3) = word_s1_s3(&bch, d, p);
            let s1_cubed = gf.mul(gf.mul(s1, s1), s1);
            s1 != 0 && s3 != s1_cubed && bch.error_pair(s1, s1_cubed, s3).is_none()
        });
        let case = format!("flips {flips:?}");
        assert_eq!(decode_both(&bch, &d, &p, &case), Ok(3), "{case}");
    }

    #[test]
    fn error_pair_with_a_position_in_the_shortened_region_is_rejected() {
        // One flip at a used position a plus the remainder of a shortened
        // position b: (S1, S3) solve to exactly {a, b}, and b is past the
        // used length, so the word is uncorrectable and left untouched.
        for t in [2, 10] {
            let bch = Bch::new(10, t);
            let gf = &*bch.tables.gf;
            let pb = bch.parity_bits();
            let used = pb + 512;
            for (a, b) in [(7, used), (pb + 300, used + 9), (used - 1, bch.n() - 1)] {
                let data = pseudo_data(512, b as u64);
                let mut parity = bch.encode(&data);
                let mut unit = BitVec::zeros(b - pb + 1);
                unit.set(b - pb, true);
                parity.xor_assign(&bch.encode(&unit));
                let (d, p) = noisy(&data, &parity, &[a]);
                let (s1, s3) = word_s1_s3(&bch, &d, &p);
                let s1_cubed = gf.mul(gf.mul(s1, s1), s1);
                let mut pair = bch.error_pair(s1, s1_cubed, s3).expect("a pair");
                pair.sort_unstable();
                assert_eq!(pair, [a as u32, b as u32]);
                let case = format!("BCH-{t} used {a}, shortened {b}");
                let got = decode_both(&bch, &d, &p, &case);
                assert_eq!(got, Err(BchError::Uncorrectable), "{case}");
            }
        }
    }

    #[test]
    fn error_pair_that_leaves_no_codeword_falls_through() {
        // 3- and 4-error words whose (S1, S3) solve to a pair inside the
        // used length: toggling it does not reach a codeword, so the pair
        // must be undone. BCH-10 then corrects every error; BCH-2 agrees
        // with the reference, whatever it returns.
        for (t, weight) in [(10, 3), (10, 4), (2, 3), (2, 4)] {
            let bch = Bch::new(10, t);
            let gf = &*bch.tables.gf;
            let used = (bch.parity_bits() + 512) as u32;
            let (flips, d, p) = find_word(&bch, 512, weight, |_, d, p| {
                let (s1, s3) = word_s1_s3(&bch, d, p);
                let s1_cubed = gf.mul(gf.mul(s1, s1), s1);
                s1 != 0
                    && s3 != s1_cubed
                    && bch
                        .error_pair(s1, s1_cubed, s3)
                        .is_some_and(|pair| pair.iter().all(|&e| e < used))
            });
            let case = format!("BCH-{t} flips {flips:?}");
            let got = decode_both(&bch, &d, &p, &case);
            if t == 10 {
                assert_eq!(got, Ok(weight), "{case}");
            }
        }
    }
}
