//! # pcm-ecc — error correction for MLC-PCM
//!
//! Error-correcting-code substrate for the SC'13 MLC-PCM reproduction:
//!
//! * [`bitvec`] — packed bit vectors (codewords, messages, parity).
//! * [`gf`] — GF(2^m) arithmetic (log/antilog tables, m = 3..=13).
//! * [`poly`] — polynomials over GF(2^m) and GF(2).
//! * [`bch`] — shortened systematic binary BCH codes with full
//!   hard-decision decoding, remainder first: a byte-wise table-driven
//!   LFSR computes `c(x) mod g(x)`, whose zero is exactly the
//!   all-zero-syndrome condition (g is the LCM of the minimal
//!   polynomials of α¹…α^(2t)), so a clean word costs one LFSR pass.
//!   Only a dirty word pays for syndromes — taken from the remainder,
//!   since `g(α^j) = 0` gives `S_j = r(α^j)` — Berlekamp–Massey and an
//!   early-stopping Chien search. BCH-10 protects the 4LC block (§6.6);
//!   BCH-1 protects the 3LC 3-ON-2 codeword (§6.3).
//! * [`latency`] — the FO4 encoder/decoder latency model behind Table 3
//!   (18/569 FO4 for BCH-10 vs 18/68 for BCH-1).
//!
//! ```
//! use pcm_ecc::{bch::Bch, bitvec::BitVec};
//!
//! let bch = Bch::new(10, 10);               // the paper's 4LC code
//! let data = BitVec::from_bytes(&[0xA5; 64], 512);
//! let mut parity = bch.encode(&data);
//! let mut received = data.clone();
//! received.toggle(17);                      // a drift error
//! assert_eq!(bch.decode(&mut received, &mut parity), Ok(1));
//! assert_eq!(received, data);
//! ```

#![warn(missing_docs)]

pub mod bch;
pub mod bitvec;
pub mod gf;
pub mod latency;
pub mod poly;

pub use bch::{Bch, BchError};
pub use bitvec::BitVec;
pub use gf::GfTables;
