//! Ternary cell symbols.
//!
//! The proposed three-level cell keeps states S1 (lowest resistance), S2,
//! and S4 (highest), skipping the drift-prone S3 (§5.2). A [`Trit`] names
//! one of those three states independent of where a particular
//! [`LevelDesign`](pcm_core::LevelDesign) puts their nominal resistances.

/// One ternary symbol: which of the three retained physical states a cell
/// is programmed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Trit {
    /// Lowest resistance (the paper's S1).
    S1,
    /// Middle resistance (the paper's S2).
    S2,
    /// Highest resistance (the paper's S4). Also the INV marker state when
    /// both cells of a pair hold it (§6.2).
    S4,
}

impl Trit {
    /// All trits, lowest resistance first.
    pub const ALL: [Trit; 3] = [Trit::S1, Trit::S2, Trit::S4];

    /// Dense index 0..=2 (S1 → 0, S2 → 1, S4 → 2) — also the state index
    /// within a three-level [`LevelDesign`](pcm_core::LevelDesign).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Trit::S1 => 0,
            Trit::S2 => 1,
            Trit::S4 => 2,
        }
    }

    /// Inverse of [`Trit::index`].
    #[inline]
    pub fn from_index(i: usize) -> Trit {
        match i {
            0 => Trit::S1,
            1 => Trit::S2,
            2 => Trit::S4,
            // pcm-lint: allow(no-panic-lib) — contract: trit indices are bounded by the 3-ON-2 group layout
            _ => panic!("trit index {i} out of range"),
        }
    }

    /// The transient-error-correction bit pattern of §6.3:
    /// S1 → 00, S2 → 01, S4 → 11, as `(low_bit, high_bit)`. A drift error
    /// (S1→S2 or S2→S4) flips exactly one bit. The pattern `(0, 1)`
    /// encodes no state; [`crate::tec::CODE_STATE`] is the inverse.
    #[inline]
    pub fn tec_bits(self) -> (bool, bool) {
        match self {
            Trit::S1 => (false, false),
            Trit::S2 => (true, false),
            Trit::S4 => (true, true),
        }
    }

    /// The state a drift error turns this trit into (`None` for the top
    /// state, which cannot drift anywhere).
    pub fn drift_successor(self) -> Option<Trit> {
        match self {
            Trit::S1 => Some(Trit::S2),
            Trit::S2 => Some(Trit::S4),
            Trit::S4 => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for t in Trit::ALL {
            assert_eq!(Trit::from_index(t.index()), t);
        }
    }

    #[test]
    fn tec_bits_roundtrip_and_reject_invalid() {
        for t in Trit::ALL {
            let (l, h) = t.tec_bits();
            let code = usize::from(l) | usize::from(h) << 1;
            assert_eq!(usize::from(crate::tec::CODE_STATE[code]), t.index());
        }
        // No trit maps to the `01` pattern (low = 0, high = 1).
        assert!(Trit::ALL.iter().all(|t| t.tec_bits() != (false, true)));
    }

    #[test]
    fn drift_error_is_single_bit_in_tec_domain() {
        for t in Trit::ALL {
            if let Some(next) = t.drift_successor() {
                let (l0, h0) = t.tec_bits();
                let (l1, h1) = next.tec_bits();
                let flips = usize::from(l0 != l1) + usize::from(h0 != h1);
                assert_eq!(flips, 1, "{t:?} -> {next:?}");
            }
        }
    }

    #[test]
    fn drift_chain_terminates_at_s4() {
        assert_eq!(Trit::S1.drift_successor(), Some(Trit::S2));
        assert_eq!(Trit::S2.drift_successor(), Some(Trit::S4));
        assert_eq!(Trit::S4.drift_successor(), None);
    }
}
