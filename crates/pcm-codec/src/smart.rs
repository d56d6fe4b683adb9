//! Smart (drift-aware) cell encoding for four-level cells (§5.1).
//!
//! Drift errors only strike the intermediate states, so an encoder that
//! makes S2/S3 *rarer* lowers the block's error exposure. The paper models
//! this abstractly as a skewed occupancy (35/15/15/35, the `4LCs` design)
//! and cites Helmet's selective inversion/rotation \[40\] and symbol-based
//! value encoding \[35\] as concrete mechanisms.
//!
//! This module implements the concrete mechanism: per block, try a small
//! family of state-space transforms (rotations and reflections of the
//! 4-state alphabet), pick the one that leaves the fewest cells in
//! vulnerable states, and record its 3-bit tag alongside the block. On
//! biased data (real memory content is rarely uniform) this approaches the
//! paper's assumed skew; on uniform random data it converges to 25% per
//! state — exactly the caveat §3 raises ("random signals and compressed or
//! encrypted data may defeat them").

/// Number of candidate transforms (tag fits in 3 bits).
pub const TRANSFORMS: usize = 8;

/// Apply transform `tag` to a state index: tags 0..=3 rotate by `tag`,
/// tags 4..=7 reflect then rotate by `tag − 4`.
#[inline]
pub fn apply(tag: u8, state: usize) -> usize {
    debug_assert!(state < 4);
    match tag {
        0..=3 => (state + tag as usize) % 4,
        4..=7 => (3 - state + (tag as usize - 4)) % 4,
        // pcm-lint: allow(no-panic-lib) — tag is 3 bits by construction; encode_block only emits 0..=7
        _ => panic!("tag {tag} out of range"),
    }
}

/// Invert transform `tag`.
#[inline]
pub fn unapply(tag: u8, state: usize) -> usize {
    debug_assert!(state < 4);
    match tag {
        0..=3 => (state + 4 - tag as usize) % 4,
        4..=7 => (3 + (tag as usize - 4) - state) % 4,
        // pcm-lint: allow(no-panic-lib) — tag is 3 bits by construction; encode_block only emits 0..=7
        _ => panic!("tag {tag} out of range"),
    }
}

/// Weight of each state in the cost function: vulnerable states (S2 = 1,
/// S3 = 2) cost; S3 costs more because its raw error rate is ~10× S2's
/// (Figure 3).
fn state_cost(state: usize) -> u32 {
    match state {
        1 => 1,
        2 => 10,
        _ => 0,
    }
}

/// Pick the cost-minimizing transform for a block of 4LC states and apply
/// it in place. Returns the 3-bit tag that [`decode_block`] needs.
pub fn encode_block<S: Copy + Into<usize> + From<u8>>(states: &mut [S]) -> u8 {
    let mut counts = [0u32; 4];
    for &s in states.iter() {
        counts[s.into()] += 1;
    }
    let (best_tag, _) = (0..TRANSFORMS as u8)
        .map(|tag| {
            let cost: u32 = (0..4).map(|s| counts[s] * state_cost(apply(tag, s))).sum();
            (tag, cost)
        })
        .min_by_key(|&(tag, cost)| (cost, tag))
        // pcm-lint: allow(no-panic-lib) — infallible: the iterator over TRANSFORMS = 8 candidate tags is never empty
        .expect("at least one transform");
    let map: [u8; 4] = std::array::from_fn(|s| apply(best_tag, s) as u8);
    for s in states.iter_mut() {
        *s = S::from(map[(*s).into()]);
    }
    best_tag
}

/// Undo [`encode_block`] given its tag.
pub fn decode_block<S: Copy + Into<usize> + From<u8>>(states: &mut [S], tag: u8) {
    let map: [u8; 4] = std::array::from_fn(|s| unapply(tag, s) as u8);
    for s in states.iter_mut() {
        *s = S::from(map[(*s).into()]);
    }
}

/// Fraction of cells in each state after smart encoding — the empirical
/// analogue of the 4LCs design's assumed 35/15/15/35 occupancy.
pub fn occupancy(states: &[usize]) -> [f64; 4] {
    let mut counts = [0usize; 4];
    for &s in states {
        counts[s] += 1;
    }
    let n = states.len().max(1) as f64;
    [
        counts[0] as f64 / n,
        counts[1] as f64 / n,
        counts[2] as f64 / n,
        counts[3] as f64 / n,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_driven_block_matches_per_state_transforms() {
        // The per-state originals: `apply`/`unapply` on every cell.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for len in [0usize, 1, 63, 64, 65, 100, 256, 512, 1000] {
            for bias in 0..4 {
                let original: Vec<usize> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x.is_multiple_of(3) {
                            bias
                        } else {
                            (x >> 8) as usize % 4
                        }
                    })
                    .collect();
                let mut states = original.clone();
                let tag = encode_block(&mut states);
                let mut counts = [0u32; 4];
                original.iter().for_each(|&s| counts[s] += 1);
                let cost = |t: u8| {
                    (0..4)
                        .map(|s| counts[s] * state_cost(apply(t, s)))
                        .sum::<u32>()
                };
                let best = (0..TRANSFORMS as u8).min_by_key(|&t| (cost(t), t)).unwrap();
                assert_eq!(tag, best);
                let want: Vec<usize> = original.iter().map(|&s| apply(tag, s)).collect();
                assert_eq!(states, want);
                let mut narrow: Vec<u8> = original.iter().map(|&s| s as u8).collect();
                assert_eq!(encode_block(&mut narrow), tag);
                assert!(narrow.iter().zip(&want).all(|(&a, &b)| usize::from(a) == b));
                for t in 0..TRANSFORMS as u8 {
                    let mut back = want.clone();
                    decode_block(&mut back, t);
                    let per_state: Vec<usize> = want.iter().map(|&s| unapply(t, s)).collect();
                    assert_eq!(back, per_state, "tag {t}");
                }
            }
        }
    }

    #[test]
    fn transforms_are_bijections() {
        for tag in 0..TRANSFORMS as u8 {
            let mut seen = [false; 4];
            for s in 0..4 {
                let t = apply(tag, s);
                assert!(!seen[t], "tag {tag} not a bijection");
                seen[t] = true;
                assert_eq!(unapply(tag, t), s, "tag {tag} inverse");
            }
        }
    }

    #[test]
    fn roundtrip_arbitrary_block() {
        let original: Vec<usize> = (0..256).map(|i| (i * 7 + 3) % 4).collect();
        let mut states = original.clone();
        let tag = encode_block(&mut states);
        decode_block(&mut states, tag);
        assert_eq!(states, original);
    }

    #[test]
    fn zero_heavy_data_avoids_vulnerable_states() {
        // Real memory is full of zero symbols. Naively (no transform),
        // Gray-coded zeros land in S1 already; make the data land in S3 and
        // watch the encoder rotate it out.
        let mut states = vec![2usize; 256]; // everything in S3
        encode_block(&mut states);
        let occ = occupancy(&states);
        assert_eq!(occ[2], 0.0, "S3 must be vacated: {occ:?}");
        assert_eq!(occ[1], 0.0, "an all-one-symbol block fits a safe state");
    }

    #[test]
    fn mixed_data_reduces_cost_vs_identity() {
        // 60% S3, 30% S2, 10% S1: the transform family must find something
        // strictly better than identity.
        let mut states: Vec<usize> = std::iter::repeat_n(2, 154)
            .chain(std::iter::repeat_n(1, 77))
            .chain(std::iter::repeat_n(0, 25))
            .collect();
        let before: u32 = states.iter().map(|&s| super::state_cost(s)).sum();
        encode_block(&mut states);
        let after: u32 = states.iter().map(|&s| super::state_cost(s)).sum();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn uniform_random_data_gains_little() {
        // The §3 caveat: uniform symbols defeat value-based encodings.
        let states_orig: Vec<usize> = (0..4096).map(|i| i % 4).collect();
        let mut states = states_orig.clone();
        encode_block(&mut states);
        let occ = occupancy(&states);
        for s in 0..4 {
            assert!((occ[s] - 0.25).abs() < 1e-9, "{occ:?}");
        }
    }

    #[test]
    fn occupancy_sums_to_one() {
        let states: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let occ = occupancy(&states);
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
