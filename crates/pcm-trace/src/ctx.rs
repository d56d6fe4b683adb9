//! Correlation-id (`ctx`) vocabulary for causal request profiling.
//!
//! Every top-level operation — a KV op in `pcm-store`, a demand
//! read/write in a device engine, a scrub pass — allocates one integer
//! `ctx` and stamps it on every child trace event it causes. The id is
//! a packed `u64`:
//!
//! ```text
//! bits 62..=63   class     (0 = none, 1 = demand, 2 = scrub, 3 = kv)
//! bit  61        index flag (child op touched directory/index
//!                            metadata rather than user data)
//! bits 32..=60   stream    (29-bit allocation stream: actor, bank, …)
//! bits  0..=31   seq       (per-stream split counter)
//! ```
//!
//! # Determinism
//!
//! Ids are allocated from **split counters**: each logical stream (a
//! workload actor, a bank's demand-op counter, a scrub schedule) owns
//! its own monotonically increasing `seq`, exactly like the
//! `Xoshiro256pp::split` RNG streams. An op's id is therefore a pure
//! function of *which stream issued it and how many came before on that
//! stream* — never of thread scheduling — so profiles built from the
//! trace are byte-identical across thread counts
//! (`tests/profile_determinism.rs`).

/// The "no correlation id" sentinel carried by events recorded outside
/// any tracked request (class bits 0).
pub const NO_CTX: u64 = 0;

/// Marks a child event as directory/index metadata work (set
/// on the parent's id before passing it to the device). The KV store
/// keeps its directory in memory and reads no index page at run time,
/// so flagged events are index-page writes only. The profile layer
/// buckets flagged media time under `alloc_index` instead of `media`;
/// [`ctx_base`] strips it so parent and child group together.
pub const CTX_INDEX_FLAG: u64 = 1 << 61;

const CLASS_SHIFT: u32 = 62;
const STREAM_SHIFT: u32 = 32;
const STREAM_MASK: u64 = (1 << 29) - 1;
const SEQ_MASK: u64 = u32::MAX as u64;

/// Who allocated a correlation id (bits 62–63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CtxClass {
    /// No id / untracked event.
    None,
    /// A demand device op issued directly against an engine (stream =
    /// bank).
    Demand,
    /// A scrub pass (stream = bank, seq = first launch tick of the
    /// pass — a pure function of the scrub schedule).
    Scrub,
    /// A KV operation in `pcm-store` (stream = workload actor + 1, or
    /// the anonymous session stream).
    Kv,
}

impl CtxClass {
    /// Wire code in bits 62–63.
    pub fn code(self) -> u64 {
        match self {
            CtxClass::None => 0,
            CtxClass::Demand => 1,
            CtxClass::Scrub => 2,
            CtxClass::Kv => 3,
        }
    }

    /// Inverse of [`CtxClass::code`].
    pub fn from_code(code: u64) -> CtxClass {
        match code & 3 {
            1 => CtxClass::Demand,
            2 => CtxClass::Scrub,
            3 => CtxClass::Kv,
            _ => CtxClass::None,
        }
    }

    /// Stable lowercase name (profile exports).
    pub fn name(self) -> &'static str {
        match self {
            CtxClass::None => "none",
            CtxClass::Demand => "demand",
            CtxClass::Scrub => "scrub",
            CtxClass::Kv => "kv",
        }
    }
}

/// Pack a correlation id. `stream` is masked to 29 bits.
pub fn pack_ctx(class: CtxClass, stream: u64, seq: u32) -> u64 {
    (class.code() << CLASS_SHIFT) | ((stream & STREAM_MASK) << STREAM_SHIFT) | seq as u64
}

/// The id's allocating class.
pub fn ctx_class(ctx: u64) -> CtxClass {
    CtxClass::from_code(ctx >> CLASS_SHIFT)
}

/// The id's allocation stream (29 bits).
pub fn ctx_stream(ctx: u64) -> u64 {
    (ctx >> STREAM_SHIFT) & STREAM_MASK
}

/// The id's per-stream sequence number.
pub fn ctx_seq(ctx: u64) -> u32 {
    (ctx & SEQ_MASK) as u32
}

/// The id with the index flag cleared — the grouping key that joins a
/// flagged child back to its parent request.
pub fn ctx_base(ctx: u64) -> u64 {
    ctx & !CTX_INDEX_FLAG
}

/// True when the id carries [`CTX_INDEX_FLAG`].
pub fn ctx_is_index(ctx: u64) -> bool {
    ctx & CTX_INDEX_FLAG != 0
}

/// A per-stream split counter handing out sequential ids for one
/// `(class, stream)` pair. Cheap, `Copy`-free, and single-owner: each
/// workload actor / session owns its own, so allocation order within a
/// stream is the op order within that stream — thread-count invariant.
#[derive(Debug, Clone)]
pub struct CtxCounter {
    class: CtxClass,
    stream: u64,
    next: u32,
}

impl CtxCounter {
    /// A fresh counter for `(class, stream)` starting at seq 0.
    pub fn new(class: CtxClass, stream: u64) -> CtxCounter {
        CtxCounter {
            class,
            stream,
            next: 0,
        }
    }

    /// Allocate the next id on this stream.
    pub fn allocate(&mut self) -> u64 {
        let seq = self.next;
        self.next = self.next.wrapping_add(1);
        pack_ctx(self.class, self.stream, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_and_accessors_round_trip() {
        let ctx = pack_ctx(CtxClass::Kv, 7, 42);
        assert_eq!(ctx_class(ctx), CtxClass::Kv);
        assert_eq!(ctx_stream(ctx), 7);
        assert_eq!(ctx_seq(ctx), 42);
        assert!(!ctx_is_index(ctx));
        assert_eq!(ctx_base(ctx), ctx);

        let flagged = ctx | CTX_INDEX_FLAG;
        assert!(ctx_is_index(flagged));
        assert_eq!(ctx_base(flagged), ctx);
        assert_eq!(ctx_class(flagged), CtxClass::Kv);
        assert_eq!(ctx_stream(flagged), 7);
    }

    #[test]
    fn stream_is_masked_to_29_bits() {
        let ctx = pack_ctx(CtxClass::Demand, u64::MAX, 1);
        assert_eq!(ctx_stream(ctx), STREAM_MASK);
        assert_eq!(ctx_class(ctx), CtxClass::Demand);
        assert_eq!(ctx_seq(ctx), 1);
    }

    #[test]
    fn no_ctx_is_class_none() {
        assert_eq!(ctx_class(NO_CTX), CtxClass::None);
        assert_eq!(NO_CTX, 0);
    }

    #[test]
    fn counter_hands_out_sequential_ids() {
        let mut c = CtxCounter::new(CtxClass::Scrub, 3);
        assert_eq!(ctx_seq(c.allocate()), 0);
        assert_eq!(ctx_seq(c.allocate()), 1);
        let third = c.allocate();
        assert_eq!(ctx_seq(third), 2);
        assert_eq!(ctx_class(third), CtxClass::Scrub);
        assert_eq!(ctx_stream(third), 3);
    }

    #[test]
    fn class_codes_round_trip() {
        for class in [
            CtxClass::None,
            CtxClass::Demand,
            CtxClass::Scrub,
            CtxClass::Kv,
        ] {
            assert_eq!(CtxClass::from_code(class.code()), class);
        }
    }
}
