//! The hash-directory index: fixed bucket pages with overflow chains.
//!
//! Bucket `b` of the directory lives at the fixed page id `1 + b`
//! (right after the superblock), so lookups start with one page read
//! and no indirection. Each index page packs up to
//! [`ENTRIES_PER_PAGE`] `(key, head)` entries into its payload; when a
//! bucket overflows, a further index page is allocated like a value
//! page and chained via `next` — the B+Tree-page exemplar's compact
//! header, without the ordering machinery a hash directory doesn't
//! need. The buckets are the roots of the page graph: a page no bucket
//! reaches is free (see [`crate::fsck`]).
//!
//! The bucket hash is SplitMix64, a fixed bijective mixer: deterministic
//! across runs and platforms (a seeded `HashMap` would not be), and
//! strong enough to spread the workload generator's zipfian keys.

use crate::page::{Page, PageDefect, PageType, PAGE_PAYLOAD_BYTES};

/// Bytes per directory entry: key (8) + chain head page id (4).
pub const ENTRY_BYTES: usize = 12;
/// Entries per index page.
pub const ENTRIES_PER_PAGE: usize = PAGE_PAYLOAD_BYTES / ENTRY_BYTES;

/// SplitMix64's output mixer: bijective, cheap, well-spread.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The bucket a key hashes to.
pub fn bucket_of(key: u64, buckets: u32) -> u32 {
    debug_assert!(buckets > 0);
    (mix64(key) % buckets.max(1) as u64) as u32
}

/// The fixed page id of a bucket's first index page.
pub fn bucket_page(bucket: u32) -> u32 {
    1 + bucket
}

/// Decode an index page's `(key, head)` entries.
pub fn entries(p: &Page) -> Result<Vec<(u64, u32)>, PageDefect> {
    if p.page_type != PageType::Index || !(p.len as usize).is_multiple_of(ENTRY_BYTES) {
        return Err(PageDefect::WrongPage);
    }
    let mut out = Vec::with_capacity(p.len as usize / ENTRY_BYTES);
    let mut at = 0;
    while at + ENTRY_BYTES <= p.len as usize {
        let mut key = [0u8; 8];
        key.copy_from_slice(&p.payload[at..at + 8]);
        let mut head = [0u8; 4];
        head.copy_from_slice(&p.payload[at + 8..at + 12]);
        out.push((u64::from_le_bytes(key), u32::from_le_bytes(head)));
        at += ENTRY_BYTES;
    }
    Ok(out)
}

/// Encode `(key, head)` entries into an index page, preserving its
/// `next` link. At most [`ENTRIES_PER_PAGE`] entries are stored; excess
/// entries are ignored (callers chain a new page instead).
pub fn set_entries(p: &mut Page, list: &[(u64, u32)]) {
    p.page_type = PageType::Index;
    p.payload = [0; PAGE_PAYLOAD_BYTES];
    let n = list.len().min(ENTRIES_PER_PAGE);
    for (i, &(key, head)) in list.iter().take(n).enumerate() {
        let at = i * ENTRY_BYTES;
        p.payload[at..at + 8].copy_from_slice(&key.to_le_bytes());
        p.payload[at + 8..at + 12].copy_from_slice(&head.to_le_bytes());
    }
    p.len = (n * ENTRY_BYTES) as u16;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_entries_fit_one_page() {
        assert_eq!(ENTRIES_PER_PAGE, 3);
        let mut p = Page::empty(PageType::Index);
        let list = [(1u64, 10u32), (2, 20), (3, 30)];
        set_entries(&mut p, &list);
        assert_eq!(entries(&p).unwrap(), list);
    }

    #[test]
    fn buckets_are_stable_and_in_range() {
        for key in 0..1000u64 {
            let b = bucket_of(key, 16);
            assert!(b < 16);
            assert_eq!(b, bucket_of(key, 16), "hash must be pure");
        }
        // The mixer actually spreads consecutive keys.
        let hits: std::collections::BTreeSet<u32> = (0..64u64).map(|k| bucket_of(k, 16)).collect();
        assert!(hits.len() > 8, "only {} buckets hit", hits.len());
    }

    #[test]
    fn non_index_pages_are_rejected() {
        let p = Page::empty(PageType::Data);
        assert_eq!(entries(&p), Err(PageDefect::WrongPage));
        let mut p = Page::empty(PageType::Index);
        p.len = 5; // not a multiple of the entry size
        assert_eq!(entries(&p), Err(PageDefect::WrongPage));
    }
}
