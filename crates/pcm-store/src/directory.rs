//! The hash-directory index: fixed bucket pages with overflow chains.
//!
//! Bucket `b` of the directory lives at the fixed page id `1 + b`
//! (right after the superblock), so a walk starts with one page read
//! and no indirection. Each index page packs up to
//! [`ENTRIES_PER_PAGE`] `(key, head)` entries into its payload; when a
//! bucket overflows, a further index page is allocated like a value
//! page and chained via `next` — the B+Tree-page exemplar's compact
//! header, without the ordering machinery a hash directory doesn't
//! need. The buckets are the roots of the page graph: a page no bucket
//! reaches is free (see [`crate::fsck`]).
//!
//! The store also keeps a volatile copy of the directory, rebuilt from
//! the media by every `open` (the crate-private `Bucket`, `IndexPage`
//! and `Entry`): enough to re-encode each index page's exact image, so
//! index pages are written from memory and read only at `open` and by
//! `fsck`.
//!
//! The bucket hash is SplitMix64, a fixed bijective mixer: deterministic
//! across runs and platforms (a seeded `HashMap` would not be), and
//! strong enough to spread the workload generator's zipfian keys.

use crate::error::StoreError;
use crate::page::{Page, PageDefect, PageType, NO_PAGE, PAGE_PAYLOAD_BYTES};

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

/// Damage the walk found: the page and what was wrong with it. A
/// lookup that runs into it reports [`StoreError::CorruptPage`].
pub(crate) type Damage = (u32, PageDefect);

/// The error a lookup reports for `damage`.
pub(crate) fn corrupt((page, defect): Damage) -> StoreError {
    StoreError::CorruptPage { page, defect }
}

/// One directory entry as the volatile directory holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The KV key.
    pub key: u64,
    /// The value chain's head page (what the index page stores).
    pub head: u32,
    /// The chain's page ids, head first, or the damage the walk found on
    /// it.
    pub chain: Result<Vec<u32>, Damage>,
}

/// One index page of a bucket as the volatile directory holds it:
/// enough to re-encode its exact media image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexPage {
    /// The page id.
    pub id: u32,
    /// The page's `next` link as stored ([`NO_PAGE`] on the tail).
    pub next: u32,
    /// Its entries, in stored order.
    pub entries: Vec<Entry>,
}

impl IndexPage {
    /// The media image of this page with `entries` in place of its own.
    pub fn image_with<'a>(&self, entries: impl IntoIterator<Item = &'a Entry>) -> Page {
        let mut list = [(0u64, 0u32); ENTRIES_PER_PAGE];
        let mut n = 0;
        for (slot, e) in list.iter_mut().zip(entries) {
            *slot = (e.key, e.head);
            n += 1;
        }
        let mut page = Page::empty(PageType::Index);
        set_entries(&mut page, &list[..n]);
        page.next = self.next;
        page
    }

    /// The media image of this page.
    pub fn image(&self) -> Page {
        self.image_with(&self.entries)
    }
}

/// One bucket of the volatile directory: its intact index pages in
/// chain order, and the damage (if any) the chain ran into after them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Bucket {
    /// Index pages in chain order, starting at the bucket page.
    pub pages: Vec<IndexPage>,
    /// The first index page past `pages` that was unreadable, of the
    /// wrong type or reached twice. A key not in `pages` may live past
    /// it, so a lookup of such a key reports it rather than a miss.
    pub damage: Option<Damage>,
}

impl Bucket {
    /// A freshly formatted bucket: one empty bucket page.
    pub fn formatted(bucket: u32) -> Bucket {
        Bucket {
            pages: vec![IndexPage {
                id: bucket_page(bucket),
                next: NO_PAGE,
                entries: Vec::new(),
            }],
            damage: None,
        }
    }

    /// Where `key`'s entry is: `(page, entry)` indices into `pages`,
    /// `None` on a miss, or the bucket's damage when the key is not in
    /// its intact pages.
    pub fn find(&self, key: u64) -> Result<Option<(usize, usize)>, StoreError> {
        for (p, page) in self.pages.iter().enumerate() {
            if let Some(e) = page.entries.iter().position(|e| e.key == key) {
                return Ok(Some((p, e)));
            }
        }
        match self.damage {
            Some(damage) => Err(corrupt(damage)),
            None => Ok(None),
        }
    }

    /// After a failed write of index page `pages[p]`, its media image is
    /// unknown: treat the bucket as damaged from that page on.
    pub fn fail_from(&mut self, p: usize) {
        let id = self.pages[p].id;
        self.pages.truncate(p);
        self.damage = Some((id, PageDefect::Unreadable));
    }
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
