//! Page allocation: free space is whatever the page graph does not reach.
//!
//! Nothing on the device records which pages are free. `open` walks the
//! directory and every value chain (`PcmStore::fsck`'s walk) and builds
//! an in-memory bitmap from the pages it did not reach; from then on the
//! [`Allocator`] hands out and takes back pages in memory only. A put
//! writes its new chain into free pages, flips one directory slot, and
//! only then frees the old chain in memory, so a crash at any point
//! leaves at most unreachable pages — which the next `open` reclaims.
//! This is the crash-consistency argument of a persistent allocator
//! whose free state is rebuilt on recovery, with the explicit,
//! CRC-first page allocation of a block file.
//!
//! A `Mutex` over the bitmap makes allocate/free atomic across threads:
//! two concurrent allocations never see the same free bit, so a page is
//! handed out at most once — the property `tests/store_crash.rs`
//! hammers at 1/2/8 sessions. The allocator does no device I/O, so its
//! lock is a leaf: callers may hold a directory stripe when calling in,
//! and nothing is acquired while it is held.

use crate::error::StoreError;
use crate::page::{Page, PageDefect, PageType};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Magic ("PCMSTOR1", little-endian) identifying a formatted device.
pub const MAGIC: u64 = u64::from_le_bytes(*b"PCMSTOR1");
/// On-device format version. Version 1 kept a free list rooted in the
/// superblock; version 2 keeps no free-space state on the device.
pub const VERSION: u32 = 2;
/// Payload bytes the version-2 superblock uses.
const SUPER_LEN: u16 = 20;

/// The superblock contents (page 0 payload), written once by `format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Total pages (= device blocks).
    pub pages: u32,
    /// Hash-directory bucket count (bucket `b` lives at page `1 + b`).
    pub dir_buckets: u32,
}

impl Superblock {
    /// Serialize into a page image.
    pub fn to_page(self) -> Page {
        let mut p = Page::empty(PageType::Super);
        p.payload[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        p.payload[8..12].copy_from_slice(&VERSION.to_le_bytes());
        p.payload[12..16].copy_from_slice(&self.pages.to_le_bytes());
        p.payload[16..20].copy_from_slice(&self.dir_buckets.to_le_bytes());
        p.len = SUPER_LEN;
        p
    }

    /// Parse from a decoded page (which must be [`PageType::Super`]).
    /// The version is checked before the layout, so an image of another
    /// version is reported as [`StoreError::BadVersion`].
    pub fn from_page(p: &Page) -> Result<Superblock, StoreError> {
        let corrupt = |defect| StoreError::CorruptPage { page: 0, defect };
        if p.page_type != PageType::Super {
            return Err(corrupt(PageDefect::WrongPage));
        }
        let word = |at: usize| {
            u32::from_le_bytes([
                p.payload[at],
                p.payload[at + 1],
                p.payload[at + 2],
                p.payload[at + 3],
            ])
        };
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&p.payload[0..8]);
        if u64::from_le_bytes(magic) != MAGIC {
            return Err(corrupt(PageDefect::WrongPage));
        }
        let version = word(8);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        if p.len != SUPER_LEN {
            return Err(corrupt(PageDefect::WrongPage));
        }
        Ok(Superblock {
            pages: word(12),
            dir_buckets: word(16),
        })
    }
}

/// The free set: one bit per page, set when the page is free.
#[derive(Debug)]
struct FreeMap {
    bits: Vec<u64>,
    count: u32,
}

/// The page allocator: a mutex-guarded in-memory free bitmap.
#[derive(Debug)]
pub struct Allocator {
    state: Mutex<FreeMap>,
}

impl Allocator {
    /// An allocator whose free set is `bits` (bit `p % 64` of word
    /// `p / 64` set when page `p` is free).
    pub fn new(bits: Vec<u64>) -> Allocator {
        let count = bits.iter().map(|w| w.count_ones()).sum();
        Allocator {
            state: Mutex::new(FreeMap { bits, count }),
        }
    }

    /// The single allocator-lock acquisition site. Poisoning is
    /// recovered by taking the inner state: every mutation updates the
    /// bits and the count together with no call in between.
    fn lock_state(&self) -> MutexGuard<'_, FreeMap> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Free pages available.
    pub fn free_pages(&self) -> u32 {
        self.lock_state().count
    }

    /// Whether `page` is in the free set.
    #[cfg(test)]
    pub(crate) fn is_free(&self, page: u32) -> bool {
        let st = self.lock_state();
        let (word, bit) = slot(page);
        // Indexed rather than `.get(..)`: the lock-order analysis
        // resolves a `get` call to every method of that name.
        word < st.bits.len() && st.bits[word] & bit != 0
    }

    /// Take the `n` lowest free pages, in ascending order, or
    /// [`StoreError::StoreFull`] (taking nothing) if fewer are free.
    pub fn allocate_chain(&self, n: usize) -> Result<Vec<u32>, StoreError> {
        let mut st = self.lock_state();
        if (st.count as usize) < n {
            return Err(StoreError::StoreFull);
        }
        let mut pages = Vec::with_capacity(n);
        for (w, word) in st.bits.iter_mut().enumerate() {
            while *word != 0 && pages.len() < n {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                pages.push(w as u32 * 64 + bit);
            }
            if pages.len() == n {
                break;
            }
        }
        st.count -= n as u32;
        Ok(pages)
    }

    /// Take the lowest free page.
    pub fn allocate(&self) -> Result<u32, StoreError> {
        self.allocate_chain(1)?
            .first()
            .copied()
            .ok_or(StoreError::StoreFull)
    }

    /// Return pages to the free set. Freeing a page that is already
    /// free changes nothing.
    pub fn free_chain(&self, pages: &[u32]) {
        if pages.is_empty() {
            return;
        }
        let mut st = self.lock_state();
        for &page in pages {
            let (word, bit) = slot(page);
            if let Some(w) = st.bits.get_mut(word) {
                if *w & bit == 0 {
                    *w |= bit;
                    st.count += 1;
                }
            }
        }
    }
}

/// Word index and bit mask of `page` in a free bitmap.
pub(crate) fn slot(page: u32) -> (usize, u64) {
    (page as usize / 64, 1u64 << (page % 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            pages: 128,
            dir_buckets: 16,
        };
        let page = sb.to_page();
        let decoded = Page::decode(&page.encode()).unwrap();
        assert_eq!(Superblock::from_page(&decoded), Ok(sb));
    }

    #[test]
    fn superblock_rejects_bad_magic_and_version() {
        let sb = Superblock {
            pages: 8,
            dir_buckets: 2,
        };
        let mut page = sb.to_page();
        page.payload[0] ^= 0xFF;
        assert!(matches!(
            Superblock::from_page(&page),
            Err(StoreError::CorruptPage { page: 0, .. })
        ));

        let mut page = sb.to_page();
        page.payload[8] = 99;
        assert_eq!(
            Superblock::from_page(&page),
            Err(StoreError::BadVersion(99))
        );

        // A version-1 image: magic, version, pages, buckets, then the
        // free-list head and count it kept in the superblock.
        let mut v1 = Page::empty(PageType::Super);
        v1.payload[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        for (i, word) in [1u32, 128, 16, 17, 110].into_iter().enumerate() {
            v1.payload[8 + 4 * i..12 + 4 * i].copy_from_slice(&word.to_le_bytes());
        }
        v1.len = 28;
        let v1 = Page::decode(&v1.encode()).unwrap();
        assert_eq!(Superblock::from_page(&v1), Err(StoreError::BadVersion(1)));
    }

    #[test]
    fn allocates_lowest_pages_and_frees_in_memory() {
        let mut bits = vec![0u64; 3];
        for p in [5u32, 70, 71, 130] {
            let (w, b) = slot(p);
            bits[w] |= b;
        }
        let a = Allocator::new(bits);
        assert_eq!(a.free_pages(), 4);
        assert_eq!(a.allocate_chain(3), Ok(vec![5, 70, 71]));
        assert_eq!(a.allocate_chain(2), Err(StoreError::StoreFull));
        assert_eq!(a.free_pages(), 1);
        a.free_chain(&[70, 5, 70]);
        assert_eq!(a.free_pages(), 3);
        assert!(a.is_free(5) && a.is_free(70) && !a.is_free(71));
        assert_eq!(a.allocate(), Ok(5));
        assert_eq!(a.allocate_chain(2), Ok(vec![70, 130]));
        assert_eq!(a.allocate(), Err(StoreError::StoreFull));
    }
}
