//! The reachability walk: what `open` rebuilds free space from, and what
//! [`PcmStore::fsck`](crate::PcmStore::fsck) reports.
//!
//! The walk starts at the fixed bucket pages, follows each bucket's
//! overflow index pages and every value chain its entries name, and
//! marks each page it reaches. A page that is unreadable, fails its
//! CRC, has the wrong type for where it was reached or is reached a
//! second time is counted, kept marked (so it never joins the free set)
//! and not followed. Free space is the complement of the marks: every
//! page nothing reaches, except the superblock and the bucket pages.
//!
//! The same walk rebuilds the store's volatile directory
//! (`directory::Bucket`): each intact index page with its entries, each
//! entry's chain page ids or the damage on the chain, and the damaged
//! index page a bucket's chain stopped at, if any.

use crate::alloc::{slot, Superblock};
use crate::directory::{bucket_page, entries, Bucket, Damage, Entry, IndexPage};
use crate::error::{read_failure, StoreError};
use crate::page::{Page, PageDefect, PageType, FLAG_CHAIN_HEAD, NO_PAGE};
use crate::store::MAX_CHAIN_PAGES;
use pcm_device::ShardedPcmDevice;

/// What one walk of the page graph found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Pages reached by a second pointer (cross-linked chains, cycles,
    /// or a link into the superblock or a bucket page).
    pub reached_twice: u32,
    /// Reached pages that failed their CRC or could not be read.
    pub unreadable: u32,
    /// Reached pages of the wrong type, key or chain position for the
    /// pointer that reached them, and pointers past the device's end.
    pub wrong_type: u32,
    /// Pages the directory reaches, superblock and bucket pages excluded.
    pub reachable: u32,
    /// Pages nothing reaches: the store's free space.
    pub free: u32,
    /// Buckets whose rebuilt directory differs from the live store's
    /// in-memory one (always 0 for a walk at `open`).
    pub directory_mismatches: u32,
}

impl FsckReport {
    /// True when no page is reached twice, unreadable or of the wrong
    /// type, and the live directory matches the media.
    pub fn is_clean(&self) -> bool {
        self.reached_twice == 0
            && self.unreadable == 0
            && self.wrong_type == 0
            && self.directory_mismatches == 0
    }
}

/// Whether `page` may stand at position `first`/not-first of `key`'s
/// value chain: a data page of that key, flagged as the head if first.
pub(crate) fn fits_chain(page: &Page, key: u64, first: bool) -> bool {
    page.page_type == PageType::Data
        && page.key == key
        && (!first || page.flags & FLAG_CHAIN_HEAD != 0)
}

/// The walk's mutable state: the reached bitmap and the tallies.
struct Walk<'a> {
    dev: &'a ShardedPcmDevice,
    pages: u32,
    reached: Vec<u64>,
    report: FsckReport,
}

impl Walk<'_> {
    /// Mark `page` as reached through a pointer; false (and counted) if
    /// it lies past the device or was reached before.
    fn reach(&mut self, page: u32) -> bool {
        if page >= self.pages {
            self.report.wrong_type += 1;
            return false;
        }
        let (word, bit) = slot(page);
        match self.reached.get_mut(word) {
            Some(w) if *w & bit == 0 => {
                *w |= bit;
                self.report.reachable += 1;
                true
            }
            _ => {
                self.report.reached_twice += 1;
                false
            }
        }
    }

    /// Read and decode a reached page, or (counted) what made it
    /// unreadable. Device errors other than an uncorrectable block abort
    /// the walk.
    fn load(&mut self, page: u32) -> Result<Result<Page, Damage>, StoreError> {
        let decoded = match self.dev.read_block(page as usize) {
            Ok(report) => Page::decode(&report.data),
            Err(e) => match read_failure(page, e) {
                StoreError::CorruptPage { defect, .. } => Err(defect),
                other => return Err(other),
            },
        };
        if decoded.is_err() {
            self.report.unreadable += 1;
        }
        Ok(decoded.map_err(|defect| (page, defect)))
    }

    /// Walk one bucket: its index pages and every chain they name.
    fn bucket(&mut self, bucket: u32) -> Result<Bucket, StoreError> {
        let mut dir = Bucket::default();
        let mut at = bucket_page(bucket);
        loop {
            let page = match self.load(at)? {
                Ok(page) => page,
                Err(damage) => {
                    dir.damage = Some(damage);
                    return Ok(dir);
                }
            };
            let Ok(list) = entries(&page) else {
                self.report.wrong_type += 1;
                dir.damage = Some((at, PageDefect::WrongPage));
                return Ok(dir);
            };
            let mut index = IndexPage {
                id: at,
                next: page.next,
                entries: Vec::with_capacity(list.len()),
            };
            for (key, head) in list {
                let chain = self.chain(key, head)?;
                index.entries.push(Entry { key, head, chain });
            }
            dir.pages.push(index);
            if page.next == NO_PAGE {
                return Ok(dir);
            }
            if !self.reach(page.next) {
                dir.damage = Some((page.next, PageDefect::WrongPage));
                return Ok(dir);
            }
            at = page.next;
        }
    }

    /// Walk one value chain, with the checks `get` applies: its page ids,
    /// head first, or the first damage on it.
    fn chain(&mut self, key: u64, head: u32) -> Result<Result<Vec<u32>, Damage>, StoreError> {
        let mut pages = Vec::new();
        let mut at = head;
        loop {
            if !self.reach(at) {
                return Ok(Err((at, PageDefect::WrongPage)));
            }
            let page = match self.load(at)? {
                Ok(page) => page,
                Err(damage) => return Ok(Err(damage)),
            };
            if !fits_chain(&page, key, pages.is_empty()) {
                self.report.wrong_type += 1;
                return Ok(Err((at, PageDefect::WrongPage)));
            }
            pages.push(at);
            if page.next == NO_PAGE {
                return Ok(Ok(pages));
            }
            if pages.len() > MAX_CHAIN_PAGES {
                self.report.wrong_type += 1;
                return Ok(Err((at, PageDefect::WrongPage)));
            }
            at = page.next;
        }
    }
}

/// What one walk of the page graph rebuilt: the report, the free bitmap
/// (bit `p % 64` of word `p / 64` set when page `p` is free) and the
/// directory, one [`Bucket`] per bucket in bucket order.
pub(crate) struct Walked {
    pub report: FsckReport,
    pub free: Vec<u64>,
    pub buckets: Vec<Bucket>,
}

/// Walk the page graph of the store described by `sb`.
pub(crate) fn walk(dev: &ShardedPcmDevice, sb: Superblock) -> Result<Walked, StoreError> {
    let reserved = 1 + sb.dir_buckets;
    let mut walk = Walk {
        dev,
        pages: sb.pages,
        reached: reserved_bits(sb),
        report: FsckReport::default(),
    };
    let buckets = (0..sb.dir_buckets)
        .map(|bucket| walk.bucket(bucket))
        .collect::<Result<Vec<_>, _>>()?;
    let free = complement(&walk.reached, sb.pages);
    let mut report = walk.report;
    report.free = sb.pages.saturating_sub(reserved + report.reachable);
    debug_assert_eq!(
        report.free,
        free.iter().map(|w| w.count_ones()).sum::<u32>()
    );
    Ok(Walked {
        report,
        free,
        buckets,
    })
}

/// The free bitmap of a freshly formatted store: every page but the
/// superblock and the bucket pages.
pub(crate) fn formatted_free_bits(sb: Superblock) -> Vec<u64> {
    complement(&reserved_bits(sb), sb.pages)
}

/// A bitmap with the superblock and the bucket pages set.
fn reserved_bits(sb: Superblock) -> Vec<u64> {
    let mut bits = vec![0u64; (sb.pages as usize).div_ceil(64)];
    for page in 0..(1 + sb.dir_buckets).min(sb.pages) {
        let (word, bit) = slot(page);
        if let Some(w) = bits.get_mut(word) {
            *w |= bit;
        }
    }
    bits
}

/// The pages below `pages` whose bit is clear in `marked`.
fn complement(marked: &[u64], pages: u32) -> Vec<u64> {
    let mut bits = Vec::with_capacity(marked.len());
    for (w, word) in marked.iter().enumerate() {
        let below = (pages as usize).saturating_sub(w * 64);
        let valid = if below >= 64 {
            u64::MAX
        } else {
            (1u64 << below) - 1
        };
        bits.push(!word & valid);
    }
    bits
}
