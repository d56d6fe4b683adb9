//! The KV store proper: get/put/delete over CRC-checked page chains.
//!
//! Layout (page = device block):
//!
//! * page 0 — superblock (see [`crate::alloc::Superblock`]), written
//!   once by `format`;
//! * pages `1 ..= dir_buckets` — fixed hash-directory bucket pages;
//! * everything else — data and overflow-index pages, or free. A page
//!   is free exactly when the directory does not reach it: `open`
//!   rebuilds the free set by walking the page graph
//!   ([`PcmStore::fsck`]), and the [`crate::alloc::Allocator`] keeps it
//!   in memory from then on. Allocation is explicit; a write never
//!   implicitly allocates.
//!
//! Values span `ceil(len / 44)` data pages chained via `next`; the head
//! page carries [`FLAG_CHAIN_HEAD`]. Every page read is CRC-verified
//! before any field is trusted, so the store returns the written value
//! or a typed [`StoreError::CorruptPage`] — never silently wrong bytes.
//!
//! The directory lives twice. The index pages on the media are
//! authoritative; the same walk that rebuilds the free set rebuilds a
//! volatile copy of them (`directory::Bucket`): each index page's
//! entries and `next`, each key's chain page ids, and any damage the
//! walk found. A get looks its chain head up in memory and reads
//! only the value chain; a put or delete re-encodes the index page it
//! changes from the in-memory image and reads nothing.
//!
//! A put writes its new chain tail-first into free pages, flips the
//! key's directory slot with one index-page write, updates the image,
//! and then frees the old chain in memory. A crash at any point
//! therefore leaves the old or the new value reachable and everything
//! else unreachable, which the next `open` counts as free.
//!
//! Damage found at `open` keeps being reported: a key that may live past
//! a damaged index page reads as [`StoreError::CorruptPage`], never as a
//! miss, and a put or delete of a key whose chain is damaged fails
//! without writing. A failed index-page write leaves that page's media
//! image unknown, so its bucket counts as damaged from that page on
//! until the next `open`.
//!
//! ## Concurrency
//!
//! A directory op locks exactly one bucket **stripe** (bucket id modulo
//! the stripe count), which guards that stripe's buckets of the
//! volatile directory; the allocator lock is a leaf taken inside a
//! stripe with no device call under it, and the device's bank locks are
//! taken by page reads and writes under the stripe alone. No path
//! acquires a second stripe or a stripe from inside the allocator, so
//! the lock order is acyclic. Within a stripe, ops on its buckets
//! serialize; ops on different stripes proceed concurrently
//! bank-contention permitting.

use crate::alloc::{Allocator, Superblock};
use crate::directory::{
    bucket_of, bucket_page, corrupt, mix64, Bucket, Entry, IndexPage, ENTRIES_PER_PAGE,
};
use crate::error::{read_failure, StoreError};
use crate::fsck::{fits_chain, formatted_free_bits, walk, FsckReport};
use crate::page::{Page, PageDefect, PageType, FLAG_CHAIN_HEAD, NO_PAGE, PAGE_PAYLOAD_BYTES};
use pcm_device::ShardedPcmDevice;
use pcm_trace::{
    ctx_is_index, pack_ctx, secs_to_ns, CtxClass, CtxCounter, OpKind, CTX_INDEX_FLAG, NO_CTX,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Longest supported value chain, pages.
pub const MAX_CHAIN_PAGES: usize = 64;
/// Longest supported value, bytes.
pub const MAX_VALUE_BYTES: usize = MAX_CHAIN_PAGES * PAGE_PAYLOAD_BYTES;

/// Data pages a value of `len` bytes occupies (an empty value still
/// owns its head page).
pub fn pages_for_value(len: usize) -> usize {
    len.div_ceil(PAGE_PAYLOAD_BYTES).max(1)
}

/// Store geometry knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Hash-directory buckets (fixed pages `1 ..= dir_buckets`).
    pub dir_buckets: u32,
    /// Bucket-stripe locks (concurrency width of the directory).
    pub stripes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            dir_buckets: 64,
            stripes: 16,
        }
    }
}

/// The reserved ctx stream for KV ops issued without a [`StoreSession`]
/// (plain `get`/`put`/`delete`). Sequence numbers on this stream come
/// from a store-global atomic, so they are *not* thread-count invariant
/// — callers who need invariant ids use sessions with explicit streams.
pub const ANON_KV_STREAM: u64 = 0x1FFF_FFFF;

/// Device reads/writes one KV op issued (drives span durations and the
/// "pages touched" trace payload), split by what the pages were for:
/// value data versus index (slot writes; index pages are never read at
/// run time), plus the modeled time they took.
#[derive(Debug, Clone, Copy, Default)]
struct OpCost {
    /// Value-chain page reads.
    pub data_reads: u64,
    /// Value-chain page writes.
    pub data_writes: u64,
    /// Directory page writes.
    pub index_writes: u64,
    /// Summed modeled durations the device returned for the op's page
    /// reads and writes: each one's busy window (a retried write runs
    /// longer than nominal) plus any scrub-debt stall it drained. This
    /// is exactly the sum of the op's child span durations in the
    /// trace, which is what makes per-request bucket attribution
    /// residual-free.
    pub model_ns: u64,
}

impl OpCost {
    fn touched(&self) -> u64 {
        self.data_reads + self.data_writes + self.index_writes
    }

    /// Record one value-page read of modeled duration `ns`.
    fn charge_read(&mut self, ns: u64) {
        self.data_reads += 1;
        self.model_ns += ns;
    }

    /// Record one page write of modeled duration `ns` against the right
    /// class, as named by the ctx's index flag.
    fn charge_write(&mut self, ctx: u64, ns: u64) {
        if ctx_is_index(ctx) {
            self.index_writes += 1;
        } else {
            self.data_writes += 1;
        }
        self.model_ns += ns;
    }
}

/// Mark a request ctx as performing index/metadata work. [`NO_CTX`]
/// stays [`NO_CTX`] — an untracked op must not gain a phantom id.
fn index_ctx(ctx: u64) -> u64 {
    if ctx == NO_CTX {
        NO_CTX
    } else {
        ctx | CTX_INDEX_FLAG
    }
}

/// A put step that failed after the put allocated pages: the page
/// whose write failed (if a write did), and the error.
type StepError = (Option<u32>, StoreError);

/// The buckets one stripe lock guards: bucket `b` is entry
/// `b / stripes` of stripe `b % stripes`.
type Stripe = Vec<Bucket>;

/// A key-value store on a sharded PCM device.
pub struct PcmStore {
    dev: ShardedPcmDevice,
    alloc: Allocator,
    pages: u32,
    dir_buckets: u32,
    stripes: Vec<Mutex<Stripe>>,
    /// Sequence counter for the [`ANON_KV_STREAM`] correlation stream.
    anon_seq: AtomicU64,
}

/// A correlation-id session over a store: every op issued through it
/// carries a ctx from one private `(stream, seq)` counter, so the id
/// stream depends only on how many ops *this session* has issued — not
/// on thread count or cross-session interleaving.
pub struct StoreSession<'a> {
    store: &'a PcmStore,
    ctx: CtxCounter,
}

impl StoreSession<'_> {
    /// Next ctx for one op; [`NO_CTX`] while tracing is disabled so the
    /// untraced path stays branch-cheap and event-free.
    fn next_ctx(&mut self) -> u64 {
        if self.store.dev.tracer().is_enabled() {
            self.ctx.allocate()
        } else {
            NO_CTX
        }
    }

    /// [`PcmStore::get`] under this session's correlation stream.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let ctx = self.next_ctx();
        self.store.get_with_ctx(key, ctx)
    }

    /// [`PcmStore::put`] under this session's correlation stream.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(), StoreError> {
        let ctx = self.next_ctx();
        self.store.put_with_ctx(key, value, ctx)
    }

    /// [`PcmStore::delete`] under this session's correlation stream.
    pub fn delete(&mut self, key: u64) -> Result<bool, StoreError> {
        let ctx = self.next_ctx();
        self.store.delete_with_ctx(key, ctx)
    }
}

impl PcmStore {
    /// Format `dev` with a fresh, empty store and open it.
    pub fn format(dev: ShardedPcmDevice, config: StoreConfig) -> Result<PcmStore, StoreError> {
        let blocks = dev.blocks();
        if blocks >= NO_PAGE as usize {
            return Err(StoreError::TooSmall {
                needed: NO_PAGE as usize - 1,
                have: blocks,
            });
        }
        let pages = blocks as u32;
        let dir_buckets = config.dir_buckets.max(1);
        let needed = 1 + dir_buckets as usize + 1;
        if blocks < needed {
            return Err(StoreError::TooSmall {
                needed,
                have: blocks,
            });
        }
        for b in 0..dir_buckets {
            let p = Page::empty(PageType::Index);
            dev.write_block(bucket_page(b) as usize, &p.encode())
                .map_err(StoreError::from)?;
        }
        // Program every other page once, so scrub sees the whole device
        // populated; nothing links these pages, which makes them free.
        let free = Page::empty(PageType::Free).encode();
        for page in 1 + dir_buckets..pages {
            dev.write_block(page as usize, &free)
                .map_err(StoreError::from)?;
        }
        let sb = Superblock { pages, dir_buckets };
        dev.write_block(0, &sb.to_page().encode())
            .map_err(StoreError::from)?;
        Ok(Self::assemble(
            dev,
            sb,
            formatted_free_bits(sb),
            (0..dir_buckets).map(Bucket::formatted).collect(),
            config.stripes,
        ))
    }

    /// Open an already-formatted device: validate the superblock, then
    /// walk the directory and every value chain, keep what the walk
    /// found as the volatile directory, and take the pages it did not
    /// reach as free space. A damaged page is counted by the walk, kept
    /// out of the free set and remembered by the directory; it does not
    /// fail the open.
    pub fn open(dev: ShardedPcmDevice) -> Result<PcmStore, StoreError> {
        Self::open_with(dev, StoreConfig::default().stripes)
    }

    /// [`PcmStore::open`] with an explicit stripe count.
    pub fn open_with(dev: ShardedPcmDevice, stripes: usize) -> Result<PcmStore, StoreError> {
        let report = dev.read_block(0).map_err(|e| read_failure(0, e))?;
        let page = Page::decode(&report.data)
            .map_err(|defect| StoreError::CorruptPage { page: 0, defect })?;
        let sb = Superblock::from_page(&page)?;
        if sb.pages as usize != dev.blocks() {
            return Err(StoreError::TooSmall {
                needed: sb.pages as usize,
                have: dev.blocks(),
            });
        }
        let walked = walk(&dev, sb)?;
        Ok(Self::assemble(
            dev,
            sb,
            walked.free,
            walked.buckets,
            stripes,
        ))
    }

    fn assemble(
        dev: ShardedPcmDevice,
        sb: Superblock,
        free: Vec<u64>,
        buckets: Vec<Bucket>,
        stripes: usize,
    ) -> PcmStore {
        let stripe_count = stripes.max(1).min(sb.dir_buckets as usize);
        let mut split: Vec<Stripe> = (0..stripe_count).map(|_| Vec::new()).collect();
        for (b, bucket) in buckets.into_iter().enumerate() {
            split[b % stripe_count].push(bucket);
        }
        PcmStore {
            dev,
            alloc: Allocator::new(free),
            pages: sb.pages,
            dir_buckets: sb.dir_buckets,
            stripes: split.into_iter().map(Mutex::new).collect(),
            anon_seq: AtomicU64::new(0),
        }
    }

    /// A correlation-id session on stream `stream` (low 29 bits used).
    /// Streams 0 .. [`ANON_KV_STREAM`] are caller-owned; two sessions on
    /// the same stream produce colliding ids, so give each logical
    /// requester (actor, connection, shard) its own stream.
    pub fn session(&self, stream: u64) -> StoreSession<'_> {
        StoreSession {
            store: self,
            ctx: CtxCounter::new(CtxClass::Kv, stream),
        }
    }

    /// Ctx for a sessionless op: the shared [`ANON_KV_STREAM`] counter
    /// when tracing is enabled, [`NO_CTX`] otherwise.
    fn auto_ctx(&self) -> u64 {
        if self.dev.tracer().is_enabled() {
            // pcm-lint: atomic(counter)
            let seq = self.anon_seq.fetch_add(1, Ordering::Relaxed);
            pack_ctx(CtxClass::Kv, ANON_KV_STREAM, seq as u32)
        } else {
            NO_CTX
        }
    }

    /// The device underneath (metrics, tracer, clock).
    pub fn device(&self) -> &ShardedPcmDevice {
        &self.dev
    }

    /// Tear down into the device (e.g. to reopen later).
    pub fn into_device(self) -> ShardedPcmDevice {
        self.dev
    }

    /// Free pages available for new values.
    pub fn free_pages(&self) -> u32 {
        self.alloc.free_pages()
    }

    /// The store's shape, as its superblock records it.
    pub fn superblock(&self) -> Superblock {
        Superblock {
            pages: self.pages,
            dir_buckets: self.dir_buckets,
        }
    }

    /// Walk the page graph as `open` does and report what it found: a
    /// clean store has no page reached twice, unreadable or of the
    /// wrong type, and a rebuilt directory equal to the live one. Its
    /// free count equals [`PcmStore::free_pages`], and the directories
    /// match, unless a failed write took a page out of service since
    /// `open`. Takes `&mut self` so no op can run during the walk.
    pub fn fsck(&mut self) -> Result<FsckReport, StoreError> {
        let walked = walk(&self.dev, self.superblock())?;
        let mut report = walked.report;
        let n = self.stripes.len();
        for (b, rebuilt) in walked.buckets.iter().enumerate() {
            let stripe = self.stripes[b % n]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            if stripe[b / n] != *rebuilt {
                report.directory_mismatches += 1;
            }
        }
        Ok(report)
    }

    /// Directory bucket count.
    pub fn dir_buckets(&self) -> u32 {
        self.dir_buckets
    }

    /// The one stripe-lock acquisition site. Poisoning is recovered by
    /// entering anyway: a bucket's image changes only after the device
    /// write it mirrors returned, with no call in between, so it holds
    /// the last write the store saw succeed; the media stays
    /// authoritative, written in an order that leaves the page graph
    /// consistent (new pages before links, links before frees).
    fn lock_stripe(&self, bucket: u32) -> MutexGuard<'_, Stripe> {
        let idx = bucket as usize % self.stripes.len().max(1);
        self.stripes[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Where `bucket` sits in its stripe.
    fn in_stripe(&self, bucket: u32) -> usize {
        bucket as usize / self.stripes.len().max(1)
    }

    /// Look up `key`. Returns the stored value, `None` on a miss, or
    /// [`StoreError::CorruptPage`] — never wrong bytes.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.get_with_ctx(key, self.auto_ctx())
    }

    /// [`PcmStore::get`] under an explicit correlation id (see
    /// [`PcmStore::session`] for thread-invariant id streams).
    pub fn get_with_ctx(&self, key: u64, ctx: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let bucket = bucket_of(key, self.dir_buckets);
        let stripe = self.lock_stripe(bucket);
        let dir = &stripe[self.in_stripe(bucket)];
        let mut cost = OpCost::default();
        let result = match dir.find(key)? {
            Some((p, e)) => {
                let head = dir.pages[p].entries[e].head;
                Some(self.walk_chain(key, head, ctx, &mut cost)?)
            }
            None => None,
        };
        drop(stripe);
        self.emit(OpKind::KvGet, key, bucket, ctx, &cost);
        Ok(result)
    }

    /// Insert or replace `key`. Allocation is explicit: the new chain is
    /// allocated and fully written before the directory flips to it, and
    /// the old chain (if any) is freed in memory last. If a write fails,
    /// the pages this put allocated return to the free set, except the
    /// page whose write failed: it stays out of service until the store
    /// is reopened.
    pub fn put(&self, key: u64, value: &[u8]) -> Result<(), StoreError> {
        self.put_with_ctx(key, value, self.auto_ctx())
    }

    /// [`PcmStore::put`] under an explicit correlation id (see
    /// [`PcmStore::session`] for thread-invariant id streams).
    pub fn put_with_ctx(&self, key: u64, value: &[u8], ctx: u64) -> Result<(), StoreError> {
        if value.len() > MAX_VALUE_BYTES {
            return Err(StoreError::ValueTooLarge {
                len: value.len(),
                max: MAX_VALUE_BYTES,
            });
        }
        let ictx = index_ctx(ctx);
        let bucket = bucket_of(key, self.dir_buckets);
        let mut stripe = self.lock_stripe(bucket);
        let dir = &mut stripe[self.in_stripe(bucket)];
        let slot = dir.find(key)?;
        if let Some((p, e)) = slot {
            // A chain the walk found damaged keeps reporting it: the put
            // aborts before it writes anything.
            if let Err(damage) = dir.pages[p].entries[e].chain {
                return Err(corrupt(damage));
            }
        }
        let mut cost = OpCost::default();
        let mut fresh = self.alloc.allocate_chain(pages_for_value(value.len()))?;
        let flipped = self
            .write_chain(key, value, &fresh, ctx, &mut cost)
            .and_then(|()| self.flip_slot(dir, key, slot, &fresh, ictx, &mut cost));
        match flipped {
            Ok(old_pages) => self.alloc.free_chain(&old_pages),
            Err((failed, e)) => {
                fresh.retain(|&p| Some(p) != failed);
                self.alloc.free_chain(&fresh);
                return Err(e);
            }
        }
        drop(stripe);
        self.emit(OpKind::KvPut, key, bucket, ctx, &cost);
        Ok(())
    }

    /// Remove `key`. Returns whether it existed.
    pub fn delete(&self, key: u64) -> Result<bool, StoreError> {
        self.delete_with_ctx(key, self.auto_ctx())
    }

    /// [`PcmStore::delete`] under an explicit correlation id (see
    /// [`PcmStore::session`] for thread-invariant id streams).
    pub fn delete_with_ctx(&self, key: u64, ctx: u64) -> Result<bool, StoreError> {
        let ictx = index_ctx(ctx);
        let bucket = bucket_of(key, self.dir_buckets);
        let mut stripe = self.lock_stripe(bucket);
        let dir = &mut stripe[self.in_stripe(bucket)];
        let mut cost = OpCost::default();
        let existed = match dir.find(key)? {
            None => false,
            Some((p, e)) => {
                let page = &dir.pages[p];
                if let Err(damage) = page.entries[e].chain {
                    return Err(corrupt(damage));
                }
                let image = page.image_with(
                    page.entries
                        .iter()
                        .enumerate()
                        .filter_map(|(i, entry)| (i != e).then_some(entry)),
                );
                self.write_index(dir, p, &image, ictx, &mut cost)
                    .map_err(|(_, e)| e)?;
                let removed = dir.pages[p].entries.remove(e);
                self.alloc.free_chain(&removed.chain.unwrap_or_default());
                true
            }
        };
        drop(stripe);
        self.emit(OpKind::KvDelete, key, bucket, ctx, &cost);
        Ok(existed)
    }

    /// Read and CRC-verify one value page under `ctx` (the read's
    /// modeled duration, stall included, is charged).
    fn read_page(&self, page: u32, ctx: u64, cost: &mut OpCost) -> Result<Page, StoreError> {
        let (report, ns) = self
            .dev
            .read_block_ctx(page as usize, ctx)
            .map_err(|e| read_failure(page, e))?;
        cost.charge_read(ns);
        Page::decode(&report.data).map_err(|defect| StoreError::CorruptPage { page, defect })
    }

    /// Seal and write one page under `ctx`.
    fn write_page(
        &self,
        page: u32,
        p: &Page,
        ctx: u64,
        cost: &mut OpCost,
    ) -> Result<(), StoreError> {
        let (_, ns) = self
            .dev
            .write_block_ctx(page as usize, &p.encode(), ctx)
            .map_err(StoreError::from)?;
        cost.charge_write(ctx, ns);
        Ok(())
    }

    /// Walk a value chain from `head`, verifying type, key, and chain
    /// shape; returns the reassembled bytes.
    fn walk_chain(
        &self,
        key: u64,
        head: u32,
        ctx: u64,
        cost: &mut OpCost,
    ) -> Result<Vec<u8>, StoreError> {
        let mut len = 0usize;
        let mut value = Vec::new();
        let mut at = head;
        loop {
            let page = self.read_page(at, ctx, cost)?;
            if !fits_chain(&page, key, len == 0) {
                return Err(StoreError::CorruptPage {
                    page: at,
                    defect: PageDefect::WrongPage,
                });
            }
            value.extend_from_slice(page.data());
            len += 1;
            if page.next == NO_PAGE {
                return Ok(value);
            }
            if len > MAX_CHAIN_PAGES {
                return Err(StoreError::CorruptPage {
                    page: at,
                    defect: PageDefect::WrongPage,
                });
            }
            at = page.next;
        }
    }

    /// Write `value` across the freshly allocated `chain` (tail first,
    /// so every page's `next` is final when written).
    fn write_chain(
        &self,
        key: u64,
        value: &[u8],
        chain: &[u32],
        ctx: u64,
        cost: &mut OpCost,
    ) -> Result<(), StepError> {
        for (i, &page_id) in chain.iter().enumerate().rev() {
            let chunk_start = i * PAGE_PAYLOAD_BYTES;
            let chunk = value
                .get(chunk_start..value.len().min(chunk_start + PAGE_PAYLOAD_BYTES))
                .unwrap_or(&[]);
            let mut p = Page::empty(PageType::Data);
            p.key = key;
            p.len = chunk.len() as u16;
            p.payload[..chunk.len()].copy_from_slice(chunk);
            p.next = chain.get(i + 1).copied().unwrap_or(NO_PAGE);
            if i == 0 {
                p.flags |= FLAG_CHAIN_HEAD;
            }
            self.write_page(page_id, &p, ctx, cost)
                .map_err(|e| (Some(page_id), e))?;
        }
        Ok(())
    }

    /// Point `key`'s directory slot (`slot`, as [`Bucket::find`] found
    /// it) at the written chain `chain`, and return the chain it pointed
    /// at before. One index-page write from the in-memory image; two
    /// when the bucket needs a new overflow page, which is written
    /// before the link to it. The image changes only after its write
    /// succeeded.
    fn flip_slot(
        &self,
        dir: &mut Bucket,
        key: u64,
        slot: Option<(usize, usize)>,
        chain: &[u32],
        ictx: u64,
        cost: &mut OpCost,
    ) -> Result<Vec<u32>, StepError> {
        let entry = Entry {
            key,
            head: chain.first().copied().unwrap_or(NO_PAGE),
            chain: Ok(chain.to_vec()),
        };
        if let Some((p, e)) = slot {
            let page = &dir.pages[p];
            let image = page.image_with(page.entries.iter().enumerate().map(|(i, old)| {
                if i == e {
                    &entry
                } else {
                    old
                }
            }));
            self.write_index(dir, p, &image, ictx, cost)?;
            let old = std::mem::replace(&mut dir.pages[p].entries[e], entry);
            return Ok(old.chain.unwrap_or_default());
        }
        // A miss in an undamaged bucket: its chain has at least the
        // bucket page, and the key goes into the tail.
        let last = dir.pages.len() - 1;
        let tail = &dir.pages[last];
        if tail.entries.len() < ENTRIES_PER_PAGE {
            let image = tail.image_with(tail.entries.iter().chain([&entry]));
            self.write_index(dir, last, &image, ictx, cost)?;
            dir.pages[last].entries.push(entry);
            return Ok(Vec::new());
        }
        let mut link = tail.image();
        let overflow = self.alloc.allocate().map_err(|e| (None, e))?;
        let new_tail = IndexPage {
            id: overflow,
            next: NO_PAGE,
            entries: vec![entry],
        };
        self.write_page(overflow, &new_tail.image(), ictx, cost)
            .map_err(|e| (Some(overflow), e))?;
        link.next = overflow;
        if let Err(failed) = self.write_index(dir, last, &link, ictx, cost) {
            self.alloc.free_chain(&[overflow]);
            return Err(failed);
        }
        dir.pages[last].next = overflow;
        dir.pages.push(new_tail);
        Ok(Vec::new())
    }

    /// Write `image` as index page `dir.pages[p]`. A failed write leaves
    /// that page's media image unknown, so the bucket is damaged from
    /// that page on.
    fn write_index(
        &self,
        dir: &mut Bucket,
        p: usize,
        image: &Page,
        ictx: u64,
        cost: &mut OpCost,
    ) -> Result<(), StepError> {
        let id = dir.pages[p].id;
        self.write_page(id, image, ictx, cost).map_err(|e| {
            dir.fail_from(p);
            (Some(id), e)
        })
    }

    /// Emit one KV span: begin payload is the mixed key, end payload the
    /// pages touched; duration is the op's modeled device time, the sum
    /// of the durations its device calls returned (which equals the sum
    /// of its child spans' durations exactly).
    fn emit(&self, kind: OpKind, key: u64, bucket: u32, ctx: u64, cost: &OpCost) {
        let rec = self.dev.tracer();
        if !rec.is_enabled() {
            return;
        }
        let t0 = secs_to_ns(self.dev.now());
        let bank = self.dev.bank_of(bucket_page(bucket) as usize) as u32;
        rec.span_ctx(
            kind,
            bank,
            bucket_page(bucket),
            (t0, t0 + cost.model_ns),
            (mix64(key), cost.touched()),
            ctx,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{entries, set_entries};
    use pcm_core::level::LevelDesign;
    use pcm_device::block::THREE_LEVEL_BLOCK_CELLS;
    use pcm_device::{BlockError, CellOrganization, DeviceBuilder, PcmError};

    fn store(blocks: usize, banks: usize) -> PcmStore {
        let dev = DeviceBuilder::new()
            .blocks(blocks)
            .banks(banks)
            .seed(7)
            .build_sharded()
            .unwrap();
        PcmStore::format(
            dev,
            StoreConfig {
                dir_buckets: 8,
                stripes: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn get_put_delete_round_trip() {
        let s = store(128, 4);
        assert_eq!(s.get(1).unwrap(), None);
        s.put(1, b"hello").unwrap();
        s.put(2, b"").unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(s.get(2).unwrap().as_deref(), Some(&b""[..]));
        s.put(1, b"rewritten").unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"rewritten"[..]));
        assert!(s.delete(1).unwrap());
        assert!(!s.delete(1).unwrap());
        assert_eq!(s.get(1).unwrap(), None);
    }

    #[test]
    fn multi_page_values_round_trip() {
        let s = store(256, 4);
        let value: Vec<u8> = (0..150u16).map(|i| i as u8).collect();
        s.put(9, &value).unwrap();
        assert_eq!(s.get(9).unwrap().as_deref(), Some(&value[..]));
        let free_before = s.free_pages();
        assert!(s.delete(9).unwrap());
        assert_eq!(
            s.free_pages(),
            free_before + pages_for_value(value.len()) as u32
        );
    }

    #[test]
    fn put_delete_returns_pages_to_the_free_set() {
        let s = store(128, 4);
        let baseline = s.free_pages();
        for k in 0..10u64 {
            s.put(k, &[k as u8; 30]).unwrap();
        }
        for k in 0..10u64 {
            assert!(s.delete(k).unwrap());
        }
        assert_eq!(s.free_pages(), baseline);
    }

    #[test]
    fn bucket_overflow_chains_work() {
        // 8 buckets, 40 keys: several buckets exceed 3 entries and chain.
        let s = store(256, 4);
        for k in 0..40u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..40u64 {
            assert_eq!(
                s.get(k).unwrap().as_deref(),
                Some(&k.to_le_bytes()[..]),
                "key {k}"
            );
        }
        for k in 0..40u64 {
            assert!(s.delete(k).unwrap(), "key {k}");
        }
        for k in 0..40u64 {
            assert_eq!(s.get(k).unwrap(), None);
        }
    }

    #[test]
    fn reopen_preserves_contents() {
        let s = store(128, 4);
        s.put(5, b"persisted").unwrap();
        let dev = s.into_device();
        let s = PcmStore::open(dev).unwrap();
        assert_eq!(s.get(5).unwrap().as_deref(), Some(&b"persisted"[..]));
    }

    #[test]
    fn rejects_oversized_values_and_tiny_devices() {
        let s = store(128, 4);
        let huge = vec![0u8; MAX_VALUE_BYTES + 1];
        assert!(matches!(
            s.put(1, &huge),
            Err(StoreError::ValueTooLarge { .. })
        ));

        let dev = DeviceBuilder::new()
            .blocks(4)
            .banks(4)
            .build_sharded()
            .unwrap();
        assert!(matches!(
            PcmStore::format(dev, StoreConfig::default()),
            Err(StoreError::TooSmall { .. })
        ));
    }

    /// The page ids of `key`'s value chain, as the directory holds it.
    fn chain_of(s: &PcmStore, key: u64) -> Vec<u32> {
        let bucket = bucket_of(key, s.dir_buckets);
        let stripe = s.lock_stripe(bucket);
        let dir = &stripe[s.in_stripe(bucket)];
        match dir.find(key).unwrap() {
            Some((p, e)) => dir.pages[p].entries[e].chain.clone().unwrap(),
            None => Vec::new(),
        }
    }

    /// Run `put(key, value)` with the private steps, stopping after the
    /// chain write (`flip` false) or after the directory flip (`flip`
    /// true), and hand back the device as a crash there leaves it.
    fn crashed_put(s: PcmStore, key: u64, value: &[u8], flip: bool) -> ShardedPcmDevice {
        let mut cost = OpCost::default();
        let bucket = bucket_of(key, s.dir_buckets);
        let mut stripe = s.lock_stripe(bucket);
        let dir = &mut stripe[s.in_stripe(bucket)];
        let slot = dir.find(key).unwrap();
        let fresh = s
            .alloc
            .allocate_chain(pages_for_value(value.len()))
            .unwrap();
        s.write_chain(key, value, &fresh, NO_CTX, &mut cost)
            .unwrap();
        if flip {
            s.flip_slot(dir, key, slot, &fresh, NO_CTX, &mut cost)
                .unwrap();
        }
        drop(stripe);
        s.into_device()
    }

    /// Whether a put of new key `key` would need a new overflow page.
    fn needs_overflow(s: &PcmStore, key: u64) -> bool {
        let bucket = bucket_of(key, s.dir_buckets);
        let stripe = s.lock_stripe(bucket);
        let dir = &stripe[s.in_stripe(bucket)];
        dir.find(key).unwrap().is_none()
            && dir.pages.last().unwrap().entries.len() == ENTRIES_PER_PAGE
    }

    /// The index page holding `key`'s entry, and its media image.
    fn index_page_of(s: &PcmStore, key: u64) -> (u32, Page) {
        let bucket = bucket_of(key, s.dir_buckets);
        let stripe = s.lock_stripe(bucket);
        let dir = &stripe[s.in_stripe(bucket)];
        let (p, _) = dir.find(key).unwrap().unwrap();
        (dir.pages[p].id, dir.pages[p].image())
    }

    /// Device writes issued so far, over all banks.
    fn device_writes(s: &PcmStore) -> u64 {
        let m = s.dev.metrics();
        (0..m.banks())
            .map(|b| m.bank(b).writes.load(Ordering::Relaxed))
            .sum()
    }

    /// Flip one payload bit of `page` on the device, behind the store.
    fn corrupt_page(s: &PcmStore, page: u32) {
        let mut raw = s.dev.read_block(page as usize).unwrap().data;
        raw[30] ^= 0x10;
        s.dev.write_block(page as usize, &raw).unwrap();
    }

    #[test]
    fn a_crash_inside_a_put_loses_no_page() {
        let old: Vec<u8> = (0..70u8).collect();
        let new: Vec<u8> = (0..130u8).rev().collect();
        let setup = || {
            let s = store(256, 4);
            for k in 0..20u64 {
                s.put(k, &old).unwrap();
            }
            s
        };
        let probe = setup();
        let fresh_key = (100..).find(|&k| needs_overflow(&probe, k)).unwrap();
        let (pages, reserved) = (probe.pages, 1 + probe.dir_buckets);
        for (key, overflow) in [(3u64, 0u32), (fresh_key, 1)] {
            for flip in [false, true] {
                let s = setup();
                let free_before = s.free_pages();
                let mut s = PcmStore::open(crashed_put(s, key, &new, flip)).unwrap();
                let report = s.fsck().unwrap();
                assert!(report.is_clean(), "{report:?}");
                assert_eq!(report.free, s.free_pages());
                assert_eq!(report.free + report.reachable + reserved, pages);
                let expect = if flip {
                    let old_pages = if key == 3 {
                        pages_for_value(old.len())
                    } else {
                        0
                    };
                    free_before + old_pages as u32 - pages_for_value(new.len()) as u32 - overflow
                } else {
                    free_before
                };
                assert_eq!(s.free_pages(), expect, "key {key}, flip {flip}");
                let want = match (flip, key == 3) {
                    (true, _) => Some(new.clone()),
                    (false, true) => Some(old.clone()),
                    (false, false) => None,
                };
                assert_eq!(s.get(key).unwrap(), want, "key {key}, flip {flip}");
                for k in (0..20u64).filter(|&k| k != key) {
                    assert_eq!(s.get(k).unwrap().as_deref(), Some(&old[..]), "key {k}");
                }
            }
        }
    }

    #[test]
    fn a_failed_page_write_returns_the_chain_but_retires_that_page() {
        let dev = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(64)
            .banks(4)
            .seed(3)
            .build_sharded()
            .unwrap();
        let s = PcmStore::format(
            dev,
            StoreConfig {
                dir_buckets: 8,
                stripes: 4,
            },
        )
        .unwrap();
        let victim = s.alloc.allocate().unwrap();
        s.alloc.free_chain(&[victim]);
        // Kill 8 cell pairs, beyond the 6 spares mark-and-spare has,
        // and write the (free) page until its wearout budget runs out.
        for pair in 0..8 {
            s.dev
                .inject_lifetime(victim as usize * THREE_LEVEL_BLOCK_CELLS + 2 * pair, 1)
                .unwrap();
        }
        let image = Page::empty(PageType::Free).encode();
        let exhausted = (0..12).any(|_| {
            matches!(
                s.dev.write_block(victim as usize, &image),
                Err(PcmError::Block(BlockError::WearoutExhausted))
            )
        });
        assert!(exhausted, "page {victim} never wore out");

        let free = s.free_pages();
        let value: Vec<u8> = (0..100u8).collect(); // 3 pages, victim among them
        let err = s.put(1, &value).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Device(pcm_device::Error::Device(PcmError::Block(
                    BlockError::WearoutExhausted
                )))
            ),
            "{err}"
        );
        assert_eq!(s.free_pages(), free - 1);
        assert!(!s.alloc.is_free(victim));
        assert_eq!(s.get(1).unwrap(), None);
        s.put(1, &value).unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&value[..]));
        assert!(!chain_of(&s, 1).contains(&victim));
    }

    #[test]
    fn an_index_page_cycle_is_a_corrupt_page() {
        let s = store(128, 4);
        let key = 5u64;
        let page_id = bucket_page(bucket_of(key, s.dir_buckets));
        let mut looped = Page::empty(PageType::Index);
        looped.next = page_id;
        s.dev
            .write_block(page_id as usize, &looped.encode())
            .unwrap();
        let mut s = PcmStore::open(s.into_device()).unwrap();
        let corrupt = Err(StoreError::CorruptPage {
            page: page_id,
            defect: PageDefect::WrongPage,
        });
        assert_eq!(s.get(key), corrupt);
        assert_eq!(s.put(key, b"v"), corrupt.map(|_| ()));
        assert_eq!(s.fsck().unwrap().reached_twice, 1);
    }

    #[test]
    fn open_keeps_damaged_pages_out_of_the_free_set() {
        let s = store(128, 4);
        let value = [7u8; 60]; // two pages
        for k in 0..6u64 {
            s.put(k, &value).unwrap();
        }
        // Fail one page's CRC, and point key 1's slot at key 0's chain.
        let damaged = chain_of(&s, 2)[1];
        corrupt_page(&s, damaged);
        let shared = chain_of(&s, 0)[0];
        let (page_id, page) = index_page_of(&s, 1);
        let mut list = entries(&page).unwrap();
        let pos = list.iter().position(|&(k, _)| k == 1).unwrap();
        list[pos].1 = shared;
        let mut page = page;
        set_entries(&mut page, &list);
        s.dev.write_block(page_id as usize, &page.encode()).unwrap();

        let mut s = PcmStore::open(s.into_device()).unwrap();
        let report = s.fsck().unwrap();
        assert_eq!(report.unreadable, 1);
        assert_eq!(report.reached_twice + report.wrong_type, 2, "{report:?}");
        assert_eq!(report.directory_mismatches, 0);
        assert_eq!(report.free, s.free_pages());
        assert!(!s.alloc.is_free(damaged) && !s.alloc.is_free(shared));
        assert!(matches!(
            s.get(2),
            Err(StoreError::CorruptPage { page, .. }) if page == damaged
        ));
        assert!(matches!(s.get(1), Err(StoreError::CorruptPage { .. })));
        assert_eq!(s.get(0).unwrap().as_deref(), Some(&value[..]));
    }

    /// The bucket of `key`'s store (8 buckets) and keys of it, in key
    /// order.
    fn bucket_mates(key: u64, n: usize) -> Vec<u64> {
        let bucket = bucket_of(key, 8);
        (0..)
            .filter(|&k| bucket_of(k, 8) == bucket)
            .take(n)
            .collect()
    }

    #[test]
    fn a_damaged_bucket_never_reports_a_miss_past_the_damage() {
        let s = store(256, 4);
        // Seven keys of one bucket: the bucket page and two overflow
        // pages, three entries each except the last.
        let keys = bucket_mates(0, 8);
        for &k in &keys[..7] {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        let (overflow, _) = index_page_of(&s, keys[3]);
        assert_ne!(overflow, bucket_page(bucket_of(keys[0], 8)));
        corrupt_page(&s, overflow);

        let mut s = PcmStore::open(s.into_device()).unwrap();
        let damage = StoreError::CorruptPage {
            page: overflow,
            defect: PageDefect::BadCrc,
        };
        for &k in &keys[..3] {
            assert_eq!(s.get(k).unwrap(), Some(k.to_le_bytes().to_vec()));
        }
        // Keys in and past the damaged page, and a key that was never
        // stored but may live there: typed errors, never a miss.
        for &k in &keys[3..] {
            assert_eq!(s.get(k), Err(damage.clone()), "key {k}");
            assert_eq!(s.delete(k), Err(damage.clone()), "key {k}");
        }
        let writes = device_writes(&s);
        assert_eq!(s.put(keys[7], b"new"), Err(damage.clone()));
        assert_eq!(device_writes(&s), writes);
        // A key in an intact page stays writable.
        s.put(keys[1], b"again").unwrap();
        assert_eq!(s.get(keys[1]).unwrap().as_deref(), Some(&b"again"[..]));
        let report = s.fsck().unwrap();
        assert_eq!(report.unreadable, 1);
        assert_eq!(report.directory_mismatches, 0);
    }

    #[test]
    fn a_chain_damaged_at_open_refuses_puts_and_deletes_without_writing() {
        let s = store(256, 4);
        let value = [9u8; 100]; // three pages
        for k in 0..6u64 {
            s.put(k, &value).unwrap();
        }
        let damaged = chain_of(&s, 4)[1];
        corrupt_page(&s, damaged);
        let mut s = PcmStore::open(s.into_device()).unwrap();
        let damage: Result<(), _> = Err(StoreError::CorruptPage {
            page: damaged,
            defect: PageDefect::BadCrc,
        });
        let (free, writes) = (s.free_pages(), device_writes(&s));
        assert_eq!(s.put(4, b"replacement"), damage.clone());
        assert_eq!(s.delete(4), damage.clone().map(|_| false));
        assert_eq!(s.get(4), damage.map(|_| None));
        assert_eq!((s.free_pages(), device_writes(&s)), (free, writes));
        assert_eq!(s.get(5).unwrap().as_deref(), Some(&value[..]));
        assert_eq!(s.fsck().unwrap().directory_mismatches, 0);
    }

    #[test]
    fn a_put_replaces_a_value_that_went_bad_after_open() {
        let mut s = store(256, 4);
        let value = [3u8; 100]; // three pages
        s.put(1, &value).unwrap();
        let old = chain_of(&s, 1);
        corrupt_page(&s, old[2]);
        assert!(matches!(
            s.get(1),
            Err(StoreError::CorruptPage { page, defect: PageDefect::BadCrc }) if page == old[2]
        ));
        // The directory, not the media, names the old chain, so the put
        // needs no read of it: it replaces the value and frees the chain.
        let free = s.free_pages();
        s.put(1, b"fresh").unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"fresh"[..]));
        assert_eq!(s.free_pages(), free + 2);
        assert!(old.iter().all(|&p| s.alloc.is_free(p)));
        assert!(s.fsck().unwrap().is_clean());
    }

    #[test]
    fn puts_and_deletes_read_nothing_and_gets_read_only_the_value() {
        let s = store(256, 4);
        let reads = |s: &PcmStore| {
            let m = s.dev.metrics();
            (0..m.banks())
                .map(|b| m.bank(b).reads.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let value = [5u8; 100]; // three pages
        let before = reads(&s);
        for k in 0..40u64 {
            s.put(k, &value).unwrap();
        }
        for k in (0..40u64).step_by(3) {
            assert!(s.delete(k).unwrap());
        }
        assert_eq!(reads(&s), before);
        assert_eq!(s.get(7).unwrap().as_deref(), Some(&value[..]));
        assert_eq!(reads(&s), before + 3);
        assert_eq!(s.get(3).unwrap(), None);
        assert_eq!(reads(&s), before + 3);
    }

    #[test]
    fn fills_up_and_reports_store_full() {
        let s = store(32, 4); // 8 buckets + super = 9 pages overhead
        let mut stored = 0u64;
        let mut err = None;
        for k in 0..64u64 {
            match s.put(k, &[1; 10]) {
                Ok(()) => stored += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(stored > 0);
        assert!(matches!(err, Some(StoreError::StoreFull)));
        // Everything stored before the full condition is still readable.
        for k in 0..stored {
            assert!(s.get(k).unwrap().is_some(), "key {k}");
        }
    }
}
