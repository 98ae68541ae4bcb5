//! Persistent heap allocator, sharded into per-lane arenas.
//!
//! The heap is a contiguous sequence of blocks, each prefixed by a durable
//! 16-byte header `{block_size(8), state(8)}`. Free lists are *volatile*,
//! segregated by block size class, and rebuilt on pool open by walking the
//! header chain — PMDK's design (volatile runtime state, durable heap
//! metadata).
//!
//! A block becomes *allocated* only when a redo log flips its header state,
//! so a crash between reservation and validation simply leaves a free block
//! for the next rebuild to collect.
//!
//! # Arena sharding
//!
//! Runtime state is split across per-lane arenas (PMDK's arena design):
//! each arena has its own mutex guarding segregated free lists plus private
//! *wilderness spans*, refilled in large chunks from one shared wilderness
//! cursor. A thread's lane index picks its arena, so the hot alloc/free
//! paths take exactly one (usually uncontended) lock. Frees are
//! *free-to-local*: a block returns to the freeing lane's arena, not the
//! arena that carved it — no owner lookup, at the cost of slow cross-arena
//! drift under producer/consumer free patterns (the steal path below makes
//! that drift harmless).
//!
//! The durable format is unchanged: the header chain stays intact at every
//! crash point because
//!
//! 1. a refill persists the chunk's free-block header *before* the shared
//!    cursor advances, and refills are serialized under the shared-cursor
//!    mutex, so chunk headers become durable in increasing address order
//!    (a lock-free cursor bump would allow a crash-visible hole that hides
//!    every live block beyond it from the recovery scan);
//! 2. carving a block from a span persists the successor header first and
//!    only then shrinks the span header, so a crash in between leaves the
//!    old span header valid (the successor header stays invisible inside
//!    it);
//! 3. when an arena's span ends exactly at the shared cursor, refills
//!    extend it in place (grow its header) instead of opening a disjoint
//!    chunk — single-threaded allocation therefore degenerates to the
//!    classic bump layout, byte-identical to the unsharded allocator.
//!
//! Statistics are relaxed atomics, off every lock.
//!
//! # The block lifecycle
//!
//! Only this module reads, writes or interprets a block's state word
//! (`requested << 8 | gen << 1 | alloc`), and it owns all volatile heap
//! state — free lists, live counters, the SPP+T generation index — which
//! must always agree. `pool.rs`, `tx.rs` and recovery are callers:
//! [`Arenas::reserve`] hands out a free block *as it will be born*;
//! [`BlockInfo::retired`] is the retirement rule; [`BlockInfo::state_entry`]
//! is the `(target, word)` store that makes either state durable (a redo
//! entry, or [`BlockInfo::persist_state`]); and two calls bracket every
//! durable flip — [`Arenas::adopted`] after a block became allocated,
//! [`Arenas::retired`] after it became free ([`Arenas::resized`] for the
//! in-place realloc) — so volatile state only ever trails the media.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use spp_pm::PmPool;

use crate::layout::{read_u64, write_u64};
use crate::oid::PmemOid;
use crate::{PmdkError, Result};

/// Durable per-block header size (`size` + `state` words).
pub const BLOCK_HEADER_SIZE: u64 = 16;

/// Header field: total block size, including the header itself.
const BH_SIZE: u64 = 0;
/// Header field: allocation state.
const BH_STATE: u64 = 8;

/// Block state: free (also the zero-fill default, so fresh heap is free).
const STATE_FREE: u64 = 0;
/// Block state: allocated (legacy raw form; kept for tests exercising the
/// pre-generation encoding).
#[cfg(test)]
const STATE_ALLOC: u64 = 1;

/// Largest live allocation generation. A free that would bump a block past
/// this value instead parks the block at `GEN_MAX` — a never-reused
/// *sentinel* generation: the block is quarantined (left out of free lists
/// and wilderness spans, here and at every rebuild) so a saturated counter
/// can never wrap around to a live-looking key.
pub const GEN_MAX: u8 = 127;

/// Bit position of the generation field inside the state word.
const STATE_GEN_SHIFT: u32 = 1;
/// Bit position of the requested-payload-size field inside the state word.
const STATE_SIZE_SHIFT: u32 = 8;
/// Width of the requested-payload-size field (bits 8..48).
const STATE_SIZE_BITS: u32 = 40;

/// Pack a block state word: `requested_payload << 8 | gen << 1 | alloc`.
///
/// Bit 0 keeps the legacy free/alloc meaning, so a fresh zeroed heap still
/// decodes as free/gen-0 and a raw `STATE_ALLOC` write (pre-generation
/// pools, unit tests) decodes as an allocated gen-0 (untracked) block.
fn encode_state(alloc: bool, gen: u8, requested: u64) -> u64 {
    debug_assert!(gen <= GEN_MAX);
    debug_assert!(requested < 1 << STATE_SIZE_BITS);
    (requested << STATE_SIZE_SHIFT) | ((gen as u64) << STATE_GEN_SHIFT) | (alloc as u64)
}

/// Largest chunk a refill grabs from the shared wilderness.
const MAX_REFILL_CHUNK: u64 = 256 * 1024;
/// Smallest refill target (tiny pools still refill whole requests).
const MIN_REFILL_CHUNK: u64 = 4096;

/// Number of size classes up to 4 KiB of payload: 16 to 256 bytes in
/// powers of two, then 512 to 4096 in 256-byte steps. Their free lists are
/// indexed by class; the larger classes' are keyed by block size.
const SMALL_CLASSES: usize = 20;

/// A payload request's size class: its block size (header included) and,
/// for the [`SMALL_CLASSES`], its index among them — the only definition
/// of either.
///
/// Classes are *payload*-granular, mirroring PMDK's run-based small
/// allocations (where per-block metadata lives in chunk bitmaps, so class
/// selection depends only on the requested size): power-of-two payload
/// classes up to 256 bytes, then 256-byte steps up to 4 KiB, then 1 KiB
/// steps. The simulator's 16-byte block header is added on top and never
/// influences the class — which is what lets a +8-byte oid growth be
/// absorbed by class slack exactly as the paper's Table III shows for
/// ctree/rbtree/hashmap.
fn size_class(payload: u64) -> (u64, Option<usize>) {
    let payload = payload.next_multiple_of(16);
    let (class, index) = if payload <= 256 {
        let class = payload.next_power_of_two().max(16);
        (class, Some(class.trailing_zeros() as usize - 4))
    } else if payload <= 4096 {
        let class = payload.next_multiple_of(256);
        (class, Some(class as usize / 256 + 3))
    } else {
        (payload.next_multiple_of(1024), None)
    };
    (class + BLOCK_HEADER_SIZE, index)
}

/// Round a payload request to its block size class.
pub(crate) fn class_block_size(payload: u64) -> u64 {
    size_class(payload).0
}

/// Whether a block size (header included) is exactly some class size.
/// Rebuild routes class-shaped free blocks to free lists and everything
/// else (chunk remainders) to re-carvable wilderness spans.
fn is_class_block(block: u64) -> bool {
    block > BLOCK_HEADER_SIZE && class_block_size(block - BLOCK_HEADER_SIZE) == block
}

/// Durable allocation state of one heap block, as the recovery scan sees
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Free (the zero-fill default).
    Free,
    /// Validated as allocated by a redo log.
    Allocated,
}

/// One durable heap block: what [`crate::ObjPool::walk_heap`] reports and
/// what the arena rebuild pass consumes during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Offset of the block header.
    pub off: u64,
    /// Total block size, header included.
    pub size: u64,
    /// Durable allocation state.
    pub state: BlockState,
    /// Durable allocation generation. For an allocated block: the live
    /// generation (0 = untracked legacy allocation). For a free block: the
    /// generation the *next* allocation will receive; [`GEN_MAX`] marks a
    /// quarantined (never reused) block.
    pub gen: u8,
    /// Requested payload size of the current allocation (0 when free or
    /// untracked) — the durable key the volatile generation index is
    /// rebuilt from after a restart.
    pub requested: u64,
}

impl BlockInfo {
    /// The block whose header at `off` holds `size` and the state `word`
    /// (see [`encode_state`]). `None` when reserved bits (48..64) of the
    /// word are set — a corrupt header.
    fn decode(off: u64, size: u64, word: u64) -> Option<BlockInfo> {
        if word >> (STATE_SIZE_SHIFT + STATE_SIZE_BITS) != 0 {
            return None;
        }
        let state = if word & 1 == 0 {
            BlockState::Free
        } else {
            BlockState::Allocated
        };
        Some(BlockInfo {
            off,
            size,
            state,
            gen: ((word >> STATE_GEN_SHIFT) & GEN_MAX as u64) as u8,
            requested: word >> STATE_SIZE_SHIFT,
        })
    }

    /// Offset of the block's payload (what an oid's `off` points at).
    pub fn payload_off(&self) -> u64 {
        self.off + BLOCK_HEADER_SIZE
    }

    /// Payload capacity in bytes.
    pub fn payload_size(&self) -> u64 {
        self.size - BLOCK_HEADER_SIZE
    }

    /// End of the current allocation's requested extent — the bound a
    /// tagged SPP pointer into this block computes, and therefore the key
    /// of the block's generation-index entry. `None` when free/untracked.
    pub fn bound_off(&self) -> Option<u64> {
        (self.state == BlockState::Allocated && self.requested != 0)
            .then(|| self.payload_off() + self.requested)
    }

    /// The retirement rule: what this live block is once freed — 0 → 1,
    /// `g` → `g + 1`, saturating at [`GEN_MAX`], the parked generation.
    pub(crate) fn retired(&self) -> BlockInfo {
        BlockInfo {
            state: BlockState::Free,
            gen: (self.gen + 1).min(GEN_MAX),
            requested: 0,
            ..*self
        }
    }

    /// Whether this block sits at the parked generation: free, but never
    /// reused — here or by any rebuild — so no live block is ever at it.
    fn is_parked(&self) -> bool {
        self.gen == GEN_MAX
    }

    /// This live block resized in place to `new_size`, or `None` when it
    /// must move: another size class, or the bump would park it. The bump is
    /// there because the old pointer's bound is wrong for the new size, so
    /// its key must die; an untracked block stays untracked.
    pub(crate) fn resized(&self, new_size: u64) -> Option<BlockInfo> {
        let gen = if self.gen == 0 { 0 } else { self.retired().gen };
        let now = BlockInfo {
            gen,
            requested: new_size,
            ..*self
        };
        (class_block_size(new_size) == self.size && !now.is_parked()).then_some(now)
    }

    /// The `(target, word)` store that makes this block's state durable, as
    /// a redo entry. Flip and generation bump are one word: one atomic store.
    pub(crate) fn state_entry(&self) -> (u64, u64) {
        let alloc = self.state == BlockState::Allocated;
        (
            self.off + BH_STATE,
            encode_state(alloc, self.gen, self.requested),
        )
    }

    /// [`Self::state_entry`] as a plain persisted store — for flips an undo
    /// entry already covers (tx allocation, rollback, recovery's replay).
    pub(crate) fn persist_state(&self, pm: &PmPool) -> Result<()> {
        let (target, word) = self.state_entry();
        write_u64(pm, target, word)?;
        pm.persist(target, 8)?;
        Ok(())
    }

    /// The oid naming this live block's current allocation.
    pub(crate) fn oid(&self, pool_uuid: u64) -> PmemOid {
        PmemOid::new(pool_uuid, self.payload_off(), self.requested).with_gen(self.gen)
    }
}

/// Load the header at `off` — `(size, state word)` — in one device read.
fn read_header(pm: &PmPool, off: u64) -> Result<(u64, u64)> {
    let mut hdr = [0u8; BLOCK_HEADER_SIZE as usize];
    pm.read(off, &mut hdr)?;
    let word = |i: usize| u64::from_le_bytes(hdr[i..i + 8].try_into().expect("8 bytes"));
    Ok((word(BH_SIZE as usize), word(BH_STATE as usize)))
}

/// How far past the header being read [`walk_heap`] keeps the heap in
/// flight: one page. The reopen time was flat from 1 to 32 KiB.
const WALK_PREFETCH: u64 = 4096;

/// How many headers in a row must repeat the size two blocks back before
/// [`walk_heap`] trusts the period and hints headers instead of pages.
const WALK_PERIOD_HELD: u64 = 4;

/// The shortest block pair [`walk_heap`] hints by header: from 512 B on, a
/// page stream fetches at least 4× the lines the walk reads.
/// `pipe_write_heavy`'s 80 B + 1,040 B pairs qualify; the other workloads'
/// 80 B + 144 B pairs stay on the stream. The value is not measured: any
/// value from 225 B to 1,120 B splits the benchmark's heaps the same way.
/// Nor is a dense-heap loss: with this condition dropped, the three dense
/// workloads' `reopen_ms` read −5.6 %, −1.3 % and −3.9 % over 10 pairs
/// each, gaps under a fifth of the parent's IQR, so neither way is shown.
const WALK_SPARSE_PAIR: u64 = 512;

/// How many block pairs ahead [`walk_heap`] hints a predicted header.
/// `pipe_write_heavy`'s `reopen_ms` read 4.40 ms at 4 pairs, ≈ 3.2 ms at 8
/// and ≈ 2.9 ms at 16, against ≈ 6.0 ms on the page stream.
const WALK_PAIRS_AHEAD: u64 = 16;

/// Walk the durable header chain from `heap_off`, validating each header
/// and handing it to `visit`, until the wilderness (a zero size word) or
/// `heap_end`. Returns the offset the wilderness begins at.
///
/// This is the single source of truth recovery rebuilds from.
///
/// Each header's address comes from the one before it, so a cold walk
/// would wait out one memory miss per block. By default the walk keeps the
/// next [`WALK_PREFETCH`] bytes in flight, which turns that chain into a
/// stream but pulls every line of the heap through the cache. Where the
/// block sizes repeat with period 1 or 2 (each size equals the one two
/// blocks back, [`WALK_PERIOD_HELD`] headers in a row) and a pair spans at
/// least [`WALK_SPARSE_PAIR`] bytes, the walk instead hints only the one
/// header it predicts [`WALK_PAIRS_AHEAD`] pairs ahead. The first header
/// that breaks the period sends it back to the stream at the next block.
/// A hint is not an access and is clamped to the pool, so a wrong
/// prediction wastes one hint and never changes what the walk reads.
/// On `pipe_write_heavy` this about halves the open. Of the ≈ 3 ms that
/// remain, ≈ 1.45 ms is the generation index's first-touch page faults.
fn walk_heap(
    pm: &PmPool,
    heap_off: u64,
    heap_end: u64,
    mut visit: impl FnMut(BlockInfo),
) -> Result<u64> {
    let mut off = heap_off;
    // `ahead` is where the streamed range ends, so every line is hinted
    // once. `last` and `before` are the sizes of the two blocks before
    // `off`; `held` counts the headers in a row whose size equals `before`.
    let mut ahead = heap_off;
    let (mut last, mut before, mut held) = (0, 0, 0);
    let mut by_header = false;
    while off + BLOCK_HEADER_SIZE <= heap_end {
        if !by_header {
            let want = (off + WALK_PREFETCH).min(heap_end);
            if want > ahead {
                pm.prefetch(ahead, want - ahead);
                ahead = want;
            }
        }
        let (size, word) = read_header(pm, off)?;
        if size == 0 {
            break; // wilderness begins
        }
        let corrupt = |what: std::fmt::Arguments<'_>| {
            Err(PmdkError::BadPool(format!("block at {off:#x}: {what}")))
        };
        if size % 16 != 0 || off + size > heap_end {
            return corrupt(format_args!("corrupt size {size:#x}"));
        }
        let Some(b) = BlockInfo::decode(off, size, word) else {
            return corrupt(format_args!("corrupt state {word:#x}"));
        };
        if b.requested > b.payload_size() {
            return corrupt(format_args!("requested {} beyond capacity", b.requested));
        }
        if b.state == BlockState::Allocated && b.gen == GEN_MAX {
            return corrupt(format_args!("allocated at the quarantine generation"));
        }
        visit(b);
        held = if size == before { held + 1 } else { 0 };
        let sparse = held >= WALK_PERIOD_HELD && size + last >= WALK_SPARSE_PAIR;
        if sparse {
            pm.prefetch(off + WALK_PAIRS_AHEAD * (size + last), BLOCK_HEADER_SIZE);
        } else if by_header {
            ahead = ahead.max(off + size);
        }
        by_header = sparse;
        (before, last) = (last, size);
        off += size;
    }
    Ok(off)
}

/// [`walk_heap`], collected: what [`crate::ObjPool::walk_heap`] reports. The
/// torture rig's oracles use it, so "what the allocator would reconstruct"
/// and "what the oracle checks" can never drift apart.
pub(crate) fn scan_heap(pm: &PmPool, heap_off: u64, heap_end: u64) -> Result<Vec<BlockInfo>> {
    let mut blocks = Vec::new();
    walk_heap(pm, heap_off, heap_end, |b| blocks.push(b))?;
    Ok(blocks)
}

/// Recovery's retirement of a block named by an undo-log entry, so any oid
/// minted for the undone or completed allocation stays dead after restart.
/// Idempotent across repeated recoveries — the alloc bit is the parity: a
/// block already free (or never flipped to allocated before the crash) is
/// left untouched, so the generation is bumped exactly once per lifetime.
pub(crate) fn recover_retire(pm: &PmPool, block_hdr: u64) -> Result<()> {
    let (size, word) = read_header(pm, block_hdr)?;
    match BlockInfo::decode(block_hdr, size, word) {
        Some(b) if b.state == BlockState::Allocated => b.retired().persist_state(pm),
        _ => Ok(()),
    }
}

/// The error for an oid whose allocation is gone: [`PmdkError::StaleOid`]
/// when the oid carries a generation key, stock PMDK's
/// [`PmdkError::InvalidOid`] when it is untracked (gen 0).
pub(crate) fn dead_oid(oid: PmemOid, current_gen: u8) -> PmdkError {
    let off = oid.off;
    match oid.gen {
        0 => PmdkError::InvalidOid { off },
        oid_gen => PmdkError::StaleOid {
            off,
            oid_gen,
            current_gen,
        },
    }
}

/// Volatile generation index keyed by *bound offset* (SPP+T §deref check).
///
/// A tracked allocation with payload offset `p` and requested size `s` ends
/// at bound `p + s`. Distinct live blocks have bounds at least 17 bytes
/// apart (16-byte headers between 16-aligned blocks), so `bound / 16` is a
/// collision-free bucket. One relaxed byte load per deref; rebuilt from the
/// durable block headers by [`Arenas::rebuild`].
struct GenIndex {
    slots: zeroed::Table,
}

impl GenIndex {
    fn new(pool_size: u64) -> Self {
        GenIndex {
            slots: zeroed::Table::new((pool_size / 16 + 1) as usize),
        }
    }

    /// Record `gen` (0 = none) as live at `b`'s bound. Free and untracked
    /// blocks have no bound and no entry.
    fn set(&self, b: &BlockInfo, gen: u8) {
        let slot = b
            .bound_off()
            .and_then(|at| self.slots.get((at / 16) as usize));
        if let Some(s) = slot {
            s.store(gen, Ordering::Relaxed);
        }
    }

    #[inline]
    fn get(&self, bound_off: u64) -> u8 {
        self.slots
            .get((bound_off / 16) as usize)
            .map_or(0, |s| s.load(Ordering::Relaxed))
    }
}

/// The generation index's table: zeroed bytes that cost resident memory
/// only where a bound lands (≈ `high_water / 16`), however the heap
/// allocator placed earlier pools' tables. On Linux the table is a private
/// anonymous mapping of its own, which the kernel zero-fills a page at a
/// time on first touch; a heap `calloc` promises no such thing — handed a
/// chunk a dropped pool left behind, it zeroes, and makes resident, all
/// 16 MiB of a 256 MiB pool's table.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod zeroed {
    use std::alloc::{handle_alloc_error, Layout};
    use std::ffi::c_void;
    use std::ptr::NonNull;
    use std::sync::atomic::AtomicU8;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    /// `len` zeroed atomics in a mapping only this table owns.
    pub(super) struct Table {
        ptr: NonNull<AtomicU8>,
        len: usize,
    }

    // SAFETY: the mapping belongs to the table alone and is unmapped only
    // by its drop; its contents are `AtomicU8`s, which any number of
    // threads may access through shared references.
    unsafe impl Send for Table {}
    // SAFETY: as for `Send`.
    unsafe impl Sync for Table {}

    impl Table {
        pub(super) fn new(len: usize) -> Table {
            let len = len.max(1);
            // SAFETY: a private anonymous mapping at an address the kernel
            // picks touches no existing memory; failure is checked below.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANONYMOUS,
                    -1,
                    0,
                )
            };
            match NonNull::new(p.cast::<AtomicU8>()).filter(|_| p != MAP_FAILED) {
                Some(ptr) => Table { ptr, len },
                None => handle_alloc_error(Layout::array::<AtomicU8>(len).expect("table size")),
            }
        }
    }

    impl std::ops::Deref for Table {
        type Target = [AtomicU8];

        #[inline]
        fn deref(&self) -> &[AtomicU8] {
            // SAFETY: `ptr` maps `len` readable, writable bytes, zero-filled
            // by the kernel (a valid `[AtomicU8]`), for as long as `self`
            // lives; every access goes through the atomics.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Table {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` made; no borrow of
            // the table outlives `self`.
            unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }
}

/// Elsewhere, the heap's zeroed allocation.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod zeroed {
    use std::sync::atomic::AtomicU8;

    pub(super) struct Table(Box<[AtomicU8]>);

    impl Table {
        pub(super) fn new(len: usize) -> Table {
            Table((0..len).map(|_| AtomicU8::new(0)).collect())
        }
    }

    impl std::ops::Deref for Table {
        type Target = [AtomicU8];

        #[inline]
        fn deref(&self) -> &[AtomicU8] {
            &self.0
        }
    }
}

/// Point-in-time allocator statistics, used for the Table III space
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Bytes in live blocks (headers included).
    pub live_bytes: u64,
    /// Number of live objects.
    pub live_objects: u64,
    /// High-water mark of heap consumption (bytes past heap start).
    /// Chunk-granular: refills advance it by whole chunks.
    pub high_water: u64,
    /// Total heap capacity in bytes.
    pub heap_size: u64,
}

/// One arena's volatile state, guarded by its own mutex.
#[derive(Debug, Default)]
struct ArenaState {
    /// Free block header offsets (LIFO reuse) of the classes up to 4 KiB,
    /// by class index...
    small: [Vec<u64>; SMALL_CLASSES],
    /// ...and of the larger classes, by block size.
    large: HashMap<u64, Vec<u64>>,
    /// Private wilderness spans `(off, len)`. Invariant: each span's first
    /// 16 bytes are a durable free-block header covering the whole span,
    /// so the heap scans cleanly at every crash point.
    wild: Vec<(u64, u64)>,
}

impl ArenaState {
    /// The free list of the class whose blocks are `block` bytes.
    fn free_list(&mut self, block: u64) -> &mut Vec<u64> {
        match size_class(block - BLOCK_HEADER_SIZE).1 {
            Some(index) => &mut self.small[index],
            None => self.large.entry(block).or_default(),
        }
    }

    /// A free `block`-sized block: off the free list (LIFO), else carved.
    fn take(&mut self, pm: &PmPool, block: u64) -> Result<Option<u64>> {
        match self.free_list(block).pop() {
            Some(off) => Ok(Some(off)),
            None => self.carve(pm, block),
        }
    }

    /// Carve a `block`-sized reservation out of the first span that fits.
    ///
    /// The successor header is persisted *before* the span header shrinks:
    /// until the shrink is durable the old header still covers the whole
    /// span and the successor header is invisible inside it, so the chain
    /// is intact whichever writes a crash keeps.
    fn carve(&mut self, pm: &PmPool, block: u64) -> Result<Option<u64>> {
        let Some(i) = self.wild.iter().position(|&(_, len)| len >= block) else {
            return Ok(None);
        };
        let (off, len) = self.wild[i];
        if len == block {
            // The span header already describes exactly this block.
            self.wild.swap_remove(i);
            return Ok(Some(off));
        }
        write_u64(pm, off + block + BH_SIZE, len - block)?;
        write_u64(pm, off + block + BH_STATE, STATE_FREE)?;
        pm.persist(off + block + BH_SIZE, BLOCK_HEADER_SIZE as usize)?;
        write_u64(pm, off + BH_SIZE, block)?;
        pm.persist(off + BH_SIZE, 8)?;
        if pm.mode() == spp_pm::Mode::Tracked {
            // Header maintenance is exempt from tx discipline (see the
            // heap_hdr rules in spp-pmemcheck's TxChecker).
            pm.mark(format!("heap_hdr:{}:{}", off + block, BLOCK_HEADER_SIZE));
            pm.mark(format!("heap_hdr:{off}:8"));
        }
        self.wild[i] = (off + block, len - block);
        Ok(Some(off))
    }

    #[cfg(test)]
    fn wild_bytes(&self) -> u64 {
        self.wild.iter().map(|&(_, len)| len).sum()
    }

    #[cfg(test)]
    fn free_blocks(&self) -> usize {
        self.small
            .iter()
            .chain(self.large.values())
            .map(Vec::len)
            .sum()
    }
}

/// The shared wilderness frontier. Also the refill serialization point:
/// holding this mutex across the header persist is what keeps chunk
/// headers durable in address order.
#[derive(Debug)]
struct SharedWilderness {
    cursor: u64,
}

/// The sharded persistent-heap allocator.
pub(crate) struct Arenas {
    heap_off: u64,
    heap_end: u64,
    /// Refill chunk target, adapted to pool size at construction.
    chunk: u64,
    arenas: Vec<Mutex<ArenaState>>,
    shared: Mutex<SharedWilderness>,
    live_bytes: AtomicU64,
    live_objects: AtomicU64,
    high_water: AtomicU64,
    gens: GenIndex,
}

impl std::fmt::Debug for Arenas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arenas")
            .field("narenas", &self.arenas.len())
            .field("chunk", &self.chunk)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Arenas {
    pub(crate) fn new(heap_off: u64, heap_end: u64, narenas: usize) -> Self {
        let narenas = narenas.max(1);
        let heap = heap_end.saturating_sub(heap_off);
        // Scale chunks down on small pools so one arena cannot hog the
        // heap; clamp to [4 KiB, 256 KiB] and keep 16-byte granularity.
        let chunk = (heap / (8 * narenas as u64))
            .clamp(MIN_REFILL_CHUNK, MAX_REFILL_CHUNK)
            .next_multiple_of(16);
        Arenas {
            heap_off,
            heap_end,
            chunk,
            arenas: (0..narenas)
                .map(|_| Mutex::new(ArenaState::default()))
                .collect(),
            shared: Mutex::new(SharedWilderness { cursor: heap_off }),
            live_bytes: AtomicU64::new(0),
            live_objects: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            gens: GenIndex::new(heap_end),
        }
    }

    /// Rebuild volatile state — free lists, live counters and the
    /// generation index — in one walk over the durable block headers, the
    /// same linear walk as the unsharded allocator (the media format is
    /// identical). Free blocks are distributed round-robin: class-shaped
    /// ones onto arena free lists, odd-shaped ones (chunk remainders) as
    /// re-carvable wilderness spans.
    pub(crate) fn rebuild(
        pm: &PmPool,
        heap_off: u64,
        heap_end: u64,
        narenas: usize,
    ) -> Result<Self> {
        let ar = Arenas::new(heap_off, heap_end, narenas);
        let n = ar.arenas.len();
        let (mut next_free, mut next_wild) = (0usize, 0usize);
        let (mut live_bytes, mut live_objects) = (0u64, 0u64);
        let off = walk_heap(pm, heap_off, heap_end, |b| match b.state {
            // Saturated generation counter: the sentinel must never be
            // handed out again, so the block stays quarantined (a
            // deterministic bounded leak of one block per 126 frees of the
            // same slot).
            BlockState::Free if b.is_parked() => {}
            BlockState::Free if is_class_block(b.size) => {
                ar.arenas[next_free % n]
                    .lock()
                    .free_list(b.size)
                    .push(b.off);
                next_free += 1;
            }
            BlockState::Free => {
                ar.arenas[next_wild % n].lock().wild.push((b.off, b.size));
                next_wild += 1;
            }
            BlockState::Allocated => {
                live_bytes += b.size;
                live_objects += 1;
                ar.gens.set(&b, b.gen);
            }
        })?;
        ar.shared.lock().cursor = off;
        ar.live_bytes.store(live_bytes, Ordering::Relaxed);
        ar.live_objects.store(live_objects, Ordering::Relaxed);
        ar.high_water.store(off - heap_off, Ordering::Relaxed);
        Ok(ar)
    }

    /// Reserve a block able to hold `payload` bytes from `lane`'s arena and
    /// return it *as it will be born*: allocated, at the generation its
    /// durable word prescribes — a free-list block holds `free | gen + 1`
    /// from its last free; fresh wilderness is zeroed and gen 0 means
    /// untracked, so a first allocation starts at 1. The block's size is
    /// durable after this call but its state stays free until the caller
    /// makes [`BlockInfo::state_entry`] durable and calls [`Self::adopted`]
    /// (or, failing, [`Self::release`]). A request the word cannot record
    /// is [`PmdkError::BadAllocSize`]; a word that is not a free block's is
    /// [`PmdkError::BadPool`], the block given back.
    pub(crate) fn reserve(&self, pm: &PmPool, lane: usize, payload: u64) -> Result<BlockInfo> {
        if payload == 0 || payload >= 1 << STATE_SIZE_BITS {
            return Err(PmdkError::BadAllocSize(payload));
        }
        let size = class_block_size(payload);
        let Some(off) = self.take_free(pm, lane, size)? else {
            return Err(PmdkError::OutOfMemory { requested: payload });
        };
        let word = read_u64(pm, off + BH_STATE)?;
        match BlockInfo::decode(off, size, word) {
            Some(free) if free.state == BlockState::Free => {
                debug_assert!(!free.is_parked(), "saturated block escaped quarantine");
                Ok(BlockInfo {
                    state: BlockState::Allocated,
                    gen: free.gen.max(1),
                    requested: payload,
                    ..free
                })
            }
            _ => {
                self.release(lane, off, size);
                Err(PmdkError::BadPool(format!(
                    "reserved block at {off:#x} has a corrupt state word"
                )))
            }
        }
    }

    /// Take a free `block`-sized block off the volatile lists; `None` when
    /// the heap is exhausted. Exactly one arena lock on the fast path;
    /// misses fall back to refilling from the shared wilderness and then to
    /// stealing from sibling arenas (one lock at a time, so lane holders can
    /// never deadlock on each other's arenas).
    fn take_free(&self, pm: &PmPool, lane: usize, block: u64) -> Result<Option<u64>> {
        let n = self.arenas.len();
        let home = lane % n;
        {
            let mut a = self.arenas[home].lock();
            if let Some(off) = a.take(pm, block)? {
                return Ok(Some(off));
            }
            if self.refill(pm, &mut a, block)? {
                let off = a.carve(pm, block)?.expect("refilled span fits the request");
                return Ok(Some(off));
            }
        }
        // Shared wilderness exhausted: steal from sibling arenas.
        for d in 1..n {
            if let Some(off) = self.arenas[(home + d) % n].lock().take(pm, block)? {
                return Ok(Some(off));
            }
        }
        // Last chance: a concurrent free may have restocked home while we
        // were scanning siblings.
        self.arenas[home].lock().take(pm, block)
    }

    /// Restock `a` from the shared wilderness so it can satisfy a `need`-
    /// sized carve. Returns `false` when the wilderness cannot cover it.
    ///
    /// Called with the arena lock held; lock order is always arena →
    /// shared, never the reverse.
    fn refill(&self, pm: &PmPool, a: &mut ArenaState, need: u64) -> Result<bool> {
        let mut sh = self.shared.lock();
        let remaining = self.heap_end.saturating_sub(sh.cursor);
        // Contiguous growth: a span ending at the cursor extends in place,
        // which keeps single-threaded layouts identical to a bump pointer.
        if let Some(i) = a.wild.iter().position(|&(off, len)| off + len == sh.cursor) {
            let (off, len) = a.wild[i];
            let extra = (need - len).max(self.chunk).min(remaining);
            if len + extra < need {
                return Ok(false);
            }
            write_u64(pm, off + BH_SIZE, len + extra)?;
            pm.persist(off + BH_SIZE, 8)?;
            if pm.mode() == spp_pm::Mode::Tracked {
                pm.mark(format!("heap_hdr:{off}:8"));
            }
            sh.cursor += extra;
            self.high_water
                .fetch_max(sh.cursor - self.heap_off, Ordering::Relaxed);
            a.wild[i] = (off, len + extra);
            return Ok(true);
        }
        // Disjoint chunk: persist its header before the cursor moves.
        let want = need.max(self.chunk).min(remaining);
        if want < need {
            return Ok(false);
        }
        let off = sh.cursor;
        write_u64(pm, off + BH_SIZE, want)?;
        write_u64(pm, off + BH_STATE, STATE_FREE)?;
        pm.persist(off + BH_SIZE, BLOCK_HEADER_SIZE as usize)?;
        if pm.mode() == spp_pm::Mode::Tracked {
            pm.mark(format!("heap_hdr:{off}:{BLOCK_HEADER_SIZE}"));
        }
        sh.cursor += want;
        self.high_water
            .fetch_max(sh.cursor - self.heap_off, Ordering::Relaxed);
        a.wild.push((off, want));
        Ok(true)
    }

    /// Put a block whose durable state is free on `lane`'s free list: the
    /// last step of [`Self::retired`], and the undo of a reservation that
    /// was never validated (error paths). Free-to-local: see the module docs.
    pub(crate) fn release(&self, lane: usize, block_hdr: u64, block_size: u64) {
        let mut a = self.arenas[lane % self.arenas.len()].lock();
        a.free_list(block_size).push(block_hdr);
    }

    /// `b` is durably allocated: count it live and index its generation.
    pub(crate) fn adopted(&self, b: &BlockInfo) {
        self.live_bytes.fetch_add(b.size, Ordering::Relaxed);
        self.live_objects.fetch_add(1, Ordering::Relaxed);
        self.gens.set(b, b.gen);
    }

    /// The live block `was` is durably [`retired`](BlockInfo::retired):
    /// unindex and uncount it, and return it to `lane`'s arena — unless it
    /// is now parked (no live-looking keys left): space accounting only.
    pub(crate) fn retired(&self, lane: usize, was: &BlockInfo) {
        self.gens.set(was, 0);
        self.live_bytes.fetch_sub(was.size, Ordering::Relaxed);
        self.live_objects.fetch_sub(1, Ordering::Relaxed);
        if !was.retired().is_parked() {
            self.release(lane, was.off, was.size);
        }
    }

    /// The live block `was` is durably [`resized`](BlockInfo::resized) to
    /// `now`: its old bound's key dies, the new bound's is born.
    pub(crate) fn resized(&self, was: &BlockInfo, now: &BlockInfo) {
        self.gens.set(was, 0);
        self.gens.set(now, now.gen);
    }

    /// The allocation generation currently live at a bound offset; 0 when
    /// no tracked allocation ends there.
    #[inline]
    pub(crate) fn gen_at_bound(&self, bound_off: u64) -> u8 {
        self.gens.get(bound_off)
    }

    /// Locate and validate the live block backing `oid`. This is where the
    /// allocator-level temporal check lives: a generation-carrying oid whose
    /// key no longer matches the block header is stale —
    /// [`PmdkError::StaleOid`] for use-after-free (block now free),
    /// double-free (ditto), and free-then-reuse / in-place realloc (block
    /// allocated again under a newer generation). Untracked oids (gen 0)
    /// keep stock PMDK semantics: a freed block is just
    /// [`PmdkError::InvalidOid`].
    pub(crate) fn block_meta(&self, pm: &PmPool, oid: PmemOid) -> Result<BlockInfo> {
        let invalid = PmdkError::InvalidOid { off: oid.off };
        if oid.is_null() || oid.off < self.heap_off + BLOCK_HEADER_SIZE || oid.off >= self.heap_end
        {
            return Err(invalid);
        }
        let block = oid.off - BLOCK_HEADER_SIZE;
        let (size, word) = read_header(pm, block)?;
        if size == 0 || size % 16 != 0 || block + size > self.heap_end {
            return Err(invalid);
        }
        match BlockInfo::decode(block, size, word) {
            Some(b) if b.state == BlockState::Allocated && (oid.gen == 0 || oid.gen == b.gen) => {
                Ok(b)
            }
            Some(b) => Err(dead_oid(oid, b.gen)),
            None => Err(invalid),
        }
    }

    pub(crate) fn stats(&self) -> AllocStats {
        AllocStats {
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            live_objects: self.live_objects.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
            heap_size: self.heap_end - self.heap_off,
        }
    }

    #[cfg(test)]
    fn free_list_len(&self, block: u64) -> usize {
        self.arenas
            .iter()
            .map(|a| a.lock().free_list(block).len())
            .sum()
    }

    #[cfg(test)]
    fn wild_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| a.lock().wild_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{PmPool, PoolConfig};

    #[test]
    fn class_sizes() {
        assert_eq!(class_block_size(1), 32); // 16-byte min class + header
        assert_eq!(class_block_size(16), 32);
        assert_eq!(class_block_size(17), 48); // 32-byte class
        assert_eq!(class_block_size(48), 80); // 64-byte class
        assert_eq!(class_block_size(56), 80); // absorbed by the same class
        assert_eq!(class_block_size(100), 144);
        assert_eq!(class_block_size(300), 528); // 256-byte steps
        assert_eq!(class_block_size(1024), 1040);
        assert_eq!(class_block_size(4000), 4112);
        assert_eq!(class_block_size(4097), 5136); // 1 KiB steps
        assert_eq!(class_block_size(10_000), 10256);
    }

    #[test]
    fn small_classes_are_indexed_densely_in_size_order() {
        let mut seen = Vec::new();
        for payload in 1..=4096 {
            let (block, index) = size_class(payload);
            let index = index.expect("classes up to 4 KiB are small");
            if seen.last() != Some(&(index, block)) {
                seen.push((index, block));
            }
        }
        let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..SMALL_CLASSES).collect::<Vec<_>>());
        // A class block's own payload maps back to its class.
        for &(index, block) in &seen {
            assert_eq!(size_class(block - BLOCK_HEADER_SIZE), (block, Some(index)));
        }
        assert_eq!(size_class(4097).1, None);
    }

    #[test]
    fn class_block_detection() {
        for payload in [1u64, 16, 17, 100, 300, 4097] {
            assert!(is_class_block(class_block_size(payload)));
        }
        assert!(!is_class_block(0));
        assert!(!is_class_block(16)); // header alone is no block
        assert!(!is_class_block(MAX_REFILL_CHUNK)); // chunks are not classes
    }

    #[test]
    fn reserve_carves_sequentially() {
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        let ar = Arenas::new(0, 1 << 16, 1);
        let a = ar.reserve(&pm, 0, 16).unwrap();
        let b = ar.reserve(&pm, 0, 16).unwrap();
        assert_eq!((a.off, a.size), (0, 32));
        assert_eq!((b.off, b.size), (32, 32));
        assert_eq!(read_u64(&pm, a.off + BH_SIZE).unwrap(), 32);
        assert_eq!(read_u64(&pm, b.off + BH_SIZE).unwrap(), 32);
    }

    #[test]
    fn sticky_lane_preserves_bump_layout_across_refills() {
        // A single lane allocating through multiple refill chunks must see
        // strictly adjacent blocks (contiguous span growth), exactly like
        // the unsharded bump allocator.
        let pm = PmPool::new(PoolConfig::new(1 << 20));
        let ar = Arenas::new(0, 1 << 20, 4);
        let mut expect = 0u64;
        for _ in 0..200 {
            let b = ar.reserve(&pm, 2, 100).unwrap();
            assert_eq!(b.off, expect);
            expect = b.off + b.size;
        }
    }

    #[test]
    fn release_enables_reuse() {
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        let ar = Arenas::new(0, 1 << 16, 1);
        let a = ar.reserve(&pm, 0, 100).unwrap();
        ar.release(0, a.off, a.size);
        let b = ar.reserve(&pm, 0, 100).unwrap();
        assert_eq!(a.off, b.off);
    }

    #[test]
    fn free_to_local_block_steals_back() {
        // A block freed into lane 1's arena is found by lane 0 once the
        // wilderness is gone (steal path).
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        let ar = Arenas::new(0, 64, 2);
        let a = ar.reserve(&pm, 0, 16).unwrap();
        let _b = ar.reserve(&pm, 0, 16).unwrap();
        ar.release(1, a.off, a.size);
        let c = ar.reserve(&pm, 0, 16).unwrap();
        assert_eq!(c.off, a.off);
    }

    #[test]
    fn oom_when_heap_exhausted() {
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        let ar = Arenas::new(0, 64, 1);
        ar.reserve(&pm, 0, 16).unwrap();
        ar.reserve(&pm, 0, 16).unwrap();
        assert!(matches!(
            ar.reserve(&pm, 0, 16),
            Err(PmdkError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn rebuild_reconstructs_lists_and_stats() {
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        let ar = Arenas::new(0, 1 << 16, 2);
        let a = ar.reserve(&pm, 0, 16).unwrap();
        let b = ar.reserve(&pm, 0, 16).unwrap().off;
        let c = ar.reserve(&pm, 0, 100).unwrap();
        let (asz, csz) = (a.size, c.size);
        // Mark a, c allocated durably; leave b free.
        for off in [a.off, c.off] {
            write_u64(&pm, off + BH_STATE, STATE_ALLOC).unwrap();
        }
        let cursor = ar.shared.lock().cursor;
        let re = Arenas::rebuild(&pm, 0, 1 << 16, 2).unwrap();
        let stats = re.stats();
        assert_eq!(stats.live_objects, 2);
        assert_eq!(stats.live_bytes, asz + csz);
        // The refilled chunk is durable, so the rebuilt frontier and
        // high-water are chunk-granular — identical to pre-crash.
        assert_eq!(re.shared.lock().cursor, cursor);
        assert_eq!(stats.high_water, cursor);
        // b is back on a free list; the chunk remainder is a wild span.
        assert_eq!(re.free_list_len(asz), 1);
        assert_eq!(re.wild_bytes(), cursor - (asz + asz + csz));
        // Round trip: the rebuilt allocator reuses b for a same-class ask.
        let again = re.reserve(&pm, 0, 16).unwrap().off;
        assert_eq!(again, b);
    }

    #[test]
    fn rebuild_distributes_across_arenas() {
        let pm = PmPool::new(PoolConfig::new(1 << 18));
        let ar = Arenas::new(0, 1 << 18, 1);
        let mut blocks = Vec::new();
        for _ in 0..8 {
            blocks.push(ar.reserve(&pm, 0, 64).unwrap());
        }
        // All eight stay durably free; rebuild across 4 arenas must spread
        // them round-robin and still find every one.
        let re = Arenas::rebuild(&pm, 0, 1 << 18, 4).unwrap();
        assert_eq!(re.free_list_len(blocks[0].size), 8);
        let per_arena: Vec<usize> = re.arenas.iter().map(|a| a.lock().free_blocks()).collect();
        assert!(per_arena.iter().all(|&c| c == 2), "{per_arena:?}");
    }

    #[test]
    fn state_word_roundtrip() {
        let decode_state = |w| BlockInfo::decode(0, 0, w).map(|b| (b.state, b.gen, b.requested));
        for (alloc, gen, req) in [
            (false, 0u8, 0u64),
            (true, 0, 0), // legacy raw STATE_ALLOC
            (true, 1, 32),
            (true, 126, (1 << 40) - 1),
            (false, GEN_MAX, 0),
        ] {
            let w = encode_state(alloc, gen, req);
            let (state, g, r) = decode_state(w).unwrap();
            let want = if alloc {
                BlockState::Allocated
            } else {
                BlockState::Free
            };
            assert_eq!((state, g, r), (want, gen, req));
        }
        // The legacy constants decode to their historical meaning.
        assert_eq!(decode_state(STATE_FREE), Some((BlockState::Free, 0, 0)));
        assert_eq!(
            decode_state(STATE_ALLOC),
            Some((BlockState::Allocated, 0, 0))
        );
        // Reserved high bits are corruption.
        assert_eq!(decode_state(1 << 48), None);
        assert_eq!(decode_state(u64::MAX), None);
    }

    #[test]
    fn rebuild_quarantines_saturated_blocks() {
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        let ar = Arenas::new(0, 1 << 16, 1);
        let a = ar.reserve(&pm, 0, 16).unwrap().off;
        let b = ar.reserve(&pm, 0, 16).unwrap().off;
        // a: durably free at the sentinel generation; b: free at a live gen.
        write_u64(&pm, a + BH_STATE, encode_state(false, GEN_MAX, 0)).unwrap();
        write_u64(&pm, b + BH_STATE, encode_state(false, 3, 0)).unwrap();
        let re = Arenas::rebuild(&pm, 0, 1 << 16, 1).unwrap();
        // Only b is reusable; a is quarantined forever.
        assert_eq!(re.free_list_len(class_block_size(16)), 1);
        let got = re.reserve(&pm, 0, 16).unwrap().off;
        assert_eq!(got, b);
        let next = re.reserve(&pm, 0, 16).unwrap().off;
        assert_ne!(next, a);
    }

    #[test]
    fn scan_rejects_temporal_corruption() {
        // Requested size beyond the block's payload capacity.
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        write_u64(&pm, BH_SIZE, 32).unwrap();
        write_u64(&pm, BH_STATE, encode_state(true, 1, 17)).unwrap();
        assert!(matches!(
            scan_heap(&pm, 0, 1 << 16),
            Err(PmdkError::BadPool(_))
        ));
        // An allocated block at the quarantine generation cannot exist.
        write_u64(&pm, BH_STATE, encode_state(true, GEN_MAX, 16)).unwrap();
        assert!(matches!(
            scan_heap(&pm, 0, 1 << 16),
            Err(PmdkError::BadPool(_))
        ));
    }

    #[test]
    fn rebuild_rejects_corrupt_header() {
        let pm = PmPool::new(PoolConfig::new(1 << 16));
        write_u64(&pm, BH_SIZE, 17).unwrap(); // not multiple of 16
        assert!(matches!(
            Arenas::rebuild(&pm, 0, 1 << 16, 1),
            Err(PmdkError::BadPool(_))
        ));
    }

    #[test]
    fn crash_after_refill_before_validation_loses_nothing() {
        // Crash right after a reserve (refill + carve, nothing validated):
        // the persisted chunk header keeps the frontier intact and the
        // carved-but-unvalidated block comes back free.
        let pm = PmPool::new(PoolConfig::new(1 << 16).mode(spp_pm::Mode::Tracked));
        let ar = Arenas::new(0, 1 << 16, 1);
        ar.reserve(&pm, 0, 16).unwrap();
        let img = pm.crash_image(spp_pm::CrashSpec::DropUnpersisted);
        let crashed = PmPool::from_image(img, PoolConfig::new(1 << 16));
        let re = Arenas::rebuild(&crashed, 0, 1 << 16, 1).unwrap();
        assert_eq!(re.stats().live_objects, 0);
        assert_eq!(re.stats().high_water, ar.stats().high_water);
        re.reserve(&crashed, 0, 16).unwrap();
    }
}
