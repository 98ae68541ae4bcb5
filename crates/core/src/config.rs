//! The configurable SPP pointer encoding (§IV-A, §IV-F), extended with the
//! SPP+T allocation-generation field for temporal safety.

use crate::error::SppError;
use crate::{OVERFLOW_BIT, PM_BIT};

/// The SPP+T tag encoding for a given tag width.
///
/// The 64 pointer bits are divided into the PM bit (63), the overflow bit
/// (62), `tag_bits` of tag, `gen_bits` of allocation generation, and
/// `62 - tag_bits - gen_bits` of virtual address:
///
/// ```text
/// 63   62   61 .. a+g   a+g-1 .. a    a-1 .. 0      a = address_bits()
/// PM | OVF | tag       | generation | virtual address
/// ```
///
/// * maximum object size: `2^tag_bits` bytes;
/// * maximum addressable pool range: `2^address_bits` bytes of the
///   simulated virtual address space (pools are mapped low — §IV-F).
///
/// The generation field sits *below* the tag, so the carry out of pointer
/// arithmetic still lands exactly in the overflow bit (the spatial check is
/// byte-for-byte the paper's), while the generation rides along untouched —
/// a lock-and-key temporal check validated only at dereference. Generation
/// 0 means *untracked* (no temporal check), so a `gen_bits == 0` encoding
/// degrades to the paper's spatial-only SPP.
///
/// The paper's main evaluation uses 26 tag bits (64 MiB objects); SPP+T
/// pairs that with 7 generation bits (matching the allocator's on-media
/// generation counter, whose saturation sentinel is 127). The Phoenix
/// experiments use 31 tag bits and keep `gen_bits == 0` — they need the
/// full 2 GiB address range, and temporal tracking is an orthogonal axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagConfig {
    tag_bits: u32,
    gen_bits: u32,
}

/// Generation-field width paired with tag widths that leave room for it.
const DEFAULT_GEN_BITS: u32 = 7;

impl Default for TagConfig {
    /// The paper's evaluation default, 26 tag bits, plus SPP+T's 7
    /// generation bits.
    fn default() -> Self {
        TagConfig {
            tag_bits: 26,
            gen_bits: DEFAULT_GEN_BITS,
        }
    }
}

impl TagConfig {
    /// Create an encoding with the given tag width. Tag widths up to 35
    /// leave at least 20 address bits beside the 7-bit generation field and
    /// get temporal tracking; wider tags fall back to spatial-only
    /// (`gen_bits == 0`).
    ///
    /// # Errors
    ///
    /// [`SppError::BadTagBits`] unless `8 <= tag_bits <= 40` (narrower tags
    /// cannot express realistic objects; wider ones leave fewer than 22
    /// address bits).
    pub fn new(tag_bits: u32) -> Result<Self, SppError> {
        if !(8..=40).contains(&tag_bits) {
            return Err(SppError::BadTagBits(tag_bits));
        }
        let gen_bits = if tag_bits <= 35 { DEFAULT_GEN_BITS } else { 0 };
        Ok(TagConfig { tag_bits, gen_bits })
    }

    /// The 31-bit configuration used for the Phoenix suite (§VI-B):
    /// spatial-only — 2 GiB objects need the full 31-bit address range.
    pub fn phoenix() -> Self {
        TagConfig {
            tag_bits: 31,
            gen_bits: 0,
        }
    }

    /// The widest temporal-tracking encoding (up to the paper's 26-bit
    /// default) whose address bits still cover a pool mapping that ends at
    /// `end_va`. The 7-bit generation field narrows the default encoding's
    /// address range to 512 MiB, so large benchmark pools trade tag width
    /// (maximum object size) for reach instead of giving up the temporal
    /// key — the paper itself treats the split as a free parameter (§IV-A).
    ///
    /// # Errors
    ///
    /// [`SppError::PoolTooLarge`] when even the narrowest legal tag
    /// (8 bits) cannot reach `end_va` alongside the generation field.
    pub fn fitting(end_va: u64) -> Result<Self, SppError> {
        let needed = 64 - end_va.saturating_sub(1).leading_zeros();
        let spare = (62 - DEFAULT_GEN_BITS).saturating_sub(needed);
        if spare < 8 {
            return Err(SppError::PoolTooLarge {
                end_va,
                max_va: 1u64 << (62 - DEFAULT_GEN_BITS - 8),
            });
        }
        Ok(TagConfig {
            tag_bits: spare.min(26),
            gen_bits: DEFAULT_GEN_BITS,
        })
    }

    /// Number of tag bits.
    pub fn tag_bits(self) -> u32 {
        self.tag_bits
    }

    /// Number of generation bits (0 = spatial-only, no temporal checking).
    pub fn gen_bits(self) -> u32 {
        self.gen_bits
    }

    /// Number of virtual-address bits (`64 - tag_bits - gen_bits - 2`).
    pub fn address_bits(self) -> u32 {
        62 - self.tag_bits - self.gen_bits
    }

    /// Largest allocatable object under this encoding (`2^tag_bits`).
    pub fn max_object_size(self) -> u64 {
        1u64 << self.tag_bits
    }

    /// Exclusive upper bound of addressable simulated VAs.
    pub fn max_va(self) -> u64 {
        1u64 << self.address_bits()
    }

    /// Mask of the virtual-address bits.
    #[inline]
    pub fn va_mask(self) -> u64 {
        self.max_va() - 1
    }

    /// Largest generation key the pointer can carry (0 when spatial-only).
    #[inline]
    pub fn gen_mask(self) -> u64 {
        (1u64 << self.gen_bits) - 1
    }

    /// Mask of the combined overflow + tag field, in place.
    #[inline]
    fn field_mask(self) -> u64 {
        // tag_bits + 1 bits starting above the address and generation bits
        ((1u64 << (self.tag_bits + 1)) - 1) << (self.address_bits() + self.gen_bits)
    }

    /// Construct a tagged PM pointer to byte 0 of an *untracked* object
    /// (generation 0 — spatial checking only, the paper's original
    /// `pmemobj_direct`).
    #[inline]
    pub fn make_tagged(self, va: u64, size: u64) -> u64 {
        self.make_tagged_gen(va, size, 0)
    }

    /// Construct a tagged PM pointer to byte 0 of an object of `size` bytes
    /// mapped at simulated VA `va`, carrying allocation generation `gen` —
    /// the core of the adapted `pmemobj_direct` (§IV-B) plus SPP+T's
    /// temporal key.
    ///
    /// The tag is the two's complement of the size within `tag_bits`
    /// (masked so the overflow bit starts clear, as in the paper's
    /// `pmemobj_direct` listing). Generations that do not fit `gen_bits`
    /// are truncated to 0 (untracked) — in practice the allocator's
    /// counter and the default 7-bit field are sized to match.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `va` fits the address bits and
    /// `1 <= size <= max_object_size` — both enforced at allocation time by
    /// [`crate::SppPolicy`].
    #[inline]
    pub fn make_tagged_gen(self, va: u64, size: u64, gen: u8) -> u64 {
        debug_assert!(
            va < self.max_va(),
            "pool mapped above the addressable range"
        );
        debug_assert!(size >= 1 && size <= self.max_object_size());
        let tag = (self.max_object_size() - (size & (self.max_object_size() - 1)))
            & (self.max_object_size() - 1);
        let gen_field = if (gen as u64) <= self.gen_mask() {
            (gen as u64) << self.address_bits()
        } else {
            0
        };
        // size == max_object_size yields tag 0 (distance counts from 0).
        PM_BIT | (tag << (self.address_bits() + self.gen_bits)) | gen_field | va
    }

    /// Extract the generation key (0 = untracked / spatial-only).
    #[inline]
    pub fn gen_of(self, ptr: u64) -> u8 {
        ((ptr >> self.address_bits()) & self.gen_mask()) as u8
    }

    /// `__spp_updatetag` without the PM-bit check: add `delta` to the
    /// overflow+tag field, wrapping within `tag_bits + 1` bits. The carry
    /// into (or borrow out of) the top of the tag is what sets (or clears)
    /// the overflow bit. The generation field below the tag is untouched:
    /// pointer arithmetic moves the lock, never the key.
    #[inline]
    pub fn update_tag(self, ptr: u64, delta: i64) -> u64 {
        let fm = self.field_mask();
        let field = ptr & fm;
        let add = ((delta as u64) << (self.address_bits() + self.gen_bits)) & fm;
        let new_field = field.wrapping_add(add) & fm;
        (ptr & !fm) | new_field
    }

    /// `__spp_cleantag` without the PM-bit check: strip the PM bit, tag and
    /// generation, preserving the overflow bit and the virtual address. An
    /// overflown pointer thus resolves to `2^62 + va` — far outside every
    /// mapping.
    #[inline]
    pub fn clean_tag(self, ptr: u64) -> u64 {
        ptr & (OVERFLOW_BIT | self.va_mask())
    }

    /// `__spp_checkbound` without the PM-bit check: account for an access of
    /// `deref_size` bytes (tag `+= deref_size - 1`) and mask for dereference.
    /// The *returned* address is the one to access; the caller's tagged
    /// pointer keeps its original tag.
    ///
    /// No object exceeds [`Self::max_object_size`] (allocation refuses it),
    /// so a longer access is out of bounds whatever the tag says — and must
    /// be flagged here, because the tag update wraps modulo
    /// `2^(tag_bits + 1)` and such a length would alias a small one.
    #[inline]
    pub fn check_bound(self, ptr: u64, deref_size: u64) -> u64 {
        if deref_size > self.max_object_size() {
            return self.clean_tag(ptr) | OVERFLOW_BIT;
        }
        self.clean_tag(self.update_tag(ptr, deref_size as i64 - 1))
    }

    /// Adjust a tagged pointer by `delta` bytes: virtual address and tag
    /// move together (a GEP plus its injected `__spp_updatetag`, Fig. 3);
    /// the generation field is structurally unreachable by either update.
    #[inline]
    pub fn offset(self, ptr: u64, delta: i64) -> u64 {
        let va = (ptr & self.va_mask()).wrapping_add(delta as u64) & self.va_mask();
        let moved = self.update_tag(ptr, delta);
        (moved & !self.va_mask()) | va
    }

    /// Whether the overflow bit is set.
    #[inline]
    pub fn is_overflowed(self, ptr: u64) -> bool {
        ptr & OVERFLOW_BIT != 0
    }

    /// Extract the (untagged) virtual address.
    #[inline]
    pub fn va_of(self, ptr: u64) -> u64 {
        ptr & self.va_mask()
    }

    /// Remaining distance to the object's upper bound, if the pointer is in
    /// bounds (`None` when overflowed). Exposed for diagnostics and tests.
    pub fn distance_to_bound(self, ptr: u64) -> Option<u64> {
        if self.is_overflowed(ptr) {
            return None;
        }
        let tag = (ptr >> (self.address_bits() + self.gen_bits)) & (self.max_object_size() - 1);
        let dist = (self.max_object_size() - tag) & (self.max_object_size() - 1);
        Some(if dist == 0 {
            self.max_object_size()
        } else {
            dist
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TagConfig::default();
        assert_eq!(c.tag_bits(), 26);
        assert_eq!(c.gen_bits(), 7);
        assert_eq!(c.address_bits(), 29);
        assert_eq!(c.max_object_size(), 64 << 20);
        // Phoenix trades the temporal field for 2 GiB objects.
        assert_eq!(TagConfig::phoenix().tag_bits(), 31);
        assert_eq!(TagConfig::phoenix().gen_bits(), 0);
        assert_eq!(TagConfig::phoenix().address_bits(), 31);
    }

    #[test]
    fn rejects_bad_widths() {
        assert!(TagConfig::new(7).is_err());
        assert!(TagConfig::new(41).is_err());
        assert!(TagConfig::new(8).is_ok());
        // Very wide tags drop the generation field rather than starving
        // the address bits.
        let wide = TagConfig::new(40).unwrap();
        assert_eq!(wide.gen_bits(), 0);
        assert_eq!(wide.address_bits(), 22);
    }

    #[test]
    fn fitting_trades_tag_width_for_reach() {
        // Small pools keep the full 26-bit default.
        let small = TagConfig::fitting(1 << 26).unwrap();
        assert_eq!(small.tag_bits(), 26);
        assert_eq!(small.gen_bits(), 7);
        // A 1.5 GiB mapping needs 31 address bits: tag narrows to 24,
        // the generation field survives.
        let big = TagConfig::fitting(1536 << 20).unwrap();
        assert_eq!(big.gen_bits(), 7);
        assert!(big.max_va() >= 1536 << 20, "{big:?}");
        assert!(big.tag_bits() >= 8);
        // Beyond ~128 TiB even an 8-bit tag cannot reach.
        assert!(TagConfig::fitting(1 << 48).is_err());
    }

    #[test]
    fn paper_figure3_example() {
        // 24 tag bits, 42-byte object: initial tag 0xFFFFD6 (Fig. 3a).
        let c = TagConfig::new(24).unwrap();
        let va = 0x2000_0000u64;
        let p = c.make_tagged(va, 42);
        assert!(crate::is_pm_ptr(p));
        assert!(!c.is_overflowed(p));
        let tag_shift = c.address_bits() + c.gen_bits();
        let tag = (p >> tag_shift) & 0xFF_FFFF;
        assert_eq!(tag, 0xFF_FFD6);
        // += 21 twice: second crossing sets the overflow bit (Fig. 3b/3c).
        let p1 = c.offset(p, 21);
        assert!(!c.is_overflowed(p1));
        assert_eq!(c.va_of(p1), va + 21);
        let p2 = c.offset(p1, 21);
        assert!(c.is_overflowed(p2));
        assert_eq!((p2 >> tag_shift) & 0xFF_FFFF, 0);
        // Walking back clears it again.
        let p3 = c.offset(p2, -1);
        assert!(!c.is_overflowed(p3));
    }

    #[test]
    fn clean_tag_preserves_overflow_and_va() {
        let c = TagConfig::default();
        let p = c.make_tagged(0x1000, 8);
        assert_eq!(c.clean_tag(p), 0x1000);
        let over = c.offset(p, 8);
        assert!(c.is_overflowed(over));
        let cleaned = c.clean_tag(over);
        assert_eq!(cleaned, OVERFLOW_BIT | 0x1008);
        assert!(cleaned >= (1 << 62)); // unmapped => faults
    }

    #[test]
    fn check_bound_last_byte_ok_one_past_faults() {
        let c = TagConfig::default();
        let p = c.make_tagged(0x1000, 16);
        // Access of the full 16 bytes at offset 0: fine.
        assert_eq!(c.check_bound(p, 16), 0x1000);
        // 8-byte access at offset 8: last byte is byte 15 -> fine.
        let p8 = c.offset(p, 8);
        assert_eq!(c.check_bound(p8, 8), 0x1008);
        // 8-byte access at offset 9: last byte is 16 -> overflow.
        let p9 = c.offset(p, 9);
        assert!(c.check_bound(p9, 8) & OVERFLOW_BIT != 0);
    }

    #[test]
    fn check_bound_flags_lengths_no_object_can_have() {
        // The tag field is tag_bits + 1 wide, so an unchecked length of
        // 2^(tag_bits + 1) + k would wrap to k and pass.
        for c in [TagConfig::default(), TagConfig::new(8).unwrap()] {
            let max = c.max_object_size();
            let p = c.make_tagged(0x1000, 64);
            assert_eq!(c.check_bound(p, 64), 0x1000);
            for len in [
                65,
                max,
                max + 1,
                2 * max + 8,
                2 * max + 64,
                4 * max + 1,
                u64::MAX,
            ] {
                let masked = c.check_bound(p, len);
                assert!(masked & OVERFLOW_BIT != 0, "{c:?}: length {len} passed");
                assert_eq!(masked & c.va_mask(), 0x1000);
            }
            // A maximal object is still readable whole.
            let whole = c.make_tagged(0x1000, max);
            assert_eq!(c.check_bound(whole, max), 0x1000);
        }
    }

    #[test]
    fn max_size_object_boundaries() {
        let c = TagConfig::new(8).unwrap(); // max object = 256
        let p = c.make_tagged(0x40_0000, 256);
        assert!(!c.is_overflowed(p));
        assert_eq!(c.check_bound(c.offset(p, 255), 1), 0x40_00FF);
        assert!(c.check_bound(c.offset(p, 256), 1) & OVERFLOW_BIT != 0);
        assert_eq!(c.distance_to_bound(p), Some(256));
    }

    #[test]
    fn distance_tracks_offsets() {
        let c = TagConfig::default();
        let p = c.make_tagged(0x1000, 100);
        assert_eq!(c.distance_to_bound(p), Some(100));
        assert_eq!(c.distance_to_bound(c.offset(p, 60)), Some(40));
        assert_eq!(c.distance_to_bound(c.offset(p, 100)), None);
    }

    #[test]
    fn update_tag_leaves_address_alone() {
        let c = TagConfig::default();
        let p = c.make_tagged(0x1234, 50);
        let q = c.update_tag(p, 10);
        assert_eq!(c.va_of(q), 0x1234);
        assert_eq!(c.distance_to_bound(q), Some(40));
    }

    #[test]
    fn non_pm_bits_untouched_by_field_ops() {
        let c = TagConfig::default();
        let p = c.make_tagged(0xABCD, 1000);
        for delta in [-5i64, 0, 5, 999, 1000, -1000] {
            let q = c.offset(p, delta);
            assert!(crate::is_pm_ptr(q), "PM bit lost at delta {delta}");
        }
    }

    #[test]
    fn generation_rides_below_the_tag() {
        let c = TagConfig::default();
        let p = c.make_tagged_gen(0x1000, 100, 42);
        assert_eq!(c.gen_of(p), 42);
        assert_eq!(c.va_of(p), 0x1000);
        assert_eq!(c.distance_to_bound(p), Some(100));
        // Spatial arithmetic — forward, backward, overflowing, recovering —
        // never perturbs the key.
        let mut q = p;
        for delta in [60i64, 50, -10, -100, 31, 7] {
            q = c.offset(q, delta);
            assert_eq!(c.gen_of(q), 42, "generation drifted at delta {delta}");
        }
        assert_eq!(c.gen_of(c.update_tag(p, 1 << 20)), 42);
        // clean_tag strips the key along with the tag: the raw address
        // never leaks it.
        assert_eq!(c.clean_tag(p), 0x1000);
        // Untracked pointers carry key 0; spatial-only configs always do.
        assert_eq!(c.gen_of(c.make_tagged(0x1000, 100)), 0);
        let ph = TagConfig::phoenix();
        assert_eq!(ph.gen_of(ph.make_tagged_gen(0x1000, 100, 42)), 0);
        assert_eq!(ph.gen_mask(), 0);
    }

    #[test]
    fn generation_saturation_fits_the_field() {
        // The allocator's quarantine sentinel (127) is exactly gen_mask.
        let c = TagConfig::default();
        assert_eq!(c.gen_mask(), 127);
        let p = c.make_tagged_gen(0x2000, 8, 127);
        assert_eq!(c.gen_of(p), 127);
    }
}
