//! Property-based tests for the SPP tag encoding (§IV-A invariants).

use proptest::prelude::*;

use spp_core::{is_pm_ptr, TagConfig, OVERFLOW_BIT};

fn arb_cfg() -> impl Strategy<Value = TagConfig> {
    (8u32..=40).prop_map(|b| TagConfig::new(b).unwrap())
}

proptest! {
    /// The overflow bit is set exactly when the cumulative offset leaves
    /// `[0, size)` on the high side.
    #[test]
    fn overflow_bit_tracks_upper_bound(
        cfg in arb_cfg(),
        size_frac in 1u64..=1000,
        off_frac in 0u64..=2000,
    ) {
        let max = cfg.max_object_size();
        let size = (max * size_frac / 1000).max(1);
        let off = max * off_frac / 1000;
        // Keep the walk within the field's wrap-around range.
        prop_assume!(off < max + size);
        let va = 0x1000u64.min(cfg.max_va() - 1);
        let p = cfg.make_tagged(va, size);
        let q = cfg.offset(p, off as i64);
        prop_assert_eq!(
            cfg.is_overflowed(q),
            off >= size,
            "size={} off={} tag_bits={}", size, off, cfg.tag_bits()
        );
    }

    /// Arithmetic round-trips: +d then -d restores the exact pointer.
    #[test]
    fn offset_roundtrip(cfg in arb_cfg(), size in 1u64..4096, d in -100_000i64..100_000) {
        let p = cfg.make_tagged(0x10_000, size.min(cfg.max_object_size()));
        let q = cfg.offset(cfg.offset(p, d), -d);
        prop_assert_eq!(p, q);
    }

    /// Many small steps equal one big step.
    #[test]
    fn offset_is_additive(cfg in arb_cfg(), size in 1u64..4096, steps in prop::collection::vec(-300i64..300, 1..20)) {
        let p = cfg.make_tagged(0x10_000, size.min(cfg.max_object_size()));
        let total: i64 = steps.iter().sum();
        let mut walked = p;
        for s in &steps {
            walked = cfg.offset(walked, *s);
        }
        prop_assert_eq!(walked, cfg.offset(p, total));
    }

    /// `clean_tag` preserves exactly the address (and the overflow bit when
    /// set), and never leaves the PM bit.
    #[test]
    fn clean_tag_shape(cfg in arb_cfg(), size in 1u64..4096, off in 0u64..8192) {
        let va = 0x40_000u64;
        let p = cfg.offset(cfg.make_tagged(va, size.min(cfg.max_object_size())), off as i64);
        let cleaned = cfg.clean_tag(p);
        prop_assert!(!is_pm_ptr(cleaned));
        prop_assert_eq!(cleaned & cfg.va_mask(), va.wrapping_add(off) & cfg.va_mask());
        prop_assert_eq!(cleaned & OVERFLOW_BIT != 0, cfg.is_overflowed(p));
        // Everything outside (overflow | va) is zero.
        prop_assert_eq!(cleaned & !(OVERFLOW_BIT | cfg.va_mask()), 0);
    }

    /// `check_bound` flags an access iff its last byte is out of bounds.
    #[test]
    fn check_bound_exactness(
        cfg in arb_cfg(),
        size in 1u64..4096,
        start in 0u64..4200,
        len in 1u64..64,
    ) {
        let size = size.min(cfg.max_object_size());
        // Stay within the field's representation range: beyond it the
        // overflow bit wraps — a documented limitation (§IV-G), tested
        // separately in `wraparound_limitation_documented`.
        prop_assume!(start + len <= cfg.max_object_size() + size);
        let p = cfg.offset(cfg.make_tagged(0x10_000, size), start as i64);
        let masked = cfg.check_bound(p, len);
        let oob = start + len > size;
        prop_assert_eq!(masked & OVERFLOW_BIT != 0, oob,
            "size={} start={} len={}", size, start, len);
        if !oob {
            prop_assert_eq!(masked, 0x10_000 + start);
        }
    }

    /// The tag never leaks into the virtual-address bits.
    #[test]
    fn va_isolation(cfg in arb_cfg(), size in 1u64..4096, d in -4096i64..4096) {
        let size = size.min(cfg.max_object_size());
        let p = cfg.make_tagged(0x20_000, size);
        let q = cfg.offset(p, d);
        prop_assert_eq!(cfg.va_of(q), 0x20_000u64.wrapping_add(d as u64) & cfg.va_mask());
    }

    /// `distance_to_bound` is consistent with overflow detection.
    #[test]
    fn distance_consistency(cfg in arb_cfg(), size in 1u64..4096, off in 0u64..4096) {
        let size = size.min(cfg.max_object_size());
        prop_assume!(off < cfg.max_object_size() + size);
        let p = cfg.offset(cfg.make_tagged(0x10_000, size), off as i64);
        match cfg.distance_to_bound(p) {
            Some(d) => {
                prop_assert!(off < size);
                prop_assert_eq!(d, size - off);
            }
            None => prop_assert!(off >= size),
        }
    }
}

/// §IV-G: the tag is a (tag_bits + 1)-bit field, so a distant enough
/// access wraps the overflow bit back to zero. Measure an access by its
/// *reach*, `delta + len - size`: how far it goes past the object's end.
/// An upper overflow is always caught up to a reach of 2^tag_bits bytes
/// (64 MiB at the default 26 bits); the first miss is at 2^tag_bits + 1,
/// where an already-overflowed pointer plus a long access wraps the tag
/// back. This test pins both edges at width 8, so a future fix (saturating
/// tags) would be noticed.
#[test]
fn wraparound_limitation_documented() {
    let cfg = TagConfig::new(8).unwrap(); // field width 9 -> wraps at 512
    let p = cfg.make_tagged(0x10_000, 16);
    // 16..512-16 past the start: detected.
    assert!(cfg.is_overflowed(cfg.offset(p, 100)));
    // A walk of exactly 512 + k (k < 16) lands back in the "valid" window.
    assert!(!cfg.is_overflowed(cfg.offset(p, 512 + 4)));
    // A 1-byte object: reach 256 = 2^tag_bits is caught however it splits
    // into offset and length...
    let one = cfg.make_tagged(0x10_000, 1);
    let caught = |delta: u64, len: u64| {
        cfg.check_bound(cfg.offset(one, delta as i64), len) & OVERFLOW_BIT != 0
    };
    for delta in 0..=256 {
        assert!(caught(delta, 257 - delta), "offset {delta}, reach 256");
    }
    // ...and reach 257 is missed: offset 2, length 256.
    assert!(!caught(2, 256));
}
