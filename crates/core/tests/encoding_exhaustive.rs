//! The pointer encoding at tag width 8, by exhaustion: every object size,
//! every offset in [-512, 512] and every access length through
//! `check_bound`. The arithmetic is width-generic, so this is the code
//! every width runs, checked case by case rather than sampled.
//!
//! Measure an access by its *reach*, `delta + len - size`: how far it goes
//! past the object's end. The overflow+tag field is 9 bits wide, so the
//! check flags exactly the accesses whose reach, modulo 2^9, lies in
//! [1, 2^8]. That one rule is asserted for every case, and with it its
//! consequences: no in-bounds access is flagged, every upper overflow
//! with reach <= 2^8 is caught, and the only misses are underflows and
//! upper reaches from 2^8 + 1 to 2^9.

use spp_core::{TagConfig, OVERFLOW_BIT};

const VA: u64 = 0x10_000;

#[test]
fn width_8_check_bound_is_exact() {
    let cfg = TagConfig::new(8).unwrap();
    let max = cfg.max_object_size() as i64; // 256
    let wrap = 2 * max; // the 9-bit field wraps at 512
    let gens = [0u8, 1, cfg.gen_mask() as u8];
    let (mut cases, mut upper_missed, mut underflow_missed) = (0u64, 0u64, 0u64);
    for size in 1..=max {
        for delta in -wrap..=wrap {
            let va = VA.wrapping_add(delta as u64) & cfg.va_mask();
            // Every generation moves under `offset` the same way; the
            // access loop runs at one of them, in turn.
            let mut q = 0;
            for &gen in &gens {
                let p = cfg.make_tagged_gen(VA, size as u64, gen);
                let moved = cfg.offset(p, delta);
                assert_eq!(cfg.gen_of(moved), gen, "size {size} delta {delta}");
                assert_eq!(cfg.va_of(moved), va, "size {size} delta {delta}");
                // `clean_tag` keeps the address and the overflow bit only.
                assert_eq!(
                    cfg.clean_tag(moved),
                    (moved & OVERFLOW_BIT) | va,
                    "size {size} delta {delta} gen {gen}"
                );
                if gen == gens[(size + delta).rem_euclid(3) as usize] {
                    q = moved;
                }
            }
            // The reach modulo the field's wrap, stepped with the length.
            let mut r = (delta - size).rem_euclid(wrap);
            for len in 1..=max {
                r = if r + 1 == wrap { 0 } else { r + 1 };
                let masked = cfg.check_bound(q, len as u64);
                let flagged = masked & OVERFLOW_BIT != 0;
                if flagged != (r >= 1 && r <= max) {
                    panic!("size {size} delta {delta} len {len}: flagged {flagged}");
                }
                let reach = delta + len - size;
                if delta >= 0 && reach <= 0 {
                    // In bounds: no false positive, and the object's address.
                    assert_eq!(masked, va, "size {size} delta {delta} len {len}");
                } else if !flagged {
                    if delta < 0 {
                        underflow_missed += 1;
                    } else {
                        assert!(
                            reach > max && reach <= wrap,
                            "size {size} delta {delta} len {len}"
                        );
                        upper_missed += 1;
                    }
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 256 * 1025 * 256);
    // The residual is not empty on either side: the first upper miss is a
    // 1-byte object at offset 2 with a 256-byte access (reach 257).
    assert!(cfg.check_bound(cfg.offset(cfg.make_tagged(VA, 1), 2), 256) & OVERFLOW_BIT == 0);
    assert!(upper_missed > 0 && underflow_missed > 0);
}
