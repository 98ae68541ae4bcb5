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
//!
//! The adapted `pmemobj_direct` is exhausted the same way: every oid size
//! up to twice the largest object against every offset of a small pool
//! and one cache line past it, where a forged oid must become a pointer
//! that never resolves.

use std::sync::Arc;

use spp_core::{MemoryPolicy, SppError, SppPolicy, TagConfig, OVERFLOW_BIT, PM_BIT};
use spp_pm::{PmPool, PoolConfig, CACHE_LINE};
use spp_pmdk::{ObjPool, PmemOid, PoolOpts};

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

#[test]
fn width_8_direct_refuses_exactly_the_forged_oids() {
    let cfg = TagConfig::new(8).unwrap();
    let pm = Arc::new(PmPool::new(PoolConfig::new(32 << 10)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).unwrap());
    let spp = SppPolicy::new(Arc::clone(&pool), cfg).unwrap();
    let (base, pool_size, uuid) = (pool.pm().base(), pool.pm().size(), pool.uuid());
    let max = cfg.max_object_size(); // 256
                                     // Keys the 7-bit field carries, and two it truncates to untracked.
    let gens = [0u8, 1, 63, cfg.gen_mask() as u8, 128, 255];
    let mut forged = 0u64;
    for off in 0..pool_size + CACHE_LINE {
        let va = base + off;
        // Only the PM and overflow bits and the address: the tag and the
        // generation field are empty, so no oid field spills into them.
        let refused = PM_BIT | OVERFLOW_BIT | (va & cfg.va_mask());
        for size in 0..=2 * max {
            let gen = gens[((off + size) % gens.len() as u64) as usize];
            let p = spp.direct(PmemOid::new(uuid, off, size).with_gen(gen));
            let expect = if off == 0 {
                0 // the null oid
            } else if off >= pool_size || size > max {
                forged += 1;
                refused
            } else {
                // Size 0 is a stock oid's: untracked, the full-range tag.
                cfg.make_tagged_gen(va, if size == 0 { max } else { size }, gen)
            };
            assert_eq!(p, expect, "off {off} size {size} gen {gen}");
        }
        // Every length fails; past `max` all lengths take one branch.
        if off != 0 {
            for len in (1..=max + 1).chain([u64::MAX]) {
                assert!(
                    matches!(
                        spp.resolve(refused, len),
                        Err(SppError::OverflowDetected { .. })
                    ),
                    "off {off} len {len}"
                );
            }
        }
    }
    assert_eq!(forged, (pool_size - 1) * max + CACHE_LINE * (2 * max + 1));
}
