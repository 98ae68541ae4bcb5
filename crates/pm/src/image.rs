//! Crash images and crash-state enumeration.

use crate::pool::{CrashSpec, PmPool};

/// The durable bytes of a pool at a simulated power failure.
///
/// Produced by [`PmPool::crash_image`]; re-opened with
/// [`PmPool::from_image`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImage {
    bytes: Vec<u8>,
}

impl CrashImage {
    pub(crate) fn new(bytes: Vec<u8>) -> Self {
        CrashImage { bytes }
    }

    /// Construct an image from raw durable bytes, e.g. a pool file read
    /// back from disk or the contents of a recovered pool.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        CrashImage { bytes }
    }

    /// The surviving pool contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the image, returning the surviving pool contents.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Enumerates the crash states reachable from a pool's current point of
/// execution — the `pmreorder` state space.
///
/// Every persisted store survives in every state; each unpersisted store
/// independently may or may not survive. With `n` unpersisted stores there
/// are `2^n` states; [`CrashStateIter::new`] enumerates them exhaustively
/// when `n <= EXHAUSTIVE_LIMIT` and otherwise falls back to the seeded
/// sampler, [`CrashStateIter::sampled`].
#[derive(Debug)]
pub struct CrashStateIter<'p> {
    pool: &'p PmPool,
    seqs: Vec<u64>,
    next: u64,
    total: u64,
    /// Pre-planned keep-lists (seeded sampling); `None` when state `k` is
    /// simply the bitmask `k` over `seqs`.
    planned: Option<Vec<Vec<u64>>>,
}

impl<'p> CrashStateIter<'p> {
    /// Default cap on the number of unpersisted stores enumerated
    /// exhaustively (`2^12 = 4096` states).
    pub const EXHAUSTIVE_LIMIT: usize = 12;

    /// Number of sampled states when beyond the exhaustive limit.
    pub const SAMPLE_BUDGET: u64 = 4096;

    /// The sampling seed [`CrashStateIter::new`] uses beyond the limit.
    const FALLBACK_SEED: u64 = 0;

    /// Create an iterator over crash states of `pool` at this moment.
    pub fn new(pool: &'p PmPool) -> Self {
        let seqs = pool.unpersisted_seqs();
        if seqs.len() <= Self::EXHAUSTIVE_LIMIT {
            Self::exhaustive(pool, seqs)
        } else {
            Self::planned(pool, seqs, Self::SAMPLE_BUDGET, Self::FALLBACK_SEED)
        }
    }

    /// Create a seeded, budgeted iterator over crash states of `pool`.
    ///
    /// When the full `2^n` space fits within `max_states` the enumeration
    /// is exhaustive (and `seed` is irrelevant). Otherwise the iterator
    /// yields the two extremes — drop-everything and keep-everything —
    /// plus distinct pseudo-random keep-subsets derived from `seed`, up to
    /// `max_states` states in total. The same `(pool state, max_states,
    /// seed)` always produces the same sequence of images, which is what
    /// makes a reported seed reproduce a failure.
    pub fn sampled(pool: &'p PmPool, max_states: u64, seed: u64) -> Self {
        let seqs = pool.unpersisted_seqs();
        let max_states = max_states.max(1);
        if seqs.len() < 63 && (1u64 << seqs.len()) <= max_states {
            Self::exhaustive(pool, seqs)
        } else {
            Self::planned(pool, seqs, max_states, seed)
        }
    }

    fn exhaustive(pool: &'p PmPool, seqs: Vec<u64>) -> Self {
        CrashStateIter {
            pool,
            total: 1u64 << seqs.len(),
            seqs,
            next: 0,
            planned: None,
        }
    }

    /// Plan keep-lists eagerly: extremes first, then seeded subsets.
    fn planned(pool: &'p PmPool, seqs: Vec<u64>, max_states: u64, seed: u64) -> Self {
        let n = seqs.len();
        // Masks are dedup'd so the budget buys distinct states; the word-
        // vector key also covers n >= 64 (multi-word masks).
        let words = n.div_ceil(64).max(1);
        let mut seen: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
        let mut planned: Vec<Vec<u64>> = Vec::new();
        let mut push = |mask: Vec<u64>, planned: &mut Vec<Vec<u64>>| {
            if seen.insert(mask.clone()) {
                planned.push(
                    seqs.iter()
                        .enumerate()
                        .filter(|(i, _)| mask[i / 64] & (1u64 << (i % 64)) != 0)
                        .map(|(_, &s)| s)
                        .collect(),
                );
            }
        };
        let mut full = vec![u64::MAX; words];
        if !n.is_multiple_of(64) {
            full[words - 1] = (1u64 << (n % 64)) - 1;
        }
        push(vec![0; words], &mut planned);
        push(full.clone(), &mut planned);
        let mut state = seed;
        // 4x oversampling bounds the loop when the space is nearly
        // exhausted by duplicates.
        let mut attempts = 4 * max_states.max(16);
        while (planned.len() as u64) < max_states && attempts > 0 {
            attempts -= 1;
            let mut mask: Vec<u64> = (0..words).map(|_| splitmix64(&mut state)).collect();
            for (w, f) in mask.iter_mut().zip(full.iter()) {
                *w &= f;
            }
            push(mask, &mut planned);
        }
        // A budget of one is the drop-everything extreme alone.
        planned.truncate(max_states as usize);
        CrashStateIter {
            pool,
            seqs,
            next: 0,
            total: planned.len() as u64,
            planned: Some(planned),
        }
    }

    /// Number of crash states this iterator will yield.
    pub fn state_count(&self) -> u64 {
        self.total
    }

    /// The sequence numbers of the unpersisted stores this iterator ranges
    /// over. Dropping a subset of these is what distinguishes the states.
    pub fn unpersisted(&self) -> &[u64] {
        &self.seqs
    }

    /// The keep-set (surviving unpersisted store sequence numbers) of the
    /// `k`-th crash state. Lets an explorer that found a failing state
    /// reconstruct and then *shrink* the exact store-drop set behind it.
    ///
    /// # Panics
    ///
    /// If `k >= state_count()`.
    pub fn keep_for(&self, k: u64) -> Vec<u64> {
        assert!(k < self.total, "crash state index out of range");
        if let Some(planned) = &self.planned {
            planned[k as usize].clone()
        } else {
            self.seqs
                .iter()
                .enumerate()
                .filter(|(i, _)| k & (1u64 << i) != 0)
                .map(|(_, &s)| s)
                .collect()
        }
    }
}

/// SplitMix64 step — the deterministic generator behind
/// [`CrashStateIter::sampled`]. Kept local so `spp-pm` stays free of a
/// rand dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Iterator for CrashStateIter<'_> {
    type Item = CrashImage;

    fn next(&mut self) -> Option<CrashImage> {
        if self.next >= self.total {
            return None;
        }
        let keep = self.keep_for(self.next);
        self.next += 1;
        Some(self.pool.crash_image(CrashSpec::KeepSubset(keep)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Mode, PoolConfig};

    #[test]
    fn exhaustive_enumeration_small() {
        let pool = PmPool::new(PoolConfig::new(1024).mode(Mode::Tracked));
        pool.write(0, &[1]).unwrap();
        pool.write(8, &[2]).unwrap();
        let it = CrashStateIter::new(&pool);
        assert_eq!(it.state_count(), 4);
        let images: Vec<_> = it.collect();
        assert_eq!(images.len(), 4);
        // All four combinations of the two stores must appear.
        let mut combos: Vec<(u8, u8)> = images
            .iter()
            .map(|im| (im.bytes()[0], im.bytes()[8]))
            .collect();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos, vec![(0, 0), (0, 2), (1, 0), (1, 2)]);
    }

    #[test]
    fn persisted_survive_in_every_state() {
        let pool = PmPool::new(PoolConfig::new(1024).mode(Mode::Tracked));
        pool.write(0, &[9]).unwrap();
        pool.persist(0, 1).unwrap();
        pool.write(8, &[1]).unwrap();
        for img in CrashStateIter::new(&pool) {
            assert_eq!(img.bytes()[0], 9);
        }
    }

    #[test]
    fn fenced_store_never_undone_by_older_pending_overlap() {
        // An older store spans lines 0–1; a newer one overwrites bytes 0..8
        // and is flushed and fenced. The older store's line 1 is still
        // unflushed, so it stays pending — but no crash may put its bytes
        // back over the fenced newer ones.
        let pool = PmPool::new(PoolConfig::new(1024).mode(Mode::Tracked));
        pool.write(0, &[1; 128]).unwrap();
        pool.write(0, &[2; 8]).unwrap();
        pool.persist(0, 8).unwrap();
        let it = CrashStateIter::new(&pool);
        assert_eq!(it.state_count(), 2, "only the older store is pending");
        for img in it {
            assert_eq!(&img.bytes()[..8], &[2; 8]);
            let tail = &img.bytes()[8..128];
            assert!(tail == [0; 120] || tail == [1; 120], "torn pending store");
        }
    }

    #[test]
    fn sampled_enumeration_large() {
        let pool = PmPool::new(PoolConfig::new(1 << 16).mode(Mode::Tracked));
        for i in 0..20u64 {
            pool.write(i * 8, &[i as u8 + 1]).unwrap();
        }
        let it = CrashStateIter::new(&pool);
        let n = it.state_count();
        assert!(n <= CrashStateIter::SAMPLE_BUDGET);
        assert_eq!(it.count() as u64, n);
    }

    #[test]
    fn sampled_small_space_is_exhaustive() {
        let pool = PmPool::new(PoolConfig::new(1024).mode(Mode::Tracked));
        pool.write(0, &[1]).unwrap();
        pool.write(8, &[2]).unwrap();
        let it = CrashStateIter::sampled(&pool, 100, 42);
        assert_eq!(it.state_count(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn sampled_respects_budget_and_includes_extremes() {
        let pool = PmPool::new(PoolConfig::new(1 << 16).mode(Mode::Tracked));
        for i in 0..20u64 {
            pool.write(i * 8, &[i as u8 + 1]).unwrap();
        }
        let it = CrashStateIter::sampled(&pool, 64, 7);
        assert_eq!(it.state_count(), 64);
        let images: Vec<_> = it.collect();
        // First two images are the extremes.
        assert!((0..20).all(|i| images[0].bytes()[i * 8] == 0));
        assert!((0..20usize).all(|i| images[1].bytes()[i * 8] == i as u8 + 1));
        // All sampled states are distinct.
        let mut keys: Vec<Vec<u8>> = images
            .iter()
            .map(|im| (0..20).map(|i| im.bytes()[i * 8]).collect())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let pool = PmPool::new(PoolConfig::new(1 << 16).mode(Mode::Tracked));
        for i in 0..30u64 {
            pool.write(i * 8, &[1]).unwrap();
        }
        let a: Vec<_> = CrashStateIter::sampled(&pool, 32, 99).collect();
        let b: Vec<_> = CrashStateIter::sampled(&pool, 32, 99).collect();
        assert_eq!(a, b);
        let c: Vec<_> = CrashStateIter::sampled(&pool, 32, 100).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_handles_more_than_64_stores() {
        let pool = PmPool::new(PoolConfig::new(1 << 16).mode(Mode::Tracked));
        for i in 0..70u64 {
            pool.write(i * 8, &[1]).unwrap();
        }
        let images: Vec<_> = CrashStateIter::sampled(&pool, 16, 5).collect();
        assert_eq!(images.len(), 16);
        // Keep-all extreme must cover every one of the 70 stores.
        assert!((0..70).all(|i| images[1].bytes()[i * 8] == 1));
    }
}
