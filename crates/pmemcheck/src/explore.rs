//! pmreorder-style crash-state exploration of a live tracked pool — the
//! one driver every crash-consistency rig explores through.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

use spp_pm::{Boundary, CrashImage, CrashSpec, CrashStateIter, PmPool};

/// Cap on the validator calls one shrink may make, so a huge pending set
/// cannot stall a run (each call is typically a full recovery).
const SHRINK_CAP: usize = 128;

/// Which crash states [`explore`] validates.
///
/// Boundaries are numbered from 1 in the order the workload crosses them
/// (every flush and every fence); the end of the workload is boundary
/// `last + 1`. Reports, dumps and [`Plan::at`] all use these numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// `None`: every state ([`CrashStateIter::new`]); `Some(n)`: at most
    /// `n` seeded states ([`CrashStateIter::sampled`]).
    per_boundary: Option<u64>,
    /// Total distinct states validated before exploration stops.
    budget: u64,
    seed: u64,
    /// The one flush or fence to explore, if not all of them.
    at: Option<u64>,
}

impl Plan {
    /// Every distinct crash state at every boundary.
    pub const fn exhaustive() -> Plan {
        Plan {
            per_boundary: None,
            budget: u64::MAX,
            seed: 0,
            at: None,
        }
    }

    /// At most `per_boundary` states per boundary, `budget` distinct states
    /// in all, sampled from a per-boundary seed derived from `seed`: boundary
    /// `b` samples with `seed + b · 0x9E37_79B9_7F4A_7C15`. A boundary's first state drops every
    /// pending store and its second keeps them all, so `per_boundary = 1`
    /// is the drop-all image alone and `2` the two extremes.
    pub const fn sampled(per_boundary: u64, budget: u64, seed: u64) -> Plan {
        Plan {
            per_boundary: Some(per_boundary),
            budget,
            seed,
            at: None,
        }
    }

    /// The drop-all image — only what was fenced survives — at every
    /// boundary.
    pub const fn drop_all() -> Plan {
        Plan::sampled(1, u64::MAX, 0)
    }

    /// The same plan at flush or fence `boundary` only; the end of the
    /// workload is then not explored.
    pub const fn at(self, boundary: u64) -> Plan {
        Plan {
            at: Some(boundary),
            ..self
        }
    }

    /// The sampling seed of `boundary`: a splitmix-style multiply, so that
    /// nearby boundaries sample unrelated subsets. A reported `(seed,
    /// boundary)` pair reproduces the failing sample.
    const fn boundary_seed(&self, boundary: u64) -> u64 {
        self.seed
            .wrapping_add(boundary.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Explored {
    /// Boundaries at which states were taken (the end included).
    pub boundaries: u64,
    /// Distinct crash states validated.
    pub states: u64,
}

/// The first inconsistent crash state an exploration found, shrunk to a
/// 1-minimal set of dropped stores.
#[derive(Debug, Clone)]
pub struct ExploreError {
    /// The boundary the state was reachable at (see [`Plan`]).
    pub boundary: u64,
    /// Index of the failing state within that boundary's states.
    pub state: u64,
    /// That boundary's sampling seed (see [`Plan::sampled`]).
    pub seed: u64,
    /// Every store still pending at the boundary, by sequence number.
    pub unpersisted: Vec<u64>,
    /// The pending stores that survive in the minimal failing state.
    pub kept: Vec<u64>,
    /// `unpersisted \ kept`: restoring any one of these stores alone makes
    /// the failure disappear (unless the shrink cap was hit).
    pub dropped: Vec<u64>,
    /// The validator's message for the minimal state.
    pub message: String,
    /// The minimal failing crash image.
    pub image: CrashImage,
    /// What had been explored up to and including the failing state.
    pub explored: Explored,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inconsistent crash state at boundary {} state {} (seed {}), dropping {:?} of {} pending stores: {}",
            self.boundary,
            self.state,
            self.seed,
            self.dropped,
            self.unpersisted.len(),
            self.message
        )
    }
}

impl std::error::Error for ExploreError {}

/// Run `workload` on the tracked pool `pm` and validate the crash states
/// `plan` picks among those it could leave behind.
///
/// At every flush, every fence and the end of the workload, every persisted
/// store survives and any subset of the pending ones may. Exploring at the
/// flushes as well as the fences is what tears two stores flushed under one
/// fence, as pmreorder's pre-barrier states do. Between two fences the
/// persisted set cannot change, so a state is identified by the fence count
/// plus its keep-set; each is validated once, and only distinct states
/// count against the budget.
///
/// States are relative to the pool's tracking baseline: call
/// [`PmPool::reset_tracking`] after setup so only `workload` is explored.
/// `validate` receives each image and returns `Err(reason)` if recovery
/// does not yield a consistent state. It runs inside the pool's boundary
/// tap, which replaces any tap installed on `pm` and is removed on return,
/// also when `workload` unwinds.
///
/// # Errors
///
/// [`ExploreError`] for the first inconsistent state, shrunk. Exploration
/// stops there; the workload still runs to completion.
pub fn explore<W, V>(
    pm: &PmPool,
    plan: Plan,
    workload: W,
    validate: V,
) -> Result<Explored, Box<ExploreError>>
where
    W: FnOnce(),
    V: FnMut(&CrashImage) -> Result<(), String> + Send + 'static,
{
    let walk = Arc::new(Mutex::new(Walk {
        plan,
        validate,
        boundary: 0,
        fences: 0,
        seen: HashSet::new(),
        explored: Explored::default(),
        error: None,
    }));
    let tap = Arc::clone(&walk);
    pm.set_boundary_tap(Box::new(move |pool, b| {
        let mut w = tap.lock().expect("a validator panicked mid-exploration");
        w.boundary += 1;
        w.fences += u64::from(b == Boundary::Fence);
        w.visit(pool);
    }));
    {
        let _untap = Untap(pm);
        workload();
    }
    let mut w = walk.lock().expect("a validator panicked mid-exploration");
    w.boundary += 1;
    if plan.at.is_none() {
        w.visit(pm);
    }
    match w.error.take() {
        Some(e) => Err(e),
        None => Ok(w.explored),
    }
}

/// Removes the boundary tap when dropped, so an unwinding workload cannot
/// leave the validator running on later flushes.
struct Untap<'p>(&'p PmPool);

impl Drop for Untap<'_> {
    fn drop(&mut self) {
        self.0.clear_boundary_tap();
    }
}

struct Walk<V> {
    plan: Plan,
    validate: V,
    boundary: u64,
    fences: u64,
    /// `(fences, keep-set)` of every state validated so far.
    seen: HashSet<(u64, Vec<u64>)>,
    explored: Explored,
    error: Option<Box<ExploreError>>,
}

fn image(pool: &PmPool, kept: &[u64]) -> CrashImage {
    pool.crash_image(CrashSpec::KeepSubset(kept.to_vec()))
}

impl<V: FnMut(&CrashImage) -> Result<(), String>> Walk<V> {
    fn visit(&mut self, pool: &PmPool) {
        if self.error.is_some()
            || self.explored.states >= self.plan.budget
            || self.plan.at.is_some_and(|b| b != self.boundary)
        {
            return;
        }
        self.explored.boundaries += 1;
        let seed = self.plan.boundary_seed(self.boundary);
        let states = match self.plan.per_boundary {
            None => CrashStateIter::new(pool),
            Some(n) => CrashStateIter::sampled(pool, n, seed),
        };
        for k in 0..states.state_count() {
            if self.explored.states >= self.plan.budget {
                return;
            }
            let kept = states.keep_for(k);
            if !self.seen.insert((self.fences, kept.clone())) {
                continue;
            }
            self.explored.states += 1;
            if let Err(message) = (self.validate)(&image(pool, &kept)) {
                let unpersisted = states.unpersisted().to_vec();
                let (kept, message) = self.shrink(pool, &unpersisted, kept, message);
                let dropped = unpersisted
                    .iter()
                    .copied()
                    .filter(|s| !kept.contains(s))
                    .collect();
                self.error = Some(Box::new(ExploreError {
                    boundary: self.boundary,
                    state: k,
                    seed,
                    image: image(pool, &kept),
                    unpersisted,
                    kept,
                    dropped,
                    message,
                    explored: self.explored,
                }));
                return;
            }
        }
    }

    /// Greedy 1-minimal shrink: try to *restore* each dropped store, and
    /// keep the restoration whenever the state still fails. Every store
    /// left in the drop-set is then necessary: restoring it alone makes the
    /// violation disappear.
    fn shrink(
        &mut self,
        pool: &PmPool,
        unpersisted: &[u64],
        kept: Vec<u64>,
        mut message: String,
    ) -> (Vec<u64>, String) {
        let mut kept: BTreeSet<u64> = kept.into_iter().collect();
        let dropped: Vec<u64> = unpersisted
            .iter()
            .copied()
            .filter(|s| !kept.contains(s))
            .collect();
        for d in dropped.into_iter().take(SHRINK_CAP) {
            kept.insert(d);
            let candidate: Vec<u64> = kept.iter().copied().collect();
            match (self.validate)(&image(pool, &candidate)) {
                Err(m) => message = m,
                Ok(()) => {
                    kept.remove(&d);
                }
            }
        }
        (kept.into_iter().collect(), message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{Mode, PmEvent, PoolConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tracked() -> PmPool {
        PmPool::new(PoolConfig::new(4096).mode(Mode::Tracked))
    }

    /// Flag at byte 64 set without its data at bytes 0..8.
    fn flag_without_data(img: &CrashImage) -> Result<(), String> {
        let valid = img.bytes()[64] == 1;
        let data_ok = img.bytes()[0] == 0xDD;
        if valid && !data_ok {
            Err("valid flag set but data missing".into())
        } else {
            Ok(())
        }
    }

    /// Data and its valid flag persisted under ONE fence: the flag may
    /// become durable without the data.
    fn planted_ordering_bug(pm: &PmPool) {
        pm.write(0, &[0xDD; 8]).unwrap(); // data
        pm.write(64, &[1]).unwrap(); // valid flag (different line!)
        pm.flush(0, 8).unwrap();
        pm.flush(64, 1).unwrap();
        pm.fence();
    }

    /// Twenty pending stores on distinct lines, so a boundary has far more
    /// states than a small sample.
    fn many_pending(pm: &PmPool) {
        for i in 0..20u64 {
            pm.write(i * 64, &[i as u8 + 1]).unwrap();
        }
        pm.flush(0, 64).unwrap();
        pm.fence();
    }

    /// The first byte of each of [`many_pending`]'s lines.
    fn survivors(img: &CrashImage) -> Vec<u8> {
        (0..20).map(|i| img.bytes()[i * 64]).collect()
    }

    #[test]
    fn durable_prefix_semantics() {
        let pm = tracked();
        let saw_pending_survivor = Arc::new(Mutex::new(false));
        let saw = Arc::clone(&saw_pending_survivor);
        let explored = explore(
            &pm,
            Plan::exhaustive(),
            || {
                pm.write(0, &[1]).unwrap();
                pm.persist(0, 1).unwrap();
                pm.write(8, &[2]).unwrap(); // never persisted
            },
            move |img| {
                // Byte 8 may be 0 or 2; byte 0 is 1 only after its fence;
                // never anything else.
                let (b0, b8) = (img.bytes()[0], img.bytes()[8]);
                if b8 == 2 {
                    *saw.lock().unwrap() = true;
                }
                if (b0 == 0 || b0 == 1) && (b8 == 0 || b8 == 2) {
                    Ok(())
                } else {
                    Err(format!("unexpected bytes {b0} {b8}"))
                }
            },
        )
        .unwrap();
        assert!(explored.states > 3, "{explored:?}");
        assert_eq!(explored.boundaries, 3, "flush, fence and the end");
        assert!(
            *saw_pending_survivor.lock().unwrap(),
            "exploration never surfaced the pending store"
        );
    }

    #[test]
    fn detects_ordering_bugs() {
        // Only states before the fence show the bug, so exploring after
        // fences alone misses it.
        let pm = tracked();
        let err = explore(
            &pm,
            Plan::exhaustive(),
            || planted_ordering_bug(&pm),
            flag_without_data,
        )
        .unwrap_err();
        assert!(err.message.contains("data missing"), "{err}");
    }

    #[test]
    fn ordering_bug_shrinks_to_the_lost_data_store() {
        let pm = tracked();
        let err = explore(
            &pm,
            Plan::exhaustive(),
            || planted_ordering_bug(&pm),
            flag_without_data,
        )
        .unwrap_err();
        let log = pm.event_log().unwrap();
        let data_seq = log
            .events()
            .iter()
            .find_map(|e| match e {
                PmEvent::Store { seq, off: 0, .. } => Some(*seq),
                _ => None,
            })
            .unwrap();
        assert_eq!(err.dropped, vec![data_seq], "{err}");
        assert_eq!(err.kept.len() + 1, err.unpersisted.len());
        assert!(
            flag_without_data(&err.image).is_err(),
            "image is not the failing state"
        );
    }

    #[test]
    fn correct_ordering_passes() {
        // The fixed version: fence between data and flag.
        let pm = tracked();
        explore(
            &pm,
            Plan::exhaustive(),
            || {
                pm.write(0, &[0xDD; 8]).unwrap();
                pm.persist(0, 8).unwrap();
                pm.write(64, &[1]).unwrap();
                pm.persist(64, 1).unwrap();
            },
            flag_without_data,
        )
        .unwrap();
    }

    /// Run [`many_pending`] under `plan`, recording every validated image
    /// and failing on any state that lost line 3 but kept line 7.
    fn sampled_run(plan: Plan) -> (Vec<Vec<u8>>, Box<ExploreError>) {
        let pm = tracked();
        let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let err = explore(
            &pm,
            plan,
            || many_pending(&pm),
            move |img| {
                let s = survivors(img);
                sink.lock().unwrap().push(s.clone());
                if s[3] == 0 && s[7] != 0 {
                    Err("line 7 without line 3".into())
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        (seen, err)
    }

    #[test]
    fn sampled_plans_reproduce_from_their_seed() {
        let plan = Plan::sampled(8, 64, 11);
        let (a, ea) = sampled_run(plan);
        let (b, eb) = sampled_run(plan);
        assert_eq!(a, b, "same seed, different states");
        assert_eq!(
            (
                ea.boundary,
                ea.state,
                ea.seed,
                &ea.kept,
                &ea.dropped,
                &ea.message
            ),
            (
                eb.boundary,
                eb.state,
                eb.seed,
                &eb.kept,
                &eb.dropped,
                &eb.message
            ),
        );
        assert_eq!(ea.image, eb.image);
        assert_eq!(ea.seed, plan.boundary_seed(ea.boundary));
        let (c, _) = sampled_run(Plan::sampled(8, 64, 12));
        assert_ne!(a, c, "a different seed sampled the same states");
    }

    #[test]
    fn sampled_plans_respect_the_caps() {
        let pm = tracked();
        let explored = explore(
            &pm,
            Plan::sampled(5, 7, 3),
            || many_pending(&pm),
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(explored.states, 7, "{explored:?}");
        assert_eq!(
            explored.boundaries, 2,
            "5 states at the first flush, 2 at the second"
        );
    }

    #[test]
    fn a_named_boundary_is_the_only_one_explored() {
        let pm = tracked();
        let seen: Arc<Mutex<Vec<(u8, u8)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let explored = explore(
            &pm,
            Plan::exhaustive().at(2),
            || {
                pm.write(0, &[0xDD]).unwrap();
                pm.write(64, &[1]).unwrap();
                pm.flush(0, 1).unwrap(); // boundary 1
                pm.flush(64, 1).unwrap(); // boundary 2
                pm.fence(); // boundary 3
                pm.write(128, &[2]).unwrap(); // pending at the end
            },
            move |img| {
                assert_eq!(img.bytes()[128], 0, "the end was explored");
                sink.lock().unwrap().push((img.bytes()[0], img.bytes()[64]));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            explored,
            Explored {
                boundaries: 1,
                states: 4
            }
        );
        let mut seen = std::mem::take(&mut *seen.lock().unwrap());
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (0, 1), (0xDD, 0), (0xDD, 1)]);

        let pm = tracked();
        let explored = explore(
            &pm,
            Plan::drop_all().at(2),
            || {
                pm.write(0, &[0xDD]).unwrap();
                pm.persist(0, 1).unwrap();
                pm.write(8, &[1]).unwrap();
            },
            |img| {
                if img.bytes()[0] == 0xDD && img.bytes()[8] == 0 {
                    Ok(())
                } else {
                    Err("not the drop-all image after the fence".into())
                }
            },
        )
        .unwrap();
        assert_eq!(
            explored,
            Explored {
                boundaries: 1,
                states: 1
            }
        );
    }

    #[test]
    fn a_panicking_workload_leaves_no_tap() {
        let pm = tracked();
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explore(
                &pm,
                Plan::exhaustive(),
                || {
                    pm.write(0, &[1]).unwrap();
                    pm.persist(0, 1).unwrap();
                    panic!("workload died");
                },
                move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
        }));
        assert!(unwound.is_err());
        let before = calls.load(Ordering::Relaxed);
        assert!(before > 0, "the workload crossed no boundary");
        pm.write(8, &[2]).unwrap();
        pm.persist(8, 1).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            before,
            "a stale validator ran"
        );
        assert!(
            pm.clear_boundary_tap().is_none(),
            "the tap outlived explore"
        );
    }
}
