//! pmreorder-style crash-state exploration of a live tracked pool.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use spp_pm::{Boundary, CrashImage, CrashSpec, CrashStateIter, PmPool};

/// A consistency failure found during exploration.
#[derive(Debug, Clone)]
pub struct ExploreError {
    /// 1-based index of the durability boundary (flush or fence) at which
    /// the failing state was reachable; the end of the workload counts as
    /// one boundary past the last.
    pub boundary: u64,
    /// Sequence numbers of the unpersisted stores that survived.
    pub kept: Vec<u64>,
    /// The validator's message.
    pub message: String,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inconsistent crash state at boundary {} with {} surviving pending stores: {}",
            self.boundary,
            self.kept.len(),
            self.message
        )
    }
}

impl std::error::Error for ExploreError {}

/// Run `workload` on the tracked pool `pm` and validate every crash state
/// it could leave behind; returns the number of distinct states validated.
///
/// At every flush, every fence and the end of the workload, the states come
/// from [`CrashStateIter::new`]: every persisted store survives and any
/// subset of the unpersisted ones may (exhaustively up to
/// [`CrashStateIter::EXHAUSTIVE_LIMIT`] of them). Exploring at the flushes
/// as well as the fences is what tears two stores flushed under one fence,
/// as pmreorder's pre-barrier states do. Between two fences the persisted
/// set cannot change, so a state is identified by the fence count plus its
/// keep-set, and each is validated once.
///
/// States are relative to the pool's tracking baseline: call
/// [`PmPool::reset_tracking`] after setup so only `workload` is explored.
/// `validate` receives each image and returns `Err(reason)` if recovery
/// does not yield a consistent state. It runs inside the pool's boundary
/// tap, which replaces any tap installed on `pm` and is removed on return.
///
/// # Errors
///
/// [`ExploreError`] describing the first inconsistent crash state; the
/// workload still runs to completion.
pub fn explore<W, V>(pm: &PmPool, workload: W, validate: V) -> Result<u64, Box<ExploreError>>
where
    W: FnOnce(),
    V: FnMut(&CrashImage) -> Result<(), String> + Send + 'static,
{
    let walk = Arc::new(Mutex::new(Walk {
        validate,
        boundary: 0,
        fences: 0,
        seen: HashSet::new(),
        error: None,
    }));
    let tap = Arc::clone(&walk);
    pm.set_boundary_tap(Box::new(move |pool, b| {
        let mut w = tap.lock().expect("a validator panicked mid-exploration");
        w.boundary += 1;
        w.fences += u64::from(b == Boundary::Fence);
        w.visit(pool);
    }));
    workload();
    pm.clear_boundary_tap();
    let mut w = walk.lock().expect("a validator panicked mid-exploration");
    w.boundary += 1;
    w.visit(pm);
    match w.error.take() {
        Some(e) => Err(e),
        None => Ok(w.seen.len() as u64),
    }
}

struct Walk<V> {
    validate: V,
    boundary: u64,
    fences: u64,
    /// `(fences, keep-set)` of every state validated so far.
    seen: HashSet<(u64, Vec<u64>)>,
    error: Option<Box<ExploreError>>,
}

impl<V: FnMut(&CrashImage) -> Result<(), String>> Walk<V> {
    fn visit(&mut self, pool: &PmPool) {
        if self.error.is_some() {
            return;
        }
        let states = CrashStateIter::new(pool);
        for k in 0..states.state_count() {
            let kept = states.keep_for(k);
            if !self.seen.insert((self.fences, kept.clone())) {
                continue;
            }
            let img = pool.crash_image(CrashSpec::KeepSubset(kept.clone()));
            if let Err(message) = (self.validate)(&img) {
                self.error = Some(Box::new(ExploreError {
                    boundary: self.boundary,
                    kept,
                    message,
                }));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pm::{Mode, PoolConfig};

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

    #[test]
    fn durable_prefix_semantics() {
        let pm = tracked();
        let saw_pending_survivor = Arc::new(Mutex::new(false));
        let saw = Arc::clone(&saw_pending_survivor);
        let checked = explore(
            &pm,
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
        assert!(checked > 3, "{checked} states");
        assert!(
            *saw_pending_survivor.lock().unwrap(),
            "exploration never surfaced the pending store"
        );
    }

    #[test]
    fn detects_ordering_bugs() {
        // Classic bug: write data, write valid-flag, persist both with ONE
        // fence — the flag may become durable without the data. Only states
        // before the fence show it, so exploring after fences alone misses it.
        let pm = tracked();
        let err = explore(
            &pm,
            || {
                pm.write(0, &[0xDD; 8]).unwrap(); // data
                pm.write(64, &[1]).unwrap(); // valid flag (different line!)
                pm.flush(0, 8).unwrap();
                pm.flush(64, 1).unwrap();
                pm.fence();
            },
            flag_without_data,
        )
        .unwrap_err();
        assert!(err.message.contains("data missing"), "{err}");
    }

    #[test]
    fn correct_ordering_passes() {
        // The fixed version: fence between data and flag.
        let pm = tracked();
        explore(
            &pm,
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
}
