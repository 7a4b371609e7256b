//! A small fixed-size worker pool over crossbeam scoped threads.
//!
//! Every parallel loop in the workspace has the same shape: a read-only
//! slice of work items, a per-item function, and a need for the combined
//! result to be **independent of scheduling** — the pipeline promises
//! bit-identical output for a given seed no matter how many workers run.
//! This helper centralises that shape:
//!
//! * workers pull item *indexes* off a shared atomic counter (dynamic load
//!   balancing, no per-item channel traffic);
//! * results carry their input index and are merged back **in input
//!   order**, so downstream code never observes completion order;
//! * the calling thread is worker 0 and only `workers − 1` threads spawn,
//!   so one loop serves every worker count and a one-worker run spawns
//!   nothing;
//! * a panic in any worker propagates to the caller (no half-merged data).
//!
//! This is the workspace's one execution model. The crawl's Twitter
//! timeline, Mastodon timeline and followee phases run their per-user body
//! here; each round of the continuous monitor runs its due checks here,
//! asking for one worker per 64 checks, so its many narrow rounds run on
//! the calling thread and never pay a spawn; the per-user loops of
//! Figs. 14–16 reuse it for plain CPU fan-out. A spawn and join costs tens
//! of microseconds, so a caller whose items cost a few microseconds each
//! should size `workers` by the work, not by the cores.
//! Requests block in the crawler's and the monitor's retry loops, and
//! rate-limit waits move the shared virtual clock instead of sleeping;
//! only a chaos plan's `Fault::LatencyBurst` (none by default, 500 µs on
//! every family in the throughput bench) really sleeps, and that sleep is
//! what more workers overlap.

use crate::{FlockError, Result};
use flock_obs::Gauge;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over every item of `items` on up to `workers` threads and return
/// the results in input order. `f` receives `(index, &item)`.
///
/// `workers == 0` is a typed configuration error — a zero used to be
/// silently clamped to 1, which made `--workers 0` behave like
/// `--workers 1` instead of failing loudly.
pub fn run<T, R, F>(workers: usize, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_gauged(workers, items, None, f)
}

/// [`run`], additionally tracking how many items are still unclaimed in an
/// observability gauge (scheduling-tier: the instantaneous depth depends
/// on thread timing, but the high-watermark is the input length by
/// construction). `None` skips all instrumentation.
pub fn run_gauged<T, R, F>(
    workers: usize,
    items: &[T],
    depth: Option<&Gauge>,
    f: F,
) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers == 0 {
        return Err(FlockError::InvalidConfig(
            "worker pool needs at least one worker (workers = 0)".to_string(),
        ));
    }
    let workers = workers.min(items.len()).max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let work = |slot: usize| {
        let _trace = flock_obs::trace::worker_scope(slot);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            if let Some(g) = depth {
                g.set((items.len() - i) as u64);
            }
            let r = f(i, &items[i]);
            slots.lock().push((i, r));
        }
    };
    crossbeam::scope(|scope| {
        let work = &work;
        for slot in 1..workers {
            scope.spawn(move |_| work(slot));
        }
        work(0);
    })
    // flock-lint: allow(panic) a panicked worker already poisoned the run; re-raise on the caller
    .expect("pool worker panicked");
    let mut out = slots.into_inner();
    // Completion order is scheduling noise; input order is the contract.
    out.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(out.len(), items.len());
    Ok(out.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..500).collect();
        let out = run(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        })
        .unwrap();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree() {
        let items: Vec<u64> = (0..97).collect();
        let serial = run(1, &items, |_, &x| x * x + 1).unwrap();
        for w in [2, 3, 8, 64] {
            assert_eq!(
                run(w, &items, |_, &x| x * x + 1).unwrap(),
                serial,
                "workers={w}"
            );
        }
    }

    #[test]
    fn zero_workers_is_a_typed_error_not_a_clamp() {
        let items: Vec<usize> = (0..4).collect();
        match run(0, &items, |_, &x| x) {
            Err(FlockError::InvalidConfig(msg)) => assert!(msg.contains("workers")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Even with no items there is nothing to clamp silently.
        let empty: Vec<usize> = Vec::new();
        assert!(matches!(
            run(0, &empty, |_, &x| x),
            Err(FlockError::InvalidConfig(_))
        ));
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let hits = AtomicUsize::new(0);
        let out = run(8, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(out.len(), items.len());
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(run(8, &empty, |_, &x| x).unwrap().is_empty());
        assert_eq!(run(8, &[42u8], |_, &x| x).unwrap(), vec![42]);
    }

    #[test]
    fn workers_carry_trace_slots() {
        let items: Vec<usize> = (0..64).collect();
        let slots = run(4, &items, |_, _| flock_obs::trace::current_worker()).unwrap();
        assert!(slots.iter().all(|s| matches!(s, Some(w) if *w < 4)));
        // One worker is the calling thread as worker 0, and the scope is
        // restored afterwards.
        let serial = run(1, &items, |_, _| flock_obs::trace::current_worker()).unwrap();
        assert!(serial.iter().all(|s| *s == Some(0)));
        assert_eq!(flock_obs::trace::current_worker(), None);
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        for w in [1, 4] {
            let seen = run(w, &items, |_, _| {
                (
                    flock_obs::trace::current_worker(),
                    std::thread::current().id(),
                )
            })
            .unwrap();
            for (slot, thread) in seen {
                assert_eq!(slot == Some(0), thread == caller, "workers={w}");
            }
        }
    }

    #[test]
    fn queue_depth_gauge_watermarks_at_input_length() {
        let g = flock_obs::Registry::new().gauge("flock.test.depth", flock_obs::Tier::Sched);
        let items: Vec<usize> = (0..64).collect();
        let out = run_gauged(4, &items, Some(&g), |_, &x| x).unwrap();
        assert_eq!(out, items);
        assert_eq!(g.high_watermark(), items.len() as u64);
        // One worker reports too.
        let g2 = flock_obs::Registry::new().gauge("flock.test.depth2", flock_obs::Tier::Sched);
        run_gauged(1, &items, Some(&g2), |_, &x| x).unwrap();
        assert_eq!(g2.high_watermark(), items.len() as u64);
    }
}
