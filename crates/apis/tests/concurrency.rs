//! Concurrency contracts of the rate limiter and the server's rate table.
//!
//! The crawler fans requests out over worker threads, so the token buckets
//! are hit from many threads at once. These tests pin down the properties
//! the crawl relies on: a bucket never over-issues no matter how
//! acquisition interleaves, the `retry_after_secs` it advertises is honest
//! and monotone (waiting the advertised time always suffices, and waiting
//! longer never makes things worse), and each family and each Mastodon
//! instance spends a bucket of its own, though one lock guards them all.

use flock_apis::ratelimit::{RatePolicy, TokenBucket};
use flock_apis::{ApiConfig, ApiServer};
use flock_core::FlockError;
use flock_fedisim::{World, WorldConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// N threads hammering one bucket at a frozen clock: exactly `capacity`
/// acquisitions may succeed, however the lock interleaves.
#[test]
fn concurrent_acquisition_never_over_issues() {
    let capacity = 64u32;
    let bucket = Arc::new(Mutex::new(TokenBucket::new(
        RatePolicy {
            capacity,
            window_secs: 1_000_000,
        },
        0,
    )));
    let granted = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let bucket = Arc::clone(&bucket);
            let granted = Arc::clone(&granted);
            std::thread::spawn(move || {
                for _ in 0..32 {
                    // 8 × 32 = 256 attempts against 64 tokens.
                    if bucket.lock().try_acquire(0).is_ok() {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(granted.load(Ordering::Relaxed), u64::from(capacity));
}

/// With the clock advancing concurrently (as crawler workers "sleep"),
/// total grants never exceed capacity plus what the elapsed time refilled.
#[test]
fn concurrent_acquisition_respects_refill_budget() {
    let policy = RatePolicy {
        capacity: 10,
        window_secs: 100,
    }; // 0.1 tokens/s
    let bucket = Arc::new(Mutex::new(TokenBucket::new(policy, 0)));
    let clock = Arc::new(AtomicU64::new(0));
    let granted = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let bucket = Arc::clone(&bucket);
            let clock = Arc::clone(&clock);
            let granted = Arc::clone(&granted);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let now = clock.load(Ordering::SeqCst);
                    match bucket.lock().try_acquire(now) {
                        Ok(()) => {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(wait) => {
                            clock.fetch_add(wait.min(5), Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = clock.load(Ordering::SeqCst);
    let budget = u64::from(policy.capacity) + (elapsed as f64 * policy.refill_rate()).ceil() as u64;
    let got = granted.load(Ordering::Relaxed);
    assert!(
        got <= budget,
        "granted {got} > budget {budget} at t={elapsed}"
    );
    assert!(
        got >= u64::from(policy.capacity),
        "burst capacity not even used"
    );
}

/// The advertised `retry_after_secs` is monotonically consistent: as the
/// clock advances toward the refill instant, the advertised wait shrinks
/// (never grows), and waiting exactly the advertised time always succeeds.
#[test]
fn retry_after_is_monotone_and_sufficient() {
    let mut bucket = TokenBucket::new(
        RatePolicy {
            capacity: 3,
            window_secs: 300,
        },
        0,
    );
    for _ in 0..3 {
        bucket.try_acquire(0).unwrap();
    }
    let mut last_deadline = u64::MAX;
    let mut now = 0u64;
    loop {
        match bucket.try_acquire(now) {
            Ok(()) => break,
            Err(wait) => {
                assert!(wait >= 1);
                let deadline = now + wait;
                assert!(
                    deadline <= last_deadline,
                    "advertised deadline moved backwards: {deadline} after {last_deadline}"
                );
                last_deadline = deadline;
                now += 7; // creep toward the deadline in odd steps
                if now >= deadline {
                    // Waiting the advertised time must be sufficient.
                    assert!(bucket.try_acquire(deadline).is_ok());
                    break;
                }
            }
        }
    }
}

/// Server-level: 8 threads share the users family; its bucket must hand
/// out exactly `capacity` tokens at a frozen clock, and rejected callers
/// must all see the same coherent retry horizon.
#[test]
fn server_families_never_over_issue_under_contention() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(11)).unwrap());
    let config = ApiConfig {
        users_policy: RatePolicy {
            capacity: 40,
            window_secs: 1_000_000,
        },
        ..ApiConfig::default()
    };
    let api = Arc::new(ApiServer::new(world.clone(), config).unwrap());
    let ids: Vec<_> = world.users.iter().take(10).map(|u| u.id).collect();
    let ok = Arc::new(AtomicU64::new(0));
    let limited = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let api = Arc::clone(&api);
            let ids = ids.clone();
            let ok = Arc::clone(&ok);
            let limited = Arc::clone(&limited);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    match api.twitter_users_lookup(&ids) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(FlockError::RateLimited { retry_after_secs }) => {
                            assert!(retry_after_secs >= 1);
                            limited.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(ok.load(Ordering::Relaxed), 40);
    assert_eq!(limited.load(Ordering::Relaxed), 40);
}

/// Families are independent: draining the search bucket must not block the
/// users family, whose bucket is its own.
#[test]
fn families_do_not_interfere() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(12)).unwrap());
    let config = ApiConfig {
        search_policy: RatePolicy {
            capacity: 2,
            window_secs: 1_000_000,
        },
        ..ApiConfig::default()
    };
    let api = ApiServer::new(world.clone(), config).unwrap();
    let day = flock_core::Day::COLLECTION_START;
    let end = flock_core::Day::COLLECTION_END;
    api.twitter_search("mastodon", day, end, None).unwrap();
    api.twitter_search("mastodon", day, end, None).unwrap();
    assert!(matches!(
        api.twitter_search("mastodon", day, end, None),
        Err(FlockError::RateLimited { .. })
    ));
    // Search is exhausted; users must still answer.
    let ids: Vec<_> = world.users.iter().take(5).map(|u| u.id).collect();
    assert!(api.twitter_users_lookup(&ids).is_ok());
}

/// 8 threads, half on the users family and half on search, each family
/// at 40 tokens with a frozen clock: under the one lock each family must
/// grant exactly its own 40, however the two interleave.
#[test]
fn mixed_families_each_grant_their_own_capacity_under_contention() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(13)).unwrap());
    let policy = RatePolicy {
        capacity: 40,
        window_secs: 1_000_000,
    };
    let config = ApiConfig {
        search_policy: policy,
        users_policy: policy,
        ..ApiConfig::default()
    };
    let api = ApiServer::new(world.clone(), config).unwrap();
    let ids: Vec<_> = world.users.iter().take(10).map(|u| u.id).collect();
    let day = flock_core::Day::COLLECTION_START;
    let end = flock_core::Day::COLLECTION_END;
    // Grants per family: [users, search].
    let granted = [AtomicU64::new(0), AtomicU64::new(0)];
    std::thread::scope(|s| {
        for t in 0..8 {
            let (api, ids, granted) = (&api, &ids, &granted);
            s.spawn(move || {
                // 4 threads × 20 attempts = 80 per family against 40 tokens.
                for _ in 0..20 {
                    let r = if t % 2 == 0 {
                        api.twitter_users_lookup(ids).map(drop)
                    } else {
                        api.twitter_search("mastodon", day, end, None).map(drop)
                    };
                    match r {
                        Ok(()) => {
                            granted[t % 2].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(FlockError::RateLimited { .. }) => {}
                        Err(e) => panic!("{e}"),
                    }
                }
            });
        }
    });
    assert_eq!(granted.map(AtomicU64::into_inner), [40, 40]);
}

/// Every Mastodon instance has a bucket of its own: with one token per
/// instance and a window that never refills, a second request to one
/// instance is rate limited while another instance, and the search
/// family, still answer.
#[test]
fn mastodon_buckets_are_per_instance() {
    let world = Arc::new(World::generate(&WorldConfig::small().with_seed(14)).unwrap());
    let config = ApiConfig {
        mastodon_policy: RatePolicy {
            capacity: 1,
            window_secs: 1_000_000,
        },
        ..ApiConfig::default()
    };
    let api = ApiServer::new(world.clone(), config).unwrap();
    let mut up = world
        .instances
        .iter()
        .filter(|i| !i.down_at_crawl && world.ledger.instance_weeks(i.id).is_some());
    let (a, b) = (up.next().unwrap(), up.next().unwrap());
    api.mastodon_instance_info(&a.domain).unwrap();
    assert!(matches!(
        api.mastodon_instance_info(&a.domain),
        Err(FlockError::RateLimited { .. })
    ));
    api.mastodon_instance_info(&b.domain).unwrap();
    let day = flock_core::Day::COLLECTION_START;
    let end = flock_core::Day::COLLECTION_END;
    api.twitter_search("mastodon", day, end, None).unwrap();
}
