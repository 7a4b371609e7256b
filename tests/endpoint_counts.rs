//! The Mastodon endpoints serve exactly the counts they report: for every
//! identity on an instance that is up, the account lookup's
//! `following_count` and `statuses_count` equal what paging the following
//! and statuses endpoints yields, and the following pages are the world's
//! list in stored order.

use flock::apis::pagination::Page;
use flock::apis::ApiServer;
use flock::fedisim::{World, WorldConfig};
use flock::prelude::*;
use std::sync::Arc;

/// `call`, retried on the virtual clock through every rate limit.
fn patiently<T>(api: &ApiServer, mut call: impl FnMut() -> Result<T, FlockError>) -> T {
    loop {
        match call() {
            Err(FlockError::RateLimited {
                retry_after_secs, ..
            }) => {
                api.advance_clock_to(api.now() + retry_after_secs);
            }
            other => return other.unwrap(),
        }
    }
}

/// Every item of a paginated endpoint, page after page.
fn drain<T>(
    api: &ApiServer,
    mut page: impl FnMut(Option<&str>) -> Result<Page<T>, FlockError>,
) -> Vec<T> {
    let mut items = Vec::new();
    let mut cursor: Option<String> = None;
    loop {
        let got = patiently(api, || page(cursor.as_deref()));
        items.extend(got.items);
        match got.next {
            Some(next) => cursor = Some(next),
            None => return items,
        }
    }
}

#[test]
fn mastodon_endpoints_serve_exactly_the_counts_they_report() {
    for seed in [1, 1234, 9999] {
        let world = Arc::new(World::generate(&WorldConfig::small().with_seed(seed)).unwrap());
        let api = ApiServer::with_defaults(world.clone()).unwrap();
        let mut identities = 0;
        for account in &world.accounts {
            let switched = account.switch.is_some();
            let handles = if switched {
                vec![&account.first_handle, &account.handle]
            } else {
                vec![&account.handle]
            };
            for handle in handles {
                let instance = world.instance_by_domain(handle.instance()).unwrap();
                if instance.down_at_crawl {
                    continue;
                }
                identities += 1;
                let lookup = patiently(&api, || api.mastodon_lookup_account(handle));
                let following = drain(&api, |c| api.mastodon_account_following(handle, c));
                let statuses = drain(&api, |c| api.mastodon_account_statuses(handle, c));
                assert_eq!(
                    lookup.following_count,
                    following.len() as u64,
                    "seed {seed}: {handle} following"
                );
                assert_eq!(
                    lookup.statuses_count,
                    statuses.len() as u64,
                    "seed {seed}: {handle} statuses"
                );
                let want: Vec<MastodonHandle> = if switched && handle == &account.first_handle {
                    Vec::new() // the Move drained the old identity
                } else {
                    world
                        .mastodon_following(account)
                        .iter()
                        .map(|&id| world.fediverse.actor(id).unwrap().handle.clone())
                        .collect()
                };
                assert_eq!(following, want, "seed {seed}: {handle} following list");
            }
        }
        assert!(identities > 300, "seed {seed}: {identities} identities up");
    }
}
