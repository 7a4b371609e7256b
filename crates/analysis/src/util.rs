//! Shared helpers over the crawled dataset.

use flock_core::Day;
use flock_crawler::dataset::MatchedUser;

/// A point in time with sub-day resolution: `(day, seconds within day)`.
/// Ordering is lexicographic, which is exactly timestamp order.
pub type Moment = (Day, u32);

/// The creation moment of the user's *first* Mastodon account, as
/// observable from the API: for switchers the original account object
/// carries it; for everyone else the (only) account does.
pub fn first_created(m: &MatchedUser) -> Option<Moment> {
    if let Some(first) = &m.first_account {
        return Some((first.created_at, first.created_tod_secs));
    }
    if let Some(a) = &m.account {
        return Some((a.created_at, a.created_tod_secs));
    }
    // Account unreachable (down instance): fall back to the announcement
    // tweet's day, with a deterministic pseudo time-of-day so same-day
    // comparisons stay total.
    m.first_seen.map(|d| {
        (
            d,
            (m.twitter_id.raw().wrapping_mul(2_654_435_761) % 86_400) as u32,
        )
    })
}

/// The creation day only (for day-granular analyses like Fig. 4).
pub fn first_created_day(m: &MatchedUser) -> Option<Day> {
    first_created(m).map(|(d, _)| d)
}

/// Map `f` over `items` on the crawler's worker pool, one thread per
/// available CPU (at most 8), and return the results in input order.
///
/// The per-user loops of Figs. 14–16 are independent, so they fan out
/// here. The worker count is read from the host, but it only sizes the
/// pool: [`flock_core::worker_pool::run`] hands results back in input
/// order, so callers that fold them in that order produce the same bytes
/// on any machine. The count is always at least 1, so the pool's
/// `InvalidConfig` arm is unreachable; it maps to an empty result rather
/// than a panic.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    flock_core::worker_pool::run(workers, items, |_, item| f(item)).unwrap_or_default()
}

/// Domain of the instance the user first joined.
pub fn first_instance(m: &MatchedUser) -> &str {
    m.handle.instance()
}

/// Domain of the instance the user currently lives on.
pub fn current_instance(m: &MatchedUser) -> &str {
    m.resolved_handle.instance()
}

/// The moment a switcher moved (the new account's `created_at` is the move
/// time in our API model). `None` for non-switchers or unreachable targets.
pub fn switch_day(m: &MatchedUser) -> Option<Moment> {
    if !m.switched() {
        return None;
    }
    m.account
        .as_ref()
        .map(|a| (a.created_at, a.created_tod_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_apis::types::MastodonAccountObject;
    use flock_core::{MastodonHandle, TwitterUserId};
    use flock_crawler::dataset::MatchSource;

    fn account(handle: &str, created: Day, tod: u32) -> MastodonAccountObject {
        MastodonAccountObject {
            handle: handle.parse().unwrap(),
            created_at: created,
            created_tod_secs: tod,
            followers_count: 0,
            following_count: 0,
            statuses_count: 0,
            moved_to: None,
        }
    }

    fn matched(h: &str, resolved: &str) -> MatchedUser {
        MatchedUser {
            twitter_id: TwitterUserId(0),
            twitter_username: "u".into(),
            twitter_created: Day(-100),
            verified: false,
            twitter_followers: 0,
            twitter_followees: 0,
            handle: h.parse::<MastodonHandle>().unwrap(),
            matched_via: MatchSource::Bio,
            first_seen: None,
            resolved_handle: resolved.parse::<MastodonHandle>().unwrap(),
            account: None,
            first_account: None,
        }
    }

    #[test]
    fn non_switcher_uses_account_created() {
        let mut m = matched("@u@a.example", "@u@a.example");
        assert_eq!(first_created(&m), None);
        m.account = Some(account("@u@a.example", Day(28), 3600));
        assert_eq!(first_created(&m), Some((Day(28), 3600)));
        assert_eq!(first_created_day(&m), Some(Day(28)));
        assert_eq!(switch_day(&m), None);
        assert_eq!(first_instance(&m), "a.example");
        assert_eq!(current_instance(&m), "a.example");
    }

    #[test]
    fn switcher_splits_created_and_switch_day() {
        let mut m = matched("@u@a.example", "@u@b.example");
        m.first_account = Some(account("@u@a.example", Day(27), 100));
        m.account = Some(account("@u@b.example", Day(45), 200));
        assert_eq!(first_created(&m), Some((Day(27), 100)));
        assert_eq!(switch_day(&m), Some((Day(45), 200)));
        assert_eq!(first_instance(&m), "a.example");
        assert_eq!(current_instance(&m), "b.example");
    }

    #[test]
    fn moments_order_within_a_day() {
        let early: Moment = (Day(28), 100);
        let late: Moment = (Day(28), 50_000);
        let next_day: Moment = (Day(29), 0);
        assert!(early < late);
        assert!(late < next_day);
    }
}
