//! Per-instance weekly activity (Fig. 3).
//!
//! Mastodon exposes a public weekly-activity endpoint (statuses, logins,
//! registrations per week) which the paper crawled for all 2,879 landing
//! instances. Only a minority of the post-takeover registration wave is
//! visible to the §3.1 handle matcher (Mastodon announced 1M+ sign-ups
//! while the paper tracked 136k), so the ledger combines:
//!
//! * the *tracked* migrants' registrations and statuses, counted exactly;
//! * an *untracked background* population whose registrations surge after
//!   the takeover by [`BACKGROUND_SURGE_FACTOR`].

use crate::config::{WorldConfig, BACKGROUND_SURGE_FACTOR};
use crate::content::StatusStore;
use crate::instances::Instance;
use crate::migration::MastodonAccount;
use flock_core::{Day, DetRng, InstanceId, Week};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One week of one instance's activity, in the shape of Mastodon's
/// `/api/v1/instance/activity` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeeklyActivity {
    pub statuses: u64,
    pub logins: u64,
    pub registrations: u64,
}

/// The full ledger: instance → week → activity.
#[derive(Debug, Clone, Default)]
pub struct ActivityLedger {
    per_instance: Vec<BTreeMap<Week, WeeklyActivity>>,
}

impl ActivityLedger {
    /// Weekly activity of one instance, oldest week first.
    pub fn instance_weeks(&self, id: InstanceId) -> Option<&BTreeMap<Week, WeeklyActivity>> {
        self.per_instance.get(id.index())
    }

    /// Sum of a metric across all instances, per week.
    pub fn totals(&self) -> BTreeMap<Week, WeeklyActivity> {
        let mut out: BTreeMap<Week, WeeklyActivity> = BTreeMap::new();
        for inst in &self.per_instance {
            for (w, a) in inst {
                let e = out.entry(*w).or_default();
                e.statuses += a.statuses;
                e.logins += a.logins;
                e.registrations += a.registrations;
            }
        }
        out
    }
}

/// Weeks covered by the ledger: eight weeks of pre-takeover baseline
/// through the end of the study window.
pub fn ledger_weeks() -> Vec<Week> {
    let first = Day(-56).week();
    let last = Day::STUDY_END.week();
    let mut weeks = Vec::new();
    let mut w = first;
    while w <= last {
        weeks.push(w);
        w = Week(w.0 + 1);
    }
    weeks
}

/// Background-surge multiplier for a week (1.0 before the takeover, ramping
/// to `surge` at the takeover and decaying gently afterwards — Fig. 3's
/// sustained elevation).
fn surge_factor(week: Week, surge: f64) -> f64 {
    let takeover_week = Day::TAKEOVER.week();
    if week < takeover_week {
        1.0
    } else {
        let k = (week.0 - takeover_week.0) as f64;
        1.0 + (surge - 1.0) * (-k / 8.0).exp().max(0.35)
    }
}

/// Build the ledger from the tracked world plus synthetic background noise.
pub fn build_ledger(
    instances: &[Instance],
    accounts: &[MastodonAccount],
    statuses: &StatusStore,
    config: &WorldConfig,
    rng: &mut DetRng,
) -> ActivityLedger {
    let weeks = ledger_weeks();
    let mut per_instance: Vec<BTreeMap<Week, WeeklyActivity>> =
        vec![BTreeMap::new(); instances.len()];

    // Popularity share normalized so the flagship's background is
    // `background_weekly_registrations × instances.len() / 4` and the tail
    // gets a trickle.
    let pop_sum: f64 = instances.iter().map(|i| i.popularity).sum();

    for inst in instances {
        let share = inst.popularity / pop_sum;
        let base_reg = config.background_weekly_registrations * share * instances.len() as f64;
        let entry = &mut per_instance[inst.id.index()];
        for &w in &weeks {
            // Instances that did not exist yet have no activity.
            if w.monday() < inst.created {
                continue;
            }
            let s = surge_factor(w, BACKGROUND_SURGE_FACTOR);
            let regs = rng.poisson(base_reg * s);
            // Logins scale with the (slowly accumulating) background user
            // base; statuses with logins.
            let logins = rng.poisson(base_reg * 14.0 * s.sqrt());
            let statuses = rng.poisson(base_reg * 45.0 * s.sqrt());
            entry.insert(
                w,
                WeeklyActivity {
                    statuses,
                    logins,
                    registrations: regs,
                },
            );
        }
    }

    // Tracked registrations: each migrant account lands in its creation
    // week on its first instance.
    for a in accounts {
        let w = a.created.week();
        let e = per_instance[a.first_instance.index()].entry(w).or_default();
        e.registrations += 1;
        e.logins += 1;
    }

    // Tracked statuses (and the login activity they imply).
    for s in statuses {
        let a = &accounts[s.account.index()];
        let inst = if let Some(sw) = &a.switch {
            if s.day >= sw.day {
                sw.to
            } else {
                sw.from
            }
        } else {
            a.instance
        };
        let e = per_instance[inst.index()].entry(s.day.week()).or_default();
        e.statuses += 1;
    }

    ActivityLedger { per_instance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::INSTANCE_ZIPF_EXPONENT;
    use crate::instances::generate_instances;

    #[test]
    fn weeks_cover_baseline_and_window() {
        let weeks = ledger_weeks();
        assert!(weeks.len() >= 14, "{} weeks", weeks.len());
        assert!(weeks.first().unwrap().monday() <= Day(-50));
        assert!(*weeks.last().unwrap() >= Day::STUDY_END.week());
        for pair in weeks.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
        }
    }

    #[test]
    fn surge_kicks_in_at_takeover() {
        let pre = surge_factor(Day(10).week(), 9.0);
        let post = surge_factor(Day(30).week(), 9.0);
        assert_eq!(pre, 1.0);
        assert!(post > 5.0, "post-takeover surge {post}");
        let late = surge_factor(Day(58).week(), 9.0);
        assert!(late > 1.5 && late <= post);
    }

    #[test]
    fn ledger_registrations_jump_after_takeover() {
        let config = WorldConfig::small().with_seed(50);
        let mut rng = DetRng::new(1);
        let instances = generate_instances(
            config.n_instances,
            INSTANCE_ZIPF_EXPONENT,
            &mut rng.fork("inst"),
        );
        let ledger = build_ledger(&instances, &[], &StatusStore::default(), &config, &mut rng);
        let totals = ledger.totals();
        let takeover_week = Day::TAKEOVER.week();
        let pre: u64 = totals
            .iter()
            .filter(|(w, _)| **w < takeover_week)
            .map(|(_, a)| a.registrations)
            .sum();
        let pre_weeks = totals.keys().filter(|w| **w < takeover_week).count() as u64;
        let post: u64 = totals
            .iter()
            .filter(|(w, _)| **w >= takeover_week)
            .map(|(_, a)| a.registrations)
            .sum();
        let post_weeks = totals.keys().filter(|w| **w >= takeover_week).count() as u64;
        let pre_rate = pre as f64 / pre_weeks as f64;
        let post_rate = post as f64 / post_weeks as f64;
        assert!(
            post_rate > pre_rate * 3.0,
            "registrations {pre_rate}/wk -> {post_rate}/wk"
        );
    }

    #[test]
    fn tracked_accounts_counted_in_creation_week() {
        use crate::migration::MastodonAccount;
        use flock_core::{MastodonAccountId, MastodonHandle, TwitterUserId};
        let config = WorldConfig::small().with_seed(51);
        let mut rng = DetRng::new(2);
        let instances = generate_instances(20, 1.3, &mut rng);
        let account = MastodonAccount {
            id: MastodonAccountId(0),
            owner: TwitterUserId(0),
            handle: MastodonHandle::new("a", "mastodon.social").unwrap(),
            first_handle: MastodonHandle::new("a", "mastodon.social").unwrap(),
            instance: InstanceId(0),
            first_instance: InstanceId(0),
            created: Day(28),
            created_tod_secs: 0,
            announced: Day(28),
            in_bio: true,
            in_tweet: true,
            switch: None,
        };
        let mut cfg = config;
        cfg.background_weekly_registrations = 0.0;
        let ledger = build_ledger(
            &instances,
            &[account],
            &StatusStore::default(),
            &cfg,
            &mut rng,
        );
        let weeks = ledger.instance_weeks(InstanceId(0)).unwrap();
        let reg: u64 = weeks.values().map(|a| a.registrations).sum();
        assert_eq!(reg, 1);
        assert_eq!(weeks.get(&Day(28).week()).unwrap().registrations, 1);
    }

    #[test]
    fn flagship_has_most_background_activity() {
        let config = WorldConfig::small().with_seed(52);
        let mut rng = DetRng::new(3);
        let instances = generate_instances(
            config.n_instances,
            INSTANCE_ZIPF_EXPONENT,
            &mut rng.fork("i"),
        );
        let ledger = build_ledger(&instances, &[], &StatusStore::default(), &config, &mut rng);
        let sum_regs = |id: InstanceId| -> u64 {
            ledger
                .instance_weeks(id)
                .unwrap()
                .values()
                .map(|a| a.registrations)
                .sum()
        };
        let flagship = sum_regs(InstanceId(0));
        let mid = sum_regs(InstanceId(50));
        assert!(flagship > mid, "flagship {flagship} vs mid {mid}");
    }
}
