//! The simulation calendar.
//!
//! The paper's measurement window is anchored on a handful of real dates:
//!
//! * **Oct 1, 2022** — start of the timeline-crawl window (§3.2),
//! * **Oct 26, 2022** — start of the tweet-collection window (§3.1),
//! * **Oct 27, 2022** — Musk's takeover closes,
//! * **Nov 4, 2022** — half of Twitter's staff is fired,
//! * **Nov 12, 2022** — Mastodon announces 1M new registrations,
//! * **Nov 17, 2022** — the "extremely hardcore" ultimatum resignations,
//! * **Nov 21, 2022** — end of the tweet-collection window,
//! * **Nov 30, 2022** — end of the timeline-crawl window.
//!
//! All simulation time is expressed as a [`Day`]: a signed number of days
//! relative to Oct 1, 2022 (so account-creation dates years in the past are
//! representable). [`Week`]s follow Mastodon's weekly-activity endpoint
//! convention of Monday-anchored buckets.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A calendar day, counted relative to **October 1, 2022** (day 0).
///
/// Negative values are days before the study window (used for account
/// creation dates — the median migrated account is 11.5 *years* old on
/// Twitter).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Day(pub i32);

impl Day {
    /// Oct 1, 2022 — first day of the timeline-crawl window (§3.2).
    pub const STUDY_START: Day = Day(0);
    /// Oct 26, 2022 — first day of the tweet-collection window (§3.1).
    pub const COLLECTION_START: Day = Day(25);
    /// Oct 27, 2022 — the acquisition closes.
    pub const TAKEOVER: Day = Day(26);
    /// Oct 28, 2022 — the Google-Trends spike observed in Fig. 1a.
    pub const TRENDS_SPIKE: Day = Day(27);
    /// Nov 4, 2022 — ~50% of Twitter staff fired.
    pub const LAYOFFS: Day = Day(34);
    /// Nov 12, 2022 — Mastodon announces >1M registrations since Oct 27.
    pub const MASTODON_MILLION: Day = Day(42);
    /// Nov 17, 2022 — mass resignations after the "hardcore" ultimatum.
    pub const RESIGNATIONS: Day = Day(47);
    /// Nov 21, 2022 — last day of the tweet-collection window (§3.1).
    pub const COLLECTION_END: Day = Day(51);
    /// Nov 30, 2022 — last day of the timeline-crawl window (§3.2).
    pub const STUDY_END: Day = Day(60);

    /// Number of days in the timeline-crawl window (Oct 1 – Nov 30, inclusive).
    pub const STUDY_LEN: usize = 61;

    /// Construct a day from its raw offset.
    #[inline]
    pub const fn new(offset: i32) -> Self {
        Day(offset)
    }

    /// Raw offset from Oct 1, 2022.
    #[inline]
    pub const fn offset(self) -> i32 {
        self.0
    }

    /// `true` if this day falls inside the timeline-crawl window.
    #[inline]
    pub fn in_study_window(self) -> bool {
        self >= Self::STUDY_START && self <= Self::STUDY_END
    }

    /// `true` if this day falls inside the tweet-collection window.
    #[inline]
    pub fn in_collection_window(self) -> bool {
        self >= Self::COLLECTION_START && self <= Self::COLLECTION_END
    }

    /// `true` if this day is on or after the takeover (Oct 27, 2022).
    #[inline]
    pub fn is_post_takeover(self) -> bool {
        self >= Self::TAKEOVER
    }

    /// Iterate over every day of the study window in order.
    pub fn study_days() -> impl Iterator<Item = Day> {
        (Self::STUDY_START.0..=Self::STUDY_END.0).map(Day)
    }

    /// Convert to a Gregorian calendar date.
    pub fn to_date(self) -> Date {
        Date::from_epoch_days(ANCHOR_EPOCH_DAYS + i64::from(self.0))
    }

    /// Days since the Unix epoch (1970-01-01).
    #[inline]
    pub fn epoch_days(self) -> i64 {
        ANCHOR_EPOCH_DAYS + i64::from(self.0)
    }

    /// Day of week; 0 = Monday … 6 = Sunday (ISO numbering minus one).
    pub fn weekday(self) -> u8 {
        // 1970-01-01 was a Thursday (ISO weekday 4 → index 3).
        (self.epoch_days() + 3).rem_euclid(7) as u8
    }

    /// The Monday-anchored week containing this day (Mastodon's
    /// weekly-activity bucket convention).
    pub fn week(self) -> Week {
        let monday_epoch = self.epoch_days() - i64::from(self.weekday());
        // Mondays fall on epoch days ≡ 4 (mod 7); remove the residue so the
        // division is exact (and round-trips through `Week::monday`).
        Week(((monday_epoch - 4).div_euclid(7)) as i32)
    }
}

impl Add<i32> for Day {
    type Output = Day;
    fn add(self, rhs: i32) -> Day {
        Day(self.0 + rhs)
    }
}

impl AddAssign<i32> for Day {
    fn add_assign(&mut self, rhs: i32) {
        self.0 += rhs;
    }
}

impl Sub<i32> for Day {
    type Output = Day;
    fn sub(self, rhs: i32) -> Day {
        Day(self.0 - rhs)
    }
}

impl Sub<Day> for Day {
    type Output = i32;
    fn sub(self, rhs: Day) -> i32 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_date())
    }
}

/// A Monday-anchored week bucket, identified by `epoch_days_of_monday / 7`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Week(pub i32);

impl Week {
    /// The Monday this week starts on.
    pub fn monday(self) -> Day {
        Day((i64::from(self.0) * 7 + 4 - ANCHOR_EPOCH_DAYS) as i32)
    }

    /// All seven days of the week, Monday first.
    pub fn days(self) -> impl Iterator<Item = Day> {
        let m = self.monday();
        (0..7).map(move |i| m + i)
    }
}

impl fmt::Display for Week {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "week of {}", self.monday())
    }
}

/// A Gregorian calendar date (proleptic, no timezone — the paper's data is
/// day-granular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

/// Days from 1970-01-01 to 2022-10-01 (the study anchor), computed once and
/// verified by unit test against the civil-date algorithm.
const ANCHOR_EPOCH_DAYS: i64 = days_from_civil(2022, 10, 1);

/// Howard Hinnant's `days_from_civil`: days since 1970-01-01 for a Gregorian
/// date. Valid for the full `i32` year range we care about.
const fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = if m <= 2 { y - 1 } else { y } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m as i64) + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

impl Date {
    /// Build a date, panicking on out-of-range month/day. Intended for
    /// constants and tests; simulation code works in [`Day`].
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        // flock-lint: allow(panic) constructor documented as panicking; used only for constants and tests
        assert!((1..=12).contains(&month), "month out of range: {month}");
        // flock-lint: allow(panic) constructor documented as panicking; used only for constants and tests
        assert!((1..=31).contains(&day), "day out of range: {day}");
        Date { year, month, day }
    }

    /// Inverse of `days_from_civil`.
    pub fn from_epoch_days(z: i64) -> Self {
        let z = z + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        Date {
            year: (if m <= 2 { y + 1 } else { y }) as i32,
            month: m,
            day: d,
        }
    }

    /// Days since the Unix epoch.
    pub fn epoch_days(self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Convert to the study-relative [`Day`].
    pub fn to_day(self) -> Day {
        Day((self.epoch_days() - ANCHOR_EPOCH_DAYS) as i32)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_is_oct_1_2022() {
        assert_eq!(Day(0).to_date(), Date::new(2022, 10, 1));
        assert_eq!(Date::new(2022, 10, 1).to_day(), Day(0));
    }

    #[test]
    fn event_constants_map_to_paper_dates() {
        assert_eq!(Day::TAKEOVER.to_date().to_string(), "2022-10-27");
        assert_eq!(Day::TRENDS_SPIKE.to_date().to_string(), "2022-10-28");
        assert_eq!(Day::LAYOFFS.to_date().to_string(), "2022-11-04");
        assert_eq!(Day::MASTODON_MILLION.to_date().to_string(), "2022-11-12");
        assert_eq!(Day::RESIGNATIONS.to_date().to_string(), "2022-11-17");
        assert_eq!(Day::COLLECTION_START.to_date().to_string(), "2022-10-26");
        assert_eq!(Day::COLLECTION_END.to_date().to_string(), "2022-11-21");
        assert_eq!(Day::STUDY_END.to_date().to_string(), "2022-11-30");
    }

    #[test]
    fn study_window_length() {
        assert_eq!(Day::study_days().count(), Day::STUDY_LEN);
        assert_eq!(Day::STUDY_END - Day::STUDY_START, 60);
    }

    #[test]
    fn oct_1_2022_was_saturday() {
        // ISO: Monday=0 … Saturday=5, Sunday=6.
        assert_eq!(Day(0).weekday(), 5);
        assert_eq!(Day(1).weekday(), 6); // Sunday
        assert_eq!(Day(2).weekday(), 0); // Monday, Oct 3
    }

    #[test]
    fn weeks_are_monday_anchored() {
        // Oct 3, 2022 is a Monday, so days 2..9 share a week with it.
        let w = Day(2).week();
        assert_eq!(w.monday(), Day(2));
        assert_eq!(Day(8).week(), w); // Sunday Oct 9
        assert_ne!(Day(9).week(), w); // Monday Oct 10
                                      // Saturday Oct 1 belongs to the previous week.
        assert_eq!(Day(0).week().monday(), Day(-5));
    }

    #[test]
    fn week_days_iterates_seven() {
        let w = Day(10).week();
        let days: Vec<_> = w.days().collect();
        assert_eq!(days.len(), 7);
        assert!(days.iter().all(|d| d.week() == w));
        assert_eq!(days[0], w.monday());
    }

    #[test]
    fn civil_round_trip_across_leap_years() {
        for &(y, m, d) in &[
            (2000, 2, 29),
            (1970, 1, 1),
            (2022, 12, 31),
            (2011, 3, 1),
            (1999, 12, 31),
            (2024, 2, 29),
        ] {
            let date = Date::new(y, m, d);
            assert_eq!(Date::from_epoch_days(date.epoch_days()), date);
        }
    }

    #[test]
    fn negative_days_reach_into_the_past() {
        // 11.5 years before the window — the median Twitter account age.
        let old = Day(-(4200));
        let date = old.to_date();
        assert!(date.year <= 2011);
        assert_eq!(date.to_day(), old);
    }

    #[test]
    fn window_predicates() {
        assert!(Day::STUDY_START.in_study_window());
        assert!(Day::STUDY_END.in_study_window());
        assert!(!Day(61).in_study_window());
        assert!(!Day(-1).in_study_window());
        assert!(Day::TAKEOVER.in_collection_window());
        assert!(!Day(0).in_collection_window());
        assert!(Day::TAKEOVER.is_post_takeover());
        assert!(!Day(25).is_post_takeover());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Day(5) + 3, Day(8));
        assert_eq!(Day(5) - 3, Day(2));
        assert_eq!(Day(8) - Day(5), 3);
        let mut d = Day(0);
        d += 10;
        assert_eq!(d, Day(10));
    }
}
