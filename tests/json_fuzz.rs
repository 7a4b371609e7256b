//! Fuzzing the JSON reader at the boundaries that load persisted
//! artifacts: the dataset release (`Dataset::from_json`), the monitor
//! checkpoint (`durable::load_if_exists`) and the bare value parser
//! (`serde_json::parse_value`). Whatever the bytes — arbitrary, JSON-ish,
//! or a valid document truncated or with one byte replaced — every call
//! returns `Ok` or an error and never panics. Every value tree the writer
//! emits, compact or pretty, reads back unchanged.

use flock::apis::types::{ActivityRow, InstanceInfoObject, MastodonAccountObject};
use flock::core::{durable, Day, FlockError, MastodonHandle, TweetId, TwitterUserId, Week};
use flock::crawler::dataset::{
    CollectedTweet, CoverageReport, CrawlStats, Dataset, FolloweeRecord, MastodonCrawlOutcome,
    MatchSource, MatchedUser, QueryKind, TimelineStatus, TimelineTweet, TwitterCrawlOutcome,
};
use flock::monitor::checkpoint::MonitorCheckpoint;
use flock::monitor::{NodeRecord, NodeState};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use serde::Value;
use std::path::{Path, PathBuf};

fn handle(s: &str) -> MastodonHandle {
    s.parse().unwrap()
}

/// A dataset with every field populated, strings that need escapes and
/// non-ASCII text included.
fn full_dataset() -> Dataset {
    let account = |h: &str, moved: Option<&str>| MastodonAccountObject {
        handle: handle(h),
        created_at: Day(30),
        created_tod_secs: 3_600,
        followers_count: 12,
        following_count: 7,
        statuses_count: 40,
        moved_to: moved.map(handle),
    };
    let mut ds = Dataset {
        instance_list: vec!["mastodon.social".into(), "fosstodon.org".into()],
        searched_users: 2,
        stats: CrawlStats {
            requests: 2_470,
            rate_limited: 341,
            transient_failures: 546,
            virtual_secs: 17_520,
        },
        ..Dataset::default()
    };
    ds.collected_tweets.push(CollectedTweet {
        id: TweetId(u64::MAX),
        author: TwitterUserId(1),
        day: Day(-3),
        text: "bye \"bird\" \\ tab\there\nfind me at @quiet_otter@mastodon.social 🦣 é".into(),
        source: "Twitter Web App".into(),
        via: QueryKind::InstanceLink,
    });
    ds.matched.push(MatchedUser {
        twitter_id: TwitterUserId(1),
        twitter_username: "quiet_otter".into(),
        twitter_created: Day(-1000),
        verified: true,
        twitter_followers: 10,
        twitter_followees: 20,
        handle: handle("@quiet_otter@mastodon.social"),
        matched_via: MatchSource::TweetText,
        first_seen: Some(Day(28)),
        resolved_handle: handle("@quiet_otter@fosstodon.org"),
        account: Some(account("@quiet_otter@fosstodon.org", None)),
        first_account: Some(account(
            "@quiet_otter@mastodon.social",
            Some("@quiet_otter@fosstodon.org"),
        )),
    });
    ds.twitter_timelines.insert(
        TwitterUserId(1),
        vec![TimelineTweet {
            id: TweetId(5),
            day: Day(29),
            text: "control \u{1} and \u{7f}".into(),
            source: "Mastodon-Twitter Crossposter".into(),
        }],
    );
    ds.twitter_outcomes
        .insert(TwitterUserId(1), TwitterCrawlOutcome::Ok);
    ds.twitter_outcomes
        .insert(TwitterUserId(2), TwitterCrawlOutcome::Suspended);
    ds.mastodon_timelines.insert(
        handle("@quiet_otter@fosstodon.org"),
        vec![TimelineStatus {
            day: Day(30),
            text: "中文 toot".into(),
        }],
    );
    ds.mastodon_outcomes
        .insert(TwitterUserId(1), MastodonCrawlOutcome::InstanceDown);
    ds.followees.insert(
        TwitterUserId(1),
        FolloweeRecord {
            twitter: vec![TwitterUserId(2), TwitterUserId(3)],
            mastodon: vec![handle("@friend@mastodon.social")],
        },
    );
    ds.weekly_activity.insert(
        "mastodon.social".into(),
        vec![ActivityRow {
            week: Week(-1),
            statuses: 100,
            logins: 50,
            registrations: 5,
        }],
    );
    ds.instance_info.insert(
        "fosstodon.org".into(),
        InstanceInfoObject {
            domain: "fosstodon.org".into(),
            user_count: 60_000,
            status_count: 1_000_000,
            topic: Some("tech".into()),
        },
    );
    ds.coverage = CoverageReport::default();
    ds.coverage
        .record_skip("expand.followees", "@x@down.example", "instance down");
    ds
}

fn checkpoint() -> MonitorCheckpoint {
    let record = |domain: &str, state: NodeState, checked: Option<u64>| NodeRecord {
        domain: domain.to_string(),
        state,
        depth: 1,
        discovered_secs: 0,
        last_checked_secs: checked,
        last_change_secs: 600,
        next_check_secs: 64_800,
        checks: 3,
        consecutive_failures: 2,
        deaths: 1,
        rebirths: 1,
    };
    MonitorCheckpoint {
        round: 50,
        clock_secs: 43_200,
        records: vec![
            record("a.example", NodeState::Alive, Some(43_200)),
            record("b.example", NodeState::Dead, Some(40_000)),
            record("c.example", NodeState::Pending, None),
        ],
    }
}

/// One file per test, so parallel tests never share a path.
fn scratch_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flock_json_fuzz_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("monitor.ckpt")
}

/// Load `bytes` as a monitor checkpoint file: a typed result, no panic.
fn load_checkpoint(path: &Path, bytes: &[u8]) -> Result<Option<MonitorCheckpoint>, FlockError> {
    std::fs::write(path, bytes).unwrap();
    durable::load_if_exists::<MonitorCheckpoint>(path)
}

/// Each hostile input through all three readers; none may panic.
fn read_everywhere(path: &Path, bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Dataset::from_json(&text);
    let _ = serde_json::parse_value(&text);
    let _ = load_checkpoint(path, bytes);
}

/// JSON-ish fragments: random sequences of them reach deeper into the
/// reader than uniformly random bytes do.
const SOUP: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    ":",
    ",",
    " ",
    "0",
    "7",
    "-",
    ".",
    "e",
    "+",
    "\\",
    "u",
    "d83d",
    "null",
    "true",
    "\"matched\"",
    "\"round\"",
    "\"records\"",
    "\"Alive\"",
];

/// Random JSON value trees: nesting, every escape, control characters,
/// non-ASCII, integer extremes and finite floats. Non-negative integers
/// are `U64` and floats have a fraction (or exceed every integer type),
/// the variants the reader picks for the text the writer emits.
struct Values {
    depth: u32,
}

const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '中',
    '🚀',
    '\u{ffff}',
    '\u{10ffff}',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(8))
        .map(|_| PALETTE[rng.below(PALETTE.len() as u64) as usize])
        .collect()
}

fn float(rng: &mut TestRng) -> f64 {
    let x = f64::from_bits(rng.next_u64());
    if x.is_finite() && (x.fract() != 0.0 || x.abs() > 2e19) {
        x
    } else {
        rng.below(1_000) as f64 + 0.25
    }
}

fn leaf(rng: &mut TestRng) -> Value {
    match rng.below(9) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::U64([0, 1, u64::MAX, rng.next_u64()][rng.below(4) as usize]),
        3 => Value::I64(
            [i64::MIN, -1, -(rng.below(i64::MAX as u64) as i64) - 1][rng.below(3) as usize],
        ),
        4 | 5 => Value::F64(float(rng)),
        _ => Value::Str(string(rng)),
    }
}

impl Strategy for Values {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let tree = |depth: u32, rng: &mut TestRng| Values { depth }.generate(rng);
        if self.depth == 0 || rng.below(3) == 0 {
            return leaf(rng);
        }
        let len = rng.below(4);
        if rng.below(2) == 0 {
            Value::Array((0..len).map(|_| tree(self.depth - 1, rng)).collect())
        } else {
            Value::Map(
                (0..len)
                    .map(|_| (string(rng), tree(self.depth - 1, rng)))
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        tokens in prop::collection::vec(0..SOUP.len(), 0..80),
    ) {
        let path = scratch_file("bytes");
        read_everywhere(&path, &bytes);
        let soup: String = tokens.iter().map(|&t| SOUP[t]).collect();
        read_everywhere(&path, soup.as_bytes());
    }

    #[test]
    fn truncated_or_patched_artifacts_are_errors_not_panics(
        cut in any::<u64>(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let path = scratch_file("mutations");
        let release = full_dataset().to_json().unwrap();
        durable::save(&path, &checkpoint()).unwrap();
        let saved = std::fs::read(&path).unwrap();
        for doc in [release.as_bytes(), saved.as_slice()] {
            // Any proper prefix of a document is unterminated.
            let prefix = &doc[..(cut % doc.len() as u64) as usize];
            let text = String::from_utf8_lossy(prefix);
            prop_assert!(Dataset::from_json(&text).is_err());
            prop_assert!(serde_json::parse_value(&text).is_err());
            prop_assert!(load_checkpoint(&path, prefix).is_err());

            let mut patched = doc.to_vec();
            patched[(at % doc.len() as u64) as usize] = byte;
            read_everywhere(&path, &patched);
            // What the reader accepts, the writer writes back readably.
            if let Ok(ds) = Dataset::from_json(&String::from_utf8_lossy(&patched)) {
                prop_assert!(Dataset::from_json(&ds.to_json().unwrap()).is_ok());
            }
        }
    }

    #[test]
    fn value_trees_round_trip_compact_and_pretty(v in Values { depth: 5 }) {
        let compact = serde_json::to_string(&v).unwrap();
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(&serde_json::parse_value(&compact).unwrap(), &v);
        prop_assert_eq!(&serde_json::parse_value(&pretty).unwrap(), &v);
        let reparsed = serde_json::parse_value(&pretty).unwrap();
        prop_assert_eq!(serde_json::to_string(&reparsed).unwrap(), compact);
    }
}

#[test]
fn the_fixtures_round_trip_exactly() {
    let release = full_dataset().to_json().unwrap();
    assert_eq!(
        Dataset::from_json(&release).unwrap().to_json().unwrap(),
        release
    );
    let path = scratch_file("fixtures");
    durable::save(&path, &checkpoint()).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    let back = load_checkpoint(&path, saved.as_bytes()).unwrap().unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), saved);
}

#[test]
fn nesting_deeper_than_128_levels_is_an_error_not_a_stack_overflow() {
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(serde_json::parse_value(&nested(128)).is_ok());
    for n in [129, 1_000, 1_000_000] {
        let err = serde_json::parse_value(&nested(n)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{n}: {err}");
    }
    let objects = format!("{}1{}", "{\"a\":".repeat(129), "}".repeat(129));
    assert!(serde_json::parse_value(&objects).is_err());
    assert!(Dataset::from_json(&objects).is_err());
    // Skipping an unknown field is depth-limited too.
    let unknown = format!("{{\"x\":{}}}", nested(200));
    assert!(Dataset::from_json(&unknown).is_err());
}
