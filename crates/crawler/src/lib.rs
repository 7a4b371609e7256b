//! # flock-crawler — the paper's data-collection pipeline (§3)
//!
//! This crate is the measurement instrument under reproduction: it talks
//! only to the simulated API surface (`flock-apis`) and rediscovers the
//! migration the way the paper did — instance list, tweet search, the
//! hierarchical bio-then-tweet handle matcher with its username-equality
//! guard, both timeline crawls with their coverage taxonomies, the 10%
//! median-stratified followee sample, and the weekly-activity cross-check.
//!
//! The output is a [`dataset::Dataset`]: the observed (not ground-truth)
//! view that `flock-analysis` computes every figure from.
//!
//! ```no_run
//! use flock_crawler::prelude::*;
//! use flock_apis::ApiServer;
//! use flock_fedisim::{World, WorldConfig};
//! use std::sync::Arc;
//!
//! let world = Arc::new(World::generate(&WorldConfig::small()).unwrap());
//! let api = ApiServer::with_defaults(world).unwrap();
//! let dataset = crawl(&api).unwrap();
//! println!("identified {} migrants", dataset.matched.len());
//! ```

pub mod checkpoint;
pub mod dataset;
pub mod persist;
pub mod pipeline;

pub mod prelude {
    pub use crate::checkpoint::Checkpoint;
    pub use crate::dataset::{
        CollectedTweet, CoverageReport, CrawlStats, Dataset, FolloweeRecord, MastodonCrawlOutcome,
        MatchSource, MatchedUser, QueryKind, SkippedItem, TimelineStatus, TimelineTweet,
        TwitterCrawlOutcome,
    };
    pub use crate::pipeline::{crawl, migration_queries, Crawler, CrawlerConfig, PHASES};
}

pub use prelude::*;
