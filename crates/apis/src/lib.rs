//! # flock-apis — the simulated Twitter v2 and Mastodon REST surface
//!
//! The paper's pipeline is built around four API families (§3): Twitter
//! full-archive search, Twitter follows, Mastodon account endpoints and
//! Mastodon's weekly-activity endpoint. This crate reimplements that
//! surface over a generated [`flock_fedisim::World`] so that the crawler
//! (`flock-crawler`) exercises *real* client logic:
//!
//! * a parsed-and-evaluated **search query language** ([`query`]) with the
//!   operators the paper's collection used, served from a compact inverted
//!   index ([`index`]);
//! * **token-bucket rate limits** on a virtual clock ([`ratelimit`]) —
//!   including the brutal 15-requests-per-15-minutes follows limit that
//!   forced the paper's 10% sample;
//! * **opaque cursor pagination** ([`pagination`]);
//! * crawl-time **fault injection**: down instances, suspended / deleted /
//!   protected accounts, moved accounts answering `moved_to`, and whatever
//!   errors, storms, outages and latency a `flock-chaos` plan adds
//!   ([`server`]).

pub mod index;
pub mod pagination;
pub mod query;
pub mod ratelimit;
pub mod server;
pub mod types;

pub mod prelude {
    pub use crate::index::Vocab;
    pub use crate::pagination::Page;
    pub use crate::query::{Doc, Query};
    pub use crate::ratelimit::{RatePolicy, TokenBucket};
    pub use crate::server::{ApiConfig, ApiServer};
    pub use crate::types::{
        ActivityRow, MastodonAccountObject, StatusObject, TweetObject, TwitterUserObject,
    };
}

pub use prelude::*;
