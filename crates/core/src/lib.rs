//! # flock-core — shared domain model for the `flock` reproduction
//!
//! This crate holds the vocabulary shared by every other crate in the
//! workspace: typed identifiers, the simulation calendar (anchored on the
//! paper's study window, October 1 – November 30, 2022), the Mastodon handle
//! grammar and extractor from §3.1 of the paper, a deterministic random
//! number generator used to make the whole reproduction bit-reproducible,
//! the common error type, and the [`worker_pool`] every parallel loop runs
//! on.
//!
//! Nothing in this crate knows about the simulator, the APIs, or the
//! analysis; only `flock-obs` (whose worker-slot trace context the pool
//! sets) sits below it.
//!
//! ## Quick example
//!
//! ```
//! use flock_core::handle::{MastodonHandle, extract_handles};
//! use flock_core::time::Day;
//!
//! let h: MastodonHandle = "@alice@mastodon.social".parse().unwrap();
//! assert_eq!(h.username(), "alice");
//! assert_eq!(h.instance(), "mastodon.social");
//!
//! let found = extract_handles("migrating! find me at https://hachyderm.io/@bob");
//! assert_eq!(found[0].to_string(), "@bob@hachyderm.io");
//!
//! // Musk's takeover closed on day 26 of the study calendar (Oct 27, 2022).
//! assert_eq!(Day::TAKEOVER.to_date().to_string(), "2022-10-27");
//! ```

pub mod collections;
pub mod durable;
pub mod error;
pub mod handle;
pub mod ids;
pub mod platform;
pub mod rng;
pub mod text;
pub mod time;
pub mod worker_pool;

pub use collections::SortedVecMap;
pub use error::{FlockError, Result};
pub use handle::MastodonHandle;
pub use ids::{InstanceId, MastodonAccountId, StatusId, TweetId, TwitterUserId};
pub use platform::Platform;
pub use rng::DetRng;
pub use time::{Date, Day, Week};
