//! # flock-fedisim — the two-platform world simulator
//!
//! The paper measures real Twitter and the real fediverse in October–
//! November 2022; neither is reachable today (dead APIs, unpublished
//! data), so this crate provides the **closest synthetic equivalent that
//! exercises the same code paths**: a deterministic, generative model of
//!
//! * the Twitter-side population that tweeted about the migration
//!   ([`users`]), with the searchable corpus they produced ([`content`]);
//! * the Mastodon instance landscape ([`instances`]) and its follow graph,
//!   built over the `flock-activitypub` federation substrate
//!   ([`World::fediverse`]);
//! * the migration itself ([`migration`]): event-driven timing (takeover,
//!   layoffs, resignations), popularity/topic/herding instance choice;
//! * instance switching via real ActivityPub `Move`s ([`switching`]);
//! * the per-instance weekly activity ledger ([`activity`], Fig. 3) and
//!   Google-Trends-style interest series ([`interest`], Fig. 1).
//!
//! [`World::generate`] assembles everything. The crate exposes *ground
//! truth*; the simulated REST APIs (`flock-apis`) decide what a crawler is
//! allowed to see, and the crawler (`flock-crawler`) has to rediscover the
//! migration exactly the way §3 of the paper did.
//!
//! ```no_run
//! use flock_fedisim::prelude::*;
//!
//! let world = World::generate(&WorldConfig::small().with_seed(1)).unwrap();
//! println!("{} ground-truth migrants on {} instances",
//!          world.n_migrants(), world.instances.len());
//! ```

pub mod activity;
pub mod config;
pub mod content;
pub mod graph;
pub mod instances;
pub mod interest;
pub mod migration;
pub mod switching;
pub mod users;
pub mod world;

pub mod prelude {
    pub use crate::activity::{ActivityLedger, WeeklyActivity};
    pub use crate::config::WorldConfig;
    pub use crate::content::{MirrorBehavior, MIGRATION_PHRASES, SOURCES};
    pub use crate::instances::Instance;
    pub use crate::interest::{InterestReport, InterestSeries};
    pub use crate::migration::{emit_migration_telemetry, MastodonAccount, SwitchRecord};
    pub use crate::users::{AccountFate, TwitterUser};
    pub use crate::world::World;
}

pub use prelude::*;
