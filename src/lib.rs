//! # flock — reproduction of *"Flocking to Mastodon: Tracking the Great Twitter Migration"* (IMC 2023)
//!
//! This facade crate re-exports the whole workspace so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`core`] — ids, calendar, the Mastodon-handle grammar, deterministic RNG;
//! * [`textsim`] — synthetic text, embeddings, toxicity scoring;
//! * [`activitypub`] — the federation substrate (actors, activities, delivery);
//! * [`fedisim`] — the two-platform world simulator and migration models;
//! * [`apis`] — the simulated Twitter v2 / Mastodon REST endpoints;
//! * [`chaos`] — deterministic fault plans & canned chaos scenarios;
//! * [`monitor`] — the continuous instance-monitoring workload (orchestrator + checks);
//! * [`crawler`] — the paper's data-collection pipeline (§3);
//! * [`analysis`] — RQ1 / RQ2 / RQ3 analyses (§4–6);
//! * [`repro`] — the per-figure regeneration harness;
//! * [`obs`] — the deterministic metrics registry & span-event tracing.
//!
//! ## Quickstart
//!
//! ```no_run
//! use flock::prelude::*;
//!
//! // Build a deterministic small world, run the full measurement pipeline,
//! // and print the headline statistics next to the paper's.
//! let config = WorldConfig::small().with_seed(42);
//! let study = MigrationStudy::run(&config).expect("pipeline");
//! println!("{}", study.headline_report());
//! ```

pub use flock_activitypub as activitypub;
pub use flock_analysis as analysis;
pub use flock_apis as apis;
pub use flock_chaos as chaos;
pub use flock_core as core;
pub use flock_crawler as crawler;
pub use flock_fedisim as fedisim;
pub use flock_monitor as monitor;
pub use flock_obs as obs;
pub use flock_repro as repro;
pub use flock_textsim as textsim;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use flock_analysis::prelude::*;
    pub use flock_core::{Day, DetRng, FlockError, MastodonHandle};
    pub use flock_crawler::prelude::*;
    pub use flock_fedisim::prelude::*;
    pub use flock_repro::prelude::*;
}
