//! Crawl checkpointing — kill a crawl mid-scenario, restart the process,
//! and converge to the same dataset.
//!
//! The unit of progress is a completed pipeline *phase* (see
//! [`crate::pipeline::PHASES`]): after each phase the crawler persists the
//! dataset-so-far plus the virtual clock, and a resumed crawl replays only
//! the phases that never completed. A phase that was interrupted midway is
//! re-run from scratch against a **fresh** API server — per-key fault
//! state lives in the server, so restarting the phase re-derives the same
//! per-key outcomes and the resumed crawl's dataset is byte-identical to
//! an uninterrupted run (crawl *accounting* in [`CrawlStats`] legitimately
//! differs: requests spent inside the killed phase are not replayed).
//!
//! [`CrawlStats`]: crate::dataset::CrawlStats

use crate::dataset::Dataset;
use flock_core::durable::write_atomic;
use flock_core::{FlockError, Result};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A crawl checkpoint: which phases completed, where the virtual clock
/// stood, and the dataset accumulated so far.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Names of completed phases, in execution order.
    pub completed: Vec<String>,
    /// The API server's virtual clock when the checkpoint was taken; a
    /// resumed crawl advances its (fresh) server to this point so waits
    /// already paid are not paid again.
    pub clock_secs: u64,
    /// The dataset as of the last completed phase.
    pub dataset: Dataset,
}

impl Checkpoint {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| FlockError::InvalidConfig(format!("serialize checkpoint: {e}")))
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Checkpoint> {
        serde_json::from_str(json)
            .map_err(|e| FlockError::InvalidConfig(format!("deserialize checkpoint: {e}")))
    }

    /// Write atomically and durably ([`flock_core::durable::write_atomic`]),
    /// so a crash mid-save never leaves a torn or zero-length checkpoint.
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, self.to_json()?.as_bytes())
    }

    /// Read a checkpoint back.
    pub fn load(path: &Path) -> Result<Checkpoint> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| FlockError::InvalidConfig(format!("read {}: {e}", path.display())))?;
        Checkpoint::from_json(&json)
    }

    /// [`Checkpoint::load`], returning `None` when no checkpoint exists
    /// yet (the first run of a resumable crawl).
    pub fn load_if_exists(path: &Path) -> Result<Option<Checkpoint>> {
        if path.exists() {
            Ok(Some(Checkpoint::load(path)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            completed: vec![
                "discover.collect_tweets".to_string(),
                "discover.match_users".to_string(),
            ],
            clock_secs: 12_345,
            dataset: Dataset {
                instance_list: vec!["mastodon.social".into()],
                searched_users: 7,
                ..Dataset::default()
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let cp = sample();
        let back = Checkpoint::from_json(&cp.to_json().unwrap()).unwrap();
        assert_eq!(back.completed, cp.completed);
        assert_eq!(back.clock_secs, cp.clock_secs);
        assert_eq!(back.dataset.searched_users, 7);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        for bad in ["", "{", "null", "{\"completed\": 3}"] {
            assert!(Checkpoint::from_json(bad).is_err(), "{bad:?} parsed");
        }
    }
}
