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
use flock_core::durable::JsonCheckpoint;
use serde::{Deserialize, Serialize};

/// A crawl checkpoint: which phases completed, where the virtual clock
/// stood, and the dataset accumulated so far. Saved and loaded through
/// [`flock_core::durable::save`] / [`flock_core::durable::load_if_exists`].
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

impl JsonCheckpoint for Checkpoint {
    const NAME: &'static str = "checkpoint";
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_core::{durable, FlockError};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flock_crawl_ckpt_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("crawl.ckpt")
    }

    #[test]
    fn save_load_round_trip() {
        let path = scratch("round_trip");
        let cp = Checkpoint {
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
        };
        durable::save(&path, &cp).unwrap();
        let back: Checkpoint = durable::load_if_exists(&path).unwrap().unwrap();
        assert_eq!(back.completed, cp.completed);
        assert_eq!(back.clock_secs, cp.clock_secs);
        assert_eq!(back.dataset.searched_users, 7);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let path = scratch("corrupt");
        // The last is not UTF-8: corrupt, not unreadable.
        let bad_bytes: [&[u8]; 5] = [b"", b"{", b"null", b"{\"completed\": 3}", b"\xff{"];
        for bad in bad_bytes {
            std::fs::write(&path, bad).unwrap();
            match durable::load_if_exists::<Checkpoint>(&path) {
                Err(e @ FlockError::MalformedRecord(_)) => {
                    assert!(e.to_string().contains("deserialize checkpoint"), "{e}")
                }
                Err(e) => panic!("{bad:?}: expected MalformedRecord, got {e:?}"),
                Ok(_) => panic!("{bad:?} parsed"),
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
