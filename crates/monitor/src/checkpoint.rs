//! Monitor checkpointing — kill the monitor mid-horizon, restart the
//! process, and converge to the same roster.
//!
//! The unit of progress is a completed **round** (see [`crate::run`]):
//! after a round every record's fields derive from scheduled instants
//! only, so persisting `(round, clock, roster)` is enough for a resumed
//! run — against a **fresh** API server advanced to the checkpointed
//! clock — to continue with byte-identical Data-tier output. Saves go
//! through [`flock_core::durable::save`], the crawl checkpoint's
//! format and write discipline too, so a crash mid-save can never leave a
//! torn or zero-length checkpoint.

use crate::NodeRecord;
use flock_core::durable::JsonCheckpoint;
use serde::{Deserialize, Serialize};

/// A monitor checkpoint: the round counter, the virtual clock at the
/// round boundary, and the roster (domain-sorted).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorCheckpoint {
    /// Rounds completed when the checkpoint was taken.
    pub round: u64,
    /// The API server's virtual clock at the round boundary; a resumed
    /// run advances its fresh server here so waits already paid are not
    /// paid again.
    pub clock_secs: u64,
    /// Every known [`NodeRecord`], in domain order.
    pub records: Vec<NodeRecord>,
}

impl JsonCheckpoint for MonitorCheckpoint {
    const NAME: &'static str = "monitor checkpoint";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeState;
    use flock_core::{durable, FlockError};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flock_monitor_ckpt_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("monitor.ckpt")
    }

    #[test]
    fn save_load_round_trip() {
        let path = scratch("round_trip");
        let cp = MonitorCheckpoint {
            round: 7,
            clock_secs: 43_200,
            records: vec![NodeRecord {
                domain: "mastodon.example".to_string(),
                state: NodeState::Alive,
                depth: 0,
                discovered_secs: 0,
                last_checked_secs: Some(43_200),
                last_change_secs: 0,
                next_check_secs: 64_800,
                checks: 3,
                consecutive_failures: 0,
                deaths: 0,
                rebirths: 0,
            }],
        };
        durable::save(&path, &cp).unwrap();
        let back: MonitorCheckpoint = durable::load_if_exists(&path).unwrap().unwrap();
        assert_eq!(back.round, 7);
        assert_eq!(back.clock_secs, 43_200);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].state, NodeState::Alive);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let path = scratch("corrupt");
        for bad in ["", "{", "null", "{\"round\": \"x\"}"] {
            std::fs::write(&path, bad).unwrap();
            match durable::load_if_exists::<MonitorCheckpoint>(&path) {
                Err(e @ FlockError::MalformedRecord(_)) => assert!(
                    e.to_string().contains("deserialize monitor checkpoint"),
                    "{e}"
                ),
                Err(e) => panic!("{bad:?}: expected MalformedRecord, got {e:?}"),
                Ok(_) => panic!("{bad:?} parsed"),
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
