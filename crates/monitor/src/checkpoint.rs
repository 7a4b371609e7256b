//! Monitor checkpointing — kill the monitor mid-horizon, restart the
//! process, and converge to the same roster.
//!
//! The unit of progress is a completed **round** (see [`crate::run`]):
//! after a round every record's fields derive from scheduled instants
//! only, so persisting `(round, clock, roster)` is enough for a resumed
//! run — against a **fresh** API server advanced to the checkpointed
//! clock — to continue with byte-identical Data-tier output. Saves go
//! through [`flock_core::durable::write_atomic`], the crawl checkpoint's
//! write discipline too, so a crash mid-save can never leave a torn or
//! zero-length checkpoint.

use crate::NodeRecord;
use flock_core::durable::write_atomic;
use flock_core::{FlockError, Result};
use serde::{Deserialize, Serialize};
use std::path::Path;

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

impl MonitorCheckpoint {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| FlockError::InvalidConfig(format!("serialize monitor checkpoint: {e}")))
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<MonitorCheckpoint> {
        serde_json::from_str(json)
            .map_err(|e| FlockError::InvalidConfig(format!("deserialize monitor checkpoint: {e}")))
    }

    /// Write atomically and durably ([`flock_core::durable::write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, self.to_json()?.as_bytes())
    }

    /// Read a checkpoint back.
    pub fn load(path: &Path) -> Result<MonitorCheckpoint> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| FlockError::InvalidConfig(format!("read {}: {e}", path.display())))?;
        MonitorCheckpoint::from_json(&json)
    }

    /// [`MonitorCheckpoint::load`], returning `None` when no checkpoint
    /// exists yet (the first run of a resumable monitor).
    pub fn load_if_exists(path: &Path) -> Result<Option<MonitorCheckpoint>> {
        if path.exists() {
            Ok(Some(MonitorCheckpoint::load(path)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeState;

    fn sample() -> MonitorCheckpoint {
        MonitorCheckpoint {
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
        }
    }

    #[test]
    fn json_round_trip() {
        let cp = sample();
        let back = MonitorCheckpoint::from_json(&cp.to_json().unwrap()).unwrap();
        assert_eq!(back.round, 7);
        assert_eq!(back.clock_secs, 43_200);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].state, NodeState::Alive);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        for bad in ["", "{", "null", "{\"round\": \"x\"}"] {
            assert!(MonitorCheckpoint::from_json(bad).is_err(), "{bad:?} parsed");
        }
    }
}
