//! Output digests: a 64-bit FNV-1a hash over a run's Data-tier outputs,
//! and the table of digests recorded for fixed seeds.
//!
//! Within a run every job must reproduce the digest of the first job on
//! the same world. When `digests.tsv` holds a digest for the job's
//! workload, shape and world seed, the job must match that one instead, so
//! a change that alters a Data-tier byte fails the benchmark on the
//! recorded seeds.

const RECORDED: &str = include_str!("../digests.tsv");

/// Incremental FNV-1a over labelled parts.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in one named output. The label and the length are hashed too,
    /// so moving bytes from one part to the next changes the digest.
    pub fn part(&mut self, label: &str, bytes: &[u8]) {
        self.bytes(label.as_bytes());
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest recorded for `(workload, shape, world_seed)`, if any.
pub fn recorded(workload: &str, shape: &str, world_seed: u64) -> Option<String> {
    RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            match cols.as_slice() {
                [w, s, n, d] if *w == workload && *s == shape && n.parse() == Ok(world_seed) => {
                    Some(d.to_string())
                }
                _ => None,
            }
        })
}
