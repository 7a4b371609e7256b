//! `flock-chaos` — deterministic fault plans for the simulated API surface.
//!
//! The crawler in the paper ran against a live, hostile internet: dead
//! instances, rate-limit storms, truncated result pages. This crate turns
//! that adversity into *scheduled, composable scenarios* instead of a
//! single coin-flip error rate: a [`FaultPlan`] is a seed plus a list of
//! [`Fault`]s, resolved once against a world into a [`ResolvedPlan`] the
//! API server consults on every request.
//!
//! # Determinism contract
//!
//! The virtual clock is a shared atomic that concurrent workers advance,
//! so *when* a given request happens is a scheduling detail. A plan is
//! **dataset-deterministic** — same seed + same plan produce a
//! byte-identical crawl at any worker count — because every fault it can
//! express falls into one of three shapes:
//!
//! 1. **Waitable** faults carry a retry-after deadline the crawler waits
//!    out on the virtual clock (finite [`Fault::InstanceOutage`] windows,
//!    [`Fault::RetryAfterStorm`]). They cost virtual time, never data.
//! 2. **Permanent** faults hold for the whole crawl
//!    ([`Fault::InstanceOutage`] with [`Window::PERMANENT`]): every
//!    schedule observes them identically.
//! 3. **Per-key** faults are a pure function of the *logical request key*
//!    (the endpoint scope + cursor), not of time or thread interleaving:
//!    [`Fault::ErrorBurst`], [`Fault::TruncatedPages`], and the per-key
//!    draw inside [`Fault::RetryAfterStorm`]. A cursed key fails the same
//!    way in every schedule.
//!
//! [`Fault::LatencyBurst`] injects real wall-clock latency and affects
//! only throughput, never data. The canned [`Scenario`]s stay inside this
//! contract by construction.

use flock_core::rng::fnv1a;
use flock_core::{DetRng, FlockError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// The four endpoint families the API server rate-limits independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EndpointFamily {
    /// Twitter full-archive search (timelines share this family).
    Search,
    /// Twitter batch user lookup.
    Users,
    /// The Twitter follows endpoint.
    Follows,
    /// Every per-instance Mastodon endpoint.
    Mastodon,
}

impl EndpointFamily {
    /// All families, fixed order (the index into per-family tables).
    pub const ALL: [EndpointFamily; 4] = [
        EndpointFamily::Search,
        EndpointFamily::Users,
        EndpointFamily::Follows,
        EndpointFamily::Mastodon,
    ];

    /// Stable index of this family in [`EndpointFamily::ALL`].
    pub fn index(self) -> usize {
        match self {
            EndpointFamily::Search => 0,
            EndpointFamily::Users => 1,
            EndpointFamily::Follows => 2,
            EndpointFamily::Mastodon => 3,
        }
    }

    /// Lowercase label, matching the server's metric names.
    pub fn label(self) -> &'static str {
        match self {
            EndpointFamily::Search => "search",
            EndpointFamily::Users => "users",
            EndpointFamily::Follows => "follows",
            EndpointFamily::Mastodon => "mastodon",
        }
    }
}

/// A half-open virtual-time interval `[start_secs, end_secs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    pub start_secs: u64,
    pub end_secs: u64,
}

impl Window {
    /// The whole crawl: a permanent fault.
    pub const PERMANENT: Window = Window {
        start_secs: 0,
        end_secs: u64::MAX,
    };

    /// A finite window starting at virtual zero.
    pub fn first(secs: u64) -> Window {
        Window {
            start_secs: 0,
            end_secs: secs,
        }
    }

    /// Does the window cover virtual time `now`?
    pub fn contains(&self, now: u64) -> bool {
        now >= self.start_secs && now < self.end_secs
    }

    /// A permanent window never ends.
    pub fn is_permanent(&self) -> bool {
        self.end_secs == u64::MAX
    }
}

/// Which instances an outage fault applies to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstanceSelector {
    /// Exactly these domains.
    Domains(Vec<String>),
    /// A seeded sample of this fraction of the eligible candidates (the
    /// world decides eligibility — instances already down at crawl time
    /// and the flagship instances are excluded before resolution).
    RandomFraction(f64),
    /// Every eligible candidate.
    All,
}

/// One composable fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Selected instances answer unavailable during `window`. A finite
    /// window is *waitable* (the server reports the reopening deadline);
    /// [`Window::PERMANENT`] reproduces a dead instance.
    InstanceOutage {
        selector: InstanceSelector,
        window: Window,
    },
    /// A fraction `key_rate` of logical request keys fail transiently,
    /// `1..=max_per_key` times each (drawn per key). Keys failing more
    /// than the crawler's retry allowance become deterministic skips.
    ErrorBurst {
        family: EndpointFamily,
        key_rate: f64,
        max_per_key: u32,
    },
    /// A fraction `key_rate` of logical request keys answer `429` with a
    /// fixed `Retry-After`, `1..=max_per_key` times each. Waitable: costs
    /// virtual time, never data.
    RetryAfterStorm {
        family: EndpointFamily,
        key_rate: f64,
        retry_after_secs: u64,
        max_per_key: u32,
    },
    /// A fraction `scope_rate` of pagination scopes silently lose their
    /// `next` cursor after the first page (the real API's occasional
    /// truncated result set).
    TruncatedPages {
        family: EndpointFamily,
        scope_rate: f64,
    },
    /// Extra wall-clock latency per granted request while the virtual
    /// clock is inside `window`. Throughput-only; never observable in the
    /// dataset.
    LatencyBurst {
        family: EndpointFamily,
        window: Window,
        extra_micros: u64,
    },
}

/// A seedable, composable fault plan. `seed` drives both the resolution
/// of random selectors and every per-key draw, so plan + seed is a
/// complete description of the fault sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
    pub faults: Vec<Fault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::calm()
    }
}

impl FaultPlan {
    /// The empty plan: no faults at all.
    pub fn calm() -> FaultPlan {
        FaultPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// The same error burst on every endpoint family: a `key_rate` share
    /// of each family's logical request keys fails `1..=max_per_key`
    /// times. The plan-based form of a uniform transient error rate.
    pub fn error_bursts(seed: u64, key_rate: f64, max_per_key: u32) -> FaultPlan {
        let faults = EndpointFamily::ALL
            .into_iter()
            .map(|family| Fault::ErrorBurst {
                family,
                key_rate,
                max_per_key,
            })
            .collect();
        FaultPlan { seed, faults }
    }

    /// Range-check every parameter: probabilities must be finite and in
    /// `[0, 1]`, counts at least 1, windows well-ordered. Typed
    /// [`FlockError::InvalidConfig`] on the first violation.
    pub fn validate(&self) -> Result<()> {
        for (i, fault) in self.faults.iter().enumerate() {
            match fault {
                Fault::InstanceOutage { selector, window } => {
                    if let InstanceSelector::RandomFraction(f) = selector {
                        probability(&format!("fault {i}: outage fraction"), *f)?;
                    }
                    check_window(i, window)?;
                }
                Fault::ErrorBurst {
                    key_rate,
                    max_per_key,
                    ..
                } => {
                    probability(&format!("fault {i}: burst key_rate"), *key_rate)?;
                    at_least_one(&format!("fault {i}: burst max_per_key"), *max_per_key)?;
                }
                Fault::RetryAfterStorm {
                    key_rate,
                    retry_after_secs,
                    max_per_key,
                    ..
                } => {
                    probability(&format!("fault {i}: storm key_rate"), *key_rate)?;
                    at_least_one(&format!("fault {i}: storm max_per_key"), *max_per_key)?;
                    if *retry_after_secs == 0 {
                        return Err(FlockError::InvalidConfig(format!(
                            "fault {i}: storm retry_after_secs must be positive"
                        )));
                    }
                }
                Fault::TruncatedPages { scope_rate, .. } => {
                    probability(&format!("fault {i}: truncation scope_rate"), *scope_rate)?;
                }
                Fault::LatencyBurst { window, .. } => check_window(i, window)?,
            }
        }
        Ok(())
    }

    /// Resolve the plan against the world's outage-eligible instances
    /// (validates first). Resolution is pure: same plan + same candidate
    /// list yield a byte-identical [`ResolvedPlan::describe`].
    pub fn resolve(&self, outage_candidates: &[String]) -> Result<ResolvedPlan> {
        self.validate()?;
        let mut resolved = ResolvedPlan {
            seed: self.seed,
            outages: BTreeMap::new(),
            families: Default::default(),
        };
        for (i, fault) in self.faults.iter().enumerate() {
            // Each fault keys its draws off its own salt, so two otherwise
            // identical faults in one plan are independent.
            let salt = fnv1a(&format!("fault-{i}"));
            match fault {
                Fault::InstanceOutage { selector, window } => {
                    let domains: Vec<String> = match selector {
                        InstanceSelector::Domains(d) => d.clone(),
                        InstanceSelector::All => outage_candidates.to_vec(),
                        InstanceSelector::RandomFraction(f) => {
                            let k = (outage_candidates.len() as f64 * f).round() as usize;
                            let mut rng = DetRng::new(self.seed ^ salt);
                            let mut picked = rng.sample(outage_candidates.iter().cloned(), k);
                            picked.sort();
                            picked
                        }
                    };
                    for d in domains {
                        resolved.outages.entry(d).or_default().push(*window);
                    }
                }
                Fault::ErrorBurst {
                    family,
                    key_rate,
                    max_per_key,
                } => resolved.families[family.index()].bursts.push(KeyedSpec {
                    salt,
                    rate: *key_rate,
                    max_per_key: *max_per_key,
                    retry_after_secs: 0,
                }),
                Fault::RetryAfterStorm {
                    family,
                    key_rate,
                    retry_after_secs,
                    max_per_key,
                } => resolved.families[family.index()].storms.push(KeyedSpec {
                    salt,
                    rate: *key_rate,
                    max_per_key: *max_per_key,
                    retry_after_secs: *retry_after_secs,
                }),
                Fault::TruncatedPages { family, scope_rate } => resolved.families[family.index()]
                    .truncations
                    .push(KeyedSpec {
                        salt,
                        rate: *scope_rate,
                        max_per_key: 0,
                        retry_after_secs: 0,
                    }),
                Fault::LatencyBurst {
                    family,
                    window,
                    extra_micros,
                } => resolved.families[family.index()]
                    .latency
                    .push((*window, *extra_micros)),
            }
        }
        for windows in resolved.outages.values_mut() {
            windows.sort_by_key(|w| (w.start_secs, w.end_secs));
        }
        Ok(resolved)
    }
}

/// One per-key fault source after resolution (burst, storm, or
/// truncation — truncations ignore the count fields).
#[derive(Debug, Clone)]
struct KeyedSpec {
    salt: u64,
    rate: f64,
    max_per_key: u32,
    retry_after_secs: u64,
}

/// Per-family fault state after resolution.
#[derive(Debug, Clone, Default)]
struct FamilyFaults {
    bursts: Vec<KeyedSpec>,
    storms: Vec<KeyedSpec>,
    truncations: Vec<KeyedSpec>,
    latency: Vec<(Window, u64)>,
}

/// What a plan prescribes for one logical request key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyFaults {
    /// Transient errors to inject before the request may succeed.
    pub errors: u32,
    /// `429` responses to inject before the request may succeed.
    pub storms: u32,
    /// Retry-After carried by each injected `429` (max across storms).
    pub storm_retry_after_secs: u64,
    /// The key's 64-bit `fnv1a`, from which every fault above is drawn
    /// (0 when the family has no burst or storm and the key went unhashed).
    /// A key's spent budget can be kept under this hash in place of the
    /// key's text: two keys that share it share their faults too.
    pub key_hash: u64,
}

impl KeyFaults {
    /// Does the key carry any injected fault?
    pub fn any(&self) -> bool {
        self.errors > 0 || self.storms > 0
    }
}

/// Whether an instance answers at a given virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageStatus {
    /// Reachable.
    Up,
    /// In a finite outage window reopening at `end_secs` — waitable.
    Until { end_secs: u64 },
    /// Down for the whole crawl.
    Permanent,
}

/// A [`FaultPlan`] resolved against a world: random selectors are fixed
/// to concrete domains, per-key draws are pure functions of the seed.
#[derive(Debug, Clone)]
pub struct ResolvedPlan {
    seed: u64,
    /// Outage windows per domain, sorted.
    outages: BTreeMap<String, Vec<Window>>,
    families: [FamilyFaults; 4],
}

impl ResolvedPlan {
    /// The injected-fault budget for one logical request key — a pure
    /// function of `(seed, plan, family, key)`, independent of time and
    /// scheduling. A family with no burst or storm returns the empty
    /// budget without hashing the key.
    pub fn key_faults(&self, family: EndpointFamily, key: &str) -> KeyFaults {
        let fam = &self.families[family.index()];
        if fam.bursts.is_empty() && fam.storms.is_empty() {
            return KeyFaults::default();
        }
        let kh = fnv1a(key);
        let mut out = KeyFaults {
            key_hash: kh,
            ..KeyFaults::default()
        };
        for spec in &fam.bursts {
            let mut rng = DetRng::new(self.seed ^ spec.salt ^ kh);
            if rng.chance(spec.rate) {
                out.errors += 1 + rng.below(u64::from(spec.max_per_key)) as u32;
            }
        }
        for spec in &fam.storms {
            let mut rng = DetRng::new(self.seed ^ spec.salt ^ kh);
            if rng.chance(spec.rate) {
                out.storms += 1 + rng.below(u64::from(spec.max_per_key)) as u32;
                out.storm_retry_after_secs = out.storm_retry_after_secs.max(spec.retry_after_secs);
            }
        }
        out
    }

    /// Is this pagination scope cursed to lose its cursor after page one?
    /// Pure in `(seed, plan, family, scope)`.
    pub fn truncates(&self, family: EndpointFamily, scope: &str) -> bool {
        let fam = &self.families[family.index()];
        if fam.truncations.is_empty() {
            return false;
        }
        let kh = fnv1a(scope);
        fam.truncations
            .iter()
            .any(|spec| DetRng::new(self.seed ^ spec.salt ^ kh).chance(spec.rate))
    }

    /// Whether `domain` answers at virtual time `now`. Permanent outage
    /// windows dominate finite ones.
    pub fn outage(&self, domain: &str, now: u64) -> OutageStatus {
        let Some(windows) = self.outages.get(domain) else {
            return OutageStatus::Up;
        };
        let mut status = OutageStatus::Up;
        for w in windows {
            if !w.contains(now) {
                continue;
            }
            if w.is_permanent() {
                return OutageStatus::Permanent;
            }
            let end = match status {
                OutageStatus::Until { end_secs } => end_secs.max(w.end_secs),
                _ => w.end_secs,
            };
            status = OutageStatus::Until { end_secs: end };
        }
        status
    }

    /// Extra wall-clock latency (µs) for a granted request on `family`
    /// at virtual time `now`. Throughput-only.
    pub fn extra_latency_micros(&self, family: EndpointFamily, now: u64) -> u64 {
        self.families[family.index()]
            .latency
            .iter()
            .filter(|(w, _)| w.contains(now))
            .map(|(_, micros)| micros)
            .sum()
    }

    /// Canonical, byte-stable description of the resolved plan — the
    /// "fault sequence" the determinism contract promises: two
    /// resolutions of the same plan + seed + candidates render
    /// identically.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "plan seed={}", self.seed);
        for (domain, windows) in &self.outages {
            for w in windows {
                if w.is_permanent() {
                    let _ = writeln!(out, "outage domain={domain} permanent");
                } else {
                    let _ = writeln!(
                        out,
                        "outage domain={domain} window=[{},{})",
                        w.start_secs, w.end_secs
                    );
                }
            }
        }
        for family in EndpointFamily::ALL {
            let fam = &self.families[family.index()];
            let label = family.label();
            for s in &fam.bursts {
                let _ = writeln!(
                    out,
                    "burst family={label} rate={} max_per_key={}",
                    s.rate, s.max_per_key
                );
            }
            for s in &fam.storms {
                let _ = writeln!(
                    out,
                    "storm family={label} rate={} max_per_key={} retry_after={}s",
                    s.rate, s.max_per_key, s.retry_after_secs
                );
            }
            for s in &fam.truncations {
                let _ = writeln!(out, "truncate family={label} rate={}", s.rate);
            }
            for (w, micros) in &fam.latency {
                let _ = writeln!(
                    out,
                    "latency family={label} window=[{},{}) extra_micros={micros}",
                    w.start_secs, w.end_secs
                );
            }
        }
        out
    }
}

/// The canned scenarios `repro --chaos <scenario>` offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No faults: the baseline every other scenario is compared against.
    Calm,
    /// Aggressive Retry-After storms on every family. Waitable: the
    /// dataset is byte-identical to calm, the virtual crawl is far longer.
    RateLimitStorm,
    /// A large fraction of the (non-flagship) fediverse is simply gone
    /// for the whole crawl.
    InstanceMassacre,
    /// Flaky federation: finite outage waves, transient error bursts
    /// (some beyond the retry allowance), truncated pages, and extra
    /// per-request latency — all on the Mastodon side.
    FlakyFederation,
    /// Rolling mid-run outages for long-horizon monitoring: two finite
    /// outage waves that *start after* virtual zero (days 2–5 and 10–12),
    /// so a continuous monitor first sees the affected instances alive,
    /// watches them die, and must detect the rebirth when each window
    /// lifts — plus a mild Retry-After storm and error burst on the
    /// Mastodon side to keep the checks themselves flaky.
    RollingOutages,
}

impl Scenario {
    /// Every canned scenario.
    pub const ALL: [Scenario; 5] = [
        Scenario::Calm,
        Scenario::RateLimitStorm,
        Scenario::InstanceMassacre,
        Scenario::FlakyFederation,
        Scenario::RollingOutages,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Calm => "calm",
            Scenario::RateLimitStorm => "rate-limit-storm",
            Scenario::InstanceMassacre => "instance-massacre",
            Scenario::FlakyFederation => "flaky-federation",
            Scenario::RollingOutages => "rolling-outages",
        }
    }

    /// Build the scenario's plan under `seed`.
    pub fn plan(self, seed: u64) -> FaultPlan {
        let faults = match self {
            Scenario::Calm => Vec::new(),
            Scenario::RateLimitStorm => vec![
                Fault::RetryAfterStorm {
                    family: EndpointFamily::Search,
                    key_rate: 0.25,
                    retry_after_secs: 900,
                    max_per_key: 3,
                },
                Fault::RetryAfterStorm {
                    family: EndpointFamily::Follows,
                    key_rate: 0.30,
                    retry_after_secs: 900,
                    max_per_key: 2,
                },
                Fault::RetryAfterStorm {
                    family: EndpointFamily::Mastodon,
                    key_rate: 0.15,
                    retry_after_secs: 300,
                    max_per_key: 3,
                },
            ],
            Scenario::InstanceMassacre => vec![Fault::InstanceOutage {
                selector: InstanceSelector::RandomFraction(0.30),
                window: Window::PERMANENT,
            }],
            Scenario::FlakyFederation => vec![
                Fault::InstanceOutage {
                    selector: InstanceSelector::RandomFraction(0.20),
                    window: Window::first(6 * 3600),
                },
                Fault::ErrorBurst {
                    family: EndpointFamily::Mastodon,
                    key_rate: 0.08,
                    max_per_key: 8,
                },
                Fault::TruncatedPages {
                    family: EndpointFamily::Mastodon,
                    scope_rate: 0.05,
                },
                Fault::LatencyBurst {
                    family: EndpointFamily::Mastodon,
                    window: Window::first(3600),
                    extra_micros: 20,
                },
            ],
            Scenario::RollingOutages => vec![
                Fault::InstanceOutage {
                    selector: InstanceSelector::RandomFraction(0.25),
                    window: Window {
                        start_secs: 2 * 86_400,
                        end_secs: 5 * 86_400,
                    },
                },
                Fault::InstanceOutage {
                    selector: InstanceSelector::RandomFraction(0.15),
                    window: Window {
                        start_secs: 10 * 86_400,
                        end_secs: 12 * 86_400,
                    },
                },
                Fault::RetryAfterStorm {
                    family: EndpointFamily::Mastodon,
                    key_rate: 0.10,
                    retry_after_secs: 300,
                    max_per_key: 2,
                },
                Fault::ErrorBurst {
                    family: EndpointFamily::Mastodon,
                    key_rate: 0.05,
                    max_per_key: 2,
                },
            ],
        };
        FaultPlan { seed, faults }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Scenario {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        Scenario::ALL
            .into_iter()
            .find(|sc| sc.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown scenario {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

fn probability(what: &str, v: f64) -> Result<()> {
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(FlockError::InvalidConfig(format!(
            "{what} must be a finite probability in [0, 1], got {v}"
        )));
    }
    Ok(())
}

fn at_least_one(what: &str, v: u32) -> Result<()> {
    if v == 0 {
        return Err(FlockError::InvalidConfig(format!(
            "{what} must be at least 1"
        )));
    }
    Ok(())
}

fn check_window(i: usize, w: &Window) -> Result<()> {
    if w.start_secs >= w.end_secs {
        return Err(FlockError::InvalidConfig(format!(
            "fault {i}: window [{}, {}) is empty",
            w.start_secs, w.end_secs
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("inst{i}.example")).collect()
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        let bad_rates = [f64::NAN, -0.1, 1.1, f64::INFINITY];
        for r in bad_rates {
            let plan = FaultPlan {
                seed: 1,
                faults: vec![Fault::ErrorBurst {
                    family: EndpointFamily::Search,
                    key_rate: r,
                    max_per_key: 2,
                }],
            };
            assert!(
                matches!(plan.validate(), Err(FlockError::InvalidConfig(_))),
                "rate {r} accepted"
            );
        }
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::RetryAfterStorm {
                family: EndpointFamily::Follows,
                key_rate: 0.5,
                retry_after_secs: 0,
                max_per_key: 1,
            }],
        };
        assert!(plan.validate().is_err(), "zero retry-after accepted");
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::ErrorBurst {
                family: EndpointFamily::Users,
                key_rate: 0.5,
                max_per_key: 0,
            }],
        };
        assert!(plan.validate().is_err(), "zero max_per_key accepted");
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::InstanceOutage {
                selector: InstanceSelector::All,
                window: Window {
                    start_secs: 10,
                    end_secs: 10,
                },
            }],
        };
        assert!(plan.validate().is_err(), "empty window accepted");
    }

    #[test]
    fn every_canned_scenario_validates() {
        for sc in Scenario::ALL {
            sc.plan(42).validate().unwrap();
            sc.plan(42).resolve(&candidates(50)).unwrap();
        }
    }

    #[test]
    fn resolution_is_byte_stable() {
        let plan = Scenario::FlakyFederation.plan(7);
        let a = plan.resolve(&candidates(40)).unwrap().describe();
        let b = plan.resolve(&candidates(40)).unwrap().describe();
        assert_eq!(a, b);
        assert!(a.contains("outage domain="));
        assert!(a.contains("burst family=mastodon"));
        // A different seed resolves a different fault sequence.
        let c = Scenario::FlakyFederation
            .plan(8)
            .resolve(&candidates(40))
            .unwrap()
            .describe();
        assert_ne!(a, c);
    }

    #[test]
    fn key_faults_are_pure_and_rate_plausible() {
        let resolved = Scenario::FlakyFederation
            .plan(99)
            .resolve(&candidates(10))
            .unwrap();
        let mut cursed = 0;
        for i in 0..2000 {
            let key = format!("statuses:@user{i}@inst.example#");
            let a = resolved.key_faults(EndpointFamily::Mastodon, &key);
            let b = resolved.key_faults(EndpointFamily::Mastodon, &key);
            assert_eq!(a, b, "key_faults not pure for {key}");
            if a.any() {
                cursed += 1;
                assert!(a.errors >= 1 && a.errors <= 8);
            }
            // Other families are untouched by this scenario's bursts.
            assert!(!resolved.key_faults(EndpointFamily::Search, &key).any());
        }
        // key_rate 0.08 over 2000 keys: comfortably wide acceptance band.
        assert!((60..=260).contains(&cursed), "cursed {cursed} of 2000");
    }

    #[test]
    fn truncation_is_per_scope_and_rate_plausible() {
        let resolved = Scenario::FlakyFederation
            .plan(5)
            .resolve(&candidates(10))
            .unwrap();
        let mut cursed = 0;
        for i in 0..2000 {
            let scope = format!("statuses:@user{i}@inst.example");
            if resolved.truncates(EndpointFamily::Mastodon, &scope) {
                cursed += 1;
            }
        }
        assert!((30..=190).contains(&cursed), "cursed {cursed} of 2000");
        assert!(!resolved.truncates(EndpointFamily::Search, "search:mastodon:25:51"));
    }

    #[test]
    fn outage_status_tracks_windows() {
        let plan = FaultPlan {
            seed: 3,
            faults: vec![
                Fault::InstanceOutage {
                    selector: InstanceSelector::Domains(vec!["a.example".into()]),
                    window: Window {
                        start_secs: 100,
                        end_secs: 200,
                    },
                },
                Fault::InstanceOutage {
                    selector: InstanceSelector::Domains(vec!["b.example".into()]),
                    window: Window::PERMANENT,
                },
            ],
        };
        let r = plan.resolve(&[]).unwrap();
        assert_eq!(r.outage("a.example", 50), OutageStatus::Up);
        assert_eq!(
            r.outage("a.example", 150),
            OutageStatus::Until { end_secs: 200 }
        );
        assert_eq!(r.outage("a.example", 200), OutageStatus::Up);
        assert_eq!(r.outage("b.example", 0), OutageStatus::Permanent);
        assert_eq!(r.outage("b.example", u64::MAX - 1), OutageStatus::Permanent);
        assert_eq!(r.outage("c.example", 0), OutageStatus::Up);
    }

    #[test]
    fn massacre_samples_the_requested_fraction() {
        let r = Scenario::InstanceMassacre
            .plan(11)
            .resolve(&candidates(100))
            .unwrap();
        let down = (0..100)
            .filter(|i| r.outage(&format!("inst{i}.example"), 0) == OutageStatus::Permanent)
            .count();
        assert_eq!(down, 30, "RandomFraction(0.30) of 100 candidates");
        // Non-candidates are never selected.
        assert_eq!(r.outage("mastodon.social", 0), OutageStatus::Up);
    }

    #[test]
    fn latency_only_inside_window() {
        let r = Scenario::FlakyFederation
            .plan(1)
            .resolve(&candidates(5))
            .unwrap();
        assert_eq!(r.extra_latency_micros(EndpointFamily::Mastodon, 10), 20);
        assert_eq!(r.extra_latency_micros(EndpointFamily::Mastodon, 3600), 0);
        assert_eq!(r.extra_latency_micros(EndpointFamily::Search, 10), 0);
    }

    #[test]
    fn rolling_outages_start_late_and_lift_mid_run() {
        let r = Scenario::RollingOutages
            .plan(13)
            .resolve(&candidates(40))
            .unwrap();
        // Find an instance hit by the first wave (days 2–5): it must be up
        // before the wave, waitable inside it, and up again after — the
        // alive → dead → alive sequence the monitor's rebirth detection
        // exercises.
        let wave1 = (0..40)
            .map(|i| format!("inst{i}.example"))
            .find(|d| r.outage(d, 3 * 86_400) != OutageStatus::Up);
        let domain = wave1.expect("0.25 of 40 candidates must put someone in wave one");
        assert_eq!(r.outage(&domain, 86_400), OutageStatus::Up);
        assert_eq!(
            r.outage(&domain, 3 * 86_400),
            OutageStatus::Until {
                end_secs: 5 * 86_400
            }
        );
        assert_eq!(r.outage(&domain, 6 * 86_400), OutageStatus::Up);
    }

    #[test]
    fn scenario_names_round_trip() {
        for sc in Scenario::ALL {
            assert_eq!(sc.name().parse::<Scenario>().unwrap(), sc);
            assert_eq!(sc.to_string(), sc.name());
        }
        assert!("chaos-monkey".parse::<Scenario>().is_err());
    }

    #[test]
    fn plan_serde_round_trip() {
        let plan = Scenario::FlakyFederation.plan(77);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
