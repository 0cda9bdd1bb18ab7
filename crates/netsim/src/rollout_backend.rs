//! Bridge from the PBS rollout orchestrator to the netsim install engine.
//!
//! The orchestrator (`rocks_pbs::rollout`) asks its [`InstallBackend`]
//! for the cost of each install leg *at the current concurrency*. This
//! backend answers by actually running the discrete-event reinstall
//! simulation at that concurrency — so the rollout's install legs carry
//! the paper's real contention curve (Table I: flat to the ~7-node knee,
//! degrading beyond it), not a guessed constant. Calibration runs are
//! cached per concurrency level; everything is seeded, so a rollout
//! driven by this backend is exactly reproducible.
//!
//! For large clusters the calibration can route through the federated
//! tiered engine (cabinet proxies + campus mirrors) instead of the flat
//! one, matching how a production-scale rollout would actually fetch
//! bytes.

use crate::cluster::ClusterSim;
use crate::config::{SimConfig, TierConfig};
use crate::shard::FederatedSim;
use rocks_pbs::{InstallBackend, InstallLeg};
use std::collections::BTreeMap;

/// Which engine calibrates install legs.
#[derive(Debug, Clone)]
enum Engine {
    /// The flat single-simulator engine (paper testbed scale).
    Flat,
    /// The federated tiered engine (cabinet proxies, campus mirrors).
    Tiered(TierConfig),
}

/// An [`InstallBackend`] whose leg costs come from the netsim reinstall
/// engine, calibrated (and cached) per concurrency level.
#[derive(Debug)]
pub struct NetsimInstallBackend {
    cfg: SimConfig,
    engine: Engine,
    /// concurrency → (leg seconds, per-node bytes).
    cache: BTreeMap<usize, (f64, u64)>,
}

impl NetsimInstallBackend {
    /// Calibrate legs with the flat cluster simulator.
    pub fn new(cfg: SimConfig) -> NetsimInstallBackend {
        NetsimInstallBackend { cfg, engine: Engine::Flat, cache: BTreeMap::new() }
    }

    /// Calibrate legs with the federated tiered engine — the path a
    /// production-scale rollout takes through cabinet proxies and
    /// campus mirrors.
    pub fn tiered(cfg: SimConfig, tiers: TierConfig) -> NetsimInstallBackend {
        NetsimInstallBackend { cfg, engine: Engine::Tiered(tiers), cache: BTreeMap::new() }
    }

    /// Leg cost at `concurrent` simultaneous installs: run the reinstall
    /// simulation once at that width, remember the answer. The leg's
    /// duration is the *last* node's finish time (the conservative
    /// choice: under contention every concurrent leg suffers the full
    /// storm), and bytes are the even per-node share of what the install
    /// servers shipped.
    pub fn calibrated(&mut self, concurrent: usize) -> (f64, u64) {
        let concurrent = concurrent.max(1);
        if let Some(&hit) = self.cache.get(&concurrent) {
            return hit;
        }
        let result = match &self.engine {
            Engine::Flat => ClusterSim::new(self.cfg.clone(), concurrent).run_reinstall(),
            Engine::Tiered(tiers) => {
                FederatedSim::new_tiered(self.cfg.clone(), *tiers, concurrent).run_reinstall()
            }
        };
        let total_bytes: f64 = result.server_bytes.iter().sum();
        let leg = (result.total_seconds, (total_bytes / concurrent as f64) as u64);
        self.cache.insert(concurrent, leg);
        leg
    }
}

impl InstallBackend for NetsimInstallBackend {
    fn begin_install(&mut self, _node: &str, concurrent: usize) -> InstallLeg {
        let (seconds, bytes) = self.calibrated(concurrent);
        InstallLeg { seconds, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_cached_and_deterministic() {
        let cfg = SimConfig::paper_testbed(1).bundled(12);
        let mut a = NetsimInstallBackend::new(cfg.clone());
        let mut b = NetsimInstallBackend::new(cfg);
        let (s1, by1) = a.calibrated(4);
        let (s2, by2) = a.calibrated(4); // cache hit
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(by1, by2);
        let (s3, by3) = b.calibrated(4); // fresh run, same seed
        assert_eq!(s1.to_bits(), s3.to_bits());
        assert_eq!(by1, by3);
    }

    #[test]
    fn contention_curve_shows_the_knee() {
        // Table I's shape: per-leg time is roughly flat through the
        // knee, then clearly worse at mass-reinstall widths.
        let cfg = SimConfig::paper_testbed(1).bundled(12);
        let mut backend = NetsimInstallBackend::new(cfg);
        let t1 = backend.calibrated(1).0;
        let t7 = backend.calibrated(7).0;
        let t32 = backend.calibrated(32).0;
        assert!(t7 < t1 * 1.25, "knee region degraded: 1→{t1:.0}s, 7→{t7:.0}s");
        assert!(t32 > t7, "mass width should be slower: 7→{t7:.0}s, 32→{t32:.0}s");
    }

    #[test]
    fn tiered_calibration_works() {
        let cfg = SimConfig::paper_testbed(1).bundled(12);
        let mut backend = NetsimInstallBackend::tiered(cfg, TierConfig::standard());
        let (secs, bytes) = backend.calibrated(8);
        assert!(secs > 0.0);
        assert!(bytes > 0);
    }
}
