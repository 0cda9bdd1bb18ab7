//! Synthetic vendor update streams.
//!
//! §6.2.1 measures the maintenance burden Rocks automates away: "in less
//! than a year, Red Hat 6.2 for Intel had 124 updated packages. There were
//! also 74 security vulnerabilities reported ... On average, this amounts
//! to one update every three days." [`UpdateStream`] generates a dated
//! sequence with exactly that shape so the update-tracking experiment
//! (`reproduce updates`) can measure staleness with and without automatic
//! mirroring.

use crate::evr::Evr;
use crate::package::Package;
use crate::repo::Repository;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Why an update was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Fixes a published vulnerability; staleness here is a security
    /// exposure (the paper's motivating case).
    Security,
    /// Ordinary bug fix or enhancement.
    Bugfix,
}

/// One vendor update: a new build of an existing package, issued on a day.
#[derive(Debug, Clone)]
pub struct Update {
    /// Day offset from the start of the observation window.
    pub day: u32,
    /// The updated package (same name/arch, bumped release).
    pub package: Package,
    /// Security or bugfix.
    pub kind: UpdateKind,
}

/// A reproducible, dated stream of updates against a base repository.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    updates: Vec<Update>,
}

/// Parameters matching the paper's Red Hat 6.2 measurement.
pub(crate) const PAPER_WINDOW_DAYS: u32 = 365;
/// "124 updated packages" in under a year.
pub(crate) const PAPER_UPDATE_COUNT: usize = 124;
/// "74 security vulnerabilities ... for which several of the updated
/// packages were targeted" — we mark a matching fraction of updates as
/// security-driven.
pub(crate) const PAPER_SECURITY_COUNT: usize = 74;

impl UpdateStream {
    /// Generate `count` updates over `window_days` against packages of
    /// `base`, with `security_count` of them flagged as security fixes.
    /// Deterministic for a given seed. Updates are sorted by day, and a
    /// package may be updated more than once (later updates bump the
    /// release further), exactly as vendor streams behave.
    pub fn generate(
        base: &Repository,
        window_days: u32,
        count: usize,
        security_count: usize,
        seed: u64,
    ) -> UpdateStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let candidates: Vec<&Package> = base.iter().collect();
        assert!(!candidates.is_empty(), "cannot generate updates for an empty repository");

        // Pick issue days: roughly uniform over the window ("one every
        // three days" emerges from count / window).
        let mut days: Vec<u32> = (0..count).map(|_| rng.gen_range(0..window_days)).collect();
        days.sort_unstable();

        // Assign which updates are security fixes.
        let mut is_security = vec![false; count];
        for slot in is_security.iter_mut().take(security_count.min(count)) {
            *slot = true;
        }
        is_security.shuffle(&mut rng);

        // Track per-package release bumps so repeat updates keep increasing.
        let mut bumps: std::collections::HashMap<(String, crate::package::Arch), u32> =
            std::collections::HashMap::new();

        let updates = days
            .into_iter()
            .zip(is_security)
            .map(|(day, security)| {
                let target = candidates[rng.gen_range(0..candidates.len())];
                let bump = bumps.entry(target.key()).or_insert(0);
                *bump += 1;
                let mut pkg = target.clone();
                pkg.evr = bump_release(&pkg.evr, *bump);
                Update {
                    day,
                    package: pkg,
                    kind: if security { UpdateKind::Security } else { UpdateKind::Bugfix },
                }
            })
            .collect();
        UpdateStream { updates }
    }

    /// Generate the exact stream the paper measured for Red Hat 6.2.
    pub fn paper_stream(base: &Repository, seed: u64) -> UpdateStream {
        Self::generate(base, PAPER_WINDOW_DAYS, PAPER_UPDATE_COUNT, PAPER_SECURITY_COUNT, seed)
    }

    /// All updates, ordered by day.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Updates issued on or before `day`.
    pub fn up_to_day(&self, day: u32) -> impl Iterator<Item = &Update> {
        self.updates.iter().take_while(move |u| u.day <= day)
    }

    /// Number of security updates in the stream.
    pub fn security_count(&self) -> usize {
        self.updates.iter().filter(|u| u.kind == UpdateKind::Security).count()
    }

    /// Mean days between consecutive updates (the paper's "one update
    /// every three days" statistic).
    pub fn mean_interval_days(&self) -> f64 {
        if self.updates.len() < 2 {
            return 0.0;
        }
        let first = self.updates.first().unwrap().day as f64;
        let last = self.updates.last().unwrap().day as f64;
        (last - first) / (self.updates.len() - 1) as f64
    }

    /// Fold updates issued on or before `day` into a repository the way a
    /// vendor "updates" directory would be mirrored. Returns the count of
    /// packages whose version actually advanced.
    pub fn apply_through(&self, repo: &mut Repository, day: u32) -> usize {
        let mut changed = 0;
        for update in self.up_to_day(day) {
            if repo.insert(update.package.clone()) {
                changed += 1;
            }
        }
        changed
    }
}

/// Bump a release string by appending/incrementing a vendor suffix:
/// `5` → `5.rocks.1`-style monotonic growth would be wrong for vendor
/// updates, so instead increment the *leading numeric component*:
/// `19.3` with bump 2 → `21.3`. Guaranteed to produce a strictly newer EVR.
fn bump_release(evr: &Evr, bump: u32) -> Evr {
    let lead: String = evr.release.chars().take_while(|c| c.is_ascii_digit()).collect();
    let rest = &evr.release[lead.len()..];
    let lead_num: u64 = lead.parse().unwrap_or(0);
    Evr::new(evr.epoch, evr.version.clone(), format!("{}{}", lead_num + bump as u64, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn base() -> Repository {
        synth::redhat72(1)
    }

    #[test]
    fn paper_stream_has_paper_counts() {
        let stream = UpdateStream::paper_stream(&base(), 99);
        assert_eq!(stream.updates().len(), PAPER_UPDATE_COUNT);
        assert_eq!(stream.security_count(), PAPER_SECURITY_COUNT);
    }

    #[test]
    fn mean_interval_is_about_three_days() {
        let stream = UpdateStream::paper_stream(&base(), 99);
        let mean = stream.mean_interval_days();
        assert!((2.0..4.0).contains(&mean), "mean interval {mean}");
    }

    #[test]
    fn updates_are_date_ordered() {
        let stream = UpdateStream::paper_stream(&base(), 3);
        let days: Vec<u32> = stream.updates().iter().map(|u| u.day).collect();
        let mut sorted = days.clone();
        sorted.sort_unstable();
        assert_eq!(days, sorted);
    }

    #[test]
    fn every_update_is_strictly_newer_than_base() {
        let repo = base();
        let stream = UpdateStream::paper_stream(&repo, 99);
        for update in stream.updates() {
            let current = repo.get(&update.package.name, update.package.arch).unwrap();
            assert!(
                update.package.evr > current.evr,
                "{} update {} not newer than {}",
                update.package.name,
                update.package.evr,
                current.evr
            );
        }
    }

    #[test]
    fn repeat_updates_to_one_package_keep_increasing() {
        let repo = base();
        let stream = UpdateStream::generate(&repo, 365, 400, 0, 5);
        let mut seen: std::collections::HashMap<String, Evr> = Default::default();
        for update in stream.updates() {
            if let Some(prev) = seen.get(&update.package.name) {
                assert!(update.package.evr > *prev, "{}", update.package.name);
            }
            seen.insert(update.package.name.clone(), update.package.evr.clone());
        }
    }

    #[test]
    fn apply_through_respects_days() {
        let mut repo = base();
        let stream = UpdateStream::paper_stream(&repo, 99);
        let early = stream.up_to_day(30).count();
        let applied = stream.apply_through(&mut repo, 30);
        assert!(applied <= early);
        // Applying the rest brings the total to all distinct final versions.
        let more = stream.apply_through(&mut repo, 365);
        assert!(more > 0);
    }

    #[test]
    fn stream_is_deterministic() {
        let repo = base();
        let a = UpdateStream::paper_stream(&repo, 7);
        let b = UpdateStream::paper_stream(&repo, 7);
        let idents = |s: &UpdateStream| -> Vec<String> {
            s.updates().iter().map(|u| format!("{}@{}", u.package.ident(), u.day)).collect()
        };
        assert_eq!(idents(&a), idents(&b));
    }

    #[test]
    fn bump_release_produces_newer_evr() {
        let evr = Evr::parse("2.2.4-19.3").unwrap();
        let bumped = bump_release(&evr, 1);
        assert_eq!(bumped.release, "20.3");
        assert!(bumped > evr);
        let no_digits = Evr::parse("1.0-beta").unwrap();
        let bumped = bump_release(&no_digits, 2);
        assert!(bumped > no_digits);
    }
}
