//! The `rocks-dist build` pipeline (paper Figure 5).
//!
//! Phases:
//! 1. **mirror** — replicate the parent distribution's package list
//!    ("using wget over HTTP"); parent packages become symbolic links,
//! 2. **updates** — fold in vendor update repositories,
//! 3. **contrib / local** — third-party and locally-built RPMs
//!    (materialized as real files: they exist nowhere else),
//! 4. **resolve** — newest-version-wins across all sources,
//! 5. **profiles** — graft the XML `build/` configuration directory,
//! 6. **report** — what changed, how many links vs files, bytes.

use crate::distribution::Distribution;
use rocks_rpm::Repository;
use rocks_trace::Tracer;
use std::collections::BTreeMap;

/// Configuration for one build.
#[derive(Debug, Default)]
pub struct BuildConfig<'a> {
    /// Name of the distribution being built.
    pub name: String,
    /// The parent distribution to mirror (None for a stock build).
    pub parent: Option<&'a Distribution>,
    /// Vendor update repositories (newest-wins against the parent).
    pub updates: Vec<&'a Repository>,
    /// Third-party software (§6.2.1 "Third party software").
    pub contrib: Vec<&'a Repository>,
    /// Locally-built RPMs (§6.2.1 "Local software").
    pub local: Vec<&'a Repository>,
    /// Profile XML files to graft into `build/` (filename → content).
    /// When empty, the parent's build files are inherited.
    pub profile_overlay: BTreeMap<String, String>,
}

/// What a build did — the log Figure 5 sketches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Packages linked from the parent mirror.
    pub mirrored: usize,
    /// Parent packages displaced by newer versions from updates.
    pub updated: usize,
    /// New packages added by update repos (not present in parent).
    pub added_by_updates: usize,
    /// Packages added from contrib sources.
    pub contrib_added: usize,
    /// Packages added from local sources.
    pub local_added: usize,
    /// Symlink count in the final tree.
    pub links: usize,
    /// Real-file count in the final tree.
    pub files: usize,
    /// Bytes materialized (files only).
    pub materialized_bytes: u64,
    /// Logical bytes (links chased into the parent).
    pub logical_bytes: u64,
}

impl BuildReport {
    /// Human-readable phase log (the `reproduce fig5` output).
    pub fn render(&self, name: &str) -> String {
        format!(
            "rocks-dist build {name}\n\
               mirror:   {} packages linked from parent\n\
               updates:  {} replaced, {} new\n\
               contrib:  {} packages\n\
               local:    {} packages\n\
               tree:     {} links, {} files\n\
               size:     {:.1} MB materialized of {:.1} MB logical\n",
            self.mirrored,
            self.updated,
            self.added_by_updates,
            self.contrib_added,
            self.local_added,
            self.links,
            self.files,
            self.materialized_bytes as f64 / (1024.0 * 1024.0),
            self.logical_bytes as f64 / (1024.0 * 1024.0),
        )
    }
}

/// Errors from building.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A build without a parent needs at least one package source.
    NoSources,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NoSources => write!(f, "rocks-dist build requires a parent or sources"),
        }
    }
}

impl std::error::Error for DistError {}

/// Run the build pipeline.
pub fn build(config: BuildConfig<'_>) -> Result<(Distribution, BuildReport), DistError> {
    build_traced(config, &Tracer::disabled())
}

/// Run the build pipeline with telemetry: each phase gets a span, and the
/// report's numbers land as `dist.*` counters in the tracer's registry
/// (symlinks vs real files, newest-version resolutions, bytes). With a
/// disabled tracer this is exactly [`build`].
pub fn build_traced(
    config: BuildConfig<'_>,
    tracer: &Tracer,
) -> Result<(Distribution, BuildReport), DistError> {
    let _span = tracer.span("dist.build");
    if config.parent.is_none()
        && config.updates.is_empty()
        && config.contrib.is_empty()
        && config.local.is_empty()
    {
        return Err(DistError::NoSources);
    }

    let mut report = BuildReport::default();
    let mut repo = Repository::new(config.name.clone());
    let mut dist = Distribution {
        name: config.name.clone(),
        tree: Default::default(),
        build_files: BTreeMap::new(),
        repo: Repository::new(config.name.clone()),
    };

    // Phase 1: mirror the parent. Every parent package enters the working
    // set; provenance is tracked so the tree phase knows what to link.
    let mut version_resolutions = 0u64;
    let mut from_parent: std::collections::BTreeSet<(String, rocks_rpm::Arch)> = Default::default();
    {
        let _phase = tracer.span("dist.mirror");
        if let Some(parent) = config.parent {
            for pkg in parent.repo().iter() {
                repo.insert(pkg.clone());
                from_parent.insert(pkg.key());
            }
            report.mirrored = repo.iter().len();
        }
    }

    // Phase 2: vendor updates (newest-wins; §6.2.1 "Rocks-dist resolves
    // version numbers of RPMs and only includes the most recent").
    {
        let _phase = tracer.span("dist.updates");
        for updates in &config.updates {
            for pkg in updates.iter() {
                let existed = from_parent.contains(&pkg.key());
                if repo.get(&pkg.name, pkg.arch).is_some() {
                    // A same-name package is already present: rpmvercmp
                    // decides the winner — a newest-version resolution.
                    version_resolutions += 1;
                }
                if repo.insert(pkg.clone()) {
                    // This update's version won: it will be a real file.
                    from_parent.remove(&pkg.key());
                    if existed {
                        report.updated += 1;
                    } else {
                        report.added_by_updates += 1;
                    }
                }
            }
        }
    }

    // Phase 3: contrib and local.
    {
        let _phase = tracer.span("dist.contrib_local");
        for contrib in &config.contrib {
            for pkg in contrib.iter() {
                let existed_in_parent = from_parent.contains(&pkg.key());
                if repo.get(&pkg.name, pkg.arch).is_some() {
                    version_resolutions += 1;
                }
                if repo.insert(pkg.clone()) {
                    from_parent.remove(&pkg.key());
                    if !existed_in_parent {
                        report.contrib_added += 1;
                    } else {
                        report.updated += 1;
                    }
                }
            }
        }
        for local in &config.local {
            for pkg in local.iter() {
                let existed_in_parent = from_parent.contains(&pkg.key());
                if repo.get(&pkg.name, pkg.arch).is_some() {
                    version_resolutions += 1;
                }
                if repo.insert(pkg.clone()) {
                    from_parent.remove(&pkg.key());
                    if !existed_in_parent {
                        report.local_added += 1;
                    } else {
                        report.updated += 1;
                    }
                }
            }
        }
    }

    // Phase 4: lay out the tree. Parent-sourced packages become links
    // into the parent's tree; everything else is a real file.
    {
        let _phase = tracer.span("dist.tree");
        for pkg in repo.iter() {
            let path = Distribution::rpm_path(&config.name, pkg);
            if from_parent.contains(&pkg.key()) {
                let parent = config.parent.expect("provenance implies a parent");
                let target = Distribution::rpm_path(&parent.name, pkg);
                // Link only if the parent actually has the file; a parent
                // built from links is itself resolvable one level up, so
                // chase it to keep links one hop deep.
                let resolved = parent.tree.resolve(&target).unwrap_or(&target).to_string();
                dist.tree.add_link(&path, &resolved);
            } else {
                dist.tree.add_file(&path, pkg.size_bytes);
            }
        }
    }

    // Phase 5: profiles. Inherit the parent's build/ files, then overlay.
    let _phase = tracer.span("dist.profiles");
    let mut build_files = config.parent.map(|p| p.build_files.clone()).unwrap_or_default();
    for (name, content) in config.profile_overlay {
        build_files.insert(name, content);
    }
    for (name, content) in &build_files {
        dist.add_build_file(name, content);
    }
    drop(_phase);

    // Phase 6: report. Logical size is the resolved package set plus the
    // profile files — computing it from the repository (rather than by
    // chasing links) stays exact across multi-level hierarchies, where a
    // link may point into a grandparent's tree.
    let build_bytes: u64 = build_files.values().map(|c| c.len() as u64).sum();
    *dist.repo_mut() = repo;
    let (_, files, links) = dist.tree.counts();
    report.files = files;
    report.links = links;
    report.materialized_bytes = dist.tree.materialized_bytes();
    report.logical_bytes = dist.repo().total_size_bytes() + build_bytes;

    // Surface the report through the registry too — one build adds its
    // numbers once, so registry values and reports can never disagree.
    if let Some(registry) = tracer.registry() {
        registry.counter("dist.builds").incr();
        registry.counter("dist.mirrored").add(report.mirrored as u64);
        registry.counter("dist.updated").add(report.updated as u64);
        registry.counter("dist.added_by_updates").add(report.added_by_updates as u64);
        registry.counter("dist.contrib_added").add(report.contrib_added as u64);
        registry.counter("dist.local_added").add(report.local_added as u64);
        registry.counter("dist.tree.links").add(report.links as u64);
        registry.counter("dist.tree.files").add(report.files as u64);
        registry.counter("dist.version_resolutions").add(version_resolutions);
        registry.counter("dist.bytes.materialized").add(report.materialized_bytes);
        registry.counter("dist.bytes.logical").add(report.logical_bytes);
    }
    Ok((dist, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocks_rpm::{synth, Package, UpdateStream};

    fn stock() -> Distribution {
        Distribution::stock("redhat-7.2", synth::redhat72(3))
    }

    #[test]
    fn child_is_mostly_links() {
        let parent = stock();
        let community = synth::community();
        let local = synth::rocks_local();
        let (dist, report) = build(BuildConfig {
            name: "rocks-2.2.1".into(),
            parent: Some(&parent),
            updates: vec![],
            contrib: vec![&community],
            local: vec![&local],
            ..Default::default()
        })
        .unwrap();
        assert!(report.links > 10 * report.files, "{report:?}");
        assert_eq!(report.contrib_added, community.iter().len());
        assert_eq!(report.local_added, local.iter().len());
        // The child materializes only contrib+local bytes — "lightweight".
        assert_eq!(
            report.materialized_bytes,
            community.total_size_bytes() + local.total_size_bytes()
        );
        assert!(dist.repo().get("mpich", rocks_rpm::Arch::I386).is_some());
    }

    #[test]
    fn updates_replace_parent_packages() {
        let parent = stock();
        let stream = UpdateStream::paper_stream(parent.repo(), 5);
        let mut updates = Repository::new("updates");
        for u in stream.updates() {
            updates.insert(u.package.clone());
        }
        let update_slots = updates.iter().len();
        let (dist, report) = build(BuildConfig {
            name: "rocks-updated".into(),
            parent: Some(&parent),
            updates: vec![&updates],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.updated, update_slots);
        assert_eq!(report.added_by_updates, 0);
        // Every updated package is newer in the child than the parent.
        for pkg in updates.iter() {
            let child_evr = dist.repo().get(&pkg.name, pkg.arch).unwrap().evr.clone();
            assert!(child_evr >= pkg.evr);
        }
        // Updated packages are real files, not links into the parent (the
        // mirror pulled them down).
        for pkg in dist.repo().iter() {
            if updates.get(&pkg.name, pkg.arch).map(|u| u.evr == pkg.evr).unwrap_or(false) {
                let path = Distribution::rpm_path(&dist.name, pkg);
                assert_eq!(dist.tree.resolve(&path), Some(path.as_str()));
            }
        }
    }

    #[test]
    fn stale_update_loses_to_parent() {
        let parent = stock();
        let mut stale = Repository::new("stale");
        stale.insert(Package::builder("glibc", "2.2.4-1").build()); // older than parent's 2.2.4-19.3
        let (dist, report) = build(BuildConfig {
            name: "d".into(),
            parent: Some(&parent),
            updates: vec![&stale],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.updated, 0);
        assert_eq!(
            dist.repo().get("glibc", rocks_rpm::Arch::I686).unwrap().evr.to_string(),
            "2.2.4-19.3"
        );
    }

    #[test]
    fn update_with_obsoletes_drops_renamed_package() {
        // Red Hat renames a package: the update obsoletes the old name
        // and the rebuilt distribution carries only the new one.
        let parent = stock();
        let mut updates = Repository::new("updates");
        updates.insert(
            Package::builder("dhcp-server", "3.0-1")
                .kind(rocks_rpm::PackageKind::Service)
                .obsoletes("dhcp")
                .build(),
        );
        let (dist, _) = build(BuildConfig {
            name: "renamed".into(),
            parent: Some(&parent),
            updates: vec![&updates],
            ..Default::default()
        })
        .unwrap();
        assert!(dist.repo().get("dhcp", rocks_rpm::Arch::I386).is_none());
        assert!(dist.repo().get("dhcp-server", rocks_rpm::Arch::I386).is_some());
    }

    #[test]
    fn no_sources_is_an_error() {
        assert_eq!(
            build(BuildConfig { name: "x".into(), ..Default::default() }).unwrap_err(),
            DistError::NoSources
        );
    }

    #[test]
    fn profiles_are_inherited_and_overlayable() {
        let mut parent = stock();
        parent.add_build_file("graph.xml", "<graph/>");
        parent.add_build_file("nodes/compute.xml", "<kickstart/>");
        let mut overlay = BTreeMap::new();
        overlay.insert(
            "nodes/site.xml".to_string(),
            "<kickstart><package>x</package></kickstart>".to_string(),
        );
        let (dist, _) = build(BuildConfig {
            name: "child".into(),
            parent: Some(&parent),
            profile_overlay: overlay,
            ..Default::default()
        })
        .unwrap();
        assert!(dist.tree.contains("child/build/graph.xml"));
        assert!(dist.tree.contains("child/build/nodes/compute.xml"));
        assert!(dist.tree.contains("child/build/nodes/site.xml"));
        assert_eq!(dist.build_files.len(), 3);
    }

    #[test]
    fn traced_build_matches_untraced_and_fills_registry() {
        let parent = stock();
        let community = synth::community();
        let mut stale = Repository::new("stale");
        stale.insert(Package::builder("glibc", "2.2.4-1").arch(rocks_rpm::Arch::I686).build());
        let config = || BuildConfig {
            name: "traced".into(),
            parent: Some(&parent),
            updates: vec![&stale],
            contrib: vec![&community],
            ..Default::default()
        };
        let (plain_dist, plain_report) = build(config()).unwrap();
        let tracer = Tracer::ring(256);
        let (traced_dist, traced_report) = build_traced(config(), &tracer).unwrap();
        assert_eq!(plain_report, traced_report, "telemetry must not change the build");
        assert_eq!(plain_dist.repo().iter().len(), traced_dist.repo().iter().len());

        let snap = tracer.registry().unwrap().snapshot();
        assert_eq!(snap.counter("dist.builds"), 1);
        assert_eq!(snap.counter("dist.mirrored"), traced_report.mirrored as u64);
        assert_eq!(snap.counter("dist.tree.links"), traced_report.links as u64);
        assert_eq!(snap.counter("dist.tree.files"), traced_report.files as u64);
        assert_eq!(snap.counter("dist.contrib_added"), traced_report.contrib_added as u64);
        // The stale glibc triggered exactly one version resolution.
        assert_eq!(snap.counter("dist.version_resolutions"), 1);

        // Phase spans nest under dist.build and balance.
        let dump = tracer.dump();
        let enters = dump
            .events
            .iter()
            .filter(|e| matches!(e.kind, rocks_trace::EventKind::Enter { .. }))
            .count();
        let exits = dump
            .events
            .iter()
            .filter(|e| matches!(e.kind, rocks_trace::EventKind::Exit { .. }))
            .count();
        assert_eq!(enters, 6, "dist.build + five phase spans");
        assert_eq!(enters, exits);
    }

    #[test]
    fn report_render_mentions_key_numbers() {
        let parent = stock();
        let community = synth::community();
        let (_, report) = build(BuildConfig {
            name: "r".into(),
            parent: Some(&parent),
            contrib: vec![&community],
            ..Default::default()
        })
        .unwrap();
        let text = report.render("r");
        assert!(text.contains("packages linked from parent"));
        assert!(text.contains("MB materialized"));
    }
}
