//! The CGI-script equivalent: on-the-fly Kickstart generation (paper §6.1).
//!
//! "At installation time, a machine requests its kickstart file via HTTP
//! from a CGI script on the frontend server. This script uses the
//! requesting node's IP address to drive a series of SQL queries that
//! determine the appliance type, software distribution, and localization
//! of the node. The script then parses the XML graph file and traverses
//! it, parsing all the node files based on the appliance type."

use crate::graph::ProfileSet;
use crate::kickstart::{base_commands, KickstartFile, Localization};
use crate::{KsError, Result};
use rocks_db::{ClusterDb, Requester};
use rocks_rpm::Arch;

/// The generator: profile set plus the frontend parameters baked into
/// every generated file.
#[derive(Debug, Clone)]
pub struct KickstartGenerator {
    profiles: ProfileSet,
    /// Frontend address embedded in the `url` directive.
    frontend_ip: String,
    /// Distribution path under the web root (e.g. `install/rocks-dist`).
    dist_path: String,
}

impl KickstartGenerator {
    /// Build a generator around a profile set.
    pub fn new(profiles: ProfileSet, frontend_ip: &str, dist_path: &str) -> Self {
        KickstartGenerator {
            profiles,
            frontend_ip: frontend_ip.to_string(),
            dist_path: dist_path.to_string(),
        }
    }

    /// The profile set (site customization edits this, §6.2.3).
    pub fn profiles(&self) -> &ProfileSet {
        &self.profiles
    }

    /// Mutable profile set.
    pub fn profiles_mut(&mut self) -> &mut ProfileSet {
        &mut self.profiles
    }

    /// Generate for an explicit appliance root and architecture, without
    /// database involvement (used by the frontend's own install, whose
    /// Kickstart file "is built from a simple web form", §7).
    pub fn generate_for_appliance(&self, root: &str, arch: Arch) -> Result<KickstartFile> {
        let modules = self.profiles.modules_for(root, arch)?;
        let mut ks = KickstartFile::default();
        for (cmd, value) in base_commands(&self.frontend_ip, &self.dist_path, arch) {
            ks.add_command(&cmd, &value);
        }
        for module in &modules {
            for directive in &module.main {
                ks.add_command(&directive.command, &directive.value);
            }
        }
        for module in &modules {
            for pkg in module.packages_for(arch) {
                ks.add_package(pkg);
            }
        }
        for module in &modules {
            for post in module.posts_for(arch) {
                ks.add_post(&post.origin, &post.script);
            }
            // Declarative <file> elements become their own %post section.
            let file_shell: Vec<String> =
                module.files_for(arch).map(|f| f.render_shell()).collect();
            if !file_shell.is_empty() {
                ks.add_post(&format!("{}:files", module.name), &file_shell.join("\n"));
            }
        }
        Ok(ks)
    }

    /// The full CGI flow: resolve the requesting IP through the cluster
    /// database (node → membership → appliance → graph root), apply
    /// per-node localization, traverse, and render. Nothing is cached:
    /// this is the oracle the generation service's bodies are checked
    /// against.
    ///
    /// Takes `&ClusterDb` — the lookups are pure reads, so any number of
    /// requests may be served concurrently against one shared database
    /// (this is what lets [`crate::service::GenerationService`] fan out
    /// across worker threads).
    pub fn generate_for_request(
        &self,
        db: &ClusterDb,
        requester_ip: &str,
        arch: Arch,
    ) -> Result<KickstartFile> {
        let node = self.resolve_request(db, requester_ip)?;
        let mut ks = self.generate_for_appliance(graph_root(&node), arch)?;
        self.localize(&mut ks, db, &node.name, &node.membership)?;
        Ok(ks)
    }

    /// SQL resolution half of the CGI flow: requesting IP → node row →
    /// membership → appliance graph root, through
    /// [`ClusterDb::requester`]. Split out so the generation service can
    /// run it separately from (cacheable) graph traversal; both
    /// `generate_for_request`s resolve here. The view borrows its names
    /// from the database's tables, and its `root` is always `Some`: a node
    /// whose appliance has no graph root is an error.
    pub fn resolve_request<'db>(
        &self,
        db: &'db ClusterDb,
        requester_ip: &str,
    ) -> Result<Requester<'db>> {
        // The three SQL queries of §6.1, keyed on the requesting IP:
        // node, membership → appliance, appliance → graph root.
        let node = db.requester(requester_ip).map_err(|e| match e {
            rocks_db::DbError::NoSuchNode(_) => KsError::UnknownAddress(requester_ip.to_string()),
            other => KsError::Db(other.to_string()),
        })?;
        if node.root.is_none() {
            return Err(KsError::Db(format!(
                "appliance {} has no kickstartable graph root",
                node.appliance
            )));
        }
        Ok(node)
    }

    /// Localization half of the CGI flow: node identity plus site globals
    /// become a `%post` environment block exported to every script, and
    /// the node's hostname lands in the `network` directive, both written
    /// by [`KickstartFile::render`]. The generation service splices the
    /// same fields into a template of the skeleton instead; the two paths
    /// are byte-identical.
    pub fn localize(
        &self,
        ks: &mut KickstartFile,
        db: &ClusterDb,
        node_name: &str,
        membership_name: &str,
    ) -> Result<()> {
        ks.localization = Some(Localization {
            node: node_name.to_string(),
            membership: membership_name.to_string(),
            public_hostname: public_hostname(db)?,
        });
        Ok(())
    }
}

/// The graph root of a node [`KickstartGenerator::resolve_request`]
/// returned.
pub(crate) fn graph_root<'a>(node: &'a Requester<'_>) -> &'a str {
    node.root.as_deref().expect("resolve_request returns only rooted nodes")
}

/// The site's public hostname, which localization exports to `%post`.
pub(crate) fn public_hostname(db: &ClusterDb) -> Result<Option<String>> {
    Ok(db.global("Kickstart_PublicHostname")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::default_profiles;
    use rocks_db::insert_ethers::{register_frontend, DhcpRequest, InsertEthers};

    fn generator() -> KickstartGenerator {
        KickstartGenerator::new(default_profiles(), "10.1.1.1", "install/rocks-dist")
    }

    fn populated_db() -> ClusterDb {
        let mut db = ClusterDb::new();
        register_frontend(&mut db, "00:30:c1:d8:ac:80", "frontend-0").unwrap();
        let mut s = InsertEthers::start(&mut db, "Compute", 0).unwrap();
        for i in 1..=2 {
            s.observe(&DhcpRequest { mac: format!("00:50:8b:e0:00:{i:02x}") }).unwrap();
        }
        db
    }

    #[test]
    fn compute_appliance_renders_full_kickstart() {
        let ks = generator().generate_for_appliance("compute", Arch::I686).unwrap();
        let text = ks.render();
        assert!(text.contains("url --url http://10.1.1.1/install/rocks-dist/i686"));
        assert!(text.contains("%packages"));
        assert!(text.contains("mpich"));
        assert!(text.contains("gcc"));
        assert!(text.contains("%post"));
        // The Myrinet rebuild script must be present for IA-32.
        assert!(text.contains("./configure && make && make install"));
    }

    #[test]
    fn compute_package_count_matches_figure7() {
        // The compute appliance resolves to exactly the paper's package
        // count (Figure 7: "Total: 162 packages").
        let ks = generator().generate_for_appliance("compute", Arch::I686).unwrap();
        assert_eq!(ks.package_count(), rocks_rpm::synth::COMPUTE_PACKAGE_COUNT);
    }

    #[test]
    fn ia64_compute_drops_myrinet() {
        let ks = generator().generate_for_appliance("compute", Arch::Ia64).unwrap();
        let text = ks.render();
        assert!(!text.contains("gm"));
        assert!(!text.contains("insmod"));
    }

    #[test]
    fn frontend_appliance_has_services() {
        let ks = generator().generate_for_appliance("frontend", Arch::I686).unwrap();
        let text = ks.render();
        for pkg in ["dhcp", "mysql-server", "httpd", "maui", "rocks-dist"] {
            assert!(text.contains(pkg), "frontend kickstart missing {pkg}");
        }
        assert!(text.contains("DHCPD_INTERFACES"), "Figure 2 post script missing");
    }

    #[test]
    fn request_flow_resolves_ip_to_appliance() {
        let db = populated_db();
        let gen = generator();
        // compute-0-0 got 10.255.255.254 (first allocation).
        let ks = gen.generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        let text = ks.render();
        assert!(text.contains("--hostname compute-0-0"));
        assert!(text.contains("export NODE_NAME=compute-0-0"));
        assert!(text.contains("mpich"));
    }

    #[test]
    fn unknown_ip_is_denied() {
        let db = populated_db();
        let err = generator().generate_for_request(&db, "10.9.9.9", Arch::I686).unwrap_err();
        assert!(matches!(err, KsError::UnknownAddress(_)));
    }

    #[test]
    fn localization_includes_site_globals() {
        let mut db = populated_db();
        db.set_global("Kickstart_PublicHostname", "meteor.sdsc.edu").unwrap();
        let ks = generator().generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap();
        assert!(ks.render().contains("export PUBLIC_HOSTNAME=meteor.sdsc.edu"));
    }

    /// Regression: the exports reached the `%post` shell unquoted, so a
    /// membership named `O'Brien` was a syntax error and a node renamed
    /// to `x;reboot` ran `reboot`.
    #[test]
    fn localization_values_are_quoted_for_the_post_shell() {
        let mut db = populated_db();
        db.add_membership(&rocks_db::Membership {
            id: 10,
            name: "O'Brien".into(),
            appliance: 2,
            compute: true,
            basename: "obrien".into(),
        })
        .unwrap();
        let ip = rocks_db::Ipv4::new(10, 255, 0, 50);
        db.add_node(&rocks_db::NodeRecord::new(
            50,
            "00:50:8b:e0:00:50",
            "obrien-0-0",
            10,
            0,
            0,
            ip,
        ))
        .unwrap();
        let text =
            generator().generate_for_request(&db, &ip.to_string(), Arch::I686).unwrap().render();
        assert!(
            text.contains("\nexport NODE_NAME=obrien-0-0\nexport NODE_MEMBERSHIP='O'\\''Brien'\n")
        );

        db.execute_raw("update nodes set name = 'x;reboot' where name = 'compute-0-0'").unwrap();
        db.set_global("Kickstart_PublicHostname", "meteor.sdsc.edu").unwrap();
        let text =
            generator().generate_for_request(&db, "10.255.255.254", Arch::I686).unwrap().render();
        assert!(text.contains(
            "\nexport NODE_NAME='x;reboot'\nexport NODE_MEMBERSHIP='Compute'\n\
             export PUBLIC_HOSTNAME=meteor.sdsc.edu\n"
        ));
        // A Kickstart directive has no quoting: such names are for the
        // database to refuse.
        assert!(text.contains("\nnetwork --bootproto dhcp --hostname x;reboot\n"));
    }

    #[test]
    fn frontend_request_uses_frontend_graph_root() {
        let db = populated_db();
        let ks = generator().generate_for_request(&db, "10.1.1.1", Arch::I686).unwrap();
        let text = ks.render();
        assert!(text.contains("--hostname frontend-0"));
        assert!(text.contains("mysql-server"));
    }

    #[test]
    fn file_elements_land_in_post() {
        let mut gen = generator();
        let custom = crate::nodefile::NodeFile::parse(
            "banner",
            r#"<kickstart><file name="/etc/motd">Meteor cluster node</file></kickstart>"#,
        )
        .unwrap();
        gen.profiles_mut().add_node_file(custom);
        gen.profiles_mut().graph.add_edge("compute", "banner");
        let text = gen.generate_for_appliance("compute", Arch::I686).unwrap().render();
        assert!(text.contains("begin banner:files"));
        assert!(text.contains("cat > /etc/motd << 'EOF_ROCKS_FILE'"));
        assert!(text.contains("Meteor cluster node"));
    }

    #[test]
    fn site_customization_changes_output() {
        // §6.2.3: users edit the XML modules to tailor the cluster.
        let mut gen = generator();
        let custom = crate::nodefile::NodeFile::parse(
            "site-custom",
            "<kickstart><package>intel-mkl</package></kickstart>",
        )
        .unwrap();
        gen.profiles_mut().add_node_file(custom);
        gen.profiles_mut().graph.add_edge("compute", "site-custom");
        let ks = gen.generate_for_appliance("compute", Arch::I686).unwrap();
        assert!(ks.render().contains("intel-mkl"));
    }
}
