//! The default Rocks profile set: the graph and node files that ship on
//! the Rocks CD ("We develop and distribute the default set of node and
//! graph files that are automatically installed when a user creates a
//! frontend node", §6.1 footnote).
//!
//! The module names and graph shape follow Figures 3 and 4; the DHCP
//! server node file is the paper's Figure 2 verbatim. The `base` module's
//! package list is generated to match the synthetic Red Hat 7.2 base set,
//! so a compute appliance resolves to exactly the 162-package / ~225 MB
//! install the paper measures (Figure 7, §6.3).

use crate::graph::{Graph, ProfileSet};
use crate::nodefile::NodeFile;
use rocks_rpm::synth;

/// Figure 2, verbatim (modulo OCR quote repair): the DHCP server module.
pub const DHCP_SERVER_XML: &str = r#"<?XML VERSION="1.0" STANDALONE="no"?>
<KICKSTART>
        <DESCRIPTION>Setup the DHCP server for the cluster</DESCRIPTION>
        <PACKAGE>dhcp</PACKAGE>
        <POST>
                <!-- tell dhcp just to listen to eth0 -->
                awk '
                        /^DHCPD_INTERFACES/ {
                                printf("DHCPD_INTERFACES=\"eth0\"\n");
                                next;
                        }
                        {
                                print $0;
                        } ' /etc/sysconfig/dhcpd &gt; /tmp/dhcpd
                mv /tmp/dhcpd /etc/sysconfig/dhcpd
        </POST>
</KICKSTART>
"#;

/// The default graph (Figure 3 is an excerpt of this shape; Figure 4
/// visualizes it): appliances `compute`, `frontend`, and `nfs-server`
/// compose shared modules. The Myrinet edge is IA-32-only, matching the
/// Meteor cluster where "most compute nodes have Myrinet adapters, but
/// not all" and IA-64 boxes did not.
pub(crate) const DEFAULT_GRAPH_XML: &str = r#"<?xml version="1.0" standalone="no"?>
<graph>
  <description>NPACI Rocks default appliance graph</description>
  <edge from="compute" to="base"/>
  <edge from="compute" to="mpi"/>
  <edge from="compute" to="pvm"/>
  <edge from="compute" to="nis-client"/>
  <edge from="compute" to="nfs-client"/>
  <edge from="compute" to="pbs-mom"/>
  <edge from="compute" to="rexec"/>
  <edge from="compute" to="ekv"/>
  <edge from="compute" to="myrinet" arch="i386,i686,athlon"/>
  <edge from="mpi" to="c-development"/>
  <edge from="frontend" to="base"/>
  <edge from="frontend" to="mpi"/>
  <edge from="frontend" to="pvm"/>
  <edge from="frontend" to="dhcp-server"/>
  <edge from="frontend" to="mysql"/>
  <edge from="frontend" to="apache"/>
  <edge from="frontend" to="nis-server"/>
  <edge from="frontend" to="nfs-export"/>
  <edge from="frontend" to="pbs-server"/>
  <edge from="frontend" to="rexec"/>
  <edge from="frontend" to="rocks-tools"/>
  <edge from="nfs-server" to="base"/>
  <edge from="nfs-server" to="nfs-export"/>
  <edge from="nfs-server" to="nis-client"/>
</graph>
"#;

/// Static node files: `(name, xml)`.
const STATIC_NODE_FILES: &[(&str, &str)] = &[
    ("dhcp-server", DHCP_SERVER_XML),
    (
        "compute",
        r#"<kickstart>
  <description>Compute appliance root: a minimal container for parallel jobs</description>
  <main>
    <lang>en_US</lang>
    <timezone>--utc GMT</timezone>
  </main>
  <post>
/sbin/chkconfig --del gpm
echo "compute appliance" &gt; /etc/motd
  </post>
</kickstart>"#,
    ),
    (
        "frontend",
        r#"<kickstart>
  <description>Frontend appliance root: cluster services and login host</description>
  <main>
    <lang>en_US</lang>
    <timezone>--utc GMT</timezone>
  </main>
  <post>
echo "frontend appliance" &gt; /etc/motd
  </post>
</kickstart>"#,
    ),
    (
        "nfs-server",
        r#"<kickstart>
  <description>Dedicated NFS server appliance (e.g. nfs-0-0 in Table II)</description>
  <post>
echo "nfs appliance" &gt; /etc/motd
  </post>
</kickstart>"#,
    ),
    (
        "c-development",
        r#"<kickstart>
  <description>Compilers and build tools for application development</description>
  <package>gcc</package>
  <package>gcc-g77</package>
  <package>binutils</package>
  <package>make</package>
  <package>cpp</package>
</kickstart>"#,
    ),
    (
        "mpi",
        r#"<kickstart>
  <description>MPICH message passing (Ethernet and Myrinet devices)</description>
  <package>mpich</package>
  <package arch="i386,i686,athlon">mpich-gm</package>
  <package>atlas</package>
  <post>
echo '/opt/mpich/bin' &gt; /etc/profile.d/mpich-path.sh
  </post>
</kickstart>"#,
    ),
    (
        "pvm",
        r#"<kickstart>
  <description>PVM message passing (Ethernet device)</description>
  <package>pvm</package>
</kickstart>"#,
    ),
    (
        "nis-client",
        r#"<kickstart>
  <description>NIS client: user accounts synchronized from the frontend</description>
  <package>ypbind</package>
  <post>
/usr/bin/ypdomainname rocks
echo "domain rocks server 10.1.1.1" &gt; /etc/yp.conf
  </post>
</kickstart>"#,
    ),
    (
        "nis-server",
        r#"<kickstart>
  <description>NIS master: exports passwd/group maps to compute nodes</description>
  <package>ypserv</package>
  <post>
/usr/bin/ypdomainname rocks
make -C /var/yp
  </post>
</kickstart>"#,
    ),
    (
        "nfs-client",
        r#"<kickstart>
  <description>NFS client: home directories automounted from the frontend</description>
  <package>nfs-utils</package>
  <post>
echo "/home/*  10.1.1.1:/export/home/&amp;" &gt; /etc/auto.home
  </post>
</kickstart>"#,
    ),
    (
        "nfs-export",
        r#"<kickstart>
  <description>NFS server: exports user home directories (the one unscalable service, §5)</description>
  <package>nfs-utils</package>
  <post>
echo "/export/home 10.0.0.0/255.0.0.0(rw)" &gt;&gt; /etc/exports
exportfs -a
  </post>
</kickstart>"#,
    ),
    (
        "mysql",
        r#"<kickstart>
  <description>MySQL: the cluster configuration database (Section 6.4)</description>
  <package>mysql-server</package>
  <post>
/sbin/chkconfig --add mysqld
/opt/rocks/sbin/create-cluster-schema
  </post>
</kickstart>"#,
    ),
    (
        "apache",
        r#"<kickstart>
  <description>HTTP server: serves kickstart files and RPMs to installing nodes</description>
  <package>httpd</package>
  <post>
ln -s /opt/rocks/cgi-bin/kickstart.cgi /var/www/cgi-bin/kickstart.cgi
  </post>
</kickstart>"#,
    ),
    (
        "pbs-mom",
        r#"<kickstart>
  <description>PBS execution daemon for compute nodes</description>
  <package>pbs</package>
  <post>
echo '$clienthost frontend-0' &gt; /opt/pbs/mom_priv/config
  </post>
</kickstart>"#,
    ),
    (
        "pbs-server",
        r#"<kickstart>
  <description>PBS server plus the Maui scheduler; a default queue is created at install time (Section 4.1)</description>
  <package>pbs</package>
  <package>maui</package>
  <post>
/opt/pbs/bin/qmgr -c "create queue default queue_type=execution"
/opt/pbs/bin/qmgr -c "set queue default enabled=true started=true"
/opt/pbs/bin/qmgr -c "set server default_queue=default"
  </post>
</kickstart>"#,
    ),
    (
        "rexec",
        r#"<kickstart>
  <description>UC Berkeley REXEC: transparent, secure remote execution (Section 4.1)</description>
  <package>rexec</package>
  <post>
/sbin/chkconfig --add rexecd
  </post>
</kickstart>"#,
    ),
    (
        "ekv",
        r#"<kickstart>
  <description>eKV: Ethernet keyboard and video for watching installs (Section 6.3)</description>
  <package>rocks-ekv</package>
  <package>anaconda-ekv</package>
</kickstart>"#,
    ),
    (
        "myrinet",
        r#"<kickstart>
  <description>Myrinet GM driver, rebuilt from source on first boot (Section 6.3)</description>
  <package>gm</package>
  <package>mpich-gm</package>
  <post arch="i386,i686,athlon">
cd /usr/src/gm
./configure &amp;&amp; make &amp;&amp; make install
/sbin/insmod gm
  </post>
</kickstart>"#,
    ),
    (
        "rocks-tools",
        r#"<kickstart>
  <description>NPACI Rocks cluster tools (rocks-dist, insert-ethers, shoot-node)</description>
  <package>rocks-dist</package>
  <package>rocks-insert-ethers</package>
  <package>rocks-shoot-node</package>
  <package>rocks-sql-config</package>
  <package>rocks-kickstart-profiles</package>
</kickstart>"#,
    ),
];

/// Build the `base` node file: named base packages, the kernel, plus the
/// generated filler set so the compute install matches the paper's
/// 162-package / 225 MB measurement.
fn base_node_file() -> NodeFile {
    let mut xml = String::from(
        "<kickstart>\n  <description>Minimal Red Hat base for every appliance</description>\n",
    );
    xml.push_str("  <main>\n    <rootpw>--iscrypted a1b2c3d4e5</rootpw>\n  </main>\n");
    for name in [
        "glibc",
        "glibc-common",
        "dev",
        "fileutils",
        "bash",
        "openssh-server",
        "portmap",
        "xinetd",
        "perl",
        "python",
        "kernel",
    ] {
        xml.push_str(&format!("  <package>{name}</package>\n"));
    }
    // Filler packages from the synthetic distribution. compute_package_names
    // returns named + kernel + gm + filler; strip the ones other modules own.
    for name in synth::compute_package_names() {
        if name.starts_with("base-pkg-") {
            xml.push_str(&format!("  <package>{name}</package>\n"));
        }
    }
    // bind is in the named base set but owned by no service module.
    xml.push_str("  <package>bind</package>\n");
    xml.push_str("  <post>\n/usr/sbin/useradd -m rocks\n  </post>\n</kickstart>\n");
    NodeFile::parse("base", &xml).expect("generated base node file is valid")
}

/// Parse and assemble the complete default profile set.
pub fn default_profiles() -> ProfileSet {
    let graph = Graph::parse(DEFAULT_GRAPH_XML).expect("default graph is valid");
    let mut nodes: Vec<NodeFile> = STATIC_NODE_FILES
        .iter()
        .map(|(name, xml)| {
            NodeFile::parse(name, xml)
                .unwrap_or_else(|e| panic!("default node file {name} invalid: {e}"))
        })
        .collect();
    nodes.push(base_node_file());
    let set = ProfileSet::new(graph, nodes);
    debug_assert!(set.validate().is_empty(), "default profiles must be closed");
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocks_rpm::Arch;

    #[test]
    fn default_profiles_are_closed() {
        let set = default_profiles();
        assert!(set.validate().is_empty());
    }

    #[test]
    fn roots_match_paper_appliances() {
        let set = default_profiles();
        let roots = set.graph.roots();
        assert!(roots.contains(&"compute"));
        assert!(roots.contains(&"frontend"));
        assert!(roots.contains(&"nfs-server"));
    }

    #[test]
    fn compute_traversal_includes_mpi_and_cdev() {
        // The Figure 4 walk: compute → mpi → c-development.
        let set = default_profiles();
        let order = set.graph.traverse("compute", Arch::I686).unwrap();
        assert_eq!(order[0], "compute");
        let mpi_pos = order.iter().position(|m| m == "mpi").unwrap();
        let cdev_pos = order.iter().position(|m| m == "c-development").unwrap();
        assert!(mpi_pos < cdev_pos);
    }

    #[test]
    fn myrinet_excluded_on_ia64() {
        let set = default_profiles();
        let ia32 = set.graph.traverse("compute", Arch::I686).unwrap();
        let ia64 = set.graph.traverse("compute", Arch::Ia64).unwrap();
        assert!(ia32.contains(&"myrinet".to_string()));
        assert!(!ia64.contains(&"myrinet".to_string()));
    }

    #[test]
    fn figure2_file_is_in_the_set() {
        let set = default_profiles();
        let dhcp = &set.nodes["dhcp-server"];
        assert_eq!(dhcp.description, "Setup the DHCP server for the cluster");
        assert_eq!(dhcp.packages[0].name, "dhcp");
        assert!(dhcp.posts[0].script.contains("DHCPD_INTERFACES"));
    }

    #[test]
    fn frontend_gets_services_compute_does_not() {
        let set = default_profiles();
        let frontend = set.graph.traverse("frontend", Arch::I686).unwrap();
        let compute = set.graph.traverse("compute", Arch::I686).unwrap();
        for service in ["dhcp-server", "mysql", "apache", "pbs-server"] {
            assert!(frontend.contains(&service.to_string()), "frontend missing {service}");
            assert!(!compute.contains(&service.to_string()), "compute must not have {service}");
        }
    }

    #[test]
    fn base_contains_filler_set() {
        let set = default_profiles();
        let base = &set.nodes["base"];
        let count = base.packages_for(Arch::I686).count();
        assert!(count > 100, "base should carry the bulk of the 162 packages, got {count}");
    }
}
