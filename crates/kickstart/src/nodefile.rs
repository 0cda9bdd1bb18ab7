//! Node files: the single-purpose XML modules of paper Figure 2.
//!
//! A node file "specifies the packages and per-package post configuration
//! commands for a specific service". The vocabulary (all tags matched
//! case-insensitively, since the paper's own example is uppercase):
//!
//! ```xml
//! <?xml version="1.0" standalone="no"?>
//! <kickstart>
//!   <description>Setup the DHCP server for the cluster</description>
//!   <package>dhcp</package>
//!   <package arch="i386,i686,athlon">kernel</package>
//!   <post>
//!     <!-- shell commands run at the end of installation -->
//!     ...
//!   </post>
//!   <file name="/etc/motd" mode="create">
//!     Rocks compute node
//!   </file>
//!   <main>
//!     <lang>en_US</lang>
//!   </main>
//! </kickstart>
//! ```
//!
//! `<file>` elements declare configuration files to write during `%post`
//! — the declarative alternative to hand-written `cat` heredocs that the
//! Rocks framework grew for exactly this purpose.

use crate::{KsError, Result};
use rocks_rpm::Arch;
use rocks_xml::Document;

/// One `<package>` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageEntry {
    /// RPM package name.
    pub name: String,
    /// Restrict to these node architectures (empty = all).
    pub arches: Vec<Arch>,
}

impl PackageEntry {
    /// Whether this entry applies to a node of the given architecture.
    pub fn applies_to(&self, arch: Arch) -> bool {
        self.arches.is_empty() || self.arches.contains(&arch)
    }
}

/// One `<post>` script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostEntry {
    /// Shell text, whitespace-trimmed at the ends but internally verbatim.
    pub script: String,
    /// Restrict to these node architectures (empty = all).
    pub arches: Vec<Arch>,
    /// Name of the node file that contributed the script (for the header
    /// comments Rocks writes into generated kickstarts).
    pub origin: String,
}

/// How a `<file>` element lands on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FileMode {
    /// Replace the file (default).
    #[default]
    Create,
    /// Append to it (e.g. extra lines in /etc/exports).
    Append,
}

/// One `<file>` element: a configuration file written during `%post`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Absolute path on the installed node.
    pub path: String,
    /// File contents (leading/trailing blank space trimmed).
    pub contents: String,
    /// Create or append.
    pub mode: FileMode,
    /// Restrict to these node architectures (empty = all).
    pub arches: Vec<Arch>,
}

impl FileEntry {
    /// Render the shell fragment that writes this file — a quoted heredoc
    /// so the contents are never shell-expanded.
    pub fn render_shell(&self) -> String {
        let redirect = match self.mode {
            FileMode::Create => ">",
            FileMode::Append => ">>",
        };
        format!(
            "cat {redirect} {} << 'EOF_ROCKS_FILE'\n{}\nEOF_ROCKS_FILE",
            self.path, self.contents
        )
    }
}

/// One `<main>` directive, e.g. `lang` → `en_US`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MainDirective {
    /// Kickstart command name (`lang`, `rootpw`, `timezone`, ...).
    pub command: String,
    /// Argument text.
    pub value: String,
}

/// A parsed node file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFile {
    /// Module name (the graph refers to node files by name).
    pub name: String,
    /// Human description.
    pub description: String,
    /// Packages contributed by this module.
    pub packages: Vec<PackageEntry>,
    /// Post scripts contributed by this module.
    pub posts: Vec<PostEntry>,
    /// Declarative configuration files written during %post.
    pub files: Vec<FileEntry>,
    /// Kickstart main-section directives.
    pub main: Vec<MainDirective>,
}

impl NodeFile {
    /// Parse a node file from XML text. `name` is the module name the
    /// graph will use (in real Rocks this is the file's basename).
    pub fn parse(name: &str, xml: &str) -> Result<NodeFile> {
        let doc = Document::parse(xml)?;
        let root = doc.root();
        if !root.name().eq_ignore_ascii_case("kickstart") {
            return Err(KsError::BadNodeFile {
                file: name.to_string(),
                reason: format!("root element is <{}>, expected <kickstart>", root.name()),
            });
        }

        let description =
            root.child("description").map(|d| d.text().trim().to_string()).unwrap_or_default();

        let mut packages = Vec::new();
        for pkg in root.elements("package") {
            let pkg_name = pkg.text().trim().to_string();
            if pkg_name.is_empty() {
                return Err(KsError::BadNodeFile {
                    file: name.to_string(),
                    reason: "empty <package> element".to_string(),
                });
            }
            packages.push(PackageEntry {
                name: pkg_name,
                arches: parse_arches(name, pkg.attr("arch"))?,
            });
        }

        let mut posts = Vec::new();
        for post in root.elements("post") {
            let script = post.text().trim().to_string();
            if script.is_empty() {
                continue; // an empty post contributes nothing
            }
            posts.push(PostEntry {
                script,
                arches: parse_arches(name, post.attr("arch"))?,
                origin: name.to_string(),
            });
        }

        let mut files = Vec::new();
        for file in root.elements("file") {
            let path = file
                .attr("name")
                .ok_or_else(|| KsError::BadNodeFile {
                    file: name.to_string(),
                    reason: "<file> missing name attribute".to_string(),
                })?
                .to_string();
            let mode = match file.attr("mode") {
                None | Some("create") => FileMode::Create,
                Some("append") => FileMode::Append,
                Some(other) => {
                    return Err(KsError::BadNodeFile {
                        file: name.to_string(),
                        reason: format!("unknown file mode {other:?}"),
                    })
                }
            };
            files.push(FileEntry {
                path,
                contents: file.text().trim().to_string(),
                mode,
                arches: parse_arches(name, file.attr("arch"))?,
            });
        }

        let mut main = Vec::new();
        if let Some(main_el) = root.child("main") {
            for directive in main_el.all_elements() {
                main.push(MainDirective {
                    command: directive.name().to_ascii_lowercase(),
                    value: directive.text().trim().to_string(),
                });
            }
        }

        Ok(NodeFile { name: name.to_string(), description, packages, posts, files, main })
    }

    /// Package names applicable to `arch`.
    pub fn packages_for(&self, arch: Arch) -> impl Iterator<Item = &str> {
        self.packages.iter().filter(move |p| p.applies_to(arch)).map(|p| p.name.as_str())
    }

    /// Post scripts applicable to `arch`.
    pub fn posts_for(&self, arch: Arch) -> impl Iterator<Item = &PostEntry> {
        self.posts.iter().filter(move |p| p.arches.is_empty() || p.arches.contains(&arch))
    }

    /// Declarative files applicable to `arch`.
    pub fn files_for(&self, arch: Arch) -> impl Iterator<Item = &FileEntry> {
        self.files.iter().filter(move |f| f.arches.is_empty() || f.arches.contains(&arch))
    }
}

fn parse_arches(file: &str, attr: Option<&str>) -> Result<Vec<Arch>> {
    let Some(attr) = attr else { return Ok(Vec::new()) };
    attr.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            Arch::parse(s).ok_or_else(|| KsError::BadNodeFile {
                file: file.to_string(),
                reason: format!("unknown arch {s:?} in arch attribute"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2, transcribed (awk quoting normalized; the
    /// figure's OCR mangled the single quotes).
    const FIG2_DHCP_SERVER: &str = r#"<?XML VERSION="1.0" STANDALONE="no"?>
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

    #[test]
    fn parses_figure_2() {
        let nf = NodeFile::parse("dhcp-server", FIG2_DHCP_SERVER).unwrap();
        assert_eq!(nf.description, "Setup the DHCP server for the cluster");
        assert_eq!(nf.packages.len(), 1);
        assert_eq!(nf.packages[0].name, "dhcp");
        assert_eq!(nf.posts.len(), 1);
        let script = &nf.posts[0].script;
        assert!(script.contains("DHCPD_INTERFACES"));
        assert!(script.contains("> /tmp/dhcpd"), "entity must decode: {script}");
        assert!(script.contains("mv /tmp/dhcpd /etc/sysconfig/dhcpd"));
        assert!(!script.contains("tell dhcp"), "comments are not script text");
        assert_eq!(nf.posts[0].origin, "dhcp-server");
    }

    #[test]
    fn arch_gated_packages() {
        let nf = NodeFile::parse(
            "kernel",
            r#"<kickstart>
                <package arch="i686,athlon">kernel-smp</package>
                <package arch="ia64">kernel-ia64</package>
                <package>kernel-doc</package>
               </kickstart>"#,
        )
        .unwrap();
        let i686: Vec<_> = nf.packages_for(Arch::I686).collect();
        assert_eq!(i686, vec!["kernel-smp", "kernel-doc"]);
        let ia64: Vec<_> = nf.packages_for(Arch::Ia64).collect();
        assert_eq!(ia64, vec!["kernel-ia64", "kernel-doc"]);
    }

    #[test]
    fn arch_gated_posts() {
        let nf = NodeFile::parse(
            "myri",
            r#"<kickstart>
                <post arch="i386,i686,athlon">rebuild-gm-driver</post>
                <post>echo done</post>
               </kickstart>"#,
        )
        .unwrap();
        assert_eq!(nf.posts_for(Arch::I686).count(), 2);
        assert_eq!(nf.posts_for(Arch::Ia64).count(), 1);
    }

    #[test]
    fn main_directives() {
        let nf = NodeFile::parse(
            "base",
            r#"<kickstart>
                <main>
                  <lang>en_US</lang>
                  <timezone>America/Los_Angeles</timezone>
                  <rootpw>--iscrypted xyz</rootpw>
                </main>
               </kickstart>"#,
        )
        .unwrap();
        assert_eq!(nf.main.len(), 3);
        assert_eq!(nf.main[0].command, "lang");
        assert_eq!(nf.main[2].value, "--iscrypted xyz");
    }

    #[test]
    fn bad_root_and_empty_package_rejected() {
        assert!(matches!(NodeFile::parse("x", "<graph/>"), Err(KsError::BadNodeFile { .. })));
        assert!(matches!(
            NodeFile::parse("x", "<kickstart><package>  </package></kickstart>"),
            Err(KsError::BadNodeFile { .. })
        ));
        assert!(matches!(
            NodeFile::parse("x", r#"<kickstart><package arch="sparc">y</package></kickstart>"#),
            Err(KsError::BadNodeFile { .. })
        ));
    }

    #[test]
    fn cdata_posts_preserve_shell_specials() {
        let nf = NodeFile::parse(
            "x",
            "<kickstart><post><![CDATA[if [ $a < $b ]; then echo \"x&y\"; fi]]></post></kickstart>",
        )
        .unwrap();
        assert_eq!(nf.posts[0].script, "if [ $a < $b ]; then echo \"x&y\"; fi");
    }

    #[test]
    fn file_elements_parse_and_render() {
        let nf = NodeFile::parse(
            "exports",
            r#"<kickstart>
                <file name="/etc/exports" mode="append">/export/home 10.0.0.0/255.0.0.0(rw)</file>
                <file name="/etc/motd">Rocks compute node</file>
               </kickstart>"#,
        )
        .unwrap();
        assert_eq!(nf.files.len(), 2);
        assert_eq!(nf.files[0].mode, FileMode::Append);
        assert_eq!(nf.files[1].mode, FileMode::Create);
        let shell = nf.files[0].render_shell();
        assert!(shell.starts_with("cat >> /etc/exports"));
        assert!(shell.contains("/export/home"));
        assert!(shell.contains("EOF_ROCKS_FILE"));
        let shell = nf.files[1].render_shell();
        assert!(shell.starts_with("cat > /etc/motd"));
    }

    #[test]
    fn file_element_validation() {
        assert!(matches!(
            NodeFile::parse("x", "<kickstart><file>no name</file></kickstart>"),
            Err(KsError::BadNodeFile { .. })
        ));
        assert!(matches!(
            NodeFile::parse(
                "x",
                r#"<kickstart><file name="/x" mode="sideways">y</file></kickstart>"#
            ),
            Err(KsError::BadNodeFile { .. })
        ));
    }

    #[test]
    fn arch_gated_files() {
        let nf = NodeFile::parse(
            "x",
            r#"<kickstart><file name="/etc/gm.conf" arch="i386,i686,athlon">port 4</file></kickstart>"#,
        )
        .unwrap();
        assert_eq!(nf.files_for(Arch::I686).count(), 1);
        assert_eq!(nf.files_for(Arch::Ia64).count(), 0);
    }

    #[test]
    fn empty_post_is_dropped() {
        let nf = NodeFile::parse("x", "<kickstart><post>   </post></kickstart>").unwrap();
        assert!(nf.posts.is_empty());
    }
}
