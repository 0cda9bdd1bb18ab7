//! Rendering Red Hat–compliant Kickstart files.
//!
//! "The end result of the parser is a Red Hat compliant text-based
//! kickstart file which is returned to the requesting machine" (§6.1).
//! A Kickstart file has three parts: the command section, `%packages`,
//! and one or more `%post` scripts.
//!
//! One renderer writes every body. It writes either into a `String` or
//! into a [`Template`]: the body of a localized appliance skeleton with
//! the per-node fields (node name, membership, public hostname) left as
//! holes, which [`Template::fill`] splices per request.

use rocks_rpm::Arch;

/// A `%post` section with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostScript {
    /// Shell text.
    pub script: String,
    /// Which node file contributed it.
    pub origin: String,
}

/// An assembled Kickstart file ready to render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KickstartFile {
    /// Command-section directives as `(command, argument)` pairs, in
    /// order. Duplicates resolve last-wins at render time (so an
    /// appliance module can override `base`'s default).
    pub commands: Vec<(String, String)>,
    /// Package names for `%packages`, deduplicated in first-seen order.
    pub packages: Vec<String>,
    /// `%post` scripts in traversal order.
    pub posts: Vec<PostScript>,
    /// The node this file is for, once localized: it renders as a
    /// `%post` environment block ahead of every script and as the
    /// `network` directive's hostname. `commands` and `posts` keep only
    /// the appliance's own entries.
    pub(crate) localization: Option<Localization>,
}

/// Per-node values a localized file renders (§6.1: "the localization of
/// the node").
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Localization {
    pub(crate) node: String,
    pub(crate) membership: String,
    pub(crate) public_hostname: Option<String>,
}

impl KickstartFile {
    /// Add a command directive.
    pub fn add_command(&mut self, command: &str, value: &str) {
        self.commands.push((command.to_string(), value.to_string()));
    }

    /// Add a package if not already present.
    pub fn add_package(&mut self, name: &str) {
        if !self.packages.iter().any(|p| p == name) {
            self.packages.push(name.to_string());
        }
    }

    /// Add a post script.
    pub fn add_post(&mut self, origin: &str, script: &str) {
        self.posts.push(PostScript { script: script.to_string(), origin: origin.to_string() });
    }

    /// The effective value of a command after last-wins resolution.
    pub fn command(&self, name: &str) -> Option<&str> {
        self.commands
            .iter()
            .rev()
            .find(|(c, _)| c.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Render the Red Hat Kickstart text.
    ///
    /// Command order follows first occurrence; repeated commands keep the
    /// last value. Packages render one per line under `%packages`; each
    /// post script becomes its own `%post` section with an origin
    /// comment, mirroring how Rocks annotates generated files.
    pub fn render(&self) -> String {
        let fields = self.localization.as_ref().map_or(Fields::default(), Localization::fields);
        let mut out = Filled { out: String::new(), fields };
        self.write(&mut out, self.localization.is_some());
        out.out
    }

    /// The body this file renders to once localized, with the node's
    /// fields left as holes.
    pub(crate) fn template(&self) -> Template {
        let mut template = Template { text: String::new(), holes: Vec::new() };
        self.write(&mut template, true);
        template
    }

    /// The renderer. A `localized` body opens its `%post` scripts with
    /// the node's environment block and names the node in the `network`
    /// directive, which takes the place of any other `network` value.
    fn write(&self, out: &mut impl Sink, localized: bool) {
        out.text("# Kickstart file generated by the Rocks kickstart CGI.\n");
        out.text("# Do not edit: regenerate through the XML profile framework.\n");

        // Last-wins command resolution preserving first-seen order —
        // except for commands that Kickstart allows to repeat (partition
        // and RAID layout lines), which all render in order.
        let mut order: Vec<&str> = Vec::new();
        for (cmd, _) in &self.commands {
            if is_repeatable(cmd) || !order.iter().any(|c| c.eq_ignore_ascii_case(cmd)) {
                order.push(cmd);
            }
        }
        if localized && !order.iter().any(|c| c.eq_ignore_ascii_case("network")) {
            order.push("network");
        }
        let mut repeat_cursor = 0usize;
        for cmd in order {
            if localized && cmd.eq_ignore_ascii_case("network") {
                out.text(cmd);
                out.text(" --bootproto dhcp --hostname ");
                out.field(Field::Hostname);
                out.text("\n");
                continue;
            }
            let value = if is_repeatable(cmd) {
                // Emit each repeatable occurrence once, in order.
                let found = self.commands[repeat_cursor..]
                    .iter()
                    .enumerate()
                    .find(|(_, (c, _))| c.eq_ignore_ascii_case(cmd))
                    .map(|(i, (_, v))| (repeat_cursor + i, v.as_str()));
                match found {
                    Some((idx, v)) => {
                        repeat_cursor = idx + 1;
                        v
                    }
                    None => "",
                }
            } else {
                self.command(cmd).unwrap_or_default()
            };
            out.text(cmd);
            if !value.is_empty() {
                out.text(" ");
                out.text(value);
            }
            out.text("\n");
        }

        out.text("\n%packages\n");
        for pkg in &self.packages {
            out.text(pkg);
            out.text("\n");
        }

        if localized {
            const ORIGIN: &str = "sql-localization";
            begin_post(out, ORIGIN);
            out.text("# Node localization from the cluster database\nexport NODE_NAME=");
            out.field(Field::NodeName);
            out.text("\nexport NODE_MEMBERSHIP='");
            out.field(Field::Membership);
            out.text("'\n");
            out.field(Field::PublicHostnameLine);
            end_post(out, ORIGIN);
        }
        for post in &self.posts {
            begin_post(out, &post.origin);
            out.text(&post.script);
            if !post.script.ends_with('\n') {
                out.text("\n");
            }
            end_post(out, &post.origin);
        }
    }

    /// The number of packages (Figure 7's "Total" panel reads this).
    pub fn package_count(&self) -> usize {
        self.packages.len()
    }
}

/// Kickstart commands that may legally appear multiple times (disk
/// layout lines); everything else resolves last-wins.
fn is_repeatable(command: &str) -> bool {
    ["part", "partition", "raid", "volgroup", "logvol", "driverdisk"]
        .iter()
        .any(|c| c.eq_ignore_ascii_case(command))
}

fn begin_post(out: &mut impl Sink, origin: &str) {
    out.text("\n%post\n# --- begin ");
    out.text(origin);
    out.text(" ---\n");
}

fn end_post(out: &mut impl Sink, origin: &str) {
    out.text("# --- end ");
    out.text(origin);
    out.text(" ---\n");
}

/// A per-node hole in a localized body.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// The node name as the `network --hostname` value, verbatim.
    Hostname,
    /// The node name as a shell word.
    NodeName,
    /// The membership name inside single quotes.
    Membership,
    /// The `PUBLIC_HOSTNAME` export line, or nothing when the site sets
    /// no public hostname.
    PublicHostnameLine,
}

/// Where the renderer writes.
trait Sink {
    fn text(&mut self, text: &str);
    fn field(&mut self, field: Field);
}

/// The values of one node's holes.
#[derive(Debug, Clone, Copy, Default)]
struct Fields<'a> {
    node: &'a str,
    membership: &'a str,
    public_hostname: Option<&'a str>,
}

impl Localization {
    fn fields(&self) -> Fields<'_> {
        Fields {
            node: &self.node,
            membership: &self.membership,
            public_hostname: self.public_hostname.as_deref(),
        }
    }
}

impl Fields<'_> {
    fn write(&self, field: Field, push: &mut impl FnMut(&str)) {
        match field {
            Field::Hostname => push(self.node),
            Field::NodeName => shell_word(self.node, push),
            Field::Membership => single_quoted(self.membership, push),
            Field::PublicHostnameLine => {
                if let Some(public) = self.public_hostname {
                    push("export PUBLIC_HOSTNAME=");
                    shell_word(public, push);
                    push("\n");
                }
            }
        }
    }

    fn len(&self, field: Field) -> usize {
        let mut len = 0;
        self.write(field, &mut |s| len += s.len());
        len
    }
}

/// `value` as one shell word: bare when every byte is in
/// `[A-Za-z0-9._-]` (every name insert-ethers and the frontend form
/// produce), single-quoted otherwise.
fn shell_word(value: &str, push: &mut impl FnMut(&str)) {
    if value.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')) {
        push(value);
    } else {
        push("'");
        single_quoted(value, push);
        push("'");
    }
}

/// `value` as the inside of a single-quoted shell string: each `'`
/// closes the quotes, adds an escaped quote and reopens them.
fn single_quoted(value: &str, push: &mut impl FnMut(&str)) {
    for (i, part) in value.split('\'').enumerate() {
        if i > 0 {
            push("'\\''");
        }
        push(part);
    }
}

/// Renders straight into a `String`.
struct Filled<'a> {
    out: String,
    fields: Fields<'a>,
}

impl Sink for Filled<'_> {
    fn text(&mut self, text: &str) {
        self.out.push_str(text);
    }

    fn field(&mut self, field: Field) {
        let out = &mut self.out;
        self.fields.write(field, &mut |s| out.push_str(s));
    }
}

/// A localized body recorded once per appliance skeleton: its literal
/// text, and the offsets in it where each per-node field goes.
#[derive(Debug)]
pub(crate) struct Template {
    text: String,
    holes: Vec<(usize, Field)>,
}

impl Sink for Template {
    fn text(&mut self, text: &str) {
        self.text.push_str(text);
    }

    fn field(&mut self, field: Field) {
        self.holes.push((self.text.len(), field));
    }
}

impl Template {
    /// One node's body: the literal runs with its fields spliced in,
    /// written into a `String` allocated at its final size.
    pub(crate) fn fill(
        &self,
        node: &str,
        membership: &str,
        public_hostname: Option<&str>,
    ) -> Kickstart {
        let fields = Fields { node, membership, public_hostname };
        let len = self.text.len() + self.holes.iter().map(|&(_, f)| fields.len(f)).sum::<usize>();
        let mut out = String::with_capacity(len);
        let mut at = 0;
        for &(hole, field) in &self.holes {
            out.push_str(&self.text[at..hole]);
            fields.write(field, &mut |s| out.push_str(s));
            at = hole;
        }
        out.push_str(&self.text[at..]);
        debug_assert_eq!(out.len(), len, "a template fills to the size it computed");
        Kickstart(out)
    }
}

/// A rendered Kickstart file: the text served to one installing node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kickstart(String);

impl Kickstart {
    /// A copy of the text.
    pub fn render(&self) -> String {
        self.0.clone()
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The text, moved out.
    pub fn into_string(self) -> String {
        self.0
    }
}

/// Default command directives every Rocks node shares: network install
/// over HTTP from the frontend (§5 "compute nodes use Kickstart's HTTP
/// method"), wiped system partitions (§6.3: reinstallation forces the
/// root partition to a known state while "all non-root partitions are
/// preserved"), and non-interactive settings.
pub(crate) fn base_commands(
    frontend_ip: &str,
    dist_path: &str,
    arch: Arch,
) -> Vec<(String, String)> {
    let mut cmds = vec![
        ("url".to_string(), format!("--url http://{frontend_ip}/{dist_path}/{}", arch.as_str())),
        ("lang".to_string(), "en_US".to_string()),
        ("keyboard".to_string(), "us".to_string()),
        ("mouse".to_string(), "none".to_string()),
        ("timezone".to_string(), "--utc GMT".to_string()),
        ("install".to_string(), String::new()),
        ("reboot".to_string(), String::new()),
        ("network".to_string(), "--bootproto dhcp".to_string()),
        ("zerombr".to_string(), "yes".to_string()),
        // Only the root and swap partitions are recreated; /state/partition1
        // survives reinstalls as persistent storage (§6.3).
        ("clearpart".to_string(), "--linux".to_string()),
        ("part".to_string(), "/ --size 4096".to_string()),
        ("part".to_string(), "swap --size 512".to_string()),
    ];
    if arch == Arch::Ia64 {
        cmds.push(("part".to_string(), "/boot/efi --size 100 --fstype vfat".to_string()));
    }
    cmds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_all_three_sections() {
        let mut ks = KickstartFile::default();
        for (c, v) in base_commands("10.1.1.1", "install/rocks-dist", Arch::I386) {
            ks.add_command(&c, &v);
        }
        ks.add_package("dhcp");
        ks.add_package("glibc");
        ks.add_post("dhcp-server", "echo configured");
        let text = ks.render();
        assert!(text.contains("url --url http://10.1.1.1/install/rocks-dist/i386"));
        assert!(text.contains("%packages\ndhcp\nglibc\n"));
        assert!(text.contains("%post\n# --- begin dhcp-server ---\necho configured"));
    }

    #[test]
    fn duplicate_packages_collapse() {
        let mut ks = KickstartFile::default();
        ks.add_package("glibc");
        ks.add_package("glibc");
        assert_eq!(ks.package_count(), 1);
    }

    #[test]
    fn command_last_wins() {
        let mut ks = KickstartFile::default();
        ks.add_command("lang", "en_US");
        ks.add_command("lang", "fr_FR");
        assert_eq!(ks.command("lang"), Some("fr_FR"));
        let text = ks.render();
        assert!(text.contains("lang fr_FR"));
        assert!(!text.contains("lang en_US"));
    }

    #[test]
    fn bare_commands_render_without_argument() {
        let mut ks = KickstartFile::default();
        ks.add_command("install", "");
        ks.add_command("reboot", "");
        let text = ks.render();
        assert!(text.contains("\ninstall\n"));
        assert!(text.contains("\nreboot\n"));
    }

    #[test]
    fn part_directives_all_render() {
        // `part` is repeatable in Kickstart: every occurrence must render,
        // in order, while scalar commands still resolve last-wins.
        let mut ks = KickstartFile::default();
        ks.add_command("part", "/ --size 4096");
        ks.add_command("part", "swap --size 512");
        let text = ks.render();
        assert!(text.contains("part / --size 4096\npart swap --size 512"));
        assert_eq!(text.matches("\npart ").count(), 2);
    }

    #[test]
    fn ia64_gets_efi_partition() {
        let cmds = base_commands("10.1.1.1", "install", Arch::Ia64);
        assert!(cmds.iter().any(|(c, v)| c == "part" && v.contains("/boot/efi")));
        let cmds = base_commands("10.1.1.1", "install", Arch::I686);
        assert!(!cmds.iter().any(|(_, v)| v.contains("efi")));
    }

    #[test]
    fn post_without_trailing_newline_gets_one() {
        let mut ks = KickstartFile::default();
        ks.add_post("m", "line");
        let text = ks.render();
        assert!(text.contains("line\n# --- end m ---"));
    }
}
