//! Graph files and traversal (paper Figures 3 and 4).
//!
//! "An XML-based graph file links all the defined modules together with
//! directed edges. An edge represents a relation between two modules. The
//! roots of the graph represent 'appliances', such as compute and
//! frontend." Traversal collects the set of node files that describe one
//! appliance; edges may be gated by architecture, which is how a single
//! graph supports IA-32, Athlon, and IA-64 nodes simultaneously (§6.1).

use crate::nodefile::NodeFile;
use crate::{KsError, Result};
use rocks_rpm::Arch;
use rocks_xml::Document;
use std::collections::{BTreeMap, BTreeSet};

/// A directed edge `from → to` in the configuration graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source module (or appliance root).
    pub from: String,
    /// Destination module.
    pub to: String,
    /// Restrict the edge to these node architectures (empty = all).
    pub arches: Vec<Arch>,
}

impl Edge {
    /// Whether this edge is followed for a node of `arch`.
    pub fn applies_to(&self, arch: Arch) -> bool {
        self.arches.is_empty() || self.arches.contains(&arch)
    }
}

/// A parsed graph file: edges in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// Edges in document order (traversal order is deterministic).
    pub edges: Vec<Edge>,
    /// Optional description.
    pub description: String,
}

impl Graph {
    /// Parse a graph file:
    ///
    /// ```xml
    /// <graph>
    ///   <description>...</description>
    ///   <edge from="compute" to="mpi"/>
    ///   <edge from="mpi" to="c-development"/>
    /// </graph>
    /// ```
    pub fn parse(xml: &str) -> Result<Graph> {
        let doc = Document::parse(xml)?;
        let root = doc.root();
        if !root.name().eq_ignore_ascii_case("graph") {
            return Err(KsError::Xml(format!(
                "root element is <{}>, expected <graph>",
                root.name()
            )));
        }
        let description =
            root.child("description").map(|d| d.text().trim().to_string()).unwrap_or_default();
        let mut edges = Vec::new();
        for edge in root.elements("edge") {
            let from = edge
                .attr("from")
                .ok_or_else(|| KsError::Xml("<edge> missing from attribute".into()))?
                .to_string();
            let to = edge
                .attr("to")
                .ok_or_else(|| KsError::Xml("<edge> missing to attribute".into()))?
                .to_string();
            let arches = match edge.attr("arch") {
                Some(attr) => attr
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        Arch::parse(s)
                            .ok_or_else(|| KsError::Xml(format!("unknown arch {s:?} on edge")))
                    })
                    .collect::<Result<Vec<Arch>>>()?,
                None => Vec::new(),
            };
            edges.push(Edge { from, to, arches });
        }
        Ok(Graph { edges, description })
    }

    /// Serialize back to XML (used when a customized distribution saves
    /// its build directory, §6.2.3).
    pub fn to_xml(&self) -> String {
        let mut root = rocks_xml::Element::new("graph");
        if !self.description.is_empty() {
            root.push(rocks_xml::Node::Element(
                rocks_xml::Element::new("description").with_text(self.description.clone()),
            ));
        }
        for edge in &self.edges {
            let mut el = rocks_xml::Element::new("edge")
                .with_attr("from", edge.from.clone())
                .with_attr("to", edge.to.clone());
            if !edge.arches.is_empty() {
                let list = edge.arches.iter().map(|a| a.as_str()).collect::<Vec<_>>().join(",");
                el.set_attr("arch", list);
            }
            root.push(rocks_xml::Node::Element(el));
        }
        rocks_xml::write_document(
            &rocks_xml::Document::from_root(root),
            rocks_xml::WriteStyle::Pretty,
        )
    }

    /// Add an edge programmatically (used by site customization, §6.2.3).
    pub fn add_edge(&mut self, from: &str, to: &str) {
        self.edges.push(Edge { from: from.to_string(), to: to.to_string(), arches: Vec::new() });
    }

    /// All module names mentioned anywhere in the graph.
    pub fn mentioned(&self) -> BTreeSet<&str> {
        self.edges.iter().flat_map(|e| [e.from.as_str(), e.to.as_str()]).collect()
    }

    /// Root names: modules that appear as `from` but never as `to`.
    /// "The roots of the graph represent appliances."
    pub fn roots(&self) -> Vec<&str> {
        let targets: BTreeSet<&str> = self.edges.iter().map(|e| e.to.as_str()).collect();
        let mut roots: Vec<&str> =
            self.edges.iter().map(|e| e.from.as_str()).filter(|f| !targets.contains(f)).collect();
        roots.dedup();
        let mut seen = BTreeSet::new();
        roots.retain(|r| seen.insert(*r));
        roots
    }

    /// Depth-first pre-order traversal from `root`, following edges that
    /// apply to `arch`, visiting each module once. The result always
    /// starts with `root` itself — the paper's example traversal for a
    /// compute appliance is "compute, mpi, c-development".
    pub fn traverse(&self, root: &str, arch: Arch) -> Result<Vec<String>> {
        if !self.mentioned().contains(root) {
            return Err(KsError::UnknownRoot(root.to_string()));
        }
        let mut adjacency: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
        for edge in &self.edges {
            adjacency.entry(edge.from.as_str()).or_default().push(edge);
        }
        let mut order = Vec::new();
        let mut visited = BTreeSet::new();
        let mut stack = vec![root.to_string()];
        // Explicit stack DFS; push children in reverse so document order
        // pops first.
        while let Some(current) = stack.pop() {
            if !visited.insert(current.clone()) {
                continue;
            }
            order.push(current.clone());
            if let Some(edges) = adjacency.get(current.as_str()) {
                for edge in edges.iter().rev() {
                    if edge.applies_to(arch) && !visited.contains(&edge.to) {
                        stack.push(edge.to.clone());
                    }
                }
            }
        }
        Ok(order)
    }
}

/// A complete profile set: the graph plus the node files it composes.
/// This is the content of a distribution's `build/` directory (§6.2.3) —
/// what users edit to customize their cluster.
#[derive(Debug, Clone, Default)]
pub struct ProfileSet {
    /// The composition graph.
    pub graph: Graph,
    /// Node files keyed by module name.
    pub nodes: BTreeMap<String, NodeFile>,
}

impl ProfileSet {
    /// Build from parts.
    pub fn new(graph: Graph, nodes: Vec<NodeFile>) -> ProfileSet {
        ProfileSet { graph, nodes: nodes.into_iter().map(|n| (n.name.clone(), n)).collect() }
    }

    /// Add or replace a node file (site customization).
    pub fn add_node_file(&mut self, node: NodeFile) {
        self.nodes.insert(node.name.clone(), node);
    }

    /// Validate that every module the graph mentions has a node file,
    /// returning one error per missing module (first referencing edge
    /// reported).
    pub fn validate(&self) -> Vec<KsError> {
        let mut missing: BTreeMap<&str, String> = BTreeMap::new();
        for edge in &self.graph.edges {
            for referenced in [&edge.from, &edge.to] {
                if !self.nodes.contains_key(referenced) {
                    missing
                        .entry(referenced.as_str())
                        .or_insert_with(|| format!("{} -> {}", edge.from, edge.to));
                }
            }
        }
        missing
            .into_iter()
            .map(|(referenced, by)| KsError::UndefinedNode {
                referenced: referenced.to_string(),
                by,
            })
            .collect()
    }

    /// Traverse and return the node files for an appliance, in order.
    pub fn modules_for(&self, root: &str, arch: Arch) -> Result<Vec<&NodeFile>> {
        let order = self.graph.traverse(root, arch)?;
        order
            .iter()
            .map(|name| {
                self.nodes.get(name).ok_or_else(|| KsError::UndefinedNode {
                    referenced: name.clone(),
                    by: format!("traversal from {root}"),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_graph() -> Graph {
        // The shape of Figures 3/4: compute and frontend appliances
        // sharing modules.
        Graph::parse(
            r#"<graph>
                <description>Rocks default appliance graph</description>
                <edge from="compute" to="mpi"/>
                <edge from="mpi" to="c-development"/>
                <edge from="frontend" to="mpi"/>
                <edge from="frontend" to="dhcp-server"/>
               </graph>"#,
        )
        .unwrap()
    }

    #[test]
    fn paper_traversal_compute_mpi_cdev() {
        // §6.1: "if the machine was configured to be a compute appliance,
        // the traversal of the graph would be the compute, mpi, and
        // c-development node files."
        let graph = paper_graph();
        let order = graph.traverse("compute", Arch::I686).unwrap();
        assert_eq!(order, vec!["compute", "mpi", "c-development"]);
    }

    #[test]
    fn roots_are_appliances() {
        let graph = paper_graph();
        assert_eq!(graph.roots(), vec!["compute", "frontend"]);
    }

    #[test]
    fn shared_modules_visited_once() {
        let graph = Graph::parse(
            r#"<graph>
                <edge from="compute" to="a"/>
                <edge from="compute" to="b"/>
                <edge from="a" to="shared"/>
                <edge from="b" to="shared"/>
               </graph>"#,
        )
        .unwrap();
        let order = graph.traverse("compute", Arch::I386).unwrap();
        assert_eq!(order, vec!["compute", "a", "shared", "b"]);
    }

    #[test]
    fn arch_gated_edges() {
        let graph = Graph::parse(
            r#"<graph>
                <edge from="compute" to="myrinet" arch="i386,i686,athlon"/>
                <edge from="compute" to="base"/>
               </graph>"#,
        )
        .unwrap();
        assert_eq!(
            graph.traverse("compute", Arch::I686).unwrap(),
            vec!["compute", "myrinet", "base"]
        );
        assert_eq!(graph.traverse("compute", Arch::Ia64).unwrap(), vec!["compute", "base"]);
    }

    #[test]
    fn cycles_do_not_hang_traversal() {
        let graph = Graph::parse(
            r#"<graph>
                <edge from="a" to="b"/>
                <edge from="b" to="a"/>
               </graph>"#,
        )
        .unwrap();
        let order = graph.traverse("a", Arch::I386).unwrap();
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn unknown_root_errors() {
        let graph = paper_graph();
        assert!(matches!(graph.traverse("toaster", Arch::I386), Err(KsError::UnknownRoot(_))));
    }

    #[test]
    fn missing_attrs_rejected() {
        assert!(Graph::parse(r#"<graph><edge from="a"/></graph>"#).is_err());
        assert!(Graph::parse(r#"<graph><edge to="a"/></graph>"#).is_err());
        assert!(Graph::parse(r#"<notgraph/>"#).is_err());
        assert!(Graph::parse(r#"<graph><edge from="a" to="b" arch="vax"/></graph>"#).is_err());
    }

    #[test]
    fn xml_round_trip() {
        let graph = paper_graph();
        let xml = graph.to_xml();
        let reparsed = Graph::parse(&xml).unwrap();
        assert_eq!(graph, reparsed);
    }

    #[test]
    fn profile_set_validation_finds_dangling_references() {
        let graph = paper_graph();
        let nodes = vec![
            NodeFile::parse("compute", "<kickstart><package>x</package></kickstart>").unwrap(),
            NodeFile::parse("mpi", "<kickstart><package>mpich</package></kickstart>").unwrap(),
        ];
        let set = ProfileSet::new(graph, nodes);
        let errors = set.validate();
        // Missing: c-development, frontend, dhcp-server.
        assert_eq!(errors.len(), 3);
        assert!(errors.iter().all(|e| matches!(e, KsError::UndefinedNode { .. })));
    }
}
