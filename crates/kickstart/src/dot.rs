//! Graphviz DOT export of the configuration graph — the tooling behind
//! the paper's Figure 4 ("A visualization of the XML graph description").

use crate::graph::Graph;

/// Render a graph in DOT format. Appliance roots draw as boxes (the way
/// Figure 4 highlights `compute` and `frontend`), ordinary modules as
/// ellipses; arch-gated edges are labelled.
pub fn to_dot(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("digraph rocks_profiles {\n");
    out.push_str("  rankdir=TB;\n");
    out.push_str("  node [shape=ellipse, fontname=\"Helvetica\"];\n");
    for root in graph.roots() {
        out.push_str(&format!("  \"{root}\" [shape=box, style=bold];\n"));
    }
    for edge in &graph.edges {
        if edge.arches.is_empty() {
            out.push_str(&format!("  \"{}\" -> \"{}\";\n", edge.from, edge.to));
        } else {
            let label = edge.arches.iter().map(|a| a.as_str()).collect::<Vec<_>>().join(",");
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{label}\", style=dashed];\n",
                edge.from, edge.to
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::default_profiles;

    #[test]
    fn dot_output_contains_roots_as_boxes() {
        let set = default_profiles();
        let dot = to_dot(&set.graph);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"compute\" [shape=box"));
        assert!(dot.contains("\"frontend\" [shape=box"));
        assert!(dot.contains("\"compute\" -> \"mpi\";"));
    }

    #[test]
    fn arch_gated_edges_are_labelled() {
        let set = default_profiles();
        let dot = to_dot(&set.graph);
        assert!(dot.contains("\"compute\" -> \"myrinet\" [label=\"i386,i686,athlon\""));
    }

    #[test]
    fn every_edge_appears_exactly_once() {
        let set = default_profiles();
        let dot = to_dot(&set.graph);
        let arrow_count = dot.matches(" -> ").count();
        assert_eq!(arrow_count, set.graph.edges.len());
    }
}
