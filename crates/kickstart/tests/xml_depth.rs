//! Node and graph files are untrusted input: nesting deeper than
//! `rocks_xml::MAX_DEPTH` is a typed error at parse time, never a stack
//! overflow in the recursive walks over the tree (`text`, drop).

use rocks_kickstart::{Graph, KsError, NodeFile};
use rocks_xml::{Document, XmlError, MAX_DEPTH};

/// `depth` nested `<x>` elements around `inner`, below `prefix`.
fn nested(prefix: &str, depth: usize, inner: &str, suffix: &str) -> String {
    format!("{prefix}{}{inner}{}{suffix}", "<x>".repeat(depth), "</x>".repeat(depth))
}

#[test]
fn the_deepest_accepted_document_parses_and_walks() {
    let doc = Document::parse(&nested("", MAX_DEPTH, "deep", "")).unwrap();
    assert_eq!(doc.root().text(), "deep");
    let mut level = doc.root();
    for _ in 1..MAX_DEPTH {
        level = level.child("x").unwrap();
    }
    assert_eq!(level.children().len(), 1, "level {MAX_DEPTH} holds the text");

    // A self-closing element one level further down is still an element
    // opened too deep.
    let src = nested("", MAX_DEPTH, "<y/>", "");
    let offset = "<x>".len() * MAX_DEPTH;
    assert_eq!(
        Document::parse(&src),
        Err(XmlError::TooDeep {
            pos: rocks_xml::Pos { offset, line: 1, col: offset as u32 + 1 },
            limit: MAX_DEPTH
        })
    );
}

#[test]
fn two_hundred_thousand_levels_are_a_typed_error() {
    let err = Document::parse(&nested("", 200_000, "", "")).unwrap_err();
    assert!(matches!(err, XmlError::TooDeep { limit: MAX_DEPTH, .. }), "{err:?}");
    assert!(err.to_string().ends_with("element nested deeper than 256 levels"), "{err}");
}

#[test]
fn node_and_graph_files_surface_the_error() {
    let too_deep = |e: KsError| matches!(&e, KsError::Xml(m) if m.contains("nested deeper"));

    let file = nested("<kickstart><post>", 200_000, "reboot", "</post></kickstart>");
    assert!(too_deep(NodeFile::parse("hostile", &file).unwrap_err()));
    let graph = nested("<graph><description>", 200_000, "", "</description></graph>");
    assert!(too_deep(Graph::parse(&graph).unwrap_err()));

    // Two levels under the root leave room for MAX_DEPTH - 2 more.
    let file = nested("<kickstart><post>", MAX_DEPTH - 2, "echo ok", "</post></kickstart>");
    let node = NodeFile::parse("deep", &file).unwrap();
    assert_eq!(node.posts[0].script.trim(), "echo ok");
    let graph = nested("<graph><description>", MAX_DEPTH - 2, "deep", "</description></graph>");
    assert_eq!(Graph::parse(&graph).unwrap().description, "deep");
}
