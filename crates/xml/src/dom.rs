//! DOM layer: a parsed document as a tree of [`Node`]s.

use crate::pull::{Event, Parser};
use crate::{Result, XmlError};

/// The deepest element nesting [`Document::parse`] accepts: the root is
/// level 1. Rocks node and graph files nest three or four levels; the
/// limit keeps the recursive walks over a parsed tree (`text`, drop,
/// the writer) within any thread's stack.
pub const MAX_DEPTH: usize = 256;

/// A node in the document tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A comment (`<!-- ... -->`).
    Comment(String),
    /// A CDATA section, kept distinct from text so round-tripping preserves
    /// the shielding of shell snippets embedded in node files.
    CData(String),
}

impl Node {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// An element: name, attributes in document order, and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder-style: append a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Element name as written.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute pairs in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attrs
    }

    /// Look up an attribute case-insensitively (Rocks files mix cases).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// All children, in document order.
    pub fn children(&self) -> &[Node] {
        &self.children
    }

    /// Append a child node.
    pub fn push(&mut self, node: Node) {
        self.children.push(node);
    }

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(pair) = self.attrs.iter_mut().find(|(n, _)| n.eq_ignore_ascii_case(&name)) {
            pair.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Child elements whose name matches `name` case-insensitively.
    pub fn elements<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter_map(move |n| match n {
            Node::Element(e) if e.name.eq_ignore_ascii_case(name) => Some(e),
            _ => None,
        })
    }

    /// All child elements regardless of name.
    pub fn all_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| n.as_element())
    }

    /// First child element named `name` (case-insensitive).
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find_map(|n| match n {
            Node::Element(e) if e.name.eq_ignore_ascii_case(name) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element: text and CDATA children,
    /// recursing into child elements. Matches what a post-script body or
    /// package name "means" in a node file.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                Node::Text(t) | Node::CData(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
                Node::Comment(_) => {}
            }
        }
    }
}

/// A full document: optional declaration attributes plus a single root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Attributes of the `<?xml ...?>` declaration, if present.
    pub declaration: Option<Vec<(String, String)>>,
    root: Element,
}

impl Document {
    /// Wrap an element as a document with no declaration.
    pub fn from_root(root: Element) -> Self {
        Document { declaration: None, root }
    }

    /// Parse a complete document from text.
    pub fn parse(src: &str) -> Result<Document> {
        let mut parser = Parser::new(src);
        let mut declaration = None;
        // Stack of elements under construction; the finished root pops out
        // at the end.
        let mut stack: Vec<Element> = Vec::new();
        let mut root: Option<Element> = None;

        loop {
            // Inside the root every byte belongs to some event, so this is
            // where a start tag's `<` sits.
            let pos = parser.position();
            let Some(event) = parser.next()? else { break };
            match event {
                Event::Declaration { attrs } => declaration = Some(attrs),
                Event::StartTag { name, attrs, self_closing } => {
                    if stack.len() == MAX_DEPTH {
                        return Err(XmlError::TooDeep { pos, limit: MAX_DEPTH });
                    }
                    let mut el = Element::new(name);
                    el.attrs = attrs;
                    if self_closing {
                        attach(&mut stack, &mut root, el);
                    } else {
                        stack.push(el);
                    }
                }
                Event::EndTag { .. } => {
                    // The pull parser guarantees the stack matches.
                    let el = stack.pop().expect("parser verified nesting");
                    attach(&mut stack, &mut root, el);
                }
                Event::Text(t) => {
                    if let Some(top) = stack.last_mut() {
                        // Coalesce adjacent text (entity boundaries split runs).
                        if let Some(Node::Text(prev)) = top.children.last_mut() {
                            prev.push_str(&t);
                        } else {
                            top.children.push(Node::Text(t));
                        }
                    }
                }
                Event::Comment(c) => {
                    if let Some(top) = stack.last_mut() {
                        top.children.push(Node::Comment(c));
                    }
                    // Comments outside the root are legal and dropped.
                }
                Event::CData(c) => {
                    if let Some(top) = stack.last_mut() {
                        top.children.push(Node::CData(c));
                    }
                }
            }
        }
        match root {
            Some(root) => Ok(Document { declaration, root }),
            None => Err(XmlError::NoRootElement),
        }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }
}

fn attach(stack: &mut [Element], root: &mut Option<Element>, el: Element) {
    if let Some(parent) = stack.last_mut() {
        parent.children.push(Node::Element(el));
    } else {
        *root = Some(el);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"<?XML VERSION="1.0" STANDALONE="no"?>
<KICKSTART>
        <DESCRIPTION>Setup the DHCP server for the cluster</DESCRIPTION>
        <PACKAGE>dhcp</PACKAGE>
        <POST>
                <!-- tell dhcp just to listen to eth0 -->
                awk 'BEGIN { x = 1 } { print $0 }' /etc/sysconfig/dhcpd
        </POST>
</KICKSTART>
"#;

    #[test]
    fn parses_paper_figure_2_shape() {
        let doc = Document::parse(FIG2).unwrap();
        let root = doc.root();
        assert_eq!(root.name(), "KICKSTART");
        assert_eq!(
            root.child("description").unwrap().text(),
            "Setup the DHCP server for the cluster"
        );
        assert_eq!(root.child("package").unwrap().text(), "dhcp");
        let post = root.child("post").unwrap().text();
        assert!(post.contains("awk"));
        assert!(doc.declaration.is_some());
    }

    #[test]
    fn case_insensitive_lookups() {
        let doc = Document::parse("<A><B>x</B></A>").unwrap();
        assert!(doc.root().child("b").is_some());
        assert!(doc.root().child("B").is_some());
        assert!(doc.root().child("c").is_none());
    }

    #[test]
    fn nested_text_concatenation() {
        let doc = Document::parse("<a>one <b>two</b> three</a>").unwrap();
        assert_eq!(doc.root().text(), "one two three");
    }

    #[test]
    fn cdata_contributes_to_text() {
        let doc = Document::parse("<a><![CDATA[if [ $x < 3 ]]]></a>").unwrap();
        assert_eq!(doc.root().text(), "if [ $x < 3 ]");
    }

    #[test]
    fn attr_lookup_and_mutation() {
        let doc = Document::parse(r#"<edge from="a" to="b"/>"#).unwrap();
        assert_eq!(doc.root().attr("FROM"), Some("a"));
        let mut edge = doc.root().clone();
        edge.set_attr("to", "c");
        assert_eq!(edge.attr("to"), Some("c"));
        edge.set_attr("arch", "x86");
        assert_eq!(edge.attr("arch"), Some("x86"));
    }

    #[test]
    fn elements_iterator_filters_by_name() {
        let doc = Document::parse("<g><edge/><node/><edge/><edge/></g>").unwrap();
        assert_eq!(doc.root().elements("edge").count(), 3);
        assert_eq!(doc.root().all_elements().count(), 4);
    }

    #[test]
    fn empty_document_is_error() {
        assert!(matches!(Document::parse("   "), Err(XmlError::NoRootElement)));
        assert!(matches!(Document::parse("<!-- only -->"), Err(XmlError::NoRootElement)));
    }

    #[test]
    fn builder_api() {
        let mut el = Element::new("kickstart");
        el.push(Node::Element(Element::new("package").with_text("dhcp")));
        el.push(Node::Element(Element::new("package").with_attr("type", "meta").with_text("base")));
        assert_eq!(el.elements("package").count(), 2);
        assert_eq!(el.elements("package").nth(1).unwrap().attr("type"), Some("meta"));
    }
}
