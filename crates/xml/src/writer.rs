//! Serialization of [`Document`]s back to XML text.

use crate::dom::{Document, Element, Node};
use crate::escape::{escape_attr, escape_text};

/// Output formatting style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStyle {
    /// No inserted whitespace; byte-faithful to the tree content. Use this
    /// when round-trip fidelity matters (e.g. re-emitting post scripts).
    Compact,
    /// Indented output (two spaces per level). Elements with only text
    /// content stay on one line; mixed content is emitted compactly to
    /// avoid corrupting embedded scripts.
    Pretty,
}

/// Serialize a whole document, including its declaration if present.
pub fn write_document(doc: &Document, style: WriteStyle) -> String {
    let mut out = String::new();
    if let Some(attrs) = &doc.declaration {
        out.push_str("<?xml");
        for (name, value) in attrs {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            out.push_str(&escape_attr(value));
            out.push('"');
        }
        out.push_str("?>");
        if style == WriteStyle::Pretty {
            out.push('\n');
        }
    }
    write_element_into(&mut out, doc.root(), style, 0);
    if style == WriteStyle::Pretty && !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

fn write_element_into(out: &mut String, el: &Element, style: WriteStyle, depth: usize) {
    let indent = |out: &mut String, depth: usize| {
        if style == WriteStyle::Pretty {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    };

    indent(out, depth);
    out.push('<');
    out.push_str(el.name());
    for (name, value) in el.attrs() {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        out.push_str(&escape_attr(value));
        out.push('"');
    }

    if el.children().is_empty() {
        out.push_str("/>");
        if style == WriteStyle::Pretty {
            out.push('\n');
        }
        return;
    }
    out.push('>');

    // Decide formatting for the body: if every child is an element (no text
    // or CDATA), pretty mode may indent children on their own lines.
    // Otherwise emit the body compactly so whitespace-sensitive content
    // (shell scripts in <post> bodies) survives round trips.
    let element_only =
        el.children().iter().all(|c| matches!(c, Node::Element(_) | Node::Comment(_)));

    if style == WriteStyle::Pretty && element_only {
        out.push('\n');
        for child in el.children() {
            match child {
                Node::Element(e) => write_element_into(out, e, style, depth + 1),
                Node::Comment(c) => {
                    indent(out, depth + 1);
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->\n");
                }
                _ => unreachable!("element_only checked above"),
            }
        }
        indent(out, depth);
    } else {
        for child in el.children() {
            match child {
                Node::Element(e) => write_element_into(out, e, WriteStyle::Compact, 0),
                Node::Text(t) => out.push_str(&escape_text(t)),
                Node::Comment(c) => {
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
                Node::CData(c) => {
                    out.push_str("<![CDATA[");
                    out.push_str(c);
                    out.push_str("]]>");
                }
            }
        }
    }

    out.push_str("</");
    out.push_str(el.name());
    out.push('>');
    if style == WriteStyle::Pretty {
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Document;

    #[test]
    fn compact_round_trip_preserves_content() {
        let src = r#"<kickstart><description>DHCP &amp; friends</description><package>dhcp</package><post>awk '{ print $0 }' &lt; in</post></kickstart>"#;
        let doc = Document::parse(src).unwrap();
        let emitted = write_document(&doc, WriteStyle::Compact);
        let reparsed = Document::parse(&emitted).unwrap();
        assert_eq!(doc.root(), reparsed.root());
    }

    #[test]
    fn cdata_survives_round_trip() {
        let src = "<post><![CDATA[if [ $a < $b ]; then echo \"x&y\"; fi]]></post>";
        let doc = Document::parse(src).unwrap();
        let emitted = write_document(&doc, WriteStyle::Compact);
        assert!(emitted.contains("<![CDATA["));
        let reparsed = Document::parse(&emitted).unwrap();
        assert_eq!(doc.root().text(), reparsed.root().text());
    }

    #[test]
    fn pretty_indents_element_only_bodies() {
        let doc = Document::parse(
            "<graph><edge from=\"a\" to=\"b\"/><edge from=\"b\" to=\"c\"/></graph>",
        )
        .unwrap();
        let emitted = write_document(&doc, WriteStyle::Pretty);
        assert_eq!(
            emitted,
            "<graph>\n  <edge from=\"a\" to=\"b\"/>\n  <edge from=\"b\" to=\"c\"/>\n</graph>\n"
        );
    }

    #[test]
    fn pretty_keeps_text_bodies_inline() {
        let doc = Document::parse("<a><b>keep  my\n spacing</b></a>").unwrap();
        let emitted = write_document(&doc, WriteStyle::Pretty);
        assert!(emitted.contains("<b>keep  my\n spacing</b>"));
        let reparsed = Document::parse(&emitted).unwrap();
        assert_eq!(reparsed.root().child("b").unwrap().text(), "keep  my\n spacing");
    }

    #[test]
    fn declaration_is_emitted() {
        let doc = Document::parse(r#"<?xml version="1.0"?><a/>"#).unwrap();
        let emitted = write_document(&doc, WriteStyle::Compact);
        assert!(emitted.starts_with(r#"<?xml version="1.0"?>"#));
    }

    #[test]
    fn attribute_escaping() {
        let doc = Document::parse(r#"<a v="&quot;x&quot; &amp; y"/>"#).unwrap();
        let emitted = write_document(&doc, WriteStyle::Compact);
        let reparsed = Document::parse(&emitted).unwrap();
        assert_eq!(reparsed.root().attr("v"), Some("\"x\" & y"));
    }
}
