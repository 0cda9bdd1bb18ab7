//! Streaming pull parser.
//!
//! [`Parser`] walks the input byte-by-byte and yields [`Event`]s. It tracks
//! the open-element stack so that mismatched close tags are reported at the
//! point they occur, with positions.

use crate::escape::resolve_entity;
use crate::{Pos, Result, XmlError};

/// One parsed XML construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<?xml version="1.0" ...?>` (attributes preserved verbatim).
    /// Rocks node files open with a declaration (paper Figure 2).
    Declaration {
        /// Declaration attributes in order.
        attrs: Vec<(String, String)>,
    },
    /// `<name attr="v" ...>`; `self_closing` is true for `<name/>`.
    StartTag {
        /// Element name as written.
        name: String,
        /// Attributes in order.
        attrs: Vec<(String, String)>,
        /// True for `<name/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Element name as written.
        name: String,
    },
    /// Character data with entities resolved. Adjacent text is coalesced.
    Text(String),
    /// `<!-- ... -->` contents.
    Comment(String),
    /// `<![CDATA[ ... ]]>` contents, verbatim.
    CData(String),
}

/// A pull parser over a complete in-memory document.
pub struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Names of currently-open elements, for close-tag matching.
    stack: Vec<String>,
    /// Set once the root element has fully closed; anything but whitespace
    /// or comments afterwards is an error.
    root_closed: bool,
    seen_root: bool,
}

impl<'a> Parser<'a> {
    /// Create a parser over `src`.
    pub fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            stack: Vec::new(),
            root_closed: false,
            seen_root: false,
        }
    }

    /// Current position, for error reporting.
    pub fn position(&self) -> Pos {
        Pos { offset: self.pos, line: self.line, col: self.col }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn eof_err(&self, context: &'static str) -> XmlError {
        XmlError::UnexpectedEof { pos: self.position(), context }
    }

    /// Read a name: `[A-Za-z_:][A-Za-z0-9_:.-]*`. XML names may contain more
    /// exotic characters, but Rocks configuration files are ASCII.
    fn read_name(&mut self, context: &'static str) -> Result<String> {
        let start_pos = self.position();
        let mut name = String::new();
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {
                name.push(b as char);
                self.bump();
            }
            Some(b) => {
                return Err(XmlError::Unexpected {
                    pos: start_pos,
                    found: b as char,
                    expected: context,
                })
            }
            None => return Err(self.eof_err(context)),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'.' | b'-') {
                name.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        Ok(name)
    }

    /// Read an entity reference after the `&` has been consumed.
    fn read_entity(&mut self) -> Result<char> {
        let start = self.position();
        let mut ent = String::new();
        loop {
            match self.bump() {
                Some(b';') => break,
                Some(b) if ent.len() < 12 => ent.push(b as char),
                Some(_) => {
                    return Err(XmlError::UnknownEntity { pos: start, entity: ent });
                }
                None => return Err(self.eof_err("entity reference")),
            }
        }
        resolve_entity(&ent).ok_or(XmlError::UnknownEntity { pos: start, entity: ent })
    }

    /// Read attributes up to (but not including) `>` / `/>` / `?>`.
    fn read_attrs(&mut self, allow_question: bool) -> Result<Vec<(String, String)>> {
        let mut attrs: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => return Ok(attrs),
                Some(b'?') if allow_question => return Ok(attrs),
                Some(_) => {}
                None => return Err(self.eof_err("attribute list")),
            }
            let pos = self.position();
            let name = self.read_name("attribute name")?;
            if attrs.iter().any(|(n, _)| n == &name) {
                return Err(XmlError::DuplicateAttribute { pos, name });
            }
            self.skip_ws();
            if !self.eat_str("=") {
                // Attribute without value (HTML-ism); treat as empty string,
                // which keeps hand-written files forgiving.
                attrs.push((name, String::new()));
                continue;
            }
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => {
                    self.bump();
                    q
                }
                Some(b) => {
                    return Err(XmlError::Unexpected {
                        pos: self.position(),
                        found: b as char,
                        expected: "opening quote for attribute value",
                    })
                }
                None => return Err(self.eof_err("attribute value")),
            };
            let mut value = String::new();
            loop {
                match self.peek() {
                    Some(q) if q == quote => {
                        self.bump();
                        break;
                    }
                    Some(b'&') => {
                        self.bump();
                        value.push(self.read_entity()?);
                    }
                    Some(_) => {
                        // Attribute values in our corpus are ASCII, but pass
                        // through arbitrary bytes as chars to stay lossless
                        // for UTF-8 multi-byte sequences.
                        let b = self.bump().unwrap();
                        push_byte(&mut value, b, self.src, &mut self.pos, &mut self.col);
                    }
                    None => return Err(self.eof_err("attribute value")),
                }
            }
            attrs.push((name, value));
        }
    }

    /// Pull the next event, or `None` at a well-formed end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Event>> {
        loop {
            if self.pos >= self.src.len() {
                if let Some(open) = self.stack.last() {
                    return Err(XmlError::MismatchedClose {
                        pos: self.position(),
                        open: open.clone(),
                        close: "<eof>".into(),
                    });
                }
                return Ok(None);
            }

            if self.peek() == Some(b'<') {
                self.bump();
                return self.after_angle();
            }

            // Character data run.
            let mut text = String::new();
            let start = self.position();
            while let Some(b) = self.peek() {
                match b {
                    b'<' => break,
                    b'&' => {
                        self.bump();
                        text.push(self.read_entity()?);
                    }
                    _ => {
                        let b = self.bump().unwrap();
                        push_byte(&mut text, b, self.src, &mut self.pos, &mut self.col);
                    }
                }
            }
            if self.stack.is_empty() {
                if text.trim().is_empty() {
                    continue; // inter-element whitespace outside the root
                }
                if self.root_closed {
                    return Err(XmlError::TrailingContent { pos: start });
                }
                return Err(XmlError::NoOpenElement { pos: start });
            }
            return Ok(Some(Event::Text(text)));
        }
    }

    /// Handle everything after a consumed `<`.
    fn after_angle(&mut self) -> Result<Option<Event>> {
        if self.eat_str("!--") {
            return self.read_comment().map(Some);
        }
        if self.eat_str("![CDATA[") {
            return self.read_cdata().map(Some);
        }
        if self.eat_str("?") {
            return self.read_declaration().map(Some);
        }
        if self.eat_str("/") {
            let pos = self.position();
            let name = self.read_name("close tag name")?;
            self.skip_ws();
            if !self.eat_str(">") {
                return match self.peek() {
                    Some(b) => Err(XmlError::Unexpected {
                        pos: self.position(),
                        found: b as char,
                        expected: "'>' to finish close tag",
                    }),
                    None => Err(self.eof_err("close tag")),
                };
            }
            match self.stack.pop() {
                Some(open) if open == name => {
                    if self.stack.is_empty() {
                        self.root_closed = true;
                    }
                    Ok(Some(Event::EndTag { name }))
                }
                Some(open) => Err(XmlError::MismatchedClose { pos, open, close: name }),
                None => Err(XmlError::NoOpenElement { pos }),
            }
        } else {
            // Start tag.
            let pos = self.position();
            if self.root_closed {
                return Err(XmlError::TrailingContent { pos });
            }
            let name = self.read_name("element name")?;
            let attrs = self.read_attrs(false)?;
            self.skip_ws();
            let self_closing = self.eat_str("/");
            if !self.eat_str(">") {
                return match self.peek() {
                    Some(b) => Err(XmlError::Unexpected {
                        pos: self.position(),
                        found: b as char,
                        expected: "'>' to finish start tag",
                    }),
                    None => Err(self.eof_err("start tag")),
                };
            }
            self.seen_root = true;
            if !self_closing {
                self.stack.push(name.clone());
            } else if self.stack.is_empty() {
                self.root_closed = true;
            }
            Ok(Some(Event::StartTag { name, attrs, self_closing }))
        }
    }

    fn read_comment(&mut self) -> Result<Event> {
        let mut body = String::new();
        loop {
            if self.eat_str("-->") {
                return Ok(Event::Comment(body));
            }
            match self.bump() {
                Some(b) => push_byte(&mut body, b, self.src, &mut self.pos, &mut self.col),
                None => return Err(self.eof_err("comment")),
            }
        }
    }

    fn read_cdata(&mut self) -> Result<Event> {
        let mut body = String::new();
        loop {
            if self.eat_str("]]>") {
                return Ok(Event::CData(body));
            }
            match self.bump() {
                Some(b) => push_byte(&mut body, b, self.src, &mut self.pos, &mut self.col),
                None => return Err(self.eof_err("CDATA section")),
            }
        }
    }

    /// Parse `<?name attr=... ?>`. The Rocks corpus writes `<?XML
    /// VERSION="1.0" STANDALONE="no"?>` (uppercase), so the declaration
    /// name is accepted case-insensitively and preserved in attributes.
    fn read_declaration(&mut self) -> Result<Event> {
        let _name = self.read_name("declaration name")?;
        let attrs = self.read_attrs(true)?;
        self.skip_ws();
        if !self.eat_str("?>") {
            return match self.peek() {
                Some(b) => Err(XmlError::Unexpected {
                    pos: self.position(),
                    found: b as char,
                    expected: "'?>' to finish declaration",
                }),
                None => Err(self.eof_err("declaration")),
            };
        }
        Ok(Event::Declaration { attrs })
    }
}

/// Push a byte that may begin a UTF-8 multi-byte sequence; the remaining
/// continuation bytes are consumed directly (they can never be XML-special).
fn push_byte(out: &mut String, first: u8, src: &[u8], pos: &mut usize, col: &mut u32) {
    if first < 0x80 {
        out.push(first as char);
        return;
    }
    let extra = if first >= 0xF0 {
        3
    } else if first >= 0xE0 {
        2
    } else {
        1
    };
    let mut buf = vec![first];
    for _ in 0..extra {
        if let Some(&b) = src.get(*pos) {
            buf.push(b);
            *pos += 1;
            *col += 1;
        }
    }
    match std::str::from_utf8(&buf) {
        Ok(s) => out.push_str(s),
        Err(_) => out.push(char::REPLACEMENT_CHARACTER),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(src: &str) -> Result<Vec<Event>> {
        let mut p = Parser::new(src);
        let mut out = Vec::new();
        while let Some(ev) = p.next()? {
            out.push(ev);
        }
        Ok(out)
    }

    #[test]
    fn simple_element() {
        let evs = collect("<a>hi</a>").unwrap();
        assert_eq!(
            evs,
            vec![
                Event::StartTag { name: "a".into(), attrs: vec![], self_closing: false },
                Event::Text("hi".into()),
                Event::EndTag { name: "a".into() },
            ]
        );
    }

    #[test]
    fn attributes_and_self_closing() {
        let evs = collect(r#"<edge from="compute" to="mpi"/>"#).unwrap();
        assert_eq!(
            evs,
            vec![Event::StartTag {
                name: "edge".into(),
                attrs: vec![("from".into(), "compute".into()), ("to".into(), "mpi".into())],
                self_closing: true,
            }]
        );
    }

    #[test]
    fn single_quoted_attributes() {
        let evs = collect("<a x='1'></a>").unwrap();
        assert!(matches!(&evs[0], Event::StartTag { attrs, .. } if attrs[0].1 == "1"));
    }

    #[test]
    fn declaration_like_rocks_files() {
        // Paper Figure 2 opens with an uppercase declaration.
        let evs =
            collect(r#"<?XML VERSION="1.0" STANDALONE="no"?><KICKSTART></KICKSTART>"#).unwrap();
        assert!(matches!(&evs[0], Event::Declaration { attrs }
            if attrs == &vec![("VERSION".to_string(), "1.0".to_string()),
                              ("STANDALONE".to_string(), "no".to_string())]));
    }

    #[test]
    fn comments_and_cdata() {
        let evs = collect("<a><!-- tell dhcp to listen --><![CDATA[x < y && z]]></a>").unwrap();
        assert_eq!(evs[1], Event::Comment(" tell dhcp to listen ".into()));
        assert_eq!(evs[2], Event::CData("x < y && z".into()));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let evs = collect(r#"<a k="&lt;v&gt;">&amp;&#65;</a>"#).unwrap();
        assert!(matches!(&evs[0], Event::StartTag { attrs, .. } if attrs[0].1 == "<v>"));
        assert_eq!(evs[1], Event::Text("&A".into()));
    }

    #[test]
    fn mismatched_close_is_reported() {
        let err = collect("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedClose { open, close, .. }
            if open == "b" && close == "a"));
    }

    #[test]
    fn truncated_input_is_reported() {
        assert!(matches!(collect("<a><b>"), Err(XmlError::MismatchedClose { .. })));
        assert!(matches!(collect("<a"), Err(XmlError::UnexpectedEof { .. })));
        assert!(matches!(collect("<a attr="), Err(XmlError::UnexpectedEof { .. })));
        assert!(matches!(collect("<!-- unterminated"), Err(XmlError::UnexpectedEof { .. })));
    }

    #[test]
    fn trailing_content_is_rejected() {
        assert!(matches!(collect("<a/>junk"), Err(XmlError::TrailingContent { .. })));
        assert!(matches!(collect("<a></a><b/>"), Err(XmlError::TrailingContent { .. })));
        // Trailing whitespace and comments are fine.
        assert!(collect("<a/>  \n <!-- bye -->").is_ok());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(collect(r#"<a x="1" x="2"/>"#), Err(XmlError::DuplicateAttribute { .. })));
    }

    #[test]
    fn positions_track_lines() {
        let err = collect("<a>\n\n  <b></c>").unwrap_err();
        match err {
            XmlError::MismatchedClose { pos, .. } => {
                assert_eq!(pos.line, 3);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(matches!(collect("<a>&nope;</a>"), Err(XmlError::UnknownEntity { .. })));
    }

    #[test]
    fn utf8_text_passes_through() {
        let evs = collect("<a>Pèdro — ✓</a>").unwrap();
        assert_eq!(evs[1], Event::Text("Pèdro — ✓".into()));
    }

    #[test]
    fn valueless_attribute_is_empty_string() {
        let evs = collect("<package disable></package>").unwrap();
        assert!(matches!(&evs[0], Event::StartTag { attrs, .. }
            if attrs == &vec![("disable".to_string(), String::new())]));
    }
}
