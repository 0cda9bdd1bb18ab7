#![warn(missing_docs)]

//! A minimal, dependency-free XML library sufficient for the NPACI Rocks
//! configuration vocabulary (node files and graph files).
//!
//! The Rocks installation infrastructure (paper §6.1) describes every node
//! behaviour with a framework of small XML files. This crate provides the
//! three layers that framework needs:
//!
//! * [`pull`] — a streaming pull parser producing [`pull::Event`]s,
//! * [`dom`] — a tree representation ([`Document`], [`Element`], [`Node`])
//!   built on top of the pull parser,
//! * [`writer`] — serialization back to text with correct escaping.
//!
//! The parser handles the subset of XML 1.0 that configuration files use:
//! elements, attributes, character data, comments, CDATA sections, the XML
//! declaration, and the five predefined entities. It does not implement
//! DTDs, namespaces, or processing instructions beyond the declaration —
//! none of which appear in Rocks configuration files.
//!
//! # Example
//!
//! ```
//! use rocks_xml::Document;
//!
//! let doc = Document::parse(
//!     "<kickstart><package>dhcp</package><post>echo hi</post></kickstart>",
//! ).unwrap();
//! let root = doc.root();
//! assert_eq!(root.name(), "kickstart");
//! assert_eq!(root.child("package").unwrap().text(), "dhcp");
//! ```

pub mod dom;
pub mod escape;
pub mod pull;
pub mod writer;

pub use dom::{Document, Element, Node, MAX_DEPTH};
pub use pull::{Event, Parser};
pub use writer::{write_document, write_element, WriteStyle};

/// Byte offset plus human-oriented line/column position within a source
/// document, used in error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Byte offset from the start of the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes, which equals characters for the
    /// ASCII configuration files Rocks uses).
    pub col: u32,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced while parsing XML text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof {
        /// Where input ended.
        pos: Pos,
        /// What was being parsed.
        context: &'static str,
    },
    /// A character that cannot begin or continue the current construct.
    Unexpected {
        /// Where it appeared.
        pos: Pos,
        /// The offending character.
        found: char,
        /// What the parser wanted.
        expected: &'static str,
    },
    /// `</b>` closed an element opened as `<a>`.
    MismatchedClose {
        /// Position of the close tag.
        pos: Pos,
        /// Name of the open element.
        open: String,
        /// Name in the close tag.
        close: String,
    },
    /// Text or a close tag appeared with no element open.
    NoOpenElement {
        /// Where it appeared.
        pos: Pos,
    },
    /// An entity reference (`&...;`) that is not one of the five
    /// predefined entities or a character reference.
    UnknownEntity {
        /// Position of the `&`.
        pos: Pos,
        /// The entity name as written.
        entity: String,
    },
    /// The same attribute appeared twice on one tag.
    DuplicateAttribute {
        /// Position of the duplicate.
        pos: Pos,
        /// Attribute name.
        name: String,
    },
    /// The document contained no root element.
    NoRootElement,
    /// Non-whitespace content after the root element closed.
    TrailingContent {
        /// Where it appeared.
        pos: Pos,
    },
    /// An element opened deeper than [`dom::MAX_DEPTH`]. Refused before
    /// the tree grows, so nothing that walks a parsed tree recursively
    /// can exhaust the stack.
    TooDeep {
        /// Position of the element's start tag.
        pos: Pos,
        /// The nesting limit.
        limit: usize,
    },
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::UnexpectedEof { pos, context } => {
                write!(f, "{pos}: unexpected end of input while parsing {context}")
            }
            XmlError::Unexpected { pos, found, expected } => {
                write!(f, "{pos}: unexpected character {found:?}, expected {expected}")
            }
            XmlError::MismatchedClose { pos, open, close } => {
                write!(f, "{pos}: mismatched close tag </{close}> for open element <{open}>")
            }
            XmlError::NoOpenElement { pos } => {
                write!(f, "{pos}: close tag or content outside any element")
            }
            XmlError::UnknownEntity { pos, entity } => {
                write!(f, "{pos}: unknown entity &{entity};")
            }
            XmlError::DuplicateAttribute { pos, name } => {
                write!(f, "{pos}: duplicate attribute {name:?}")
            }
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::TrailingContent { pos } => {
                write!(f, "{pos}: content after the root element")
            }
            XmlError::TooDeep { pos, limit } => {
                write!(f, "{pos}: element nested deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, XmlError>;
