//! SQL tokenizer.
//!
//! Tokens borrow from the statement text: a word is a slice of it, and so
//! is a string literal's body unless it contains a doubled quote, the one
//! case that needs an unescaped copy. Lexing a statement allocates the
//! token list and nothing else; the parser then copies out only what the
//! AST keeps (see [`crate::parser`]).

use crate::{Result, SqlError};
use std::borrow::Cow;

/// A lexical token. Keywords are recognized case-insensitively at parse
/// time; the lexer only distinguishes shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier or keyword (bare word).
    Word(&'a str),
    /// Integer literal.
    Int(i64),
    /// Single- or double-quoted string literal (quotes removed, doubled
    /// quotes unescaped). Borrowed from the statement unless it had a
    /// doubled quote.
    Str(Cow<'a, str>),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `;`
    Semicolon,
}

/// Tokenize a statement. Comments (`-- ...`) run to end of line.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    let mut i = 0;
    // Every token takes at least one byte, so the list never regrows.
    let mut out = Vec::with_capacity(input.len());

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b'.' => {
                out.push(Token::Dot);
                i += 1;
            }
            b'*' => {
                out.push(Token::Star);
                i += 1;
            }
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b';' => {
                out.push(Token::Semicolon);
                i += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                i += 1;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token::NotEq);
                i += 2;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::NotEq);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::GtEq);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            b'\'' | b'"' => {
                let (lit, end) = string_literal(input, i)?;
                out.push(Token::Str(lit));
                i = end;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let n = text
                    .parse::<i64>()
                    .map_err(|_| SqlError::Lex(format!("integer out of range: {text}")))?;
                out.push(Token::Int(n));
            }
            b'-' if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                // Negative literal. The grammar has no subtraction, so a
                // '-' directly before digits is always a sign.
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let n = text
                    .parse::<i64>()
                    .map_err(|_| SqlError::Lex(format!("integer out of range: {text}")))?;
                out.push(Token::Int(n));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Word(&input[start..i]));
            }
            _ => {
                // Every arm above stops on an ASCII byte or at the end, so
                // `i` is on a character boundary.
                let c = input[i..].chars().next().expect("a character at a boundary");
                return Err(SqlError::Lex(format!("unexpected character {c:?} at byte {i}")));
            }
        }
    }
    Ok(out)
}

/// The string literal whose opening quote is at byte `open`, and the byte
/// just past its closing quote. The body is a slice of `input` unless it
/// holds a doubled quote.
fn string_literal(input: &str, open: usize) -> Result<(Cow<'_, str>, usize)> {
    let bytes = input.as_bytes();
    let quote = bytes[open];
    let body = open + 1;
    let mut end = body;
    let mut doubled = false;
    loop {
        match bytes[end..].iter().position(|&b| b == quote) {
            Some(k) if bytes.get(end + k + 1) == Some(&quote) => {
                doubled = true;
                end += k + 2;
            }
            Some(k) => {
                end += k;
                break;
            }
            None => {
                return Err(SqlError::Lex(format!(
                    "unterminated string literal starting with {:?}",
                    unescape(&input[body..], quote)
                )))
            }
        }
    }
    // Quotes are ASCII, so `body` and `end` are character boundaries.
    let text = &input[body..end];
    let lit = if doubled { Cow::Owned(unescape(text, quote)) } else { Cow::Borrowed(text) };
    Ok((lit, end + 1))
}

/// `text` with each doubled `quote` made single, in one allocation.
fn unescape(text: &str, quote: u8) -> String {
    let doubled = if quote == b'\'' { "''" } else { "\"\"" };
    let mut out = String::with_capacity(text.len());
    for (k, part) in text.split(doubled).enumerate() {
        if k > 0 {
            out.push(quote as char);
        }
        out.push_str(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_paper_query() {
        let toks = lex("select nodes.name from nodes,memberships where \
                        nodes.membership = memberships.id")
        .unwrap();
        assert_eq!(toks[0], Token::Word("select"));
        assert_eq!(toks[1], Token::Word("nodes"));
        assert_eq!(toks[2], Token::Dot);
        assert!(toks.contains(&Token::Comma));
        assert!(toks.contains(&Token::Eq));
    }

    #[test]
    fn string_literals_and_escapes() {
        assert_eq!(lex("'abc'").unwrap(), vec![Token::Str("abc".into())]);
        assert_eq!(lex("\"x y\"").unwrap(), vec![Token::Str("x y".into())]);
        assert_eq!(lex("'it''s'").unwrap(), vec![Token::Str("it's".into())]);
        assert!(matches!(lex("'open"), Err(SqlError::Lex(_))));
    }

    #[test]
    fn numbers_including_negative() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("-7").unwrap(), vec![Token::Int(-7)]);
        assert_eq!(lex("rack=-1").unwrap(), vec![Token::Word("rack"), Token::Eq, Token::Int(-1)]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("a <= b >= c != d <> e < f > g").unwrap(),
            vec![
                Token::Word("a"),
                Token::LtEq,
                Token::Word("b"),
                Token::GtEq,
                Token::Word("c"),
                Token::NotEq,
                Token::Word("d"),
                Token::NotEq,
                Token::Word("e"),
                Token::Lt,
                Token::Word("f"),
                Token::Gt,
                Token::Word("g"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("select 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(toks, vec![Token::Word("select"), Token::Int(1), Token::Comma, Token::Int(2)]);
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(lex("select @x"), Err(SqlError::Lex(_))));
    }
}
