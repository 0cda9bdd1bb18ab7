//! SQL tokenizer.

use crate::{Result, SqlError};

/// A lexical token. Keywords are recognized case-insensitively at parse
/// time; the lexer only distinguishes shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword (bare word).
    Word(String),
    /// Integer literal.
    Int(i64),
    /// Single- or double-quoted string literal (quotes removed, doubled
    /// quotes unescaped).
    Str(String),
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
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();

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
                let quote = c;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some(&b) if b == quote => {
                            // Doubled quote = escaped quote.
                            if bytes.get(i + 1) == Some(&quote) {
                                s.push(quote as char);
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                        None => {
                            return Err(SqlError::Lex(format!(
                                "unterminated string literal starting with {s:?}"
                            )))
                        }
                    }
                }
                out.push(Token::Str(s));
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
                out.push(Token::Word(input[start..i].to_string()));
            }
            other => {
                return Err(SqlError::Lex(format!(
                    "unexpected character {:?} at byte {i}",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_paper_query() {
        let toks = lex("select nodes.name from nodes,memberships where \
                        nodes.membership = memberships.id")
        .unwrap();
        assert_eq!(toks[0], Token::Word("select".into()));
        assert_eq!(toks[1], Token::Word("nodes".into()));
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
        assert_eq!(
            lex("rack=-1").unwrap(),
            vec![Token::Word("rack".into()), Token::Eq, Token::Int(-1)]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("a <= b >= c != d <> e < f > g").unwrap(),
            vec![
                Token::Word("a".into()),
                Token::LtEq,
                Token::Word("b".into()),
                Token::GtEq,
                Token::Word("c".into()),
                Token::NotEq,
                Token::Word("d".into()),
                Token::NotEq,
                Token::Word("e".into()),
                Token::Lt,
                Token::Word("f".into()),
                Token::Gt,
                Token::Word("g".into()),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("select 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(
            toks,
            vec![Token::Word("select".into()), Token::Int(1), Token::Comma, Token::Int(2)]
        );
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(lex("select @x"), Err(SqlError::Lex(_))));
    }
}
