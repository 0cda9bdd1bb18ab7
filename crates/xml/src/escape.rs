//! Escaping and unescaping of XML character data and attribute values.

/// Escape text for use as element character data.
///
/// Only `&`, `<`, and `>` need escaping in character data (`>` strictly
/// only inside `]]>`, but escaping it unconditionally is always valid and
/// keeps the output unambiguous).
pub(crate) fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape text for use inside a double-quoted attribute value.
pub(crate) fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Resolve a single entity name (the text between `&` and `;`) to its
/// character, handling the five predefined entities plus decimal and
/// hexadecimal character references. Returns `None` for unknown entities.
pub(crate) fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = name.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping_round_trips_special_chars() {
        assert_eq!(escape_text("a < b && c > d"), "a &lt; b &amp;&amp; c &gt; d");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn attr_escaping_covers_quotes() {
        assert_eq!(escape_attr(r#"say "hi" & 'bye'"#), "say &quot;hi&quot; &amp; &apos;bye&apos;");
    }

    #[test]
    fn predefined_entities_resolve() {
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("apos"), Some('\''));
    }

    #[test]
    fn character_references_resolve() {
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#X2014"), Some('\u{2014}'));
    }

    #[test]
    fn unknown_entities_are_rejected() {
        assert_eq!(resolve_entity("nbsp"), None);
        assert_eq!(resolve_entity("#xzz"), None);
        assert_eq!(resolve_entity("#"), None);
        assert_eq!(resolve_entity("#x110000"), None); // beyond char range
    }
}
