//! Error type for parsing the textual forms of BGP values.

use std::fmt;

/// An error produced when parsing the textual representation of a BGP value
/// (ASN, prefix, community, AS path, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What kind of value was being parsed (e.g. `"community"`).
    pub what: &'static str,
    /// The offending input, truncated for display.
    pub input: String,
    /// Human-readable reason.
    pub reason: String,
}

impl ParseError {
    /// Create a new parse error for `what`, failing on `input` for `reason`.
    pub fn new(what: &'static str, input: &str, reason: impl Into<String>) -> Self {
        let mut input = input.to_string();
        if input.len() > 64 {
            let mut cut = 64;
            while !input.is_char_boundary(cut) {
                cut -= 1;
            }
            input.truncate(cut);
            input.push('…');
        }
        ParseError {
            what,
            input,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} {:?}: {}", self.what, self.input, self.reason)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_reason() {
        let e = ParseError::new("community", "1299:x", "bad beta");
        let s = e.to_string();
        assert!(s.contains("community"));
        assert!(s.contains("1299:x"));
        assert!(s.contains("bad beta"));
    }

    #[test]
    fn long_input_is_truncated() {
        let long = "a".repeat(200);
        let e = ParseError::new("asn", &long, "too long");
        assert!(e.input.chars().count() <= 65);
        assert!(e.input.ends_with('…'));
    }

    #[test]
    fn short_input_is_kept_verbatim() {
        let e = ParseError::new("community", "1299:x", "bad beta");
        assert_eq!(e.input, "1299:x");
        assert_eq!(e.to_string(), r#"invalid community "1299:x": bad beta"#);
        let exactly = "7".repeat(64);
        assert_eq!(ParseError::new("asn", &exactly, "r").input, exactly);
    }

    #[test]
    fn truncation_never_splits_a_character() {
        // 3-byte characters: byte 64 falls inside the 22nd one.
        let long = "€".repeat(30);
        let e = ParseError::new("as path", &long, "not a number");
        assert!(e.input.ends_with('…'));
        assert_eq!(e.input.trim_end_matches('…'), "€".repeat(21));
        assert!(e.to_string().contains("not a number"));
    }
}
