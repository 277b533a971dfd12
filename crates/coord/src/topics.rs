//! Hierarchical topics and wildcard filters (WS-Topics-flavoured).
//!
//! The paper positions WS-Gossip inside the OASIS WS-Notification
//! ecosystem (§1, citing Niblett & Graham), whose *topics* are
//! `/`-separated hierarchies with wildcard subscriptions. This module
//! implements that model:
//!
//! * a concrete topic is a path: `market/nyse/ACME`;
//! * a filter may use `*` for exactly one segment (`market/*/ACME`) and a
//!   trailing `**` for any remaining depth (`market/**`);
//! * an exact path is also a filter (matching only itself), so plain
//!   string topics keep working unchanged.

use std::fmt;

use crate::error::CoordError;

/// A parsed topic filter.
///
/// ```
/// use wsg_coord::topics::TopicFilter;
///
/// let filter: TopicFilter = "market/*/trades".parse().unwrap();
/// assert!(filter.matches("market/nyse/trades"));
/// assert!(!filter.matches("market/nyse/quotes"));
/// assert!(!filter.matches("market/trades"));
///
/// let deep: TopicFilter = "market/**".parse().unwrap();
/// assert!(deep.matches("market/nyse/ACME"));
/// assert!(deep.matches("market"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicFilter {
    segments: Vec<Segment>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Segment {
    Literal(String),
    AnyOne,
    AnyDepth, // only valid as the final segment
}

impl TopicFilter {

    /// Whether `topic` (a concrete path) matches this filter.
    pub fn matches(&self, topic: &str) -> bool {
        let parts: Vec<&str> = topic.split('/').collect();
        self.matches_parts(&parts)
    }

    fn matches_parts(&self, parts: &[&str]) -> bool {
        let mut index = 0;
        for segment in &self.segments {
            match segment {
                Segment::AnyDepth => return true, // consumes the rest (even empty)
                Segment::AnyOne => {
                    if index >= parts.len() {
                        return false;
                    }
                    index += 1;
                }
                Segment::Literal(lit) => {
                    if index >= parts.len() || parts[index] != lit {
                        return false;
                    }
                    index += 1;
                }
            }
        }
        index == parts.len()
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Literal(l) => l.clone(),
                Segment::AnyOne => "*".to_string(),
                Segment::AnyDepth => "**".to_string(),
            })
            .collect();
        f.write_str(&rendered.join("/"))
    }
}

impl std::str::FromStr for TopicFilter {
    type Err = CoordError;

    fn from_str(input: &str) -> Result<Self, Self::Err> {
        if input.is_empty() {
            return Err(CoordError::Codec("empty topic filter".into()));
        }
        let raw: Vec<&str> = input.split('/').collect();
        let mut segments = Vec::with_capacity(raw.len());
        for (index, part) in raw.iter().enumerate() {
            let segment = match *part {
                "" => return Err(CoordError::Codec(format!("empty segment in '{input}'"))),
                "*" => Segment::AnyOne,
                "**" => {
                    if index != raw.len() - 1 {
                        return Err(CoordError::Codec(format!(
                            "'**' must be the final segment in '{input}'"
                        )));
                    }
                    // `a/**` should also match `a` itself: handled in
                    // matches_parts by early return. But `a/**` with parts
                    // ["a"]: literal consumes "a", AnyDepth returns true.
                    Segment::AnyDepth
                }
                literal => {
                    if literal.contains('*') {
                        return Err(CoordError::Codec(format!(
                            "wildcard must be a whole segment in '{input}'"
                        )));
                    }
                    Segment::Literal(literal.to_string())
                }
            };
            segments.push(segment);
        }
        Ok(TopicFilter { segments })
    }
}

/// Whether a subscription key (exact path or wildcard filter) covers the
/// concrete `topic`; unparseable keys fall back to literal equality.
pub fn covers(key: &str, topic: &str) -> bool {
    if key == topic {
        return true;
    }
    key.parse::<TopicFilter>()
        .map(|filter| filter.matches(topic))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(s: &str) -> TopicFilter {
        s.parse().expect("valid filter")
    }

    #[test]
    fn exact_paths_match_only_themselves() {
        let f = filter("market/nyse/ACME");
        assert!(f.matches("market/nyse/ACME"));
        assert!(!f.matches("market/nyse"));
        assert!(!f.matches("market/nyse/ACME/trades"));
        assert!(!f.matches("market/nyse/OTHR"));
    }

    #[test]
    fn single_level_wildcard() {
        let f = filter("market/*/trades");
        assert!(f.matches("market/nyse/trades"));
        assert!(f.matches("market/lse/trades"));
        assert!(!f.matches("market/trades"));
        assert!(!f.matches("market/nyse/lse/trades"));
    }

    #[test]
    fn trailing_multi_level_wildcard() {
        let f = filter("market/**");
        assert!(f.matches("market"));
        assert!(f.matches("market/nyse"));
        assert!(f.matches("market/nyse/ACME/trades"));
        assert!(!f.matches("weather"));
        assert!(!f.matches("marketplace"));
    }

    #[test]
    fn bare_double_star_matches_everything() {
        let f = filter("**");
        assert!(f.matches("anything"));
        assert!(f.matches("a/b/c"));
    }

    #[test]
    fn invalid_filters_rejected() {
        for bad in ["", "a//b", "/a", "a/", "a/**/b", "pre*fix", "**extra"] {
            assert!(bad.parse::<TopicFilter>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn display_roundtrips() {
        for input in ["a", "a/b/c", "a/*/c", "a/**", "*", "**"] {
            assert_eq!(filter(input).to_string(), input);
        }
    }

    #[test]
    fn covers_handles_exact_and_pattern_keys() {
        assert!(super::covers("a/b", "a/b"));
        assert!(super::covers("a/*", "a/b"));
        assert!(!super::covers("a/*", "a/b/c"));
        // Unparseable keys only match themselves.
        assert!(super::covers("bad//key", "bad//key"));
        assert!(!super::covers("bad//key", "other"));
    }

    #[test]
    fn star_alone_is_one_segment() {
        let f = filter("*");
        assert!(f.matches("market"));
        assert!(!f.matches("market/nyse"));
    }
}
