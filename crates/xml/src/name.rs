//! Namespace-qualified names.

use std::borrow::Cow;
use std::fmt;

/// A namespace-qualified XML name: optional namespace URI, optional prefix
/// and a local part.
///
/// Equality and hashing consider the namespace URI and local name only — the
/// prefix is presentation, per the Namespaces in XML recommendation.
///
/// ```
/// use wsg_xml::QName;
///
/// let a = QName::with_ns("http://www.w3.org/2003/05/soap-envelope", "Envelope");
/// let b = a.clone().with_prefix("env");
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct QName {
    // Cow<'static, str> so recurring protocol names (WS-Addressing,
    // WS-Coordination, gossip headers) can be interned in statics and
    // cloned without allocating; ad-hoc names still own their strings.
    namespace: Option<Cow<'static, str>>,
    prefix: Option<Cow<'static, str>>,
    local: Cow<'static, str>,
}

impl QName {
    /// A name with no namespace.
    pub fn new(local: impl Into<String>) -> Self {
        QName { namespace: None, prefix: None, local: Cow::Owned(local.into()) }
    }

    /// A name in namespace `ns`.
    pub fn with_ns(ns: impl Into<String>, local: impl Into<String>) -> Self {
        QName {
            namespace: Some(Cow::Owned(ns.into())),
            prefix: None,
            local: Cow::Owned(local.into()),
        }
    }

    /// A statically known name in namespace `ns` with suggested `prefix`.
    ///
    /// `const`, so hot-path protocol names can live in `static`s; cloning
    /// such a name never allocates (all three parts stay borrowed).
    pub const fn interned(
        ns: &'static str,
        prefix: &'static str,
        local: &'static str,
    ) -> Self {
        QName {
            namespace: Some(Cow::Borrowed(ns)),
            prefix: Some(Cow::Borrowed(prefix)),
            local: Cow::Borrowed(local),
        }
    }

    /// Attach a suggested prefix (presentation only).
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = Some(Cow::Owned(prefix.into()));
        self
    }

    /// Split a lexical `prefix:local` form into `(Some(prefix), local)` or
    /// `(None, name)`.
    pub(crate) fn split_lexical(lexical: &str) -> (Option<&str>, &str) {
        // Names are short: a plain byte loop beats a general search.
        match lexical.bytes().position(|b| b == b':') {
            Some(colon) => (Some(&lexical[..colon]), &lexical[colon + 1..]),
            None => (None, lexical),
        }
    }

    /// The namespace URI, if any.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// The suggested/parsed prefix, if any.
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// The local part.
    pub fn local(&self) -> &str {
        &self.local
    }

    /// True when namespace URI and local part both match.
    pub fn matches(&self, ns: Option<&str>, local: &str) -> bool {
        self.namespace.as_deref() == ns && self.local == local
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.namespace == other.namespace && self.local == other.local
    }
}

impl Eq for QName {}

impl std::hash::Hash for QName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.namespace.hash(state);
        self.local.hash(state);
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.namespace {
            Some(ns) => write!(f, "{{{ns}}}{}", self.local),
            None => write!(f, "{}", self.local),
        }
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::new(s)
    }
}

impl From<String> for QName {
    fn from(s: String) -> Self {
        QName::new(s)
    }
}

/// A stack of in-scope namespace declarations the writer resolves and
/// allocates prefixes against (the reader keeps its own borrowed form).
#[derive(Debug, Clone, Default)]
pub(crate) struct NamespaceScope {
    // (depth, prefix, uri); "" prefix is the default namespace.
    bindings: Vec<(usize, String, String)>,
    depth: usize,
}

impl NamespaceScope {
    /// A scope with only the implicit `xml` binding.
    pub fn new() -> Self {
        NamespaceScope {
            bindings: vec![(0, "xml".to_string(), crate::XML_NS.to_string())],
            depth: 0,
        }
    }

    /// Enter an element scope.
    pub(crate) fn push_scope(&mut self) {
        self.depth += 1;
    }

    /// Leave an element scope, dropping its declarations.
    pub(crate) fn pop_scope(&mut self) {
        while matches!(self.bindings.last(), Some((d, _, _)) if *d == self.depth) {
            self.bindings.pop();
        }
        self.depth = self.depth.saturating_sub(1);
    }

    /// Declare `prefix` (empty for the default namespace) as `uri` in the
    /// current scope.
    pub fn declare(&mut self, prefix: &str, uri: &str) {
        self.bindings.push((self.depth, prefix.to_string(), uri.to_string()));
    }

    /// Resolve a prefix (empty string = default namespace) to a URI.
    ///
    /// An unbound default namespace resolves to `Some("")`→`None`: we return
    /// `None` when nothing is declared, and `Some("")` is normalised to
    /// `None` by callers treating it as "no namespace".
    pub fn resolve(&self, prefix: &str) -> Option<&str> {
        self.bindings
            .iter()
            .rev()
            .find(|(_, p, _)| p == prefix)
            .map(|(_, _, uri)| uri.as_str())
    }

    /// Find a prefix already bound to `uri`, preferring the innermost.
    pub(crate) fn prefix_for(&self, uri: &str) -> Option<&str> {
        self.bindings
            .iter()
            .rev()
            .find(|(_, p, u)| u == uri && self.resolve(p) == Some(uri))
            .map(|(_, p, _)| p.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_prefix() {
        let a = QName::with_ns("urn:x", "Item").with_prefix("a");
        let b = QName::with_ns("urn:x", "Item").with_prefix("b");
        assert_eq!(a, b);
        let c = QName::with_ns("urn:y", "Item");
        assert_ne!(a, c);
    }

    #[test]
    fn display_clark_notation() {
        assert_eq!(QName::with_ns("urn:x", "Item").to_string(), "{urn:x}Item");
        assert_eq!(QName::new("Item").to_string(), "Item");
    }

    #[test]
    fn lexical_split() {
        assert_eq!(QName::split_lexical("env:Body"), (Some("env"), "Body"));
        assert_eq!(QName::split_lexical("Body"), (None, "Body"));
    }

    #[test]
    fn scope_resolution_shadows_and_pops() {
        let mut scope = NamespaceScope::new();
        scope.push_scope();
        scope.declare("a", "urn:outer");
        scope.push_scope();
        scope.declare("a", "urn:inner");
        assert_eq!(scope.resolve("a"), Some("urn:inner"));
        scope.pop_scope();
        assert_eq!(scope.resolve("a"), Some("urn:outer"));
        scope.pop_scope();
        assert_eq!(scope.resolve("a"), None);
    }

    #[test]
    fn xml_prefix_is_predeclared() {
        let scope = NamespaceScope::new();
        assert_eq!(scope.resolve("xml"), Some(crate::XML_NS));
    }

    #[test]
    fn prefix_lookup_ignores_shadowed_bindings() {
        let mut scope = NamespaceScope::new();
        scope.push_scope();
        scope.declare("p", "urn:one");
        scope.push_scope();
        scope.declare("p", "urn:two");
        // "p" now means urn:two, so it is not a usable prefix for urn:one.
        assert_eq!(scope.prefix_for("urn:one"), None);
        assert_eq!(scope.prefix_for("urn:two"), Some("p"));
    }
}
