//! Rule **H1 `registry-deps`**: every dependency in every `Cargo.toml`
//! must resolve inside the repository — `path = "..."` or
//! `workspace = true` (the workspace table itself being path-only).
//!
//! This replaces the old CI shell step that piped `cargo metadata`
//! through Python: the invariant is now enforced by the same linter as
//! the source rules, offline, without needing cargo to resolve the
//! graph first.
//!
//! The checker is a deliberately small line-oriented TOML scanner: it
//! understands section headers, `key = value` pairs, inline tables and
//! comments, which covers the entire grammar cargo accepts for
//! dependency tables. Anything naming `version`, `git`, `registry` or a
//! bare version string is a violation — even alongside `path`, because a
//! version key silently re-enables registry resolution on publish.

use crate::rules::{rule, Diagnostic};

/// Dependency-table sections: `[dependencies]`, `[dev-dependencies]`,
/// `[build-dependencies]`, `[workspace.dependencies]`, and any
/// `[target.'cfg(...)'.dependencies]` variant, plus their
/// `[dependencies.<name>]` sub-table forms.
fn dep_section(header: &str) -> Option<DepSection> {
    let bare = |h: &str| {
        matches!(h, "dependencies" | "dev-dependencies" | "build-dependencies")
            || h == "workspace.dependencies"
            || (h.starts_with("target.") && h.ends_with(".dependencies"))
    };
    if bare(header) {
        return Some(DepSection::Table);
    }
    // Sub-table: [dependencies.foo] — everything after the last '.'
    // is the crate name when the prefix is a dependency table.
    if let Some((prefix, name)) = header.rsplit_once('.') {
        if bare(prefix) && !name.is_empty() {
            return Some(DepSection::SubTable);
        }
    }
    None
}

enum DepSection {
    /// `[dependencies]`: each line is one `name = spec` entry.
    Table,
    /// `[dependencies.foo]`: keys accumulate until the next header.
    SubTable,
}

/// Scan one manifest. `rel_path` is workspace-relative for diagnostics.
pub(crate) fn check_manifest(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut section: Option<DepSection> = None;
    // State for an open sub-table: (header line, saw path/workspace, bad key).
    let mut sub: Option<(u32, bool, Option<String>)> = None;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            close_sub(rel_path, &mut sub, &mut diags);
            let header = line.trim_start_matches('[').trim_end_matches(']').trim();
            if header.starts_with("patch") {
                push(
                    &mut diags,
                    rel_path,
                    lineno,
                    "[patch] sections re-route dependency sources and are forbidden".to_string(),
                );
                section = None;
                continue;
            }
            section = dep_section(header);
            if matches!(section, Some(DepSection::SubTable)) {
                sub = Some((lineno, false, None));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        let value = value.trim();
        match section {
            Some(DepSection::Table) => {
                if let Some(problem) = spec_violation(value) {
                    push(&mut diags, rel_path, lineno, format!("dependency `{key}` {problem}"));
                }
            }
            Some(DepSection::SubTable) => {
                if let Some((_, has_path, bad)) = sub.as_mut() {
                    match key {
                        "path" => *has_path = true,
                        "workspace" if value.starts_with("true") => *has_path = true,
                        "version" | "git" | "registry" | "branch" | "tag" | "rev" => {
                            bad.get_or_insert_with(|| key.to_string());
                        }
                        _ => {}
                    }
                }
            }
            None => {}
        }
    }
    close_sub(rel_path, &mut sub, &mut diags);
    diags
}

fn push(diags: &mut Vec<Diagnostic>, file: &str, line: u32, message: String) {
    diags.push(Diagnostic { file: file.to_string(), line, rule: rule("H1").unwrap(), message });
}

fn close_sub(
    rel_path: &str,
    sub: &mut Option<(u32, bool, Option<String>)>,
    diags: &mut Vec<Diagnostic>,
) {
    if let Some((line, has_path, bad)) = sub.take() {
        if let Some(key) = bad {
            push(
                diags,
                rel_path,
                line,
                format!(
                    "dependency sub-table uses `{key}`: registry/git sources are forbidden, \
                     use `path = \"...\"`"
                ),
            );
        } else if !has_path {
            push(
                diags,
                rel_path,
                line,
                "dependency sub-table has neither `path` nor `workspace = true`; only \
                 in-tree dependencies are allowed"
                    .to_string(),
            );
        }
    }
}

/// Why a `name = <spec>` dependency entry violates the path-only policy,
/// if it does.
fn spec_violation(value: &str) -> Option<String> {
    if value.starts_with('"') || value.starts_with('\'') {
        return Some(format!(
            "pins a registry version ({value}); only `path`/`workspace` dependencies \
             are allowed in this hermetic workspace"
        ));
    }
    if value.starts_with('{') {
        let keys = inline_table_keys(value);
        for bad in ["git", "registry", "version", "branch", "tag", "rev"] {
            if keys.iter().any(|k| k == bad) {
                return Some(format!(
                    "uses `{bad}` in its spec; registry/git sources are forbidden, \
                     use `path = \"...\"`"
                ));
            }
        }
        let has_local =
            keys.iter().any(|k| k == "path") || keys.iter().any(|k| k == "workspace");
        if !has_local {
            return Some(
                "has neither `path` nor `workspace = true`; only in-tree dependencies \
                 are allowed"
                    .to_string(),
            );
        }
        return None;
    }
    // `true`/numbers under non-dep keys that slipped in; not a dep spec.
    None
}

/// Top-level keys of an inline table `{ k = v, k2 = v2 }`, ignoring
/// nesting and quoted strings.
fn inline_table_keys(value: &str) -> Vec<String> {
    let inner = value.trim_start_matches('{').trim_end_matches('}');
    let mut keys = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut entry = String::new();
    let push_entry = |entry: &mut String, keys: &mut Vec<String>| {
        if let Some((k, _)) = entry.split_once('=') {
            keys.push(k.trim().to_string());
        }
        entry.clear();
    };
    for ch in inner.chars() {
        match ch {
            '"' => {
                in_str = !in_str;
                entry.push(ch);
            }
            _ if in_str => entry.push(ch),
            '{' | '[' => {
                depth += 1;
                entry.push(ch);
            }
            '}' | ']' => {
                depth -= 1;
                entry.push(ch);
            }
            ',' if depth == 0 => push_entry(&mut entry, &mut keys),
            _ => entry.push(ch),
        }
    }
    push_entry(&mut entry, &mut keys);
    keys
}

/// Drop a `#` comment unless the `#` sits inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<String> {
        check_manifest("Cargo.toml", src)
            .into_iter()
            .map(|d| format!("{}:{}", d.rule.id, d.line))
            .collect()
    }

    #[test]
    fn path_and_workspace_deps_are_clean() {
        let src = concat!(
            "[package]\nname = \"x\"\nversion = \"0.1.0\"\n", // package.version is fine
            "[dependencies]\n",
            "wsg-net = { path = \"../net\" }\n",
            "wsg-xml = { workspace = true }\n",
            "[dev-dependencies]\n",
            "wsg-bench = { workspace = true }\n",
        );
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn version_string_is_flagged() {
        let src = "[dependencies]\nserde = \"1.0\"\n";
        assert_eq!(check(src), vec!["H1:2"]);
    }

    #[test]
    fn inline_version_git_registry_are_flagged() {
        let src = concat!(
            "[dependencies]\n",
            "a = { version = \"1\", features = [\"std\"] }\n",
            "b = { git = \"https://example.org/b\" }\n",
            "c = { path = \"../c\", version = \"0.1\" }\n", // version alongside path still bad
        );
        assert_eq!(check(src), vec!["H1:2", "H1:3", "H1:4"]);
    }

    #[test]
    fn subtable_forms_are_checked() {
        let good = "[dependencies.wsg-net]\npath = \"../net\"\n";
        assert!(check(good).is_empty());
        let bad = "[dependencies.serde]\nversion = \"1\"\nfeatures = [\"derive\"]\n";
        assert_eq!(check(bad), vec!["H1:1"]);
        let missing = "[dependencies.mystery]\nfeatures = [\"x\"]\n";
        assert_eq!(check(missing), vec!["H1:1"]);
    }

    #[test]
    fn patch_sections_are_forbidden() {
        let src = "[patch.crates-io]\nserde = { path = \"vendored/serde\" }\n";
        assert_eq!(check(src), vec!["H1:1"]);
    }

    #[test]
    fn workspace_dependencies_table_is_checked() {
        let src = "[workspace.dependencies]\nrand = \"0.8\"\n";
        assert_eq!(check(src), vec!["H1:2"]);
    }

    #[test]
    fn target_specific_deps_are_checked() {
        let src = "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n";
        assert_eq!(check(src), vec!["H1:2"]);
    }

    #[test]
    fn comments_and_non_dep_sections_ignored() {
        let src = concat!(
            "# registry deps like serde = \"1.0\" are forbidden\n",
            "[package]\nversion = \"0.1.0\"\n",
            "[features]\ndefault = []\n",
            "[dependencies]\n",
            "wsg-net = { path = \"../net\" } # keep: in-tree\n",
        );
        assert!(check(src).is_empty());
    }
}
