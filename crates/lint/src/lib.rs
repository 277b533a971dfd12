//! `wsg_lint` — the in-tree workspace linter.
//!
//! The workspace's headline guarantees (bit-identical gossip traces for
//! a given seed/fanout/rounds, parallel sweeps byte-identical to serial
//! runs, and a hermetic zero-registry-dependency build) used to be
//! enforced by convention plus a one-off CI shell step. This crate makes
//! them machine-checkable: a zero-dependency static-analysis tool with
//! its own Rust token scanner (`lexer`) that walks every workspace
//! `.rs` file and `Cargo.toml` and enforces the invariants as lint rules
//! with `file:line` diagnostics ([`rules`], `manifest`).
//!
//! Run it as `cargo run -p wsg_lint` from anywhere in the workspace; CI
//! runs it with `--deny-all`, which additionally fails on stale allow
//! comments. See DESIGN.md "Static analysis" for the rule catalogue and
//! the allow-comment grammar.

mod lexer;
mod manifest;
pub mod rules;

use rules::{Diagnostic, StaleAllow};
use std::path::{Path, PathBuf};

/// Everything one lint run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Allow comments that suppressed nothing.
    pub stale_allows: Vec<StaleAllow>,
    /// Number of `.rs` files scanned.
    pub sources: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests: usize,
}

impl Report {
    /// True when there is nothing to complain about (stale allows are
    /// judged separately, under `--deny-all`).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directories never descended into: build output, VCS metadata, and
/// lint test fixtures (which contain deliberate violations).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

/// Lint the workspace rooted at `root`.
///
/// Walks every `.rs` and `Cargo.toml` under `root` (skipping
/// `SKIP_DIRS`), applies the source rules and the manifest rule, and
/// aggregates a [`Report`]. File order is sorted so output is stable.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    collect(root, root, &mut sources, &mut manifests)?;
    sources.sort();
    manifests.sort();

    let mut report = Report::default();
    for rel in &sources {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        let file_report = rules::check_source(&rel, &src);
        report.diagnostics.extend(file_report.diagnostics);
        report.stale_allows.extend(file_report.stale_allows);
        report.sources += 1;
    }
    for rel in &manifests {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        report.diagnostics.extend(manifest::check_manifest(&rel, &src));
        report.manifests += 1;
    }
    report
        .diagnostics
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(report)
}

fn collect(
    root: &Path,
    dir: &Path,
    sources: &mut Vec<PathBuf>,
    manifests: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, sources, manifests)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if name == "Cargo.toml" {
                manifests.push(rel);
            } else {
                sources.push(rel);
            }
        }
    }
    Ok(())
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
