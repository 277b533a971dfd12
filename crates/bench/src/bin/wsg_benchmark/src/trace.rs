//! Spans recorded by the probes, the trace file, and what is derived
//! from them: hop and handle times, node busy time, and each delivery's
//! critical path from `publish` to `deliver`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;

use crate::metrics::{percentile_of, summarize};

/// One recorded interval. Spans of one publication share `trace` (its
/// `seq`; -1 for control traffic). `parent` is the span that caused this
/// one, 0 for a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: i64,
    pub span: u64,
    pub parent: u64,
    /// `publish`, `hop`, `handle` or `deliver`.
    pub name: &'static str,
    /// For `handle`: `new`, `dup` or `control`.
    pub tag: &'static str,
    /// For `deliver`: `DeliveredOp::round`.
    pub round: u32,
    pub node: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Write `spans` as one JSON array to `target/wsg_benchmark/<file>`.
pub fn write_file(file: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new("target").join("wsg_benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let mut line = String::new();
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        line.clear();
        // Writing into a String cannot fail.
        write!(
            line,
            "{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"tag\": \"{}\", \
             \"round\": {}, \"node\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.trace,
            s.span,
            s.parent,
            s.name,
            s.tag,
            s.round,
            s.node,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "\n" } else { ",\n" }
        )
        .map_err(std::io::Error::other)?;
        out.write_all(line.as_bytes())?;
    }
    out.write_all(b"]\n")?;
    out.flush()?;
    Ok(path.display().to_string())
}

/// What the spans of one traced window say.
#[derive(Debug, Clone, Default)]
pub struct Derived {
    pub hop_p50_us: f64,
    pub hop_p90_us: f64,
    pub hop_p99_us: f64,
    pub hops: usize,
    pub handle_new_p50_us: f64,
    pub handle_dup_p50_us: f64,
    /// Share of the window the busiest node spent in `handle`/`publish`.
    pub node_busy_ratio_max: f64,
    /// Σ hop time / Σ publish→deliver time over traced deliveries.
    pub crit_hop_share: f64,
    /// Σ handle and publish time on those paths / Σ publish→deliver time.
    pub crit_handle_share: f64,
    /// Deliveries whose whole path back to `publish` was recorded.
    pub paths: usize,
    /// Paths whose hop and handle shares do not sum to 1 ± 0.02.
    pub paths_off_balance: usize,
    /// `hop` spans whose parent is not a recorded `handle` or `publish`.
    pub orphan_hops: usize,
    pub rounds_to_deliver_p50: f64,
    pub rounds_to_deliver_max: f64,
}

fn sorted_us(durations: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut us: Vec<f64> = durations.map(|ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// Derive the per-layer numbers from spans that ended inside
/// `[start_ns, end_ns)`.
pub fn derive(spans: &[Span], start_ns: u64, end_ns: u64) -> Derived {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.span, s)).collect();
    let in_window = |s: &&Span| s.end_ns >= start_ns && s.end_ns < end_ns;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);

    let mut derived = Derived::default();

    let hops = sorted_us(named("hop").filter(in_window).map(Span::duration_ns));
    derived.hops = hops.len();
    derived.hop_p50_us = percentile_of(&hops, 50.0);
    derived.hop_p90_us = percentile_of(&hops, 90.0);
    derived.hop_p99_us = percentile_of(&hops, 99.0);
    derived.orphan_hops = named("hop")
        .filter(|s| {
            !by_id
                .get(&s.parent)
                .is_some_and(|p| p.name == "handle" || p.name == "publish")
        })
        .count();

    let handle = |tag: &'static str| {
        sorted_us(
            named("handle")
                .filter(in_window)
                .filter(|s| s.tag == tag)
                .map(Span::duration_ns),
        )
    };
    derived.handle_new_p50_us = percentile_of(&handle("new"), 50.0);
    derived.handle_dup_p50_us = percentile_of(&handle("dup"), 50.0);

    let mut busy_ns: HashMap<usize, u64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "handle" || s.name == "publish")
        .filter(in_window)
    {
        *busy_ns.entry(s.node).or_default() += s.duration_ns();
    }
    let window_ns = end_ns.saturating_sub(start_ns).max(1);
    derived.node_busy_ratio_max =
        busy_ns.values().copied().max().unwrap_or(0) as f64 / window_ns as f64;

    // Each delivery's critical path: deliver ← handle ← hop ← … ← publish.
    // A hop starts at the `send` inside its parent, so the time from the
    // parent's start to the hop's start is the parent's share, and the
    // hop's own duration is the wait share.
    let (mut total_ns, mut hop_ns, mut handle_ns) = (0u64, 0u64, 0u64);
    let mut rounds = Vec::new();
    for deliver in named("deliver").filter(in_window) {
        rounds.push(f64::from(deliver.round));
        let (mut path_hop, mut path_handle) = (0u64, 0u64);
        // `until` is where the current span handed over to the next one.
        let mut until = deliver.start_ns;
        let mut at = by_id.get(&deliver.parent);
        let root = loop {
            let Some(span) = at else { break None };
            match span.name {
                "hop" => {
                    path_hop += span.duration_ns();
                    until = span.start_ns;
                }
                _ => {
                    path_handle += until.saturating_sub(span.start_ns);
                    if span.name == "publish" {
                        break Some(span);
                    }
                }
            }
            at = by_id.get(&span.parent);
        };
        let Some(root) = root else { continue };
        let path_total = deliver.start_ns.saturating_sub(root.start_ns);
        derived.paths += 1;
        let balance = (path_hop + path_handle) as f64 / path_total.max(1) as f64;
        if (balance - 1.0).abs() > 0.02 {
            derived.paths_off_balance += 1;
        }
        total_ns += path_total;
        hop_ns += path_hop;
        handle_ns += path_handle;
    }
    derived.crit_hop_share = hop_ns as f64 / total_ns.max(1) as f64;
    derived.crit_handle_share = handle_ns as f64 / total_ns.max(1) as f64;
    let rounds = summarize(&mut rounds);
    derived.rounds_to_deliver_p50 = rounds.median;
    derived.rounds_to_deliver_max = rounds.max;
    derived
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        span: u64,
        parent: u64,
        node: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            trace: 0,
            span,
            parent,
            name,
            tag: "new",
            round: 2,
            node,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn critical_path_shares_sum_to_one() {
        // publish 0..100 sends at 40; hop 40..1040; handle 1040..1100
        // forwards at 1060; hop 1060..3060; handle 3060..3100 delivers at 3090.
        let spans = vec![
            span("publish", 1, 0, 1, 0, 100),
            span("hop", 2, 1, 2, 40, 1040),
            span("handle", 3, 2, 2, 1040, 1100),
            span("hop", 4, 3, 3, 1060, 3060),
            span("handle", 5, 4, 3, 3060, 3100),
            span("deliver", 6, 5, 3, 3090, 3090),
        ];
        let derived = derive(&spans, 0, 10_000);
        assert_eq!(derived.paths, 1);
        assert_eq!(derived.paths_off_balance, 0);
        assert_eq!(derived.orphan_hops, 0);
        assert!((derived.crit_hop_share - 3000.0 / 3090.0).abs() < 1e-9);
        assert!((derived.crit_hop_share + derived.crit_handle_share - 1.0).abs() < 1e-9);
        assert_eq!(derived.hops, 2);
        assert_eq!(derived.rounds_to_deliver_max, 2.0);
        // Node 2 handled for 60 ns of a 10 µs window; node 1 published 100.
        assert!((derived.node_busy_ratio_max - 0.01).abs() < 1e-9);
    }

    #[test]
    fn a_hop_without_a_recorded_parent_is_an_orphan() {
        let spans = vec![
            span("hop", 2, 77, 2, 40, 1040),
            span("handle", 3, 2, 2, 1040, 1100),
        ];
        let derived = derive(&spans, 0, 10_000);
        assert_eq!(derived.orphan_hops, 1);
        assert_eq!(derived.paths, 0);
    }
}
