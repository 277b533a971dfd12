//! Metric names, units and bounds (the source `BENCHMARK.json` is
//! rendered from), the percentile rule, process and registry readers,
//! and the result line the driver parses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use wsg_net::Histogram;
use wsg_obs::Registry;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported on every workload. A bound is the
/// issue's starting value, widened until it is about three times the
/// widest spread ten A/A runs showed on any workload, up to the 0.25 the
/// contract allows (README, "Measured A/A spread").
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("on_time_ratio", "ratio", "higher", 0.06),
    e2e("delivery_ratio", "ratio", "higher", 0.01),
    e2e("delivered_ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("wire_msgs_per_op", "count", "lower", 0.06),
    e2e("wire_bytes_per_op", "bytes", "lower", 0.06),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The per-layer metrics: stage replays first (each at 256 B and 16 KiB
/// where size matters), then what the traced window and the registries
/// give. Layer = crate name.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("wsg_xml.parse_ns_256b", "ns", "lower"),
    layer("wsg_xml.parse_ns_16k", "ns", "lower"),
    layer("wsg_xml.parse_allocs_256b", "count", "lower"),
    layer("wsg_xml.parse_allocs_16k", "count", "lower"),
    layer("wsg_xml.write_ns_256b", "ns", "lower"),
    layer("wsg_xml.write_ns_16k", "ns", "lower"),
    layer("wsg_xml.write_allocs_256b", "count", "lower"),
    layer("wsg_xml.write_allocs_16k", "count", "lower"),
    layer("wsg_soap.envelope_bytes_256b", "bytes", "lower"),
    layer("wsg_soap.envelope_bytes_16k", "bytes", "lower"),
    layer("wsg_soap.envelope_write_ns_256b", "ns", "lower"),
    layer("wsg_soap.envelope_write_ns_16k", "ns", "lower"),
    layer("wsg_soap.envelope_write_allocs_256b", "count", "lower"),
    layer("wsg_soap.envelope_write_allocs_16k", "count", "lower"),
    layer("wsg_soap.envelope_parse_ns_256b", "ns", "lower"),
    layer("wsg_soap.envelope_parse_ns_16k", "ns", "lower"),
    layer("wsg_soap.envelope_parse_allocs_256b", "count", "lower"),
    layer("wsg_soap.envelope_parse_allocs_16k", "count", "lower"),
    layer("wsg_soap.write_batch_ns_256b", "ns", "lower"),
    layer("wsg_soap.write_batch_ns_16k", "ns", "lower"),
    layer("wsg_soap.parse_wire_batch_ns_256b", "ns", "lower"),
    layer("wsg_soap.parse_wire_batch_ns_16k", "ns", "lower"),
    layer("wsg_soap.parse_wire_single_ns_256b", "ns", "lower"),
    layer("wsg_soap.parse_wire_single_ns_16k", "ns", "lower"),
    layer("wsg_http.request_bytes_256b", "bytes", "lower"),
    layer("wsg_http.request_bytes_16k", "bytes", "lower"),
    layer("wsg_http.request_encode_ns_256b", "ns", "lower"),
    layer("wsg_http.request_encode_ns_16k", "ns", "lower"),
    layer("wsg_http.request_parse_ns_256b", "ns", "lower"),
    layer("wsg_http.request_parse_ns_16k", "ns", "lower"),
    layer("wsg_http.response_parse_ns", "ns", "lower"),
    layer("wsg_http.post_roundtrip_p50_us_256b", "us", "lower"),
    layer("wsg_http.post_roundtrip_p50_us_16k", "us", "lower"),
    layer("ws_gossip.on_message_new_ns_256b", "ns", "lower"),
    layer("ws_gossip.on_message_new_ns_16k", "ns", "lower"),
    layer("ws_gossip.on_message_new_allocs_256b", "count", "lower"),
    layer("ws_gossip.on_message_new_allocs_16k", "count", "lower"),
    layer("ws_gossip.on_message_dup_ns_256b", "ns", "lower"),
    layer("ws_gossip.on_message_dup_ns_16k", "ns", "lower"),
    layer("ws_gossip.on_message_dup_allocs_256b", "count", "lower"),
    layer("ws_gossip.on_message_dup_allocs_16k", "count", "lower"),
    layer("ws_gossip.notify_ns_256b", "ns", "lower"),
    layer("ws_gossip.notify_ns_16k", "ns", "lower"),
    layer("wsg_cluster.heartbeat_encode_ns", "ns", "lower"),
    layer("wsg_cluster.heartbeat_decode_ns", "ns", "lower"),
    layer("wsg_cluster.plane_handle_ns", "ns", "lower"),
    layer("wsg_http.hop_p50_us", "us", "lower"),
    layer("wsg_http.hop_p90_us", "us", "lower"),
    layer("wsg_http.hop_p99_us", "us", "lower"),
    layer("wsg_http.crit_hop_share", "ratio", "lower"),
    layer("wsg_http.client_post_p50_us", "us", "lower"),
    layer("wsg_http.server_request_p50_us", "us", "lower"),
    layer("wsg_http.batch_mean_msgs", "count", "higher"),
    layer("wsg_http.posts_per_op", "count", "lower"),
    layer("wsg_http.pool_miss_ratio", "ratio", "lower"),
    layer("wsg_http.retries_per_kpost", "count", "lower"),
    layer("wsg_http.backoff_ms_total", "ms", "lower"),
    layer("wsg_http.posts_failed", "count", "lower"),
    layer("wsg_http.msgs_failed", "count", "lower"),
    layer("wsg_http.conns_shed", "count", "lower"),
    layer("ws_gossip.handle_new_p50_us", "us", "lower"),
    layer("ws_gossip.handle_dup_p50_us", "us", "lower"),
    layer("ws_gossip.node_busy_ratio_max", "ratio", "lower"),
    layer("ws_gossip.crit_handle_share", "ratio", "lower"),
    layer("ws_gossip.useful_recv_ratio", "ratio", "higher"),
    layer("ws_gossip.rounds_to_deliver_p50", "count", "lower"),
    layer("ws_gossip.rounds_to_deliver_max", "count", "lower"),
    layer("ws_gossip.parse_errors", "count", "lower"),
    layer("ws_gossip.faults", "count", "lower"),
    layer("ws_gossip.deliver_p50_ms", "ms", "lower"),
    layer("ws_gossip.deliver_p90_ms", "ms", "lower"),
    layer("ws_gossip.deliver_p99_ms", "ms", "lower"),
    layer("ws_gossip.complete_p50_ms", "ms", "lower"),
    layer("ws_gossip.complete_p90_ms", "ms", "lower"),
    layer("ws_gossip.gen_lag_p99_ms", "ms", "lower"),
    layer("wsg_coord.setup_msgs", "count", "lower"),
    layer("wsg_cluster.heartbeats_per_s", "1/s", "lower"),
    layer("wsg_cluster.detect_p50_s", "s", "lower"),
    layer("wsg_cluster.detect_p90_s", "s", "lower"),
    layer("wsg_cluster.false_suspect_samples", "count", "lower"),
    layer("wsg_cluster.post_crash_failed_posts", "count", "lower"),
    layer("trace_overhead_ratio", "ratio", "lower"),
];

/// Named values in report order.
pub type Values = Vec<(&'static str, f64)>;

/// The unit `name` is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// A timing sample set, summarised by the rule of the metrics guide:
/// median, plus the highest percentile with at least ten samples beyond.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// The tail percentile reported (e.g. 99.0), 0 when the sample is too
    /// small to support any.
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
    pub n: usize,
}

/// Value at percentile `pct` of `sorted` (nearest rank).
pub fn percentile_of(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * pct / 100.0).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sort `samples` and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let Some(&max) = samples.last() else {
        return Summary::default();
    };
    let tail_pct = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|pct| n as f64 * (100.0 - pct) / 100.0 >= 10.0)
        .unwrap_or(0.0);
    Summary {
        median: percentile_of(samples, 50.0),
        tail_pct,
        tail: if tail_pct > 0.0 {
            percentile_of(samples, tail_pct)
        } else {
            max
        },
        max,
        n,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.tail_pct > 0.0 {
            write!(
                f,
                "p50 {:.3}  p{} {:.3}  n={}",
                self.median, self.tail_pct, self.tail, self.n
            )
        } else {
            write!(
                f,
                "p50 {:.3}  max {:.3}  n={}",
                self.median, self.max, self.n
            )
        }
    }
}

/// Process CPU time (user + system) in milliseconds from
/// `/proc/self/stat`. The kernel charges it by sampling at 10 ms ticks,
/// so over a mostly idle window it carries several percent of noise.
fn tick_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

/// Nanoseconds each live thread of this process has run, from the
/// scheduler's own clock (`/proc/self/task/<tid>/schedstat`, first
/// field). Exact where the tick-sampled times are not; empty where the
/// kernel does not keep it.
fn thread_run_ns() -> BTreeMap<u32, u64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return BTreeMap::new();
    };
    tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// Process CPU time since the meter was made. Sums what each thread ran
/// between samples, so sample at least every second or so: a thread that
/// exits takes what it ran since the last sample with it.
#[derive(Debug)]
pub struct CpuMeter {
    threads: BTreeMap<u32, u64>,
    total_ns: u64,
    ticks_at_start_ms: f64,
}

impl CpuMeter {
    pub fn new() -> Self {
        CpuMeter {
            threads: thread_run_ns(),
            total_ns: 0,
            ticks_at_start_ms: tick_cpu_ms(),
        }
    }

    /// CPU milliseconds consumed so far.
    pub fn sample(&mut self) -> f64 {
        let now = thread_run_ns();
        if now.is_empty() {
            return tick_cpu_ms() - self.ticks_at_start_ms;
        }
        for (tid, run_ns) in &now {
            let before = self.threads.get(tid).copied().unwrap_or(0);
            self.total_ns += run_ns.saturating_sub(before);
        }
        self.threads = now;
        self.total_ns as f64 / 1e6
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every sample of every registry, summed over the fleet by sample key.
pub fn fleet_counters(registries: &[Arc<Registry>]) -> BTreeMap<String, f64> {
    let mut sum = BTreeMap::new();
    for registry in registries {
        for (key, value) in wsg_obs::parse_exposition(&registry.render()).unwrap_or_default() {
            *sum.entry(key).or_insert(0.0) += value;
        }
    }
    sum
}

/// `after - before`, key by key.
pub fn counter_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(key, value)| (key.clone(), value - before.get(key).copied().unwrap_or(0.0)))
        .collect()
}

/// The fleet-wide histogram `name` (lifetime of the fleet).
pub fn fleet_histogram(registries: &[Arc<Registry>], name: &str) -> Histogram {
    let mut merged = Histogram::new();
    for registry in registries {
        merged.merge(&registry.register_histogram(name, "").snapshot());
    }
    merged
}

/// A finite JSON number with all the digits measured.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Values) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Writing into a String cannot fail.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(*value),
            unit_of(name)
        )
        .unwrap_or_default();
    }
    out.push_str("}}");
    out
}

/// A [`result_line`] read back by the parent of a per-workload child.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Read a [`result_line`] back.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let field = |key: &str| {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("\"correct\": ")? == "true";
    let attempted = field("\"attempted\": ")?.parse().ok()?;
    let failed = field("\"failed\": ")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..open].rfind('"')? + 1..open];
        let after = &rest[open + 13..];
        let value = after[..after.find(',')?].parse().ok()?;
        metrics.push((name.to_string(), value));
        rest = after;
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_the_median_and_the_highest_supported_percentile() {
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        let mut samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut samples);
        assert_eq!(
            (s.median, s.tail_pct, s.tail, s.max, s.n),
            (500.0, 99.0, 990.0, 1000.0, 1000)
        );
        // 100 samples support p90 (10 beyond), not p95.
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&mut samples);
        assert_eq!((s.median, s.tail_pct, s.tail), (50.0, 90.0, 90.0));
        // 16 samples support no tail percentile at all.
        let mut samples: Vec<f64> = (1..=16).map(f64::from).collect();
        let s = summarize(&mut samples);
        assert_eq!((s.median, s.tail_pct, s.tail), (8.0, 0.0, 16.0));
        assert_eq!(summarize(&mut []), Summary::default());
    }

    #[test]
    fn result_line_round_trips() {
        let metrics: Values = vec![("setup_s", 0.8127), ("cpu_ms_per_op", 130.25)];
        let line = result_line(true, 3200, 1, &metrics);
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"),
            "{line}"
        );
        let parsed = parse_result_line(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (3200, 1));
        assert_eq!(
            parsed.metrics,
            vec![
                ("setup_s".to_string(), 0.8127),
                ("cpu_ms_per_op".to_string(), 130.25)
            ]
        );
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let mut meter = CpuMeter::new();
        let started = wsg_bench::timing::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spun_ms = meter.sample();
        assert!(spun_ms > 5.0 && spun_ms < 200.0, "{spun_ms}");
        assert!(meter.sample() >= spun_ms, "cumulative");
    }
}
