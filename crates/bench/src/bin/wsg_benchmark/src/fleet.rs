//! One workload on one live fleet: set-up, warm-up, the measured
//! window(s), quiescence, shutdown, the correctness oracle, and the
//! metrics computed from what the probes saw.
//!
//! Every fleet runs the product's default `NetRuntimeConfig`,
//! `ClusterConfig` and gossip policy: those knobs are what later changes
//! decide, so nothing here tunes them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ws_gossip::WsGossipNode;
use wsg_cluster::{ClusterConfig, ClusterRuntime, MembershipPlane};
use wsg_http::{NetNode, NetRuntime, NetRuntimeConfig};
use wsg_net::sync::Ordering;
use wsg_net::{NodeId, PeerLiveness};
use wsg_obs::Registry;
use wsg_xml::tree::Node;

use crate::load::Payloads;
use crate::metrics::{
    counter_delta, fleet_counters, fleet_histogram, peak_rss_mb, percentile_of, summarize,
    CpuMeter, Summary, Values,
};
use crate::probe::{
    Captured, Load, Phase, Probe, Shared, COORDINATOR, FIRST_SUBSCRIBER, INITIATOR, TOPIC,
};
use crate::trace::{self, Derived, Span};

/// After the publishing stops, wait at most this long for quiescence.
const QUIESCE_LIMIT: Duration = Duration::from_secs(5);

/// One workload: a load shape and a payload size on one runtime.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub load: Load,
    pub payload_bytes: usize,
    /// A delivery later than this after its publication was due is late.
    /// Set where each workload's latency distribution is flat today, so
    /// `on_time_ratio` moves when the tail does and not with the median.
    pub deadline_ms: u64,
    /// Run on `ClusterRuntime` and crash two subscribers a third into the
    /// window.
    pub churn: bool,
}

/// The four workloads; later changes cite these names.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "steady_small",
        why: "open loop, 20 publications/s of 256 B: latency is transport wait, CPU is idle, batches are size 1",
        load: Load::Open { rate_per_s: 20 },
        payload_bytes: 256,
        deadline_ms: 500,
        churn: false,
    },
    Workload {
        name: "saturate_small",
        why: "closed loop, 1024 outstanding, 256 B: CPU-bound, batches fill, per-envelope cost and redundant sends dominate",
        load: Load::Closed { window: 1024 },
        payload_bytes: 256,
        deadline_ms: 5000,
        churn: false,
    },
    Workload {
        name: "saturate_large",
        why: "closed loop, 512 outstanding, 16 KiB: per-byte cost (escaping, clones, re-parse, socket copies) dominates",
        load: Load::Closed { window: 512 },
        payload_bytes: 16 * 1024,
        deadline_ms: 5000,
        churn: false,
    },
    Workload {
        name: "churn_crash",
        why: "open loop, 20 publications/s on ClusterRuntime; two subscribers crash: heartbeats and failure detection under load",
        load: Load::Open { rate_per_s: 20 },
        payload_bytes: 256,
        deadline_ms: 3000,
        churn: true,
    },
];

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Length of the measured window (split in two when tracing).
    pub seconds: f64,
    /// Publishing time before the window, excluded from every metric.
    pub warmup_s: f64,
    pub subscribers: usize,
    /// Set the fleet up this many times; `setup_s` is the median.
    pub setups: usize,
    /// Run an untraced reference window, then a traced one.
    pub trace: bool,
    /// Keep the envelopes the stage replays need.
    pub capture: bool,
}

enum Fleet {
    Net(Box<NetRuntime<Probe>>),
    Cluster(Box<ClusterRuntime<Probe>>),
}

impl Fleet {
    /// Deploy the fleet; `seed` drives the runtime's own random choices.
    fn spawn(
        workload: &Workload,
        opts: &Options,
        seed: u64,
        shared: &Arc<Shared>,
    ) -> Result<Fleet, String> {
        let payloads = Payloads::new(opts.seed, workload.payload_bytes);
        let nodes = FIRST_SUBSCRIBER + opts.subscribers;
        let build = |id: usize, plane: Option<Arc<MembershipPlane>>| {
            let node = match id {
                0 => WsGossipNode::coordinator(COORDINATOR),
                1 => WsGossipNode::initiator(INITIATOR, COORDINATOR),
                _ => WsGossipNode::disseminator(NodeId(id), COORDINATOR).with_auto_subscribe(TOPIC),
            };
            let node = match plane {
                Some(plane) => node.with_liveness(plane),
                None => node,
            };
            let probe = Probe::new(node, NodeId(id), Arc::clone(shared));
            if id == INITIATOR.index() {
                probe.with_generator(workload.load, payloads.clone())
            } else {
                probe
            }
        };
        if !workload.churn {
            let probes = (0..nodes).map(|id| build(id, None)).collect();
            let net = NetRuntime::spawn(probes, seed, NetRuntimeConfig::default());
            return Ok(Fleet::Net(Box::new(net)));
        }
        let mut fleet =
            ClusterRuntime::new(seed, NetRuntimeConfig::default(), ClusterConfig::default());
        fleet.add_seed(|plane| build(0, Some(plane)));
        for id in 1..nodes {
            fleet
                .add_node(COORDINATOR, |plane| build(id, Some(plane)))
                .map_err(|e| format!("node {id} could not join: {e}"))?;
        }
        Ok(Fleet::Cluster(Box::new(fleet)))
    }

    fn registries(&self, nodes: usize) -> Vec<Arc<Registry>> {
        (0..nodes)
            .map(|id| match self {
                Fleet::Net(net) => net.registry_of(NodeId(id)),
                Fleet::Cluster(cluster) => cluster.registry_of(NodeId(id)),
            })
            .collect()
    }

    fn planes(&self, nodes: usize) -> Vec<Arc<MembershipPlane>> {
        match self {
            Fleet::Net(_) => Vec::new(),
            Fleet::Cluster(cluster) => (0..nodes).map(|id| cluster.plane(NodeId(id))).collect(),
        }
    }

    fn crash(&mut self, id: NodeId) -> Option<NetNode<Probe>> {
        match self {
            Fleet::Net(net) => net.crash(id),
            Fleet::Cluster(cluster) => cluster.crash(id),
        }
    }

    fn shutdown(self) -> Vec<NetNode<Probe>> {
        match self {
            Fleet::Net(net) => net.shutdown(),
            Fleet::Cluster(cluster) => cluster.shutdown(),
        }
    }
}

/// Poll `done` every millisecond for at most `limit`.
fn wait_for(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let started = wsg_bench::timing::now();
    while started.elapsed() < limit {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

/// What the main thread saw of the crash it injected.
#[derive(Debug, Clone, Default)]
struct Churn {
    /// Crash → `!plane(survivor).is_live(crashed)`, per pair, seconds.
    detect_s: Vec<f64>,
    /// Pairs still undetected when the window closed (counted at its end).
    undetected: usize,
    /// Poll samples where a survivor held a live survivor as not live.
    false_suspect_samples: u64,
    /// Sends still aimed at the crashed members in each whole second
    /// after the crash: failed POSTs plus envelopes the senders dropped
    /// as unroutable.
    failed_posts_by_second: Vec<u64>,
}

/// The fleet's running totals at one instant.
#[derive(Debug, Clone)]
struct Mark {
    at_ns: u64,
    cpu_ms: f64,
    counters: BTreeMap<String, f64>,
}

/// What happened between two marks.
#[derive(Debug, Clone, Default)]
struct Window {
    start_ns: u64,
    end_ns: u64,
    cpu_ms: f64,
    counters: BTreeMap<String, f64>,
    churn: Churn,
}

impl Window {
    fn between(start: &Mark, end: &Mark, churn: Churn) -> Self {
        Window {
            start_ns: start.at_ns,
            end_ns: end.at_ns,
            cpu_ms: end.cpu_ms - start.cpu_ms,
            counters: counter_delta(&start.counters, &end.counters),
            churn,
        }
    }

    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Envelopes the senders posted.
    fn msgs_posted(&self) -> f64 {
        self.counter("wsg_transport_posts_ok_total")
            + self.counter("wsg_transport_posts_saved_total")
    }
}

/// The main thread's view of the fleet it measures.
struct Bench<'a> {
    fleet: Fleet,
    shared: &'a Shared,
    nodes: usize,
    registries: Vec<Arc<Registry>>,
    planes: Vec<Arc<MembershipPlane>>,
    cpu: CpuMeter,
    crashed: Vec<NetNode<Probe>>,
}

impl Bench<'_> {
    fn mark(&mut self) -> Mark {
        Mark {
            at_ns: self.shared.now_ns(),
            cpu_ms: self.cpu.sample(),
            counters: fleet_counters(&self.registries),
        }
    }

    fn counter_now(&self, name: &str) -> u64 {
        self.registries
            .iter()
            .map(|r| r.register_counter(name, "").get())
            .sum()
    }

    /// Sends that found their destination gone, so far.
    fn lost_sends(&self) -> u64 {
        self.counter_now("wsg_transport_posts_failed_total")
            + self.counter_now("wsg_transport_unroutable_total")
    }

    /// Sleep `seconds`, sampling the CPU meter every second.
    fn idle(&mut self, seconds: f64) {
        let until_ns = self.shared.now_ns() + (seconds * 1e9) as u64;
        loop {
            let left_ns = until_ns.saturating_sub(self.shared.now_ns());
            if left_ns == 0 {
                break;
            }
            std::thread::sleep(Duration::from_nanos(left_ns.min(1_000_000_000)));
            self.cpu.sample();
        }
    }

    /// Let the fleet run for `seconds`. When `crash` is set, crash the two
    /// highest-id subscribers a third of the way in and watch the
    /// survivors' planes (polled every 2 ms) notice.
    fn measure(&mut self, seconds: f64, crash: bool) -> Window {
        let start = self.mark();
        if !crash {
            self.idle(seconds);
            let end = self.mark();
            return Window::between(&start, &end, Churn::default());
        }
        let end_target = start.at_ns + (seconds * 1e9) as u64;
        let crash_at = start.at_ns + (seconds * 1e9 / 3.0) as u64;
        let survivors: Vec<usize> = (0..self.nodes - 2).collect();
        let mut churn = Churn::default();
        let mut crashed: Vec<(usize, u64)> = Vec::new();
        let mut pending: Vec<(usize, usize, u64)> = Vec::new();
        let mut failed_base = 0;
        let mut sampled_s = 0;
        loop {
            let now_ns = self.shared.now_ns();
            if now_ns >= end_target {
                break;
            }
            if (now_ns - start.at_ns) / 1_000_000_000 > sampled_s {
                sampled_s += 1;
                self.cpu.sample();
            }
            if crashed.is_empty() && now_ns >= crash_at {
                // The victims' threads end with them: take what they ran.
                self.cpu.sample();
                failed_base = self.lost_sends();
                for victim in [self.nodes - 1, self.nodes - 2] {
                    let at_ns = self.shared.now_ns();
                    self.shared
                        .tracker
                        .lock()
                        .mark_dead(victim - FIRST_SUBSCRIBER, at_ns);
                    self.crashed.extend(self.fleet.crash(NodeId(victim)));
                    crashed.push((victim, at_ns));
                    pending.extend(survivors.iter().map(|&s| (s, victim, at_ns)));
                }
            }
            if let Some(&(_, first_crash_ns)) = crashed.first() {
                let now_ns = self.shared.now_ns();
                pending.retain(|&(survivor, victim, at_ns)| {
                    let live = self.planes[survivor].is_live(NodeId(victim));
                    if !live {
                        churn.detect_s.push((now_ns - at_ns) as f64 / 1e9);
                    }
                    live
                });
                for &s in &survivors {
                    for &other in &survivors {
                        if s != other && !self.planes[s].is_live(NodeId(other)) {
                            churn.false_suspect_samples += 1;
                        }
                    }
                }
                let whole_seconds = ((now_ns - first_crash_ns) / 1_000_000_000) as usize;
                while churn.failed_posts_by_second.len() < whole_seconds {
                    let total = self.lost_sends();
                    churn.failed_posts_by_second.push(total - failed_base);
                    failed_base = total;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let end = self.mark();
        churn.undetected = pending.len();
        churn.detect_s.extend(
            pending
                .iter()
                .map(|&(_, _, at_ns)| (end.at_ns - at_ns) as f64 / 1e9),
        );
        Window::between(&start, &end, churn)
    }

    /// Wait until no node has received a gossip envelope for half a
    /// second: push gossip only reacts, so nothing is in flight after that.
    fn quiesce(&mut self) -> bool {
        let started = wsg_bench::timing::now();
        let mut last = (self.shared.fleet_msgs.load(Ordering::SeqCst), started);
        while started.elapsed() < QUIESCE_LIMIT {
            std::thread::sleep(Duration::from_millis(20));
            self.cpu.sample();
            let now = self.shared.fleet_msgs.load(Ordering::SeqCst);
            if now != last.0 {
                last = (now, wsg_bench::timing::now());
            } else if last.1.elapsed() >= Duration::from_millis(500) {
                return true;
            }
        }
        false
    }
}

/// What the publications due in one window came to.
#[derive(Debug, Clone, Default)]
struct Pairs {
    publications: u64,
    /// Publications of the window that no expected subscriber delivered.
    lost: u64,
    /// (publication, subscriber) pairs expected to deliver.
    expected: u64,
    delivered: u64,
    on_time: u64,
    /// First deliveries that happened inside the window, whatever
    /// publication they belong to.
    first_deliveries: u64,
    deliver_ms: Summary,
    deliver_p90_ms: f64,
    deliver_p99_ms: f64,
    complete_ms: Summary,
    complete_p90_ms: f64,
    gen_lag_ms: Summary,
    gen_lag_p99_ms: f64,
}

fn pairs_of(shared: &Shared, workload: &Workload, window: &Window) -> Pairs {
    let deadline_ns = workload.deadline_ms * 1_000_000;
    let tracker = shared.tracker.lock();
    let mut pairs = Pairs::default();
    let (mut deliver, mut complete, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    for publication in &tracker.pubs {
        pairs.first_deliveries += publication
            .first_ns
            .iter()
            .filter(|&&at| at >= window.start_ns && at < window.end_ns)
            .count() as u64;
        if publication.due_ns < window.start_ns || publication.due_ns >= window.end_ns {
            continue;
        }
        pairs.publications += 1;
        lag.push((publication.sent_ns - publication.due_ns) as f64 / 1e6);
        let mut last_ns = Some(0u64);
        let delivered_before = pairs.delivered;
        for (subscriber, &at_ns) in publication.first_ns.iter().enumerate() {
            // A subscriber is expected to deliver when it stays live for
            // the whole deadline after the publication was due.
            let survives = tracker.dead_since_ns[subscriber]
                .is_none_or(|dead| publication.due_ns + deadline_ns <= dead);
            if !survives {
                continue;
            }
            pairs.expected += 1;
            if at_ns == 0 {
                last_ns = None;
                continue;
            }
            pairs.delivered += 1;
            let latency_ns = at_ns.saturating_sub(publication.due_ns);
            if latency_ns <= deadline_ns {
                pairs.on_time += 1;
            }
            deliver.push(latency_ns as f64 / 1e6);
            last_ns = last_ns.map(|last| last.max(at_ns));
        }
        pairs.lost += u64::from(pairs.delivered == delivered_before);
        if let Some(last_ns) = last_ns.filter(|&last| last > 0) {
            complete.push(last_ns.saturating_sub(publication.due_ns) as f64 / 1e6);
        }
    }
    pairs.deliver_ms = summarize(&mut deliver);
    pairs.deliver_p90_ms = percentile_of(&deliver, 90.0);
    pairs.deliver_p99_ms = percentile_of(&deliver, 99.0);
    pairs.complete_ms = summarize(&mut complete);
    pairs.complete_p90_ms = percentile_of(&complete, 90.0);
    pairs.gen_lag_ms = summarize(&mut lag);
    pairs.gen_lag_p99_ms = percentile_of(&lag, 99.0);
    pairs
}

/// Check every output of the run; each violation names its seq or node.
fn oracle(
    workload: &Workload,
    opts: &Options,
    shared: &Shared,
    nodes: &[NetNode<Probe>],
    quiescent: bool,
) -> Vec<String> {
    let payloads = Payloads::new(opts.seed, workload.payload_bytes);
    let tracker = shared.tracker.lock();
    let mut violations = tracker.violations.clone();
    let published = tracker.pubs.len() as u64;
    // Expected text per seq, built once however many subscribers hold it.
    let mut expected: BTreeMap<u64, String> = BTreeMap::new();
    let mut sent = 0u64;
    let received = shared.fleet_msgs.load(Ordering::SeqCst);
    for node in nodes {
        let probe = &node.protocol;
        let name = probe.node().endpoint().to_string();
        sent += node.transport.msgs_ok;
        let stats = probe.node().stats();
        if stats.parse_errors != 0 || stats.faults != 0 {
            violations.push(format!(
                "{name}: parse_errors={} faults={}",
                stats.parse_errors, stats.faults
            ));
        }
        let ops = probe.node().ops();
        if ops.len() != probe.node().distinct_ops().len() {
            violations.push(format!("{name}: handed the application a duplicate"));
        }
        for op in ops {
            if op.seq >= published {
                violations.push(format!("{name}: delivered unpublished seq {}", op.seq));
                continue;
            }
            let want = expected
                .entry(op.seq)
                .or_insert_with(|| payloads.text(op.seq));
            let same = match op.payload.nodes() {
                [Node::Text(text)] => text == want,
                _ => op.payload.text() == *want,
            };
            if !same || op.payload.local_name() != "tick" {
                violations.push(format!("{name}: payload of seq {} differs", op.seq));
            }
        }
    }
    // Heartbeats ride the same sender on ClusterRuntime, so the envelope
    // conservation law is only exact on NetRuntime fleets.
    if !workload.churn && quiescent && sent != received {
        violations.push(format!(
            "envelopes not conserved: senders count {sent} msgs_ok, probes saw {received} on_message"
        ));
    }
    violations.truncate(20);
    violations
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Oracle violations; empty = correct.
    pub violations: Vec<String>,
    /// Publications of the measured windows, and how many of them reached
    /// no subscriber at all.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced window).
    pub end_to_end: Values,
    /// Per-layer metrics from the traced window and the registries
    /// (tracing runs only).
    pub per_layer: Values,
    /// Lines for the human reader: distributions, counts, context.
    pub notes: Vec<String>,
    /// Envelopes captured for the stage replays.
    pub captured: Captured,
}

/// Run `workload` once and compute its metrics.
pub fn run(workload: &Workload, opts: &Options) -> Result<Report, String> {
    let nodes = FIRST_SUBSCRIBER + opts.subscribers;
    let run_started = wsg_bench::timing::now();
    let mut setup_s = Vec::new();
    // Set up `setups` times, each fleet seeded differently so the median
    // does not hang on one seed's gossip choices; the last fleet is the
    // one that is measured.
    let (fleet, shared) = loop {
        let shared = Shared::new(opts.subscribers, workload.load, opts.capture);
        let seed = opts.seed.wrapping_add(setup_s.len() as u64);
        let started = wsg_bench::timing::now();
        let fleet = Fleet::spawn(workload, opts, seed, &shared)?;
        let planes = fleet.planes(nodes);
        let ready = wait_for(Duration::from_secs(20), || {
            shared.subscribed.load(Ordering::SeqCst) == opts.subscribers
                && planes
                    .iter()
                    .all(|plane| plane.live_members().len() == nodes)
        });
        setup_s.push(started.elapsed().as_secs_f64());
        if !ready {
            fleet.shutdown();
            return Err(format!(
                "set-up timed out with {} of {} subscribed",
                shared.subscribed.load(Ordering::SeqCst),
                opts.subscribers
            ));
        }
        if setup_s.len() >= opts.setups {
            break (fleet, shared);
        }
        fleet.shutdown();
    };
    let setup = summarize(&mut setup_s);
    let setups_done_s = run_started.elapsed().as_secs_f64();

    shared.set_phase(Phase::Activate);
    if !wait_for(Duration::from_secs(10), || {
        shared.context_ready.load(Ordering::SeqCst)
    }) {
        fleet.shutdown();
        return Err("activation timed out".to_string());
    }
    let mut bench = Bench {
        registries: fleet.registries(nodes),
        planes: fleet.planes(nodes),
        fleet,
        shared: &shared,
        nodes,
        cpu: CpuMeter::new(),
        crashed: Vec::new(),
    };
    let publishing_from = bench.mark();
    shared.set_phase(Phase::Publish);
    bench.idle(opts.warmup_s);
    let setup_msgs = shared.coordinator_msgs.load(Ordering::SeqCst);

    let (plain, traced) = if opts.trace {
        // A short untraced reference, then the traced window: the ratio
        // of their CPU cost per delivery is the tracing overhead.
        let reference = bench.measure(opts.seconds / 4.0, false);
        shared.set_tracing(true);
        let traced = bench.measure(opts.seconds / 2.0, workload.churn);
        shared.set_tracing(false);
        (reference, Some(traced))
    } else {
        (bench.measure(opts.seconds, workload.churn), None)
    };
    let windows_done_s = run_started.elapsed().as_secs_f64();

    shared.set_phase(Phase::Drain);
    let quiescent = bench.quiesce();
    let publishing_to = bench.mark();
    let histograms = [
        fleet_histogram(&bench.registries, "wsg_http_client_post_micros"),
        fleet_histogram(&bench.registries, "wsg_http_server_request_micros"),
    ];
    let quiet_s = run_started.elapsed().as_secs_f64();
    let Bench { fleet, crashed, .. } = bench;
    let mut finished = fleet.shutdown();
    finished.extend(crashed);
    let stopped_s = run_started.elapsed().as_secs_f64();

    let violations = oracle(workload, opts, &shared, &finished, quiescent);
    let mut report = Report {
        violations,
        captured: shared.captured(),
        ..Report::default()
    };

    // Latency, throughput and the delivered share come from the measured
    // window. What a delivery costs is a ratio of totals over everything
    // published, warm-up and drain included: nothing is in flight at
    // either end, so no backlog is cut in two.
    let pairs = pairs_of(&shared, workload, &plain);
    let whole = Window::between(&publishing_from, &publishing_to, Churn::default());
    let all_deliveries = {
        let tracker = shared.tracker.lock();
        let delivered = tracker
            .pubs
            .iter()
            .flat_map(|p| &p.first_ns)
            .filter(|&&at| at != 0);
        delivered.count().max(1) as f64
    };
    report.attempted = pairs.publications;
    report.failed = pairs.lost;
    report.end_to_end = vec![
        ("setup_s", setup.median),
        (
            "on_time_ratio",
            pairs.on_time as f64 / pairs.expected.max(1) as f64,
        ),
        (
            "delivery_ratio",
            pairs.delivered as f64 / pairs.expected.max(1) as f64,
        ),
        (
            "delivered_ops_per_s",
            pairs.first_deliveries as f64 / plain.seconds(),
        ),
        ("cpu_ms_per_op", whole.cpu_ms / all_deliveries),
        ("wire_msgs_per_op", whole.msgs_posted() / all_deliveries),
        (
            "wire_bytes_per_op",
            whole.counter("wsg_http_server_bytes_in_total") / all_deliveries,
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    report.notes.push(format!(
        "wall_s             set-ups {setups_done_s:.2}, publishing {:.2}, quiescence {:.2}, shutdown {:.2}, oracle {:.2}",
        windows_done_s - setups_done_s,
        quiet_s - windows_done_s,
        stopped_s - quiet_s,
        run_started.elapsed().as_secs_f64() - stopped_s
    ));
    report.notes.push(format!(
        "setup_s            {setup} (of {} set-ups)",
        setup.n
    ));
    report.notes.push(format!(
        "publications       {} in a {:.1} s window; {} first deliveries; {} of {} pairs delivered",
        pairs.publications,
        plain.seconds(),
        pairs.first_deliveries,
        pairs.delivered,
        pairs.expected
    ));
    report.notes.push(format!(
        "whole run          {all_deliveries} first deliveries, {} envelopes, {:.0} ms CPU in {:.1} s of publishing and drain",
        whole.msgs_posted(),
        whole.cpu_ms,
        whole.seconds()
    ));
    report
        .notes
        .push(format!("deliver_ms         {}", pairs.deliver_ms));
    report
        .notes
        .push(format!("complete_ms        {}", pairs.complete_ms));
    report
        .notes
        .push(format!("gen_lag_ms         {}", pairs.gen_lag_ms));
    let churn_notes = |window: &Window, notes: &mut Vec<String>| {
        let mut detect_s = window.churn.detect_s.clone();
        let detect = summarize(&mut detect_s);
        notes.push(format!(
            "detect_s           {detect}; undetected at window end: {}; false-suspect samples: {}",
            window.churn.undetected, window.churn.false_suspect_samples
        ));
        notes.push(format!(
            "sends to crashed members, by second after the crash: {:?}",
            window.churn.failed_posts_by_second
        ));
        (detect.median, percentile_of(&detect_s, 90.0))
    };
    if workload.churn && traced.is_none() {
        churn_notes(&plain, &mut report.notes);
    }

    let Some(traced) = traced else {
        return Ok(report);
    };

    // Per-layer metrics: spans and registry deltas of the traced window.
    let mut spans: Vec<Span> = finished
        .iter()
        .flat_map(|n| n.protocol.spans.iter().cloned())
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.span));
    let derived: Derived = trace::derive(&spans, traced.start_ns, traced.end_ns);
    match trace::write_file(&format!("trace_{}.json", workload.name), &spans) {
        Ok(path) => report.notes.push(format!(
            "trace              {} spans -> {path}",
            spans.len()
        )),
        Err(e) => report
            .violations
            .push(format!("trace file not written: {e}")),
    }
    if derived.orphan_hops > 0 || derived.paths_off_balance > 0 || derived.paths == 0 {
        report.violations.push(format!(
            "trace: {} orphan hops, {} of {} critical paths off balance",
            derived.orphan_hops, derived.paths_off_balance, derived.paths
        ));
    }
    let traced_pairs = pairs_of(&shared, workload, &traced);
    report.attempted += traced_pairs.publications;
    report.failed += traced_pairs.lost;
    let ops = pairs.first_deliveries.max(1) as f64;
    let traced_ops = traced_pairs.first_deliveries.max(1) as f64;
    let posts = traced.counter("wsg_http_client_posts_total").max(1.0);
    let lookups = (traced.counter("wsg_http_client_pool_hits_total")
        + traced.counter("wsg_http_client_pool_misses_total"))
    .max(1.0);
    let (mut new, mut dup, mut parse_errors, mut faults, mut msgs_failed) = (0u64, 0u64, 0, 0, 0);
    for node in &finished {
        let inner = node.protocol.node();
        new += inner.ops().len() as u64;
        dup += inner.layer_stats().map_or(0, |s| s.duplicates_suppressed);
        parse_errors += inner.stats().parse_errors;
        faults += inner.stats().faults;
        msgs_failed += node.transport.msgs_failed;
    }
    let (detect_p50_s, detect_p90_s) = if workload.churn {
        churn_notes(&traced, &mut report.notes)
    } else {
        (0.0, 0.0)
    };
    report.per_layer = vec![
        ("wsg_http.hop_p50_us", derived.hop_p50_us),
        ("wsg_http.hop_p90_us", derived.hop_p90_us),
        ("wsg_http.hop_p99_us", derived.hop_p99_us),
        ("wsg_http.crit_hop_share", derived.crit_hop_share),
        (
            "wsg_http.client_post_p50_us",
            histograms[0].quantile(0.5) as f64,
        ),
        (
            "wsg_http.server_request_p50_us",
            histograms[1].quantile(0.5) as f64,
        ),
        (
            "wsg_http.batch_mean_msgs",
            traced.counter("wsg_transport_batch_msgs_sum")
                / traced.counter("wsg_transport_batch_msgs_count").max(1.0),
        ),
        (
            "wsg_http.posts_per_op",
            traced.counter("wsg_transport_posts_ok_total") / traced_ops,
        ),
        (
            "wsg_http.pool_miss_ratio",
            traced.counter("wsg_http_client_pool_misses_total") / lookups,
        ),
        (
            "wsg_http.retries_per_kpost",
            traced.counter("wsg_http_client_retries_total") * 1000.0 / posts,
        ),
        (
            "wsg_http.backoff_ms_total",
            traced.counter("wsg_http_client_backoff_micros_total") / 1e3,
        ),
        (
            "wsg_http.posts_failed",
            traced.counter("wsg_transport_posts_failed_total"),
        ),
        ("wsg_http.msgs_failed", msgs_failed as f64),
        (
            "wsg_http.conns_shed",
            traced.counter("wsg_http_server_connections_shed_total"),
        ),
        ("ws_gossip.handle_new_p50_us", derived.handle_new_p50_us),
        ("ws_gossip.handle_dup_p50_us", derived.handle_dup_p50_us),
        ("ws_gossip.node_busy_ratio_max", derived.node_busy_ratio_max),
        ("ws_gossip.crit_handle_share", derived.crit_handle_share),
        (
            "ws_gossip.useful_recv_ratio",
            new as f64 / (new + dup).max(1) as f64,
        ),
        (
            "ws_gossip.rounds_to_deliver_p50",
            derived.rounds_to_deliver_p50,
        ),
        (
            "ws_gossip.rounds_to_deliver_max",
            derived.rounds_to_deliver_max,
        ),
        ("ws_gossip.parse_errors", parse_errors as f64),
        ("ws_gossip.faults", faults as f64),
        ("ws_gossip.deliver_p50_ms", traced_pairs.deliver_ms.median),
        ("ws_gossip.deliver_p90_ms", traced_pairs.deliver_p90_ms),
        ("ws_gossip.deliver_p99_ms", traced_pairs.deliver_p99_ms),
        ("ws_gossip.complete_p50_ms", traced_pairs.complete_ms.median),
        ("ws_gossip.complete_p90_ms", traced_pairs.complete_p90_ms),
        ("ws_gossip.gen_lag_p99_ms", traced_pairs.gen_lag_p99_ms),
        ("wsg_coord.setup_msgs", setup_msgs as f64),
        (
            "wsg_cluster.heartbeats_per_s",
            traced.counter("wsg_membership_heartbeats_total") / traced.seconds(),
        ),
        ("wsg_cluster.detect_p50_s", detect_p50_s),
        ("wsg_cluster.detect_p90_s", detect_p90_s),
        (
            "wsg_cluster.false_suspect_samples",
            traced.churn.false_suspect_samples as f64,
        ),
        (
            "wsg_cluster.post_crash_failed_posts",
            traced.churn.failed_posts_by_second.iter().sum::<u64>() as f64,
        ),
        (
            "trace_overhead_ratio",
            (traced.cpu_ms / traced_ops) / (plain.cpu_ms / ops).max(1e-9),
        ),
    ];
    report.notes.push(format!(
        "traced window      {:.1} s, {} hops, {} critical paths; reference window {:.1} s at {:.4} CPU ms per delivery",
        traced.seconds(),
        derived.hops,
        derived.paths,
        plain.seconds(),
        plain.cpu_ms / ops
    ));
    Ok(report)
}
