//! Property-based tests on cross-crate protocol invariants, running on
//! the in-tree `wsg_net::check` harness (randomised cases, shrink by
//! halving, failing-seed replay via `WSG_PROP_SEED`).

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};

use wsg_coord::{CoordinationContext, GossipGrant, GossipPolicy, GossipProtocol};
use wsg_gossip::{analysis, Digest, GossipConfig, GossipEngine, GossipParams, GossipStyle, MsgId};
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::NodeId;
use wsg_soap::{Envelope, MessageHeaders};
use wsg_xml::Element;

fn gen_params(g: &mut Gen) -> GossipParams {
    GossipParams::new(g.usize(1..=11), g.u32(1..=11))
}

fn gen_protocol(g: &mut Gen) -> GossipProtocol {
    *g.pick(&[
        GossipProtocol::Push,
        GossipProtocol::LazyPush,
        GossipProtocol::Pull,
        GossipProtocol::PushPull,
        GossipProtocol::AntiEntropy,
    ])
}

/// Any coordination context round-trips through wire XML.
#[test]
fn context_wire_roundtrip() {
    run("context_wire_roundtrip", 64, |g| {
        let protocol = gen_protocol(g);
        let params = gen_params(g);
        let ctx_num = g.u64(0..=9_999);
        let mut context = CoordinationContext::new(
            format!("urn:ws-gossip:ctx:{ctx_num}"),
            protocol,
            "http://node0/registration",
            GossipPolicy::new(params),
        );
        if g.bool(0.5) {
            context = context.with_expires(g.u64(1..=9_999_999));
        }
        let xml = context.to_header().to_xml_string();
        let parsed = CoordinationContext::from_header(&Element::parse(&xml).unwrap()).unwrap();
        prop_assert_eq!(parsed, context);
        Ok(())
    });
}

/// Grants round-trip through wire XML with arbitrary peer lists.
#[test]
fn grant_wire_roundtrip() {
    run("grant_wire_roundtrip", 64, |g| {
        let grant = GossipGrant {
            fanout: g.usize(1..=49),
            rounds: g.u32(1..=49),
            peers: g.vec_of(20, |g| format!("http://node{}/gossip", g.usize(0..=999))),
        };
        let xml = grant.to_register_response("urn:ws-gossip:ctx:1").to_xml_string();
        let parsed = GossipGrant::from_register_response(&Element::parse(&xml).unwrap()).unwrap();
        prop_assert_eq!(parsed, ("urn:ws-gossip:ctx:1".to_string(), grant));
        Ok(())
    });
}

/// SOAP envelopes with arbitrary payload text round-trip.
#[test]
fn envelope_payload_roundtrip() {
    run("envelope_payload_roundtrip", 64, |g| {
        let text = g.ascii_string(200);
        let env = Envelope::request(
            MessageHeaders::request("http://node1/gossip", "urn:op"),
            Element::new("op").with_text(text.clone()),
        );
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        prop_assert_eq!(parsed.body().unwrap().text(), text);
        Ok(())
    });
}

/// Digest::missing_from is a true set difference for arbitrary sets.
#[test]
fn digest_difference_exact() {
    run("digest_difference_exact", 64, |g| {
        let gen_set = |g: &mut Gen| -> std::collections::HashSet<(usize, u64)> {
            g.vec_of(40, |g| (g.usize(0..=5), g.u64(0..=29))).into_iter().collect()
        };
        let mine = gen_set(g);
        let theirs = gen_set(g);
        let mut a = Digest::new();
        for &(origin, seq) in &mine {
            a.insert(MsgId::new(NodeId(origin), seq));
        }
        let mut b = Digest::new();
        for &(origin, seq) in &theirs {
            b.insert(MsgId::new(NodeId(origin), seq));
        }
        let missing: std::collections::HashSet<(usize, u64)> = a
            .missing_from(&b)
            .into_iter()
            .map(|id| (id.origin().index(), id.seq()))
            .collect();
        let expected: std::collections::HashSet<(usize, u64)> =
            mine.difference(&theirs).copied().collect();
        prop_assert_eq!(missing, expected);
        Ok(())
    });
}

/// The epidemic never delivers the same message twice to the app and
/// never exceeds the round budget, for any parameters and loss rate.
#[test]
fn engine_invariants_hold() {
    run("engine_invariants_hold", 64, |g| {
        let params = gen_params(g);
        let n = g.usize(4..=39);
        let loss = g.f64(0.0..0.5);
        let seed = g.u64(0..=999);
        let mut net = SimNet::new(SimConfig::default().seed(seed).drop_probability(loss));
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::<u32>::new(
                GossipConfig::new(GossipStyle::EagerPush, params.clone()),
                peers,
            )
        });
        net.start();
        net.invoke(NodeId(0), |engine, ctx| {
            engine.publish(7, ctx);
        });
        net.run_to_quiescence();
        for i in 0..n {
            let delivered = net.node(NodeId(i)).delivered();
            prop_assert!(delivered.len() <= 1, "double delivery at {i}");
            for d in delivered {
                prop_assert!(d.round <= params.rounds());
            }
        }
        // The origin always has it.
        prop_assert_eq!(net.node(NodeId(0)).delivered().len(), 1);
        Ok(())
    });
}

/// Mean-field coverage prediction brackets the simulated coverage for
/// loss-free eager push (within a generous tolerance band).
#[test]
fn analysis_brackets_simulation() {
    run("analysis_brackets_simulation", 64, |g| {
        let seed = g.u64(0..=49);
        let n = 128;
        let params = GossipParams::new(3, 4);
        let mut net = SimNet::new(SimConfig::default().seed(seed));
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::<u32>::new(
                GossipConfig::new(GossipStyle::EagerPush, params.clone()),
                peers,
            )
        });
        net.start();
        net.invoke(NodeId(0), |engine, ctx| {
            engine.publish(1, ctx);
        });
        net.run_to_quiescence();
        let reached = (0..n)
            .filter(|i| !net.node(NodeId(*i)).delivered().is_empty())
            .count() as f64
            / n as f64;
        let predicted = analysis::expected_coverage(n, 3, 4);
        prop_assert!(
            (reached - predicted).abs() < 0.35,
            "simulated {reached:.2} vs predicted {predicted:.2}"
        );
        Ok(())
    });
}

/// Membership view merging is commutative and idempotent: any two
/// orders of applying two snapshots converge to the same view.
#[test]
fn membership_merge_is_commutative_and_idempotent() {
    run("membership_merge_commutative_idempotent", 48, |g| {
        use wsg_membership::MembershipView;
        use wsg_net::SimTime;
        let gen_entries = |g: &mut Gen| -> Vec<(NodeId, u64)> {
            g.vec_of(24, |g| (NodeId(g.usize(0..=7)), g.u64(0..=99)))
        };
        let entries_a = gen_entries(g);
        let entries_b = gen_entries(g);
        let at = SimTime::from_millis(1);

        let mut ab = MembershipView::new();
        ab.merge(&entries_a, at);
        ab.merge(&entries_b, at);

        let mut ba = MembershipView::new();
        ba.merge(&entries_b, at);
        ba.merge(&entries_a, at);

        prop_assert_eq!(ab.snapshot(), ba.snapshot());

        // Idempotence: re-applying changes nothing.
        let before = ab.snapshot();
        ab.merge(&entries_a, SimTime::from_millis(2));
        ab.merge(&entries_b, SimTime::from_millis(2));
        prop_assert_eq!(ab.snapshot(), before);
        Ok(())
    });
}

/// Simulator causality: every delivery happens strictly after its
/// send, times never run backwards, and crashed nodes receive nothing.
#[test]
fn simulator_respects_causality() {
    run("simulator_respects_causality", 48, |g| {
        use std::sync::{Arc, Mutex};
        use wsg_net::{TraceEvent, TraceKind};

        let seed = g.u64(0..=499);
        let n = g.usize(2..=15);
        let drop = g.f64(0.0..0.4);
        let mut net = SimNet::new(SimConfig::default().seed(seed).drop_probability(drop));
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::<u32>::new(
                GossipConfig::new(GossipStyle::EagerPush, GossipParams::new(2, 5)),
                peers,
            )
        });
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
        let sink = events.clone();
        net.set_tracer(Box::new(move |ev| sink.lock().unwrap().push(ev.clone())));
        let crashed = NodeId(n - 1);
        net.crash(crashed);
        net.start();
        net.invoke(NodeId(0), |e, ctx| {
            e.publish(1, ctx);
        });
        net.run_to_quiescence();

        let events = events.lock().unwrap();
        let mut last = wsg_net::SimTime::ZERO;
        for ev in events.iter() {
            prop_assert!(ev.time >= last, "time ran backwards");
            last = ev.time;
            if ev.kind == TraceKind::Deliver {
                prop_assert!(ev.to != crashed, "delivery to a crashed node");
            }
        }
        // Every deliver is strictly later than some send between the same pair.
        for deliver in events.iter().filter(|e| e.kind == TraceKind::Deliver) {
            let has_cause = events.iter().any(|send| {
                send.kind == TraceKind::Send
                    && send.from == deliver.from
                    && send.to == deliver.to
                    && send.time < deliver.time
            });
            prop_assert!(has_cause, "delivery without an earlier send");
        }
        Ok(())
    });
}

/// Same seed, same run: the simulator is deterministic for arbitrary
/// parameters.
#[test]
fn simulator_is_deterministic() {
    run("simulator_is_deterministic", 48, |g| {
        let seed = g.u64(0..=199);
        let n = g.usize(2..=19);
        let run_once = || {
            let mut net = SimNet::new(SimConfig::default().seed(seed).drop_probability(0.1));
            net.add_nodes(n, |id| {
                let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
                GossipEngine::<u32>::new(
                    GossipConfig::new(GossipStyle::EagerPush, GossipParams::new(3, 6)),
                    peers,
                )
            });
            net.start();
            net.invoke(NodeId(0), |e, ctx| {
                e.publish(9, ctx);
            });
            net.run_to_quiescence();
            (net.stats().clone(), net.now())
        };
        prop_assert_eq!(run_once(), run_once());
        Ok(())
    });
}

/// Push-sum conserves the value hull: estimates never leave
/// [min(values), max(values)] and converge towards the true mean.
#[test]
fn push_sum_estimates_stay_in_hull() {
    run("push_sum_estimates_stay_in_hull", 48, |g| {
        use wsg_gossip::PushSum;
        use wsg_net::{SimDuration, SimTime};
        let n = g.usize(2..=23);
        let values: Vec<f64> = (0..n).map(|_| g.f64(0.0..1000.0)).collect();
        let seed = g.u64(0..=99);
        let mut net = SimNet::new(SimConfig::default().seed(seed));
        for (i, &v) in values.iter().enumerate() {
            let peers = (0..n).map(NodeId).filter(|p| p.index() != i).collect();
            net.add_node(PushSum::new(v, peers, SimDuration::from_millis(50)));
        }
        net.start();
        net.run_until(SimTime::from_secs(8));
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / n as f64;
        for id in net.node_ids() {
            let est = net.node(id).estimate();
            prop_assert!(est >= lo - 1e-6 && est <= hi + 1e-6, "estimate {est} outside hull");
            prop_assert!(
                (est - mean).abs() < (hi - lo).max(1.0) * 0.05 + 1e-6,
                "estimate {est} far from mean {mean}"
            );
        }
        Ok(())
    });
}
