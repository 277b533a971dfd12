//! `wsg_fuzz` CLI — run the coverage-guided sweep, replay one input, or
//! regenerate the committed seed corpus.
//!
//! ```text
//! wsg_fuzz [--all | --target NAME]... [--budget N|Ns|Nms] [--seed N]
//!          [--save] [--assert-coverage]
//! wsg_fuzz --target NAME --replay FILE     (also: WSG_FUZZ_INPUT=FILE)
//! wsg_fuzz --write-seeds                   (regenerate fuzz/corpus seeds)
//! ```
//!
//! Exit codes: `0` clean, `1` crashes or oracle violations were found,
//! `2` usage error or `--assert-coverage` failure.

use std::process::ExitCode;

use wsg_fuzz::targets::{all_targets, target_by_name, FuzzTarget};
use wsg_fuzz::{corpus, fnv64, run_input, FuzzConfig};

struct Cli {
    targets: Vec<Box<dyn FuzzTarget>>,
    config: FuzzConfig,
    save: bool,
    assert_coverage: bool,
    replay: Option<String>,
    write_seeds: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        targets: Vec::new(),
        config: FuzzConfig::from_env(),
        save: false,
        assert_coverage: false,
        replay: std::env::var("WSG_FUZZ_INPUT").ok(),
        write_seeds: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => cli.targets = all_targets(),
            "--target" => {
                let name = value("--target")?;
                cli.targets
                    .push(target_by_name(&name).ok_or(format!("unknown target '{name}'"))?);
            }
            "--budget" => {
                let spec = value("--budget")?;
                let (iterations, wall_ms) = wsg_fuzz::parse_budget(&spec);
                cli.config.budget = iterations.ok_or(format!("bad --budget '{spec}'"))?;
                cli.config.wall_ms = wall_ms;
            }
            "--seed" => {
                cli.config.seed =
                    value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--save" => cli.save = true,
            "--assert-coverage" => cli.assert_coverage = true,
            "--replay" => cli.replay = Some(value("--replay")?),
            "--write-seeds" => cli.write_seeds = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cli.targets.is_empty() {
        cli.targets = all_targets();
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("wsg_fuzz: {error}");
            return ExitCode::from(2);
        }
    };

    if cli.write_seeds {
        return match write_seeds() {
            Ok(count) => {
                println!("wrote {count} seed inputs under {}", corpus::corpus_root().display());
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("wsg_fuzz: --write-seeds: {error}");
                ExitCode::from(2)
            }
        };
    }

    if let Some(path) = &cli.replay {
        let input = match std::fs::read(path) {
            Ok(input) => input,
            Err(error) => {
                eprintln!("wsg_fuzz: cannot read {path}: {error}");
                return ExitCode::from(2);
            }
        };
        let mut failed = false;
        for target in &cli.targets {
            match run_input(target.as_ref(), &input) {
                Ok(()) => println!("{}: ok ({} bytes)", target.name(), input.len()),
                Err(message) => {
                    failed = true;
                    println!("{}: FAIL — {message}", target.name());
                }
            }
        }
        return if failed { ExitCode::from(1) } else { ExitCode::SUCCESS };
    }

    let mut any_crash = false;
    let mut coverage_ok = true;
    for target in &cli.targets {
        let mut seeds = corpus::seeds(target.name()).unwrap_or_default();
        seeds.extend(corpus::regressions(target.name()).unwrap_or_default());
        let outcome = wsg_fuzz::fuzz(target.as_ref(), &seeds, &cli.config);
        println!(
            "{:<11} execs={:<7} corpus={:<4} edges={:<4} new-edges={:<4} crashes={}",
            outcome.target,
            outcome.executions,
            outcome.corpus.len(),
            outcome.coverage.iter().map(|(edge, _)| edge).collect::<std::collections::BTreeSet<_>>().len(),
            outcome.new_edges,
            outcome.crashes.len(),
        );
        if cli.save {
            for input in &outcome.corpus[seeds.len().min(outcome.corpus.len())..] {
                if let Err(err) = corpus::save(&corpus::dir_for(target.name()), input) {
                    eprintln!("wsg_fuzz: saving {} corpus entry failed: {err}", target.name());
                }
            }
            for crash in &outcome.crashes {
                if let Ok(path) =
                    corpus::save(&corpus::regressions_for(target.name()), &crash.minimized)
                {
                    println!("  saved regression {}", path.display());
                }
            }
        }
        for crash in &outcome.crashes {
            any_crash = true;
            println!(
                "  crash at iteration {} ({} bytes, minimized {}): {}",
                crash.iteration,
                crash.input.len(),
                crash.minimized.len(),
                crash.message
            );
            println!("  minimized input hash {:016x}", fnv64(&crash.minimized));
        }
        if cli.assert_coverage && outcome.new_edges == 0 {
            coverage_ok = false;
            eprintln!("wsg_fuzz: target {} discovered no new edges", outcome.target);
        }
    }
    if cli.assert_coverage && !wsg_net::cov::enabled() {
        eprintln!("wsg_fuzz: --assert-coverage requires RUSTFLAGS=\"--cfg wsg_cov\"");
        coverage_ok = false;
    }
    if !coverage_ok {
        ExitCode::from(2)
    } else if any_crash {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Regenerate the committed seed corpus from the real serialisers, so
/// seeds never drift from the wire format they exercise.
fn write_seeds() -> std::io::Result<usize> {
    use wsg_cluster::proto::{ClusterMessage, MemberEntry};
    use wsg_net::NodeId;
    use wsg_soap::batch::{text_of, write_batch, write_batch_parts, BatchItem};
    use wsg_soap::{Envelope, Fault, FaultCode, MessageHeaders};
    use wsg_xml::Element;

    let push = Envelope::request(
        MessageHeaders::request("http://peer:9000/gossip", "urn:ws-gossip:2008:Push"),
        Element::in_ns("wsg", "urn:ws-gossip:2008", "Push")
            .with_attr("round", "3")
            .with_child(Element::text_node("state", "v=17")),
    )
    .with_header(Element::text_node("Hint", "lazy"))
    .to_xml();
    let fault = Envelope::fault(
        MessageHeaders::request("http://peer:9000/gossip", "urn:ws-gossip:2008:Fault"),
        Fault::new(FaultCode::Sender, "malformed digest"),
    )
    .to_xml();

    // What a foreign SOAP stack may send and this writer never does: CDATA,
    // a character reference, and a payload prefix bound on env:Envelope
    // (the shape behind fuzz/corpus/regressions/batch/24ffc09407f20b43:
    // a subtree leaning on a binding outside its own byte span).
    let foreign = push
        .replacen("<env:Envelope", "<env:Envelope xmlns:app=\"urn:app\"", 1)
        .replace(
            "<state>v=17</state>",
            "<app:state k=\"a&#x26;b\"><![CDATA[1 < 2]]> &#x26; more</app:state>",
        );

    // A notification as the gossip layer reads it — `wsg:Origin` and
    // `wsg:Seq` straight off the header block's bytes — and the ways a
    // foreign stack may spell the same header.
    let wsg = |local: &str, text: &str| {
        Element::in_ns("wsg", "urn:ws-gossip:2008", local).with_text(text)
    };
    let notification = |seq: u32| {
        Envelope::request(
            MessageHeaders::request("http://node2/gossip", "urn:ws-gossip:2008:Notify")
                .with_message_id(format!("urn:uuid:{:04}", seq - 11)),
            Element::text_node("tick", if seq == 12 { "ACME" } else { "ACME &c." }),
        )
        .with_header(
            Element::in_ns("wsg", "urn:ws-gossip:2008", "Gossip")
                .with_child(wsg("Context", "urn:ws-gossip:ctx:0"))
                .with_child(wsg("Topic", "quotes"))
                .with_child(wsg("Origin", "http://node1/gossip"))
                .with_child(wsg("Seq", &seq.to_string()))
                .with_child(wsg("Round", "1")),
        )
        .to_xml()
    };
    let gossip = notification(12);
    // The same notification as builds before the conversation-first
    // header order wrote it, byte for byte (and as any other stack may
    // order it): `To` and `MessageID` ahead of the header blocks.
    let gossip_old_order = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
        <env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\" \
        xmlns:wsa=\"http://www.w3.org/2005/08/addressing\"><env:Header>\
        <wsa:To>http://node2/gossip</wsa:To><wsa:Action>urn:ws-gossip:2008:Notify</wsa:Action>\
        <wsa:MessageID>urn:uuid:0001</wsa:MessageID><wsg:Gossip xmlns:wsg=\"urn:ws-gossip:2008\">\
        <wsg:Context>urn:ws-gossip:ctx:0</wsg:Context><wsg:Topic>quotes</wsg:Topic>\
        <wsg:Origin>http://node1/gossip</wsg:Origin><wsg:Seq>12</wsg:Seq>\
        <wsg:Round>1</wsg:Round></wsg:Gossip></env:Header><env:Body><tick>ACME</tick></env:Body>\
        </env:Envelope>";
    let wsg_decl = " xmlns:wsg=\"urn:ws-gossip:2008\"";
    assert!(gossip.contains(&format!("<wsg:Gossip{wsg_decl}>")));
    // The namespace under another prefix, and as the default namespace.
    let gossip_prefix = gossip.replace("wsg:", "g:").replace("xmlns:wsg=", "xmlns:g=");
    let gossip_default = gossip
        .replace(&format!("<wsg:Gossip{wsg_decl}>"), "<Gossip xmlns=\"urn:ws-gossip:2008\">")
        .replace("wsg:", "");
    // The block leaning on a prefix declared on env:Envelope.
    let gossip_leaning = gossip
        .replace(wsg_decl, "")
        .replacen("<env:Envelope", &format!("<env:Envelope{wsg_decl}"), 1);
    // CDATA and a character reference inside wsg:Origin, whitespace
    // around wsg:Seq, a nested same-name child.
    let gossip_text = gossip
        .replace(
            "<wsg:Origin>http://node1/gossip</wsg:Origin>",
            "<wsg:Origin><![CDATA[http://node1]]>/a&#x26;b<wsg:Origin>inner</wsg:Origin></wsg:Origin>",
        )
        .replace("<wsg:Seq>12</wsg:Seq>", "<wsg:Seq> 12\n</wsg:Seq>");
    // Two wsg:Gossip blocks: the first one decides.
    let block = &gossip[gossip.find("<wsg:Gossip").unwrap()..gossip.find("</env:Header>").unwrap()];
    let gossip_twice = gossip
        .replace("</env:Header>", &format!("{}</env:Header>", block.replace(">12<", ">13<")));
    // A block that must be understood, and one whose namespace URI is no
    // slice of the text (kept as a tree).
    let flagged = gossip.replace(
        "</env:Header>",
        "<h:Lock xmlns:h=\"urn:a&#x26;b\" env:mustUnderstand=\"1\"><h:Key>k</h:Key></h:Lock>\
         <t:Trace xmlns:t=\"urn:t\" env:mustUnderstand=\"true\"/></env:Header>",
    );

    let entry = |id: usize, port: u16, heartbeat: u64| MemberEntry {
        id: NodeId(id),
        addr: format!("10.0.0.{}:{port}", id + 1).parse().unwrap(),
        heartbeat,
    };
    let heartbeat = ClusterMessage::Heartbeat(vec![entry(0, 9000, 12), entry(1, 9001, 7)])
        .to_envelope("http://10.0.0.1:9000/membership")
        .to_xml();
    let join = ClusterMessage::Join(entry(2, 9002, 1))
        .to_envelope("http://10.0.0.1:9000/membership")
        .to_xml();

    let mut pair = String::new();
    write_batch(
        &[
            BatchItem { target: None, xml: &push },
            BatchItem { target: Some("/membership"), xml: &heartbeat },
        ],
        &mut pair,
    );
    let mut leaning = String::new();
    write_batch(
        &[BatchItem { target: None, xml: &foreign }, BatchItem { target: None, xml: &push }],
        &mut leaning,
    );
    let mut empty = String::new();
    write_batch(&[], &mut empty);
    // Three notifications forwarded to one peer, as the sender's drain
    // writes them: the first whole, the others front-coded — and a `pre`
    // that counts past the message before it.
    let forwards = [notification(12), notification(13), notification(14)];
    let mut front_coded = String::new();
    write_batch(&forwards.each_ref().map(|xml| BatchItem { target: None, xml }), &mut front_coded);
    assert_eq!(front_coded.matches(" pre=\"").count(), 2);
    let pre_hostile = front_coded.replacen(" pre=\"", " pre=\"9", 1);
    // The next request on that connection: its one message coded against
    // the last one of the request before — the reference, then a NUL, then
    // the document. Without the reference (a fresh connection) the same
    // document must be refused.
    let said = text_of(&forwards[2]);
    let mut next = String::new();
    let fifteen = notification(15);
    let item = std::iter::once((None, [fifteen.as_str(), "", ""]));
    write_batch_parts(item, &mut said.to_string(), &mut next);
    assert!(next.contains("<wsgb:Msg pre=\""), "{next}");
    let connection_pre = format!("{said}\0{next}");
    // A character no XML document may hold, in a front-coded tail.
    let not_char_coded = front_coded.replacen("<![CDATA[", "<![CDATA[\u{1}", 1);

    type TargetSeeds<'a> = (&'a str, &'a [(&'a str, &'a [u8])]);
    let seeds: &[TargetSeeds<'_>] = &[
        (
            "http",
            &[
                (
                    "post-gossip",
                    b"POST /gossip HTTP/1.1\r\nHost: peer:9000\r\nSOAPAction: \"urn:ws-gossip:2008:Push\"\r\nContent-Length: 5\r\n\r\nhello",
                ),
                ("response-ok", b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
                (
                    "pipelined",
                    b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nxPOST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                ),
            ],
        ),
        (
            "xml",
            &[
                ("envelope", push.as_bytes()),
                ("foreign", foreign.as_bytes()),
                (
                    "mixed",
                    b"<?xml version=\"1.0\" encoding=\"UTF-8\"?><root a=\"1\"><!-- c --><child xmlns:p=\"urn:x\"><p:leaf>text &amp; more</p:leaf><![CDATA[raw <bits>]]></child><?pi data?></root>",
                ),
                // What the byte-level token layer hands to its char-level
                // paths: names past ASCII, a namespace URI written with a
                // character reference, and end tags with space before `>`.
                (
                    "non-ascii-names",
                    "<?xml version=\"1.0\"?><名前 xmlns:ü=\"urn:ü\" é·x=\"1\">\
                     <ü:a ü:ñ=\"2\">t</ü:a><b\u{301}/></名前>"
                        .as_bytes(),
                ),
                (
                    "prefix-char-ref",
                    b"<p:a xmlns:p=\"urn:&#x61;b\"><p:b p:k=\"v\">&#65;&lt;</p:b></p:a>",
                ),
                ("end-tag-space", b"<a><b>x</b ><c/></a\t\n>"),
                // Characters XML 1.0's `Char` leaves out, the first in text.
                (
                    "not-char",
                    "<a k=\"v\"><b>x\u{FFFE}</b><!-- \u{1} --><![CDATA[\u{1F}]]></a>".as_bytes(),
                ),
            ],
        ),
        (
            "envelope",
            &[
                ("push", push.as_bytes()),
                ("fault", fault.as_bytes()),
                ("foreign", foreign.as_bytes()),
                ("gossip", gossip.as_bytes()),
                ("gossip-old-order", gossip_old_order.as_bytes()),
                ("gossip-prefix", gossip_prefix.as_bytes()),
                ("gossip-default", gossip_default.as_bytes()),
                ("gossip-leaning", gossip_leaning.as_bytes()),
                ("gossip-text", gossip_text.as_bytes()),
                ("gossip-twice", gossip_twice.as_bytes()),
                ("flagged", flagged.as_bytes()),
            ],
        ),
        (
            "batch",
            &[
                ("pair", pair.as_bytes()),
                ("empty", empty.as_bytes()),
                ("single", push.as_bytes()),
                ("leaning", leaning.as_bytes()),
                ("front-coded", front_coded.as_bytes()),
                ("pre-hostile", pre_hostile.as_bytes()),
                ("connection-pre", connection_pre.as_bytes()),
                ("pre-fresh-connection", next.as_bytes()),
                ("not-char-coded", not_char_coded.as_bytes()),
            ],
        ),
        (
            "membership",
            &[("heartbeat", heartbeat.as_bytes()), ("join", join.as_bytes())],
        ),
    ];

    let mut written = 0;
    for (target, inputs) in seeds {
        let dir = corpus::dir_for(target);
        std::fs::create_dir_all(&dir)?;
        for (name, bytes) in *inputs {
            std::fs::write(dir.join(format!("seed-{name}")), bytes)?;
            written += 1;
        }
    }
    Ok(written)
}
