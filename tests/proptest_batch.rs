//! Property-based tests for the `urn:ws-gossip:batch` wire wrapper on
//! the in-tree `wsg_net::check` harness: random envelope runs must
//! round-trip through `write_batch` → parse → `unbundle` with count,
//! order, per-message targets, headers and bodies intact; whatever a
//! message shares with the one before it on its connection, a receiver
//! gets back the sender's text byte for byte — and the unbundler must
//! answer malformed wrappers with a typed error, never a panic (the server
//! turns it into a 400).

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};

use wsg_soap::batch::{
    is_batch, parse_wire, parse_wire_after, prologue_len, text_of, unbundle, write_batch,
    write_batch_parts, BatchItem, Unbundled,
};
use wsg_soap::{Envelope, MessageHeaders, SoapError};
use wsg_xml::Element;

/// A random one-way envelope: random action suffix, random payload text
/// (including XML-hostile characters, which must come back escaped and
/// re-unescaped intact).
fn random_envelope(g: &mut Gen) -> Envelope {
    let action = format!("urn:prop:{}", g.ascii_string(8));
    let mut payload = g.ascii_string(24);
    if g.bool(0.3) {
        payload.push_str("<&>\"'");
    }
    Envelope::request(
        MessageHeaders::request("http://prop/gossip", &action),
        Element::text_node("tick", payload),
    )
}

/// Random envelope runs round-trip exactly: same count, same order, same
/// targets, and each unbundled message re-parses to the original envelope.
#[test]
fn batches_roundtrip_count_order_targets_and_content() {
    run("batches_roundtrip_count_order_targets_and_content", 64, |g| {
        let count = g.usize(1..=8);
        let envelopes: Vec<Envelope> = (0..count).map(|_| random_envelope(g)).collect();
        let xmls: Vec<String> = envelopes.iter().map(|e| e.to_xml()).collect();
        let targets: Vec<Option<String>> = (0..count)
            .map(|_| if g.bool(0.4) { Some(format!("/{}", g.ascii_string(6))) } else { None })
            .collect();

        let items: Vec<BatchItem<'_>> = xmls
            .iter()
            .zip(&targets)
            .map(|(xml, target)| BatchItem { target: target.as_deref(), xml })
            .collect();
        let mut wire = String::new();
        write_batch(&items, &mut wire);

        let root = Element::parse(&wire).map_err(|e| e.to_string())?;
        prop_assert!(is_batch(&root), "written batch must be recognised as one");
        let messages = unbundle(&wire, &mut String::new()).map_err(|e| e.to_string())?;
        prop_assert_eq!(messages.len(), count);
        for ((message, envelope), target) in messages.iter().zip(&envelopes).zip(&targets) {
            prop_assert_eq!(&message.target, target);
            let decoded = message.envelope().map_err(|e| e.to_string())?;
            prop_assert_eq!(decoded.addressing().action(), envelope.addressing().action());
            prop_assert_eq!(
                decoded.body().map(|b| b.text()),
                envelope.body().map(|b| b.text())
            );
            // The reconstructed raw text must itself be a complete,
            // standalone envelope — it is what lands in a node's inbox.
            let reparsed = Envelope::parse(&message.raw).map_err(|e| e.to_string())?;
            prop_assert_eq!(
                reparsed.body().map(|b| b.text()),
                envelope.body().map(|b| b.text())
            );
        }

        // The streaming unwrapper (the server's receive path) must agree
        // with the tree walk message for message, and its `raw` must be
        // the sender's own bytes, not a re-serialisation.
        let streamed = match parse_wire(&wire).map_err(|e| e.to_string())? {
            Unbundled::Batch(streamed) => streamed,
            Unbundled::Single(_) => {
                return Err("batch wire classified as a single document".into())
            }
        };
        prop_assert_eq!(streamed.len(), messages.len());
        for ((s, t), xml) in streamed.iter().zip(&messages).zip(&xmls) {
            prop_assert_eq!(s.envelope(), t.envelope());
            prop_assert_eq!(&s.target, &t.target);
            // Streamed raw is byte-identical to the xml that was sent.
            prop_assert_eq!(&s.raw, xml);
        }
        Ok(())
    });
}

const DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// A message of one of a few conversations: the header (long, with
/// characters of every width) repeats within a conversation, the id starts
/// with one of two characters that share their first byte, the payload may
/// hold a CDATA section of its own, and the declaration is there or not.
fn random_message(g: &mut Gen, conversations: &[String]) -> String {
    let declaration =
        *g.pick(&["", DECLARATION, "<?xml version=\"1.0\"?>", " \n<?xml version=\"1.1\"?>\n"]);
    let header = g.pick(conversations);
    let id = format!("{}{}", g.pick(&['é', 'è', 'e']), g.usize(0..=3));
    let payload = match g.usize(0..=3) {
        0 => format!("<![CDATA[<{}]]>", g.ascii_string(12).replace(']', "")),
        1 => format!("]] &gt;{}", g.string_from(&['a', '漢', '😀', ']'], 20)),
        _ => g.string_from(&['a', 'b', 'é', ' '], 40),
    };
    format!(
        "{declaration}<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">\
         <env:Header><h>{header}</h><id>{id}</id></env:Header><env:Body><p>{payload}</p></env:Body>\
         </env:Envelope>"
    )
}

/// Whatever consecutive messages share — nothing, a prefix that ends inside
/// a character, everything — and however the sender holds them (whole or in
/// three pieces), every message comes out of the batch as the declaration
/// plus the text that went in, and the batch says what it left out.
#[test]
fn every_unwrapped_message_is_the_text_its_sender_queued() {
    run("every_unwrapped_message_is_the_text_its_sender_queued", 192, |g| {
        let conversations: Vec<String> = (0..g.usize(1..=3))
            .map(|_| g.string_from(&['h', 'é', '漢', '😀', '-'], 30) + &"=".repeat(g.usize(0..=80)))
            .collect();
        let heartbeat = random_envelope(g).to_xml();
        let mut xmls: Vec<String> = Vec::new();
        let mut targets: Vec<Option<&str>> = Vec::new();
        for _ in 0..g.usize(2..=9) {
            let (xml, target) = match g.usize(0..=9) {
                // A piggybacked heartbeat between gossip messages.
                0 => (heartbeat.clone(), Some("/membership")),
                // The message before, again: nothing of its own to send.
                1 if !xmls.is_empty() => (xmls[xmls.len() - 1].clone(), None),
                _ => (random_message(g, &conversations), None),
            };
            xmls.push(xml);
            targets.push(target);
        }
        // What the sender means by each: its text past the declaration.
        let texts: Vec<&str> =
            xmls.iter().map(|xml| xml[prologue_len(xml)..].trim_start()).collect();

        let items: Vec<BatchItem<'_>> =
            xmls.iter().zip(&targets).map(|(xml, target)| BatchItem { target: *target, xml }).collect();
        let mut wire = String::new();
        let left_out = write_batch(&items, &mut wire);

        // In pieces — cut on characters, the declaration in the first
        // piece that has bytes, as `QueuedMsg::parts` hands messages over
        // — the same document comes out.
        let cuts: Vec<(usize, usize)> = xmls
            .iter()
            .map(|xml| {
                let mut cut = || {
                    let mut at = g.usize(prologue_len(xml)..=xml.len());
                    while !xml.is_char_boundary(at) {
                        at -= 1;
                    }
                    at.max(prologue_len(xml))
                };
                let (a, b) = (cut(), cut());
                (a.min(b), a.max(b))
            })
            .collect();
        let pieces = xmls.iter().zip(&targets).zip(&cuts).map(|((xml, target), (a, b))| {
            let first = if a % 2 == 0 { &xml[..*a] } else { "" };
            (*target, [first, &xml[first.len()..*b], &xml[*b..]])
        });
        let mut in_pieces = String::new();
        prop_assert_eq!(write_batch_parts(pieces, &mut String::new(), &mut in_pieces), left_out);
        prop_assert_eq!(&in_pieces, &wire);

        let root = Element::parse(&wire).map_err(|e| e.to_string())?;
        let pres: Vec<Option<usize>> = root
            .children()
            .iter()
            .map(|msg| msg.attr("pre").and_then(|pre| pre.parse().ok()))
            .collect();
        prop_assert_eq!(pres.iter().flatten().sum::<usize>(), left_out);
        prop_assert_eq!(pres[0], None);

        let streamed = match parse_wire(&wire).map_err(|e| e.to_string())? {
            Unbundled::Batch(streamed) => streamed,
            Unbundled::Single(_) => return Err("batch wire classified as a single document".into()),
        };
        let reference = unbundle(&wire, &mut String::new()).map_err(|e| e.to_string())?;
        prop_assert_eq!(streamed.len(), xmls.len());
        prop_assert_eq!(reference.len(), xmls.len());
        for (i, text) in texts.iter().enumerate() {
            let expected = format!("{DECLARATION}{text}");
            prop_assert!(streamed[i].raw == expected, "message {i} of {wire}: {}", streamed[i].raw);
            prop_assert_eq!(streamed[i].target.as_deref(), targets[i]);
            prop_assert_eq!(reference[i].target.as_deref(), targets[i]);
            prop_assert_eq!(streamed[i].envelope(), reference[i].envelope());
            if let Some(pre) = pres[i] {
                // Coded: the reference rebuilds the very bytes, a tail
                // that would close the CDATA section never is, and the
                // cut falls on a character of the message before.
                prop_assert_eq!(&reference[i].raw, &expected);
                prop_assert!(!text[pre..].contains("]]>"), "message {i} of {wire}");
                prop_assert!(pre >= 64 && pre * 8 >= text.len(), "message {i} of {wire}");
                prop_assert!(texts[i - 1].is_char_boundary(pre), "message {i} of {wire}");
            }
        }
        Ok(())
    });
}

/// Messages cut at random into requests over one keep-alive connection
/// that reconnects at random, some posted bare: the sender's and the
/// receiver's reference advance in lockstep (the tree walk's too), every
/// message comes out as the declaration plus the text that went in, and
/// the first `Msg` after a (re)connect never carries a `pre` — one built
/// by hand is refused there, and taken where its reference is.
#[test]
fn a_connection_codes_each_request_against_the_one_before() {
    run("a_connection_codes_each_request_against_the_one_before", 128, |g| {
        let conversations: Vec<String> = (0..g.usize(1..=3))
            .map(|_| g.string_from(&['h', 'é', '漢', '-'], 30) + &"=".repeat(g.usize(0..=80)))
            .collect();
        let heartbeat = random_envelope(g).to_xml();
        let xmls: Vec<String> = (0..g.usize(2..=24))
            .map(|_| if g.bool(0.1) { heartbeat.clone() } else { random_message(g, &conversations) })
            .collect();
        let (mut sender, mut receiver, mut walker) = (String::new(), String::new(), String::new());
        let mut fresh = true;
        let mut rest = &xmls[..];
        while !rest.is_empty() {
            if g.bool(0.2) {
                // The connection is gone; both ends start over.
                (sender, receiver, walker) = Default::default();
                fresh = true;
            }
            let (post, after) = rest.split_at(g.usize(1..=rest.len().min(5)));
            rest = after;
            if post.len() == 1 && g.bool(0.2) {
                // Posted bare: its text is what the connection said last.
                let bare = format!("{DECLARATION}{}", text_of(&post[0]));
                let unwrapped = parse_wire_after(&bare, &mut receiver).map_err(|e| e.to_string())?;
                prop_assert_eq!(unwrapped, Unbundled::Single(Ok(None)));
                sender = text_of(&post[0]).to_string();
                walker = receiver.clone();
                prop_assert_eq!(&receiver, &sender);
                fresh = false;
                continue;
            }
            let items = post.iter().map(|xml| (None, [xml.as_str(), "", ""]));
            let mut wire = String::new();
            let left_out = write_batch_parts(items, &mut sender, &mut wire);
            let root = Element::parse(&wire).map_err(|e| e.to_string())?;
            let pres: Vec<Option<usize>> = root
                .children()
                .iter()
                .map(|msg| msg.attr("pre").and_then(|pre| pre.parse().ok()))
                .collect();
            prop_assert_eq!(pres.iter().flatten().sum::<usize>(), left_out);
            prop_assert!(!fresh || pres[0].is_none(), "coded against nothing: {wire}");
            let streamed = match parse_wire_after(&wire, &mut receiver).map_err(|e| e.to_string())? {
                Unbundled::Batch(streamed) => streamed,
                Unbundled::Single(_) => return Err("batch wire classified as a single document".into()),
            };
            let walked = unbundle(&wire, &mut walker).map_err(|e| e.to_string())?;
            prop_assert_eq!(streamed.len(), post.len());
            for (i, xml) in post.iter().enumerate() {
                let expected = format!("{DECLARATION}{}", text_of(xml));
                prop_assert!(streamed[i].raw == expected, "message {i} of {wire}: {}", streamed[i].raw);
                prop_assert_eq!(streamed[i].envelope(), walked[i].envelope());
            }
            prop_assert_eq!(&receiver, &sender);
            prop_assert_eq!(&walker, &sender);
            fresh = false;
        }

        // A first `Msg` coded by hand against the last text said.
        let said = sender.clone();
        let mut pre = g.usize(0..=said.len());
        while !said.is_char_boundary(pre) {
            pre -= 1;
        }
        let tail = said[pre..].replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;");
        let hand = format!(
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg pre=\"{pre}\">{tail}</wsgb:Msg></wsgb:Batch>"
        );
        let refused = |result| matches!(result, Err(SoapError::Batch(_)));
        prop_assert!(refused(parse_wire_after(&hand, &mut String::new()).map(drop)), "{hand}");
        prop_assert!(refused(unbundle(&hand, &mut String::new()).map(drop)), "{hand}");
        let taken = parse_wire_after(&hand, &mut receiver).map_err(|e| e.to_string())?;
        let Unbundled::Batch(taken) = taken else { return Err("no batch".into()) };
        prop_assert_eq!(&taken[0].raw, &format!("{DECLARATION}{said}"));
        prop_assert_eq!(&receiver, &said);
        Ok(())
    });
}

/// Structural corruption of a valid batch — truncation, byte flips,
/// spliced-in garbage — must never panic: either the XML parser rejects
/// it or `unbundle` returns a typed error (or, rarely, the mutation was
/// harmless and it still parses).
#[test]
fn corrupted_batches_error_instead_of_panicking() {
    run("corrupted_batches_error_instead_of_panicking", 96, |g| {
        // Whole, front-coded with nothing of its own, front-coded.
        let (envelope, other) = (random_envelope(g).to_xml(), random_envelope(g).to_xml());
        let mut wire = String::new();
        write_batch(
            &[
                BatchItem { target: Some("/membership"), xml: &envelope },
                BatchItem { target: None, xml: &envelope },
                BatchItem { target: None, xml: &other },
            ],
            &mut wire,
        );
        prop_assert_eq!(wire.matches(" pre=\"").count(), 2);

        let corrupted = match g.usize(0..=2) {
            0 => wire[..g.usize(1..=wire.len())].to_string(),
            1 => {
                let at = g.usize(0..=wire.len() - 1);
                let mut bytes = wire.into_bytes();
                bytes[at] = b'<' + (g.usize(0..=60) as u8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => {
                let at = g.usize(0..=wire.len() - 1);
                format!("{}{}{}", &wire[..at], g.ascii_string(12), &wire[at..])
            }
        };
        let _ = unbundle(&corrupted, &mut String::new());
        let _ = parse_wire(&corrupted);
        Ok(())
    });
}

/// Arbitrary well-formed XML that is *not* a batch: `is_batch` says no,
/// and `unbundle` refuses with an error instead of inventing messages.
#[test]
fn non_batch_documents_are_rejected() {
    run("non_batch_documents_are_rejected", 64, |g| {
        let name = {
            // XML names must start with a letter; `ascii_string` may not.
            let mut n = String::from("n");
            n.push_str(&g.ascii_string(6).replace(|c: char| !c.is_ascii_alphanumeric(), "x"));
            n
        };
        let doc = Element::text_node(&name, g.ascii_string(16));
        let root = Element::parse(&doc.to_xml_string()).map_err(|e| e.to_string())?;
        prop_assert!(!is_batch(&root), "a plain {name} element is not a batch");
        prop_assert!(unbundle(&doc.to_xml_string(), &mut String::new()).is_err());
        prop_assert!(
            matches!(parse_wire(&doc.to_xml_string()), Ok(Unbundled::Single(_))),
            "a non-batch document streams through as a single root"
        );
        Ok(())
    });
}
