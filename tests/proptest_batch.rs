//! Property-based tests for the `urn:ws-gossip:batch` wire wrapper on
//! the in-tree `wsg_net::check` harness: random envelope runs must
//! round-trip through `write_batch` → parse → `unbundle` with count,
//! order, per-message targets, headers and bodies intact; whatever a
//! message shares with the one before it on its connection, and whatever
//! `]]>` its literal runs hold, a receiver gets back the sender's text byte
//! for byte, every copy is envelope markup on both sides — and the
//! unbundler must answer malformed wrappers with a typed error, never a
//! panic (the server turns it into a 400).

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};

use wsg_soap::batch::{
    is_batch, parse_wire, parse_wire_after, text_of, unbundle, write_batch, write_batch_after,
    BatchItem, Unbundled,
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

/// Plain text a payload may be a rotation of: a run of it is no
/// conversation's, but the next message's may repeat it shifted.
const FILLER: &str = "tick 101.25 rising fast é 漢 ";

/// A message of one of a few conversations: the header (long, with
/// characters of every width) repeats within a conversation, the id starts
/// with one of two characters that share their first byte, the payload is
/// often a CDATA section of its own — dense in `]` and `>`, so it ends in
/// a `]]>` and may hold more, split the way `XmlWriter` cannot but another
/// writer may — or a rotation of one filler text, now and then 8–20 KiB
/// of it, and the declaration is there or not.
fn random_message(g: &mut Gen, conversations: &[String]) -> String {
    let declaration =
        *g.pick(&["", DECLARATION, "<?xml version=\"1.0\"?>", " \n<?xml version=\"1.1\"?>\n"]);
    let header = g.pick(conversations);
    let id = format!("{}{}", g.pick(&['é', 'è', 'e']), g.usize(0..=3));
    let payload = match g.usize(0..=6) {
        0 | 1 => {
            // Now and then empty: `<![CDATA[]]>` is the text of `<p></p>`.
            let lead = if g.bool(0.5) { "<" } else { "" };
            let text = g.string_from(&['a', ']', '>', '&', '<', '漢'], 16);
            format!("<![CDATA[{lead}{}]]>", text.replace("]]>", "]]]]><![CDATA[>"))
        }
        2 => format!("]] &gt;{}", g.string_from(&['a', '漢', '😀', ']'], 20)),
        // As long as a `saturate_large` notification, or longer.
        6 => {
            let dense = g.string_from(&['a', ']', '>', '漢'], 16).replace("]]>", "]]]]><![CDATA[>");
            let copies = g.usize(8 * 1024 / FILLER.len()..=20 * 1024 / FILLER.len());
            format!("<![CDATA[{}{dense}]]>", FILLER.repeat(copies))
        }
        3 => {
            let at = g.usize(0..=FILLER.chars().count());
            let cut = FILLER.char_indices().nth(at).map_or(FILLER.len(), |(cut, _)| cut);
            FILLER[cut..].to_string() + &FILLER[..cut] + &FILLER[cut..] + &FILLER[..cut]
        }
        _ => g.string_from(&['a', 'b', 'é', ' '], 40),
    };
    format!(
        "{declaration}<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">\
         <env:Header><h>{header}</h><id>{id}</id></env:Header><env:Body><p>{payload}</p></env:Body>\
         </env:Envelope>"
    )
}

/// What stands between a text's `<env:Body>` and `</env:Body>`: the bytes
/// no coded message may copy, nor copy from.
fn body_content(text: &str) -> std::ops::Range<usize> {
    let from = text.find("<env:Body>").map_or(0, |at| at + "<env:Body>".len());
    from..text.rfind("</env:Body>").unwrap_or(text.len()).max(from)
}

/// One copy of a coded message: where it stands in the message, and the
/// bytes of the text before it that it copies.
type Run = (usize, std::ops::Range<usize>);

/// A coded message's text as its `ops` describe it — the test's own
/// reading of the form, by `str::get` — and its copies, or `None` where
/// the ops do not fit `before` and `literal`.
fn decode(ops: &str, before: &str, literal: &str) -> Option<(String, Vec<Run>)> {
    let (mut text, mut copies, mut rest) = (String::new(), Vec::new(), literal);
    for op in ops.split(',') {
        let digits = |n: &str| n.bytes().all(|b| b.is_ascii_digit()).then(|| n.parse::<usize>().ok())?;
        match op.split_once(':') {
            Some((from, len)) => {
                let (from, len) = (digits(from)?, digits(len)?);
                copies.push((text.len(), from..from.checked_add(len)?));
                text.push_str(before.get(from..from + len)?);
            }
            None => {
                let (run, after) = rest.split_at_checked(digits(op)?)?;
                text.push_str(run);
                rest = after;
            }
        }
    }
    rest.is_empty().then_some((text, copies))
}

/// Every `Msg` of a written batch: its `ops`, if it has any, and its
/// joined character data.
fn coded_parts(wire: &str) -> Result<Vec<(Option<String>, String)>, String> {
    let root = Element::parse(wire).map_err(|e| e.to_string())?;
    Ok(root.children().iter().map(|msg| (msg.attr("ops").map(str::to_string), msg.text())).collect())
}

/// How many bytes `text` starts with of the markup `before` has ahead of
/// its body's content, cut back to a character of `text`.
fn shared_start(text: &str, before: &str) -> usize {
    let limit = body_content(before).start.min(text.len());
    let mut shared = text.bytes().zip(before.bytes()).take(limit).take_while(|(a, b)| a == b).count();
    while !text.is_char_boundary(shared) {
        shared -= 1;
    }
    shared
}

/// Check the messages of `wire` against the texts the sender meant —
/// `before` being the text said before the first — by the test's own
/// reading of the form: each is coded, decodes to its text, copies
/// envelope markup only, out of the markup of the text before it, and
/// copies at least the start the two share when that is longer than a run
/// costs, however long the message is. Returns the bytes copied.
fn check_coded(wire: &str, before: &str, texts: &[&str]) -> Result<usize, String> {
    let parts = coded_parts(wire)?;
    prop_assert_eq!(parts.len(), texts.len());
    let mut copied = 0;
    for (i, ((ops, literal), text)) in parts.iter().zip(texts).enumerate() {
        let before = if i == 0 { before } else { texts[i - 1] };
        let Some(ops) = ops else {
            return Err(format!("message {i} has no ops, in {wire}"));
        };
        let Some((decoded, copies)) = decode(ops, before, literal) else {
            return Err(format!("message {i}: ops {ops} do not fit, in {wire}"));
        };
        prop_assert!(decoded == *text, "message {i} of {wire}: {decoded}");
        let (mine, theirs) = (body_content(text), body_content(before));
        for (at, from) in &copies {
            let to = at + from.len();
            prop_assert!(to <= mine.start || *at >= mine.end, "message {i} copies {from:?} into its body: {wire}");
            prop_assert!(from.end <= theirs.start || from.start >= theirs.end, "message {i} copies {from:?} out of a body: {wire}");
        }
        let total: usize = copies.iter().map(|(_, from)| from.len()).sum();
        let shared = shared_start(text, before);
        prop_assert!(shared < 16 || total >= shared, "message {i} copies {total} bytes, sharing {shared}: {wire}");
        copied += total;
    }
    Ok(copied)
}

/// Whatever consecutive messages share — nothing, a prefix that ends inside
/// a character, everything, a payload shifted — and whether it is the
/// first batch on a connection or written after an empty reference, every
/// message comes out of the batch as the declaration plus the text that
/// went in, a payload is never
/// copied, and the batch says what it left out.
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
        let texts: Vec<&str> = xmls.iter().map(|xml| text_of(xml)).collect();

        let items: Vec<BatchItem<'_>> =
            xmls.iter().zip(&targets).map(|(xml, target)| BatchItem { target: *target, xml }).collect();
        let mut wire = String::new();
        let left_out = write_batch(&items, &mut wire);

        // Mid-connection on an empty reference — what a sender writes on a
        // fresh connection — the same document comes out, and the
        // reference becomes the last text.
        let mut reference = String::new();
        let mut after = String::new();
        let whole = xmls.iter().zip(&targets).map(|(xml, target)| (*target, xml.as_str()));
        prop_assert_eq!(write_batch_after(whole, &mut reference, &mut after), left_out);
        prop_assert_eq!(&after, &wire);
        prop_assert_eq!(reference.as_str(), texts[texts.len() - 1]);

        prop_assert_eq!(check_coded(&wire, "", &texts)?, left_out);
        let parts = coded_parts(&wire)?;
        prop_assert_eq!(&parts[0].0, &Some(texts[0].len().to_string()));
        // Each `Msg` as written: its attributes, its content and its end
        // tag (no message text holds `<wsgb:Msg`).
        let msgs: Vec<&str> = wire.split("<wsgb:Msg").skip(1).collect();
        prop_assert_eq!(msgs.len(), xmls.len());

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
            // The tree walk rebuilds the very bytes, and the literal runs
            // open one more CDATA section for each `]]>` they hold — a
            // payload that is a rotation of the one before among them,
            // whole.
            prop_assert!(reference[i].raw == expected, "message {i} of {wire}: {}", reference[i].raw);
            let literal = &parts[i].1;
            let sections = msgs[i].matches("<![CDATA[").count() - literal.matches("<![CDATA[").count();
            let splits = literal.matches("]]>").count();
            prop_assert!(sections == 1 + splits, "message {i}: {sections} sections for {splits} `]]>` in {wire}");
            let body = body_content(text);
            prop_assert!(literal.contains(&text[body]), "message {i} of {wire}");
        }
        Ok(())
    });
}

/// Messages cut at random into requests over one keep-alive connection
/// that reconnects at random, some posted bare: the sender's and the
/// receiver's reference advance in lockstep (the tree walk's too), every
/// message comes out as the declaration plus the text that went in, and
/// the first `Msg` after a (re)connect copies nothing — one that copies,
/// coded by hand, is refused there, and taken where its reference is.
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
            let items = post.iter().map(|xml| (None, xml.as_str()));
            let mut wire = String::new();
            let said = sender.clone();
            let left_out = write_batch_after(items, &mut sender, &mut wire);
            let texts: Vec<&str> = post.iter().map(|xml| text_of(xml)).collect();
            prop_assert_eq!(check_coded(&wire, &said, &texts)?, left_out);
            let first = coded_parts(&wire)?.swap_remove(0).0.unwrap_or_default();
            prop_assert!(!fresh || !first.contains(':'), "a copy against nothing: {wire}");
            let streamed = match parse_wire_after(&wire, &mut receiver).map_err(|e| e.to_string())? {
                Unbundled::Batch(streamed) => streamed,
                Unbundled::Single(_) => return Err("batch wire classified as a single document".into()),
            };
            let walked = unbundle(&wire, &mut walker).map_err(|e| e.to_string())?;
            prop_assert_eq!(streamed.len(), post.len());
            for (i, text) in texts.iter().enumerate() {
                let expected = format!("{DECLARATION}{text}");
                prop_assert!(streamed[i].raw == expected, "message {i} of {wire}: {}", streamed[i].raw);
                prop_assert_eq!(streamed[i].envelope(), walked[i].envelope());
            }
            prop_assert_eq!(&receiver, &sender);
            prop_assert_eq!(&walker, &sender);
            fresh = false;
        }

        // A first `Msg` coded by hand against the last text said: a copy,
        // a literal run, a copy — each of them possibly empty.
        let said = sender.clone();
        let mut cut = || {
            let mut at = g.usize(0..=said.len());
            while !said.is_char_boundary(at) {
                at -= 1;
            }
            at
        };
        let (a, b) = (cut(), cut());
        let (a, b) = (a.min(b), a.max(b));
        let literal = said[a..b].replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;");
        let hand = format!(
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\">\
             <wsgb:Msg ops=\"0:{a},{},{b}:{}\">{literal}</wsgb:Msg></wsgb:Batch>",
            b - a,
            said.len() - b
        );
        let refused = |result| matches!(result, Err(SoapError::Batch(_)));
        if !said.is_empty() {
            prop_assert!(refused(parse_wire_after(&hand, &mut String::new()).map(drop)), "{hand}");
            prop_assert!(refused(unbundle(&hand, &mut String::new()).map(drop)), "{hand}");
        }
        let taken = parse_wire_after(&hand, &mut receiver).map_err(|e| e.to_string())?;
        let Unbundled::Batch(taken) = taken else { return Err("no batch".into()) };
        prop_assert_eq!(&taken[0].raw, &format!("{DECLARATION}{said}"));
        prop_assert_eq!(&receiver, &said);
        Ok(())
    });
}

/// Whatever a batch holds and whatever came before it on its connection,
/// every `Msg` written carries `ops` — there is one form — and a `Msg`
/// without it, the rest of the document as written or its envelope as an
/// element, is refused by the stream and the tree walk alike.
#[test]
fn every_msg_is_coded_and_one_without_ops_is_refused() {
    run("every_msg_is_coded_and_one_without_ops_is_refused", 128, |g| {
        let conversations: Vec<String> = (0..g.usize(1..=2)).map(|_| g.string_from(&['h', 'é', '-'], 30)).collect();
        let heartbeat = random_envelope(g).to_xml();
        let xmls: Vec<String> = (0..g.usize(1..=6))
            .map(|_| if g.bool(0.2) { heartbeat.clone() } else { random_message(g, &conversations) })
            .collect();
        let said = if g.bool(0.5) { String::new() } else { text_of(&random_message(g, &conversations)).to_string() };
        let mut wire = String::new();
        if said.is_empty() && g.bool(0.5) {
            let items: Vec<BatchItem<'_>> = xmls.iter().map(|xml| BatchItem { target: None, xml }).collect();
            write_batch(&items, &mut wire);
        } else {
            let items = xmls.iter().map(|xml| (None, xml.as_str()));
            write_batch_after(items, &mut said.clone(), &mut wire);
        }
        let parts = coded_parts(&wire)?;
        prop_assert_eq!(parts.len(), xmls.len());
        prop_assert!(parts.iter().all(|(ops, _)| ops.is_some()), "a Msg without ops: {wire}");

        // One `Msg` stripped of its `ops`, or its text written as the
        // envelope element it is.
        let k = g.usize(0..=xmls.len() - 1);
        let start = wire.match_indices("<wsgb:Msg").nth(k).map(|(at, _)| at).unwrap();
        let end = start + wire[start..].find("</wsgb:Msg>").unwrap();
        let ops = start + wire[start..].find(" ops=\"").unwrap();
        let ops_end = ops + 6 + wire[ops + 6..].find('"').unwrap() + 1;
        let stripped = if g.bool(0.5) {
            format!("{}{}", &wire[..ops], &wire[ops_end..])
        } else {
            format!("{}<wsgb:Msg>{}{}", &wire[..start], text_of(&xmls[k]), &wire[end..])
        };
        let refused = |result: Result<(), SoapError>| matches!(result, Err(SoapError::Batch(_)));
        prop_assert!(refused(parse_wire_after(&stripped, &mut said.clone()).map(drop)), "{stripped}");
        prop_assert!(refused(unbundle(&stripped, &mut said.clone()).map(drop)), "{stripped}");
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
        // A lone literal run, nothing but its payload of its own, coded.
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
        prop_assert_eq!(wire.matches(" ops=\"").count(), 3);

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
