//! The committed seed corpus, built from the real serialisers so seeds
//! never drift from the wire format they exercise: [`all`] is what
//! `wsg_fuzz --write-seeds` writes under `fuzz/corpus/<target>/seed-<name>`,
//! and a test holds the committed files to it byte for byte.

use std::io;

use wsg_cluster::proto::{ClusterMessage, MemberEntry};
use wsg_net::NodeId;
use wsg_soap::batch::{text_of, write_batch, write_batch_after, BatchItem};
use wsg_soap::gossip::GossipHeader;
use wsg_soap::{Envelope, Fault, FaultCode, MessageHeaders};
use wsg_xml::Element;

use crate::corpus;

/// Write every seed of [`all`] into the corpus; how many were written.
///
/// # Errors
///
/// The first directory or file that cannot be written.
pub fn write() -> io::Result<usize> {
    let seeds = all();
    for (target, name, bytes) in &seeds {
        let dir = corpus::dir_for(target);
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join(format!("seed-{name}")), bytes)?;
    }
    Ok(seeds.len())
}

/// Every seed input: `(target, name, bytes)`, in corpus order.
pub fn all() -> Vec<(&'static str, &'static str, Vec<u8>)> {
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

    // What a foreign SOAP stack may send and this writer never does: a
    // CDATA section and escaped text in one element (the writer spells a
    // text one way or the other, whole), a character reference, and a
    // payload prefix bound on env:Envelope
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
    let notification_of = |seq: u32, tick: &str| {
        let header = GossipHeader {
            context_id: "urn:ws-gossip:ctx:0".into(),
            topic: "quotes".into(),
            origin: "http://node1/gossip".into(),
            seq: seq.into(),
            round: 1,
        };
        Envelope::request(
            MessageHeaders::request("http://node2/gossip", "urn:ws-gossip:2008:Notify")
                .with_message_id(format!("urn:uuid:{:04}", seq - 11)),
            Element::text_node("tick", tick),
        )
        .with_header(header.to_element())
        .to_xml()
    };
    let notification = |seq: u32| notification_of(seq, if seq == 12 { "ACME" } else { "ACME &c." });
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
    // writes them: the first one literal run, the others copies of its
    // markup — and a copy that counts past the message before it.
    let forwards = [notification(12), notification(13), notification(14)];
    let mut front_coded = String::new();
    write_batch(&forwards.each_ref().map(|xml| BatchItem { target: None, xml }), &mut front_coded);
    assert_eq!(front_coded.matches(" ops=\"").count(), 3);
    let second = front_coded.match_indices(" ops=\"").nth(1).map(|(at, _)| at + 6).unwrap();
    let pre_hostile = format!("{}99999{}", &front_coded[..second], &front_coded[second..]);
    // The next request on that connection: its one message coded against
    // the last one of the request before — the reference, then a NUL, then
    // the document. Without the reference (a fresh connection) the same
    // document must be refused.
    let said = text_of(&forwards[2]);
    let mut next = String::new();
    let fifteen = notification(15);
    let item = std::iter::once((None, fifteen.as_str()));
    write_batch_after(item, &mut said.to_string(), &mut next);
    assert!(next.contains("<wsgb:Msg ops=\""), "{next}");
    let connection_pre = format!("{said}\0{next}");
    // Three forwards whose payloads escaping would grow past a CDATA
    // section's delimiters: each is written as one section, and each
    // message's literal splits that section's `]]>` across two of the
    // batch's own.
    let dense = [12, 13, 14]
        .map(|seq| notification_of(seq, &format!("ACME {seq} < 101.25 & rising <fast> & more")));
    let mut cdata_split = String::new();
    write_batch(&dense.each_ref().map(|xml| BatchItem { target: None, xml }), &mut cdata_split);
    assert_eq!(cdata_split.matches("]]]]><![CDATA[>").count(), 3, "{cdata_split}");
    // Two forwards of 16 KiB payloads: the second coded like a short one,
    // its head and tail copied, its payload one literal CDATA section.
    let large =
        [12, 13].map(|seq| notification_of(seq, &format!("ACME {seq} & ").repeat(16 * 1024 / 10)));
    let mut coded_large = String::new();
    write_batch(&large.each_ref().map(|xml| BatchItem { target: None, xml }), &mut coded_large);
    assert_eq!(coded_large.matches(" ops=\"").count(), 2, "{coded_large}");
    // A character no XML document may hold, in a coded message's literal
    // runs.
    let not_char_coded = front_coded.replacen("<![CDATA[", "<![CDATA[\u{1}", 1);
    // Identities spelled as another stack may: a `g:` prefix; a lookalike
    // block in another namespace ahead of one in the default namespace;
    // and `wsg:Origin`/`wsg:Seq`, even a whole `wsg:Gossip`, in a body,
    // which name no message.
    let foreign_prefix = [
        "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\" xmlns:wsa=\"http://www.w3.org/2005/08/addressing\">\
         <env:Header><wsa:Action>urn:ws-gossip:2008:Notify</wsa:Action>\
         <g:Gossip xmlns:g=\"urn:ws-gossip:2008\">\
         <g:Context>urn:ws-gossip:ctx:0</g:Context><g:Topic>quotes</g:Topic>\
         <g:Origin>http://127.0.0.1:41001/gossip</g:Origin><g:Seq>12</g:Seq>\
         <g:Round>1</g:Round></g:Gossip><wsa:To>http://127.0.0.1:41002/gossip</wsa:To>\
         <wsa:MessageID>urn:uuid:0001</wsa:MessageID></env:Header><env:Body>\
         <tick>ACME</tick></env:Body></env:Envelope>",
        "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Header>\
         <wsg:Gossip xmlns:wsg=\"urn:other:2008\"><wsg:Context>c</wsg:Context>\
         <wsg:Topic>t</wsg:Topic><wsg:Origin>http://127.0.0.1:41001/gossip</wsg:Origin>\
         <wsg:Seq>13</wsg:Seq><wsg:Round>1</wsg:Round></wsg:Gossip>\
         <Gossip xmlns=\"urn:ws-gossip:2008\"><Context>c</Context><Topic>t</Topic>\
         <Origin>http://127.0.0.1:41001/gossip</Origin><Seq>14</Seq><Round>2</Round>\
         </Gossip></env:Header><env:Body><tick>ACME</tick></env:Body></env:Envelope>",
    ];
    let mut gossip_foreign_prefix = String::new();
    write_batch(&foreign_prefix.map(|xml| BatchItem { target: None, xml }), &mut gossip_foreign_prefix);
    let gossip_in_body = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
        <env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\" xmlns:wsa=\"http://www.w3.org/2005/08/addressing\" xmlns:wsg=\"urn:ws-gossip:2008\">\
        <env:Header><wsa:Action>urn:ws-gossip:2008:Register</wsa:Action>\
        <wsa:To>http://127.0.0.1:41000/registration</wsa:To></env:Header><env:Body>\
        <wsg:Register><wsg:Origin>http://127.0.0.1:41001/gossip</wsg:Origin>\
        <wsg:Seq>12</wsg:Seq><wsg:Gossip><wsg:Context>c</wsg:Context>\
        <wsg:Topic>t</wsg:Topic><wsg:Origin>http://127.0.0.1:41001/gossip</wsg:Origin>\
        <wsg:Seq>12</wsg:Seq><wsg:Round>1</wsg:Round></wsg:Gossip></wsg:Register>\
        </env:Body></env:Envelope>";

    type TargetSeeds<'a> = (&'static str, &'a [(&'static str, &'a [u8])]);
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
                ("cdata-split", cdata_split.as_bytes()),
                ("coded-large", coded_large.as_bytes()),
                ("gossip-foreign-prefix", gossip_foreign_prefix.as_bytes()),
                ("gossip-in-body", gossip_in_body.as_bytes()),
            ],
        ),
        (
            "membership",
            &[("heartbeat", heartbeat.as_bytes()), ("join", join.as_bytes())],
        ),
    ];

    seeds
        .iter()
        .flat_map(|(target, inputs)| inputs.iter().map(|(name, bytes)| (*target, *name, bytes.to_vec())))
        .collect()
}
