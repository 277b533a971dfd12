//! Property tests: arbitrary SOAP envelopes round-trip through wire XML.
//! Runs on the in-tree `wsg_net::check` harness.

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};

use wsg_soap::{EndpointReference, Envelope, Fault, FaultCode, MessageHeaders};
use wsg_xml::Element;

fn uri(g: &mut Gen) -> String {
    const ALPHA: &[char] = &['a', 'c', 'g', 'n', 'p', 's', 'w', 'z'];
    const ALNUM: &[char] = &['a', 'e', 'k', 'v', 'x', '0', '3', '7'];
    let host: String = (0..g.usize(1..=8)).map(|_| *g.pick(ALPHA)).collect();
    let mut out = format!("http://{host}");
    for _ in 0..g.usize(0..=3) {
        let seg: String = (0..g.usize(1..=6)).map(|_| *g.pick(ALNUM)).collect();
        out.push('/');
        out.push_str(&seg);
    }
    out
}

fn text(g: &mut Gen) -> String {
    // XML-legal printable text including characters that need escaping.
    g.ascii_string(60)
}

fn name(g: &mut Gen) -> String {
    const FIRST: &[char] = &['a', 'f', 'm', 't', 'B', 'R', '_'];
    const REST: &[char] = &['a', 'd', 'i', 'o', 'u', 'N', '2', '8', '_'];
    let mut s = g.pick(FIRST).to_string();
    s.extend((0..g.len_in(10)).map(|_| *g.pick(REST)));
    s
}

fn arb_headers(g: &mut Gen) -> MessageHeaders {
    let mut headers = MessageHeaders::new();
    if g.bool(0.5) {
        let (to, action) = (uri(g), uri(g));
        headers = MessageHeaders::request(to, action);
    }
    if g.bool(0.5) {
        const HEX: &[char] = &['0', '1', '5', '9', 'a', 'c', 'e', 'f'];
        let id: String = (0..8).map(|_| *g.pick(HEX)).collect();
        headers = headers.with_message_id(format!("urn:uuid:{id}"));
    }
    if g.bool(0.5) {
        headers = headers.with_reply_to(EndpointReference::new(uri(g)));
    }
    headers
}

fn arb_payload(g: &mut Gen) -> Element {
    let mut el = Element::new(name(g));
    for _ in 0..g.len_in(3) {
        el.set_attr(name(g), text(g));
    }
    let body = text(g);
    if !body.is_empty() {
        el.set_text(body);
    }
    el
}

#[test]
fn request_envelopes_roundtrip() {
    run("request_envelopes_roundtrip", 64, |g| {
        let envelope = Envelope::request(arb_headers(g), arb_payload(g));
        let parsed = Envelope::parse(&envelope.to_xml()).expect("own output parses");
        prop_assert_eq!(parsed, envelope);
        Ok(())
    });
}

#[test]
fn envelopes_with_extra_headers_roundtrip() {
    run("envelopes_with_extra_headers_roundtrip", 64, |g| {
        let headers = arb_headers(g);
        let payload = arb_payload(g);
        let extra = arb_payload(g);
        let block = Element::in_ns("x", "urn:extension", "Block").with_child(extra);
        let envelope = Envelope::request(headers, payload).with_header(block);
        let parsed = Envelope::parse(&envelope.to_xml()).expect("parses");
        prop_assert_eq!(parsed.headers().len(), 1);
        prop_assert_eq!(parsed, envelope);
        Ok(())
    });
}

#[test]
fn fault_envelopes_roundtrip() {
    run("fault_envelopes_roundtrip", 64, |g| {
        let fault = Fault::new(FaultCode::Receiver, text(g)).with_detail(arb_payload(g));
        let envelope = Envelope::fault(MessageHeaders::new(), fault);
        let parsed = Envelope::parse(&envelope.to_xml()).expect("parses");
        prop_assert!(parsed.is_fault());
        prop_assert_eq!(parsed, envelope);
        Ok(())
    });
}

#[test]
fn wire_size_matches_serialisation() {
    run("wire_size_matches_serialisation", 64, |g| {
        let envelope = Envelope::request(arb_headers(g), arb_payload(g));
        prop_assert_eq!(envelope.wire_size(), envelope.to_xml().len());
        Ok(())
    });
}

#[test]
fn parser_survives_arbitrary_bytes() {
    run("parser_survives_arbitrary_bytes", 64, |g| {
        let len = g.len_in(300);
        let junk: String = (0..len)
            .map(|_| char::from_u32(g.u32(0x01..=0xFFFF)).unwrap_or('\u{FFFD}'))
            .collect();
        let _ = Envelope::parse(&junk); // error is fine, panic is not
        Ok(())
    });
}

/// One child of the generated header block: `<b:local>` (or the same
/// local name in another namespace) around runs of text written every way
/// XML allows, comments, and nested children of the same names.
fn arb_block_child(g: &mut Gen, depth: usize) -> String {
    const LOCALS: &[&str] = &["A", "B", "C"];
    const RUNS: &[&str] = &[
        "plain",
        " 12\n",
        "x &amp; y",
        "&#x26;&lt;",
        "<![CDATA[raw <&> ]]>",
        "<![CDATA[]]>",
        "<!-- aside -->",
        "<?pi data?>",
    ];
    let local = *g.pick(LOCALS);
    let (open, close) = if g.bool(0.2) {
        (format!("<o:{local} xmlns:o=\"urn:other\">"), format!("</o:{local}>"))
    } else {
        (format!("<b:{local}>"), format!("</b:{local}>"))
    };
    let mut out = open;
    for _ in 0..g.len_in(4) {
        if depth < 2 && g.bool(0.3) {
            out.push_str(&arb_block_child(g, depth + 1));
        } else {
            let run = *g.pick(RUNS);
            out.push_str(run);
        }
    }
    out + &close
}

#[test]
fn header_text_reads_what_the_tree_holds() {
    const ENV: &str = "http://www.w3.org/2003/05/soap-envelope";
    run("header_text_reads_what_the_tree_holds", 128, |g| {
        let children: String = (0..g.len_in(5)).map(|_| arb_block_child(g, 0)).collect();
        let wire = format!(
            "<env:Envelope xmlns:env=\"{ENV}\"><env:Header>\
             <b:Block xmlns:b=\"urn:b\">{children}</b:Block>\
             </env:Header><env:Body/></env:Envelope>"
        );
        // One envelope answers from the bytes, the other from its tree.
        let read = Envelope::parse(&wire).expect("generated envelope parses");
        let built = Envelope::parse(&wire).expect("generated envelope parses");
        let block = built.header("urn:b", "Block").expect("the block is there");
        for child in ["A", "B", "C", "D"] {
            let tree = block.child_ns("urn:b", child).map(|c| c.text());
            let text = read.header_text("urn:b", "Block", child);
            prop_assert_eq!(text.as_deref(), tree.as_deref());
            // Answering from its tree, an envelope says the same.
            prop_assert_eq!(built.header_text("urn:b", "Block", child), text);
        }
        prop_assert!(read.header_text("urn:b", "Other", "A").is_none());
        prop_assert!(read.header_text("urn:other", "Block", "A").is_none());
        Ok(())
    });
}
