//! Property-based tests for the `urn:ws-gossip:batch` wire wrapper on
//! the in-tree `wsg_net::check` harness: random envelope runs must
//! round-trip through `write_batch` → parse → `unbundle` with count,
//! order, per-message targets, headers and bodies intact — and the
//! unbundler must answer malformed wrappers with a typed error, never a
//! panic (the server turns it into a 400).

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};

use wsg_soap::batch::{is_batch, parse_wire, unbundle, write_batch, BatchItem, Unbundled};
use wsg_soap::{Envelope, MessageHeaders};
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
        let messages = unbundle(&root).map_err(|e| e.to_string())?;
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

/// Structural corruption of a valid batch — truncation, byte flips,
/// spliced-in garbage — must never panic: either the XML parser rejects
/// it or `unbundle` returns a typed error (or, rarely, the mutation was
/// harmless and it still parses).
#[test]
fn corrupted_batches_error_instead_of_panicking() {
    run("corrupted_batches_error_instead_of_panicking", 96, |g| {
        let envelope = random_envelope(g).to_xml();
        let mut wire = String::new();
        write_batch(
            &[
                BatchItem { target: Some("/membership"), xml: &envelope },
                BatchItem { target: None, xml: &envelope },
            ],
            &mut wire,
        );

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
        if let Ok(root) = Element::parse(&corrupted) {
            let _ = is_batch(&root);
            let _ = unbundle(&root);
        }
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
        prop_assert!(unbundle(&root).is_err());
        prop_assert!(
            matches!(parse_wire(&doc.to_xml_string()), Ok(Unbundled::Single(_))),
            "a non-batch document streams through as a single root"
        );
        Ok(())
    });
}
