//! Replays the committed corpus — seeds and minimized regression inputs —
//! through every target as a plain `cargo test`, so every past fuzz
//! finding stays fixed and the seeds stay parseable without anyone
//! running the fuzzer.

use wsg_fuzz::targets::all_targets;
use wsg_fuzz::{corpus, run_input, seeds};

#[test]
fn the_committed_seeds_are_what_the_seed_writer_writes() {
    let written = seeds::all();
    for (target, name, bytes) in &written {
        let path = corpus::dir_for(target).join(format!("seed-{name}"));
        let committed = std::fs::read(&path).unwrap_or_else(|error| panic!("{}: {error}", path.display()));
        assert!(committed == *bytes, "{} is stale: run `wsg_fuzz --write-seeds`", path.display());
    }
    // And nothing it no longer writes is left behind as a seed.
    for target in all_targets() {
        for entry in std::fs::read_dir(corpus::dir_for(target.name())).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if let Some(name) = file.strip_prefix("seed-") {
                assert!(
                    written.iter().any(|seed| (seed.0, seed.1) == (target.name(), name)),
                    "{}/{file} is no seed the writer writes",
                    target.name()
                );
            }
        }
    }
}

#[test]
fn committed_corpus_replays_clean_on_every_target() {
    for target in all_targets() {
        let seeds = corpus::seeds(target.name()).unwrap();
        assert!(!seeds.is_empty(), "no committed seeds for {}", target.name());
        let mut inputs = seeds;
        inputs.extend(corpus::regressions(target.name()).unwrap());
        for (i, input) in inputs.iter().enumerate() {
            if let Err(message) = run_input(target.as_ref(), input) {
                panic!(
                    "{} corpus entry {i} ({} bytes) fails: {message}",
                    target.name(),
                    input.len()
                );
            }
        }
    }
}

#[test]
fn fixed_bugs_keep_their_minimized_triggers() {
    // The two parser bugs this harness found stay pinned by their
    // minimized inputs: the reader accepting `<wsa:0/>` (a QName local
    // part the writer refuses, so serialisation panicked), and a batch
    // message slice that leaned on the wrapper's xmlns:wsgb binding. A
    // third reader bug sits beside the first: `<a\u{3000}b='1'/>`, read as
    // if U+3000 were XML whitespace. Each xml input is now refused, and
    // so is the batch one — a `Msg` without `ops` is no message — by the
    // stream and the tree walk alike.
    let xml = corpus::regressions("xml").unwrap();
    assert!(xml.len() >= 2);
    for input in &xml {
        let text = String::from_utf8_lossy(input);
        assert!(wsg_xml::Element::parse(&text).is_err(), "{text:?} parses");
    }
    let batch = corpus::regressions("batch").unwrap();
    assert!(!batch.is_empty());
    for input in &batch {
        let text = String::from_utf8_lossy(input);
        assert!(wsg_soap::batch::parse_wire(&text).is_err(), "{text:?} unwraps");
        assert!(wsg_soap::batch::unbundle(&text, &mut String::new()).is_err(), "{text:?} unbundles");
    }
}

#[test]
fn the_foreign_seeds_reach_the_splice_fallback_branches() {
    // Edge slots are anonymous, so this is stated as a difference: the
    // hand-written foreign envelope (a payload leaning on a prefix bound
    // on env:Envelope) must light probes the serialiser-generated seed
    // cannot — the leaning-span and tree-fallback branches — or a sweep
    // seeded from the corpus would never visit them. Needs
    // `--cfg wsg_cov`; without it no edge exists to compare.
    if !wsg_net::cov::enabled() {
        return;
    }
    use std::collections::BTreeSet;
    use wsg_fuzz::targets::{BatchTarget, EnvelopeTarget, FuzzTarget, XmlTarget};
    use wsg_fuzz::{fuzz, FuzzConfig};
    let edges = |target: &dyn FuzzTarget, seed: Vec<u8>| -> BTreeSet<u32> {
        let replay_only = FuzzConfig { budget: 0, ..FuzzConfig::default() };
        fuzz(target, &[seed], &replay_only).coverage.iter().map(|(edge, _)| *edge).collect()
    };
    let seed = |target: &str, name: &str| {
        std::fs::read(corpus::dir_for(target).join(format!("seed-{name}"))).unwrap()
    };
    let plain = edges(&EnvelopeTarget, seed("envelope", "push"));
    let foreign = edges(&EnvelopeTarget, seed("envelope", "foreign"));
    assert!(!plain.is_empty());
    assert!(foreign.difference(&plain).count() >= 2, "{:?}", foreign.difference(&plain));
    // Likewise for what the parse records of header blocks: a block
    // leaning on env:Envelope's bindings (foreign scope, written from its
    // tree), header text that needs a reference resolved (owned, not
    // borrowed), and a flagged block plus one kept as a tree.
    let gossip = edges(&EnvelopeTarget, seed("envelope", "gossip"));
    for (name, fresh) in [("gossip-leaning", 2), ("gossip-text", 1), ("flagged", 2)] {
        let lit = edges(&EnvelopeTarget, seed("envelope", name));
        assert!(lit.difference(&gossip).count() >= fresh, "{name}: {:?}", lit.difference(&gossip));
    }
    // The byte-level reader's way back to its char-level code: names past
    // ASCII, a character reference (in a namespace URI and in text), and
    // an end tag with space before its `>`.
    let ascii = edges(&XmlTarget, seed("xml", "envelope"));
    for (name, fresh) in [("non-ascii-names", 2), ("prefix-char-ref", 2), ("end-tag-space", 1)] {
        let lit = edges(&XmlTarget, seed("xml", name));
        assert!(lit.difference(&ascii).count() >= fresh, "{name}: {:?}", lit.difference(&ascii));
    }
    let coded = edges(&BatchTarget, seed("batch", "front-coded"));
    // A character XML 1.0's `Char` leaves out is refused where it stands:
    // in a document, and in a coded message's literal runs.
    let mixed = edges(&XmlTarget, seed("xml", "mixed"));
    let not_char = edges(&XmlTarget, seed("xml", "not-char"));
    assert!(not_char.difference(&mixed).next().is_some());
    let refused = edges(&BatchTarget, seed("batch", "not-char-coded"));
    assert!(refused.difference(&coded).next().is_some());
}

#[test]
fn a_pre_on_the_first_message_needs_the_request_before_it() {
    use wsg_soap::batch::{parse_wire, parse_wire_after, Unbundled};
    use wsg_soap::SoapError;
    let seed = |name: &str| {
        std::fs::read(corpus::dir_for("batch").join(format!("seed-{name}"))).unwrap()
    };
    let connection = seed("connection-pre");
    let nul = connection.iter().position(|&byte| byte == 0).expect("reference, NUL, document");
    let said = std::str::from_utf8(&connection[..nul]).unwrap();
    let wire = std::str::from_utf8(&connection[nul + 1..]).unwrap();
    assert_eq!(wire.as_bytes(), seed("pre-fresh-connection"));
    assert!(matches!(parse_wire_after(wire, &mut said.to_string()), Ok(Unbundled::Batch(_))));
    assert!(matches!(parse_wire(wire), Err(SoapError::Batch(_))), "a fresh connection");
}
