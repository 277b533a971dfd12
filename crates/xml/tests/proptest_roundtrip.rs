//! Property tests: any generated element tree serialises to XML that parses
//! back to an equal tree, escaping round-trips arbitrary strings, and the
//! writer spells character data in the shorter of its two forms.
//! Runs on the in-tree `wsg_net::check` harness.

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};
use wsg_xml::tree::{Element, Node};
use wsg_xml::{escape, QName, XmlWriter};

/// XML-legal text: printable ASCII plus a slice of Latin/Greek, filtered
/// through the XML 1.0 character rule.
fn xml_text(g: &mut Gen) -> String {
    let len = g.len_in(40);
    (0..len)
        .map(|_| {
            if g.bool(0.8) {
                char::from(g.u32(0x20..=0x7E) as u8)
            } else {
                char::from_u32(g.u32(0xA0..=0x2FF)).unwrap_or(' ')
            }
        })
        .filter(|c| escape::is_xml_char(*c))
        .collect()
}

fn xml_name(g: &mut Gen) -> String {
    const FIRST: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', 'A', 'Q', 'Z', '_',
    ];
    const REST: &[char] = &[
        'a', 'e', 'k', 'n', 'p', 'v', 'Z', '0', '7', '9', '_', '.', '-',
    ];
    let mut name = g.pick(FIRST).to_string();
    let extra = g.len_in(12);
    name.extend((0..extra).map(|_| *g.pick(REST)));
    name
}

fn ns_uri(g: &mut Gen) -> String {
    const ALPHA: &[char] = &['a', 'b', 'g', 'm', 's', 'w', 'x', 'z'];
    let len = g.usize(1..=8);
    let tail: String = (0..len).map(|_| *g.pick(ALPHA)).collect();
    format!("urn:{tail}")
}

fn arb_qname(g: &mut Gen) -> QName {
    if g.bool(0.5) {
        QName::with_ns(ns_uri(g), xml_name(g))
    } else {
        QName::new(xml_name(g))
    }
}

fn arb_element(g: &mut Gen, depth: u32) -> Element {
    let mut e = Element::with_name(arb_qname(g));
    for _ in 0..g.len_in(3) {
        e.set_attr(xml_name(g), xml_text(g));
    }
    // One leading text run, mimicking mixed content; adjacent text merging
    // means at most one leading run survives a parse, so keep it single.
    let text = xml_text(g);
    if !text.is_empty() {
        e.set_text(text);
    }
    if depth > 0 {
        for _ in 0..g.len_in(3) {
            e.push_child(arb_element(g, depth - 1));
        }
    }
    e
}

/// Normalise an element the way a parse does: empty text runs can not
/// survive serialisation.
fn normalise(e: &Element) -> Element {
    let mut out = Element::with_name(e.name().clone());
    for (k, v) in e.attributes() {
        out.set_qattr(k.clone(), v.clone());
    }
    for n in e.nodes() {
        match n {
            Node::Element(c) => out.push_child(normalise(c)),
            Node::Text(t) if !t.is_empty() => {
                let mut tmp = out;
                tmp = tmp.with_text(t.clone());
                out = tmp;
            }
            Node::Text(_) => {}
        }
    }
    out
}

#[test]
fn tree_roundtrips_through_serialisation() {
    run("tree_roundtrips_through_serialisation", 64, |g| {
        let e = arb_element(g, 3);
        let xml = e.to_xml_string();
        let parsed = Element::parse(&xml).expect("own output must parse");
        prop_assert_eq!(normalise(&e), parsed);
        Ok(())
    });
}

/// Text dense in everything either escaping mode rewrites, between clean
/// runs of varying length (multi-byte characters included).
fn special_heavy_text(g: &mut Gen) -> String {
    const SPECIALS: &[char] = &['&', '<', '>', '"', '\'', '\t', '\n', '\r', ';', '#'];
    let mut out = String::new();
    for _ in 0..g.len_in(12) {
        out.push_str(&xml_text(g));
        for _ in 0..g.len_in(4) {
            out.push(*g.pick(SPECIALS));
        }
    }
    out
}

/// The escaping loop as it was before clean runs were copied whole: one
/// `char` at a time. Kept as the byte-identity reference.
fn escape_char_by_char(input: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\t' if attr => out.push_str("&#9;"),
            '\n' if attr => out.push_str("&#10;"),
            '\r' if attr => out.push_str("&#13;"),
            other => out.push(other),
        }
    }
    out
}

#[test]
fn escaping_matches_the_reference_loop_and_roundtrips_in_both_modes() {
    run("escaping_matches_the_reference_loop_and_roundtrips_in_both_modes", 128, |g| {
        let s = if g.bool(0.5) { special_heavy_text(g) } else { xml_text(g) };
        for attr in [false, true] {
            let mut escaped = String::from("kept:");
            if attr {
                escape::escape_attr_into(&mut escaped, &s);
            } else {
                escape::escape_text_into(&mut escaped, &s);
            }
            prop_assert_eq!(&escaped[5..], escape_char_by_char(&s, attr));
            prop_assert_eq!(escape::unescape(&escaped[5..], 0).unwrap(), s.as_str());
            // Validation without building the text agrees with building it.
            prop_assert!(escape::check_refs(&escaped[5..], 0).is_ok());
            prop_assert_eq!(escape::check_refs(&s, 7).err(), escape::unescape(&s, 7).err());
        }
        Ok(())
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    run("parser_never_panics_on_arbitrary_input", 64, |g| {
        // Arbitrary unicode-ish soup. Errors are fine; panics are not.
        let len = g.len_in(200);
        let s: String = (0..len)
            .map(|_| char::from_u32(g.u32(0x01..=0xFFFF)).unwrap_or('\u{FFFD}'))
            .collect();
        let _ = Element::parse(&s);
        Ok(())
    });
}

#[test]
fn escaped_text_contains_no_specials() {
    run("escaped_text_contains_no_specials", 64, |g| {
        let s = xml_text(g);
        let mut escaped = String::new();
        escape::escape_text_into(&mut escaped, &s);
        prop_assert!(!escaped.contains('<'));
        // every '&' must begin an entity
        for (i, c) in escaped.char_indices() {
            if c == '&' {
                prop_assert!(escaped[i..].contains(';'));
            }
        }
        Ok(())
    });
}

/// Text of every kind the writer must choose a spelling for: empty, plain,
/// dense in specials, holding `]]>` (between other specials, or across
/// what would be a section's end), and mostly not ASCII.
fn text_to_spell(g: &mut Gen) -> String {
    match g.usize(0..=4) {
        0 => String::new(),
        1 => xml_text(g),
        2 => special_heavy_text(g),
        3 => {
            let mut text = special_heavy_text(g);
            let at = g.usize(0..=text.len());
            let at = (0..=at).rev().find(|&at| text.is_char_boundary(at)).unwrap_or(0);
            let end = *g.pick::<&str>(&["]]>", "]]]>", "]]>]]>", "]>"]);
            text.insert_str(at, end);
            text
        }
        _ => g.string_from(&['漢', 'é', '😀', '&', '<', '>', ']'], 24),
    }
}

#[test]
fn text_is_written_in_its_shorter_spelling() {
    run("text_is_written_in_its_shorter_spelling", 256, |g| {
        let text = text_to_spell(g);
        let mut w = XmlWriter::new();
        w.start_element(&QName::new("a")).map_err(|e| e.to_string())?;
        w.text(&text).map_err(|e| e.to_string())?;
        w.end_element().map_err(|e| e.to_string())?;
        let xml = w.finish().map_err(|e| e.to_string())?;
        let spelt = &xml["<a>".len()..xml.len() - "</a>".len()];
        let parsed = Element::parse(&xml).map_err(|e| format!("{e} in {xml}"))?;
        prop_assert_eq!(parsed.text(), text.as_str());
        // As long as the shorter spelling; escaped on a tie, so text with
        // few specials is written as it always was, and escaped whenever
        // a section could not hold it.
        let mut escaped = String::new();
        escape::escape_text_into(&mut escaped, &text);
        let section = format!("<![CDATA[{text}]]>");
        prop_assert!(spelt.len() == escaped.len().min(section.len()) || text.contains("]]>"), "{spelt}");
        let shorter = section.len() < escaped.len() && !text.contains("]]>");
        prop_assert_eq!(spelt, if shorter { &section } else { &escaped });
        Ok(())
    });
}
