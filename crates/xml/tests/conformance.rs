//! XML conformance battery: tricky-but-legal documents must parse to the
//! right infoset; illegal ones must fail cleanly (never panic).

use wsg_xml::{Element, RawEvent, XmlReader};

fn events(input: &str) -> Result<Vec<RawEvent<'_>>, wsg_xml::XmlError> {
    let mut reader = XmlReader::new(input);
    let mut out = Vec::new();
    loop {
        let ev = reader.next_raw()?;
        if ev == RawEvent::Eof {
            return Ok(out);
        }
        out.push(ev);
    }
}

// ----- legal documents -----

#[test]
fn utf8_multibyte_content_and_names() {
    let doc = Element::parse("<título attr=\"ação\">héllo wörld — 你好 🦀</título>").unwrap();
    assert_eq!(doc.local_name(), "título");
    assert_eq!(doc.attr("attr"), Some("ação"));
    assert!(doc.text().contains("你好"));
    assert!(doc.text().contains("🦀"));
    // And it round-trips.
    let again = Element::parse(&doc.to_xml_string()).unwrap();
    assert_eq!(again, doc);
}

#[test]
fn default_namespace_undeclaration() {
    // xmlns="" inside a default-namespaced element puts children back in
    // no namespace.
    let doc = Element::parse("<a xmlns=\"urn:x\"><b xmlns=\"\"><c/></b></a>").unwrap();
    assert_eq!(doc.name().namespace(), Some("urn:x"));
    let b = doc.children()[0];
    assert_eq!(b.name().namespace(), None);
    assert_eq!(b.children()[0].name().namespace(), None);
}

#[test]
fn same_local_name_different_namespaces_coexist() {
    let doc = Element::parse(
        "<r xmlns:a=\"urn:one\" xmlns:b=\"urn:two\"><a:item/><b:item/></r>",
    )
    .unwrap();
    assert!(doc.child_ns("urn:one", "item").is_some());
    assert!(doc.child_ns("urn:two", "item").is_some());
}

#[test]
fn attribute_single_and_double_quotes() {
    let doc = Element::parse("<a x='single \"inner\"' y=\"double 'inner'\"/>").unwrap();
    assert_eq!(doc.attr("x"), Some("single \"inner\""));
    assert_eq!(doc.attr("y"), Some("double 'inner'"));
}

#[test]
fn comment_with_single_dashes_ok() {
    let evs = events("<a><!-- a - b - c --></a>").unwrap();
    assert_eq!(evs, [RawEvent::Start, RawEvent::Markup, RawEvent::End]);
}

#[test]
fn cdata_containing_markup_like_text() {
    let doc = Element::parse("<a><![CDATA[<not><xml> &amp; ]] > still text]]></a>").unwrap();
    assert_eq!(doc.text(), "<not><xml> &amp; ]] > still text");
}

#[test]
fn processing_instruction_before_and_after_root() {
    let evs = events("<?style hint?><a/><?done now?>").unwrap();
    assert_eq!(evs, [RawEvent::Markup, RawEvent::Start, RawEvent::End, RawEvent::Markup]);
}

#[test]
fn whitespace_everywhere_legal() {
    let doc = Element::parse("  \n<a  x = \"1\"  >\n\t<b\n/>  </a>\n  ").unwrap();
    assert_eq!(doc.attr("x"), Some("1"));
    assert_eq!(doc.children().len(), 1);
}

#[test]
fn numeric_char_refs_boundary_values() {
    let doc = Element::parse("<a>&#x9;&#x10FFFF;&#65;</a>").unwrap();
    let text = doc.text();
    assert!(text.starts_with('\t'));
    assert!(text.ends_with('A'));
    assert!(text.contains('\u{10FFFF}'));
}

#[test]
fn long_tokens_are_fine() {
    let name = "a".repeat(10_000);
    let value = "v".repeat(100_000);
    let xml = format!("<{name} attr=\"{value}\"/>");
    let doc = Element::parse(&xml).unwrap();
    assert_eq!(doc.local_name(), name);
    assert_eq!(doc.attr("attr").unwrap().len(), 100_000);
}

#[test]
fn nesting_to_the_limit_parses() {
    let depth = 500; // just under MAX_DEPTH
    let mut xml = String::new();
    for _ in 0..depth {
        xml.push_str("<d>");
    }
    for _ in 0..depth {
        xml.push_str("</d>");
    }
    assert!(Element::parse(&xml).is_ok());
}

#[test]
fn prefixed_attribute_namespaces_resolve() {
    let doc = Element::parse(
        "<a xmlns:p=\"urn:p\" p:k=\"v\" k=\"plain\"/>",
    )
    .unwrap();
    assert_eq!(doc.attr_ns("urn:p", "k"), Some("v"));
    assert_eq!(doc.attr("k"), Some("plain"));
}

// ----- illegal documents: clean errors, no panics -----

#[test]
fn rejects_garbage_cleanly() {
    for bad in [
        "",
        "   ",
        "<",
        "<a",
        "<a>",
        "</a>",
        "<a></b>",
        "<a/><b/>",
        "<a x=1/>",
        "<a x=\"1\" x=\"2\"/>",
        "<a>&unknown;</a>",
        "<a>&#xD800;</a>",
        "<a><!-- -- --></a>",
        "<1bad/>",
        "<a><![CDATA[unterminated</a>",
        "<!DOCTYPE html><a/>",
        "<a xmlns:p=\"\"><p:b/></a>",
        "<a><?pi unterminated</a>",
        "text outside <a/>",
        "<p:a/>",
        "<a b=\"<\"/>",
    ] {
        assert!(Element::parse(bad).is_err(), "should reject: {bad:?}");
    }
}

#[test]
fn rejects_xml_declaration_mid_document() {
    assert!(Element::parse("<a><?xml version=\"1.0\"?></a>").is_err());
}

#[test]
fn error_positions_point_into_the_input() {
    let input = "<a><b></c></a>";
    let err = Element::parse(input).unwrap_err();
    assert!(err.position() > 0 && err.position() < input.len());
}

#[test]
fn writer_rejects_invalid_api_use_cleanly() {
    use wsg_xml::{QName, XmlWriter};
    // Invalid element name.
    let mut w = XmlWriter::new();
    assert!(w.start_element(&QName::new("bad name")).is_err());
    // Content outside the root element, and an end with nothing open.
    let mut w = XmlWriter::new();
    assert!(w.text("x").is_err());
    assert!(w.raw("<b/>").is_err());
    assert!(w.end_element().is_err());
    // A declaration after content.
    w.start_element(&QName::new("a")).unwrap();
    assert!(w.declaration().is_err());
}
