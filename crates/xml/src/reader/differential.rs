//! The byte-level token layer against the `char`-level one it replaced
//! ([`super::reference`]), both driven with `next_raw`: after every event
//! the same event, element name, attributes, bindings, watermark and
//! position; on every rejection the same error kind at the same offset.
//! Inputs holding whitespace outside XML's `S` are left out — there the
//! reference still skips Unicode whitespace, as the reader no longer does.
//!
//! `WSG_PROP_SEED=<n>` replays a failing case of the generated documents.

use std::path::PathBuf;

use wsg_net::check::{run, Gen};
use wsg_net::prop_assert_eq;

use super::{reference, RawEvent, XmlReader};
use crate::name::QName;

/// Whitespace the two readers are meant to disagree on.
fn excluded(input: &str) -> bool {
    input
        .chars()
        .any(|c| c.is_whitespace() && !matches!(c, ' ' | '\t' | '\r' | '\n'))
}

/// Read to the root's start tag, skip the root, then read the epilogue:
/// where the root ended and where the document did, or the first error.
/// `skip_element` has the tokenizer check references that `next_raw`
/// leaves to `unescape`.
macro_rules! skip_through {
    ($reader:expr) => {{
        let reader = &mut $reader;
        (|| {
            while reader.next_raw()? != RawEvent::Start {}
            reader.skip_element()?;
            let root_end = reader.position();
            reader.finish()?;
            Ok::<_, crate::XmlError>((root_end, reader.position()))
        })()
    }};
}

/// Read `input` with both readers to the first error or the end, with
/// `next_raw` and by skipping; the first thing they disagree on.
fn compare(input: &str) -> Result<(), String> {
    if excluded(input) {
        return Ok(());
    }
    let (mut reader, mut oracle) = (XmlReader::new(input), reference::XmlReader::new(input));
    prop_assert_eq!(skip_through!(reader), skip_through!(oracle));
    let (mut reader, mut oracle) = (XmlReader::new(input), reference::XmlReader::new(input));
    // Every event but `Eof` consumes input or closes an element.
    for _ in 0..=2 * input.len() + 2 {
        let (event, expected) = (reader.next_raw(), oracle.next_raw());
        prop_assert_eq!(event, expected);
        if matches!(event, Err(_) | Ok(RawEvent::Eof)) {
            return Ok(());
        }
        prop_assert_eq!(reader.position(), oracle.position());
        prop_assert_eq!(reader.depth(), oracle.depth());
        prop_assert_eq!(reader.binding_watermark(), oracle.binding_watermark());
        prop_assert_eq!(
            reader.bindings().collect::<Vec<_>>(),
            oracle.bindings().collect::<Vec<_>>()
        );
        if event == Ok(RawEvent::Start) {
            prop_assert_eq!(reader.element_name(), oracle.element_name());
            let (tag, expected) = (reader.start_tag(), oracle.start_tag());
            prop_assert_eq!(spelled(&tag), spelled(&expected));
        }
    }
    Err(format!("no end after {} events", 2 * input.len() + 2))
}

/// A start tag's names as written and resolved (`QName` equality leaves
/// the prefix out), with each attribute's value.
fn spelled(tag: &(QName, Vec<(QName, String)>)) -> Vec<(Option<&str>, Option<&str>, &str, &str)> {
    fn spell(name: &QName) -> (Option<&str>, Option<&str>, &str) {
        (name.namespace(), name.prefix(), name.local())
    }
    std::iter::once((spell(&tag.0), ""))
        .chain(tag.1.iter().map(|(name, value)| (spell(name), value.as_str())))
        .map(|((ns, prefix, local), value)| (ns, prefix, local, value))
        .collect()
}

/// [`compare`] with the input in the report.
fn check(input: &str) -> Result<(), String> {
    compare(input).map_err(|difference| format!("{difference}\n  input: {input:?}"))
}

// Pieces of documents. None holds whitespace outside `S`; the non-ASCII
// names and texts send the reader down its `char`-level paths.
const PREFIXES: &[&str] = &["p", "q", "wsa", "env", "ns0", "é", "ü_x"];
const LOCALS: &[&str] = &[
    "a", "b", "Envelope", "x-y.z", "_u", "A9", "ñ", "名前", "a·b", "e\u{301}", "xmlns",
];
const BAD_NAMES: &[&str] = &[
    "1a", "a:b:c", ":a", "a:", "-x", "\u{301}a", "a:1", "é:", "p:\u{b7}", "a:é:b", "",
];
const URIS: &[&str] = &[
    "urn:x",
    "urn:y",
    "http://www.w3.org/2003/05/soap-envelope",
    "urn:&#x61;b",
    "urn:a&amp;b",
    "urn:t\tab",
    "",
    "urn:ü",
    "urn:&#1234;",
    "urn:&lt;x&gt;",
    "urn:&bad;",
];
const VALUES: &[&str] = &[
    "1",
    "",
    "true",
    "a &amp; b",
    "&lt;&gt;&quot;&apos;",
    "&#65;&#x42;",
    "it's",
    "say \"hi\"",
    "tab\there\nand\r",
    "&#9;",
    "ünï",
    "a<b",
    "&nope;",
    "&#xD800;",
    "&amp",
    "&#;",
    "x]]>y",
    "a\u{2}b",
    "\u{FFFF}",
];
const TEXTS: &[&str] = &[
    "hi",
    " ",
    "\n\t",
    "a &amp; b",
    "&lt;&gt;&quot;&apos;",
    "&#65;&#x42;&#X43;",
    "&#+65;",
    "ünïcödé 名前",
    "]]",
    "]>",
    "a]b]",
    "x]]>y",
    "&bogus;",
    "&#xD800;",
    "&amp",
    "&#x;",
    "\u{1}",
    "x\u{FFFE}",
    "]]>\u{1F}",
    "tab\tnl\n",
    "&#10;",
    "long text with nothing special in it at all, more than a word or two",
];
const SPACES: &[&str] = &[" ", " ", " ", "\t", "\n", "\r\n", "  \t"];

/// What a long run holds somewhere: every byte a scan stops at.
const SPECIALS: &[&str] = &["<", "&", "]", "]]>", "\"", "'", "\u{1}", "\u{FFFE}"];

/// A run of plain text at least `len` bytes long with `special` at the
/// first character boundary at or past byte `at`: long enough for the
/// scans to go a block at a time before and after it.
fn long_run(len: usize, at: usize, special: &str) -> String {
    let mut filler = "plain text of a long run, ünï 名前 ".chars().cycle();
    let mut run = String::new();
    while run.len() < at {
        run.push(filler.next().expect("a cycle"));
    }
    run.push_str(special);
    while run.len() < len {
        run.push(filler.next().expect("a cycle"));
    }
    run
}

/// A [`long_run`] of 60–300 bytes, its special at byte 0–130.
fn long(g: &mut Gen) -> String {
    let (len, at) = (g.usize(60..=300), g.usize(0..=130));
    long_run(len, at, pick(g, SPECIALS))
}

fn pick(g: &mut Gen, options: &[&'static str]) -> &'static str {
    g.pick::<&str>(options)
}

fn space(g: &mut Gen) -> &'static str {
    pick(g, SPACES)
}

/// A QName, mostly with a prefix in scope, now and then not (or no name).
fn name(g: &mut Gen, in_scope: &[&'static str]) -> String {
    if g.bool(0.02) {
        return g.pick(BAD_NAMES).to_string();
    }
    let local = *g.pick(LOCALS);
    if !in_scope.is_empty() && g.bool(0.4) {
        format!("{}:{local}", g.pick(in_scope))
    } else if g.bool(0.02) {
        format!("{}:{local}", g.pick(PREFIXES))
    } else {
        local.to_string()
    }
}

/// `=` and `value` quoted — in the quote it does not hold — and once in a
/// while not closed, or not quoted at all.
fn quoted(g: &mut Gen, value: &str) -> String {
    let eq = if g.bool(0.1) {
        format!("{}={}", space(g), space(g))
    } else {
        "=".into()
    };
    let quote = match (value.contains('\''), value.contains('"')) {
        (true, _) => '"',
        (_, true) => '\'',
        _ if g.bool(0.5) => '"',
        _ => '\'',
    };
    match g.usize(0..=199) {
        0 => format!("{eq}{value}"),
        1 => format!("{eq}{quote}{value}"),
        _ => format!("{eq}{quote}{value}{quote}"),
    }
}

/// A comment, a processing instruction, or (rarely) something that is
/// neither but starts like one.
fn misc(g: &mut Gen, out: &mut String) {
    out.push_str(match g.usize(0..=9) {
        0..=2 => "<!-- a comment -->",
        3 => "<!---->",
        4..=6 => "<?pi some data?>",
        7 => "<?target?>",
        8 => "<!-- a -- b -->",
        _ => pick(
            g,
            &[
                "<?xml version='1.0'?>",
                "<!DOCTYPE a>",
                "<?pi",
                "<!-- open",
                "<!-- \u{FFFF} -->",
                "<?pi \u{2}?>",
            ],
        ),
    });
}

fn element(g: &mut Gen, out: &mut String, depth: u32, scope: &mut Vec<&'static str>) {
    let mark = scope.len();
    let mut attributes = Vec::new();
    for _ in 0..g.len_in(2) {
        let (prefix, uri) = (*g.pick(PREFIXES), *g.pick(URIS));
        attributes.push(format!("xmlns:{prefix}{}", quoted(g, uri)));
        scope.push(prefix);
    }
    if g.bool(0.2) {
        let uri = *g.pick(URIS);
        attributes.push(format!("xmlns{}", quoted(g, uri)));
    }
    for _ in 0..g.len_in(3) {
        let attribute = name(g, scope);
        let value = if g.bool(0.1) { long(g) } else { g.pick(VALUES).to_string() };
        attributes.push(format!("{attribute}{}", quoted(g, &value)));
    }
    if g.bool(0.03) {
        if let Some(last) = attributes.last().cloned() {
            attributes.push(last);
        }
    }
    if !attributes.is_empty() {
        let by = g.usize(0..=attributes.len() - 1);
        attributes.rotate_left(by);
    }
    let tag = name(g, scope);
    out.push('<');
    out.push_str(&tag);
    for attribute in attributes {
        out.push_str(if g.bool(0.97) { space(g) } else { "" });
        out.push_str(&attribute);
    }
    if g.bool(0.2) {
        out.push_str(space(g));
    }
    if depth == 0 || g.bool(0.25) {
        out.push_str("/>");
    } else {
        out.push('>');
        for _ in 0..g.len_in(4) {
            match g.usize(0..=10) {
                0..=3 => element(g, out, depth - 1, scope),
                4..=6 => out.push_str(pick(g, TEXTS)),
                10 => {
                    let (open, close) = *g.pick(&[("", ""), ("<![CDATA[", "]]>"), ("<!--", "-->")]);
                    out.push_str(open);
                    out.push_str(&long(g));
                    out.push_str(close);
                }
                7 => {
                    out.push_str("<![CDATA[");
                    out.push_str(pick(g, &["<raw> & stuff", "", "]]", "a]b", "ü", "\u{1}]"]));
                    out.push_str(if g.bool(0.97) { "]]>" } else { "]>" });
                }
                _ => misc(g, out),
            }
        }
        out.push_str("</");
        out.push_str(&if g.bool(0.03) { name(g, scope) } else { tag });
        if g.bool(0.15) {
            out.push_str(space(g));
        }
        if g.bool(0.99) {
            out.push('>');
        }
    }
    scope.truncate(mark);
}

/// A document: maybe a declaration, whitespace, comments and PIs around
/// one root element — and now and then text or a second root outside it.
fn document(g: &mut Gen) -> String {
    let mut out = String::new();
    if g.bool(0.3) {
        out.push_str(pick(
            g,
            &[
                "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
                "<?xml version='1.0'?>",
                "<?XML?>",
            ],
        ));
    }
    for _ in 0..g.len_in(2) {
        out.push_str(space(g));
        misc(g, &mut out);
    }
    element(g, &mut out, 4, &mut Vec::new());
    for _ in 0..g.len_in(2) {
        match g.usize(0..=9) {
            0..=6 => out.push_str(space(g)),
            7 | 8 => misc(g, &mut out),
            _ => out.push_str(pick(g, &["junk", "<b/>", "<![CDATA[x]]>", "&amp;"])),
        }
    }
    out
}

/// Cut at or flip one byte of `input`, as the fuzzer would.
fn mangled(input: &[u8], at: usize, flip: Option<u8>) -> String {
    let mut bytes = input[..at.min(input.len())].to_vec();
    if let Some(byte) = flip {
        bytes.extend_from_slice(&input[at.min(input.len())..]);
        if let Some(slot) = bytes.get_mut(at) {
            *slot = byte;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What a flipped byte becomes: every delimiter of the grammar, a
/// whitespace, a name character, a byte that breaks UTF-8 and a control
/// character.
const FLIPS: &[u8] = b"<>&;'\"/:=?![]-# \tx9\xc3\xff\x01";

#[test]
fn the_byte_reader_agrees_with_the_char_reader_on_generated_documents() {
    run(
        "the_byte_reader_agrees_with_the_char_reader_on_generated_documents",
        10_000,
        |g| {
            let doc = document(g);
            check(&doc)?;
            // One truncation and one flipped byte of it.
            let at = g.usize(0..=doc.len());
            check(&mangled(doc.as_bytes(), at, None))?;
            let flip = *g.pick(FLIPS);
            check(&mangled(doc.as_bytes(), g.usize(0..=doc.len()), Some(flip)))
        },
    );
}

#[test]
fn the_readers_agree_with_a_special_at_every_offset_of_a_long_run() {
    for special in SPECIALS {
        for at in 0..=130 {
            let run = long_run(200, at, special);
            let quote = if special.contains('"') { '\'' } else { '"' };
            for doc in [
                format!("<a>{run}</a>"),
                format!("<a><![CDATA[{run}]]></a>"),
                format!("<a x={quote}{run}{quote}/>"),
                format!("<a><!--{run}--></a>"),
            ] {
                check(&doc).unwrap();
            }
        }
    }
}

/// The committed seeds of the targets that parse XML, each document of a
/// seed apart (a `batch` seed may hold a reference text, a NUL, then the
/// document).
fn seeds() -> Vec<(PathBuf, Vec<u8>)> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut seeds = Vec::new();
    for target in ["xml", "envelope", "batch"] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus.join(target))
            .expect("the committed corpus")
            .map(|entry| entry.expect("a corpus entry").path())
            .collect();
        paths.sort();
        for path in paths {
            let bytes = std::fs::read(&path).expect("a seed");
            for part in bytes.split(|&b| b == 0) {
                seeds.push((path.clone(), part.to_vec()));
            }
        }
    }
    seeds
}

#[test]
fn the_byte_reader_agrees_with_the_char_reader_on_every_cut_and_flip_of_the_seeds() {
    let seeds = seeds();
    assert!(seeds.len() >= 20, "{} seeds", seeds.len());
    for (path, seed) in seeds {
        for at in 0..=seed.len() {
            let flip = FLIPS[at % FLIPS.len()];
            for input in [mangled(&seed, at, None), mangled(&seed, at, Some(flip))] {
                if let Err(difference) = check(&input) {
                    panic!("{}: {difference}", path.display());
                }
            }
        }
    }
}
