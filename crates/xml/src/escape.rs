//! Escaping and unescaping of XML character data and attribute values.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind};

/// Append the escaped form of `input` to `out`, for use as element text.
///
/// Replaces `&`, `<` and `>` (`>` only strictly needs escaping in the
/// `]]>` sequence, but escaping it unconditionally is valid and simpler).
///
/// ```
/// let mut out = String::from("<a>");
/// wsg_xml::escape::escape_text_into(&mut out, "a < b & c");
/// assert_eq!(out, "<a>a &lt; b &amp; c");
/// ```
pub fn escape_text_into(out: &mut String, input: &str) {
    escape_into(out, input, false)
}

/// Append the escaped form of `input` to `out`, for use inside a
/// double-quoted attribute value.
///
/// In addition to the text escapes, `"` becomes `&quot;` and tabs/newlines
/// become character references so they survive attribute-value
/// normalisation on re-parse.
pub fn escape_attr_into(out: &mut String, input: &str) {
    escape_into(out, input, true)
}

/// What escaping writes in place of `byte`, if it rewrites it. Every
/// special is ASCII, so a byte scan never splits a UTF-8 sequence.
#[inline(always)]
fn replacement(byte: u8, attr: bool) -> Option<&'static str> {
    match byte {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' if attr => Some("&quot;"),
        b'\t' if attr => Some("&#9;"),
        b'\n' if attr => Some("&#10;"),
        b'\r' if attr => Some("&#13;"),
        _ => None,
    }
}

/// Offset of the first byte at or after `from` that escaping may rewrite
/// (for an attribute value, any control character too: [`replacement`]
/// tells them apart).
#[inline(always)]
fn find_special(bytes: &[u8], from: usize, attr: bool) -> Option<usize> {
    find_by(bytes, from, |b| (b == b'&') | (b == b'<') | (b == b'>') | (attr & ((b == b'"') | (b < b' '))))
}

/// The bytes escaping `input` as text adds to it, counted until they pass
/// `stop_past` (the count returned then is the first one above it): `0`
/// says there is nothing to escape.
#[inline]
pub(crate) fn escape_growth(input: &str, stop_past: usize) -> usize {
    let bytes = input.as_bytes();
    let (mut added, mut from) = (0, 0);
    while let Some(at) = find_special(bytes, from, false) {
        added += replacement(bytes[at], false).map_or(0, |r| r.len() - 1);
        if added > stop_past {
            break;
        }
        from = at + 1;
    }
    added
}

fn escape_into(out: &mut String, input: &str, attr: bool) {
    // Clean runs between specials are copied whole.
    let bytes = input.as_bytes();
    let (mut clean, mut from) = (0, 0);
    while let Some(at) = find_special(bytes, from, attr) {
        if let Some(replacement) = replacement(bytes[at], attr) {
            out.push_str(&input[clean..at]);
            out.push_str(replacement);
            clean = at + 1;
        }
        from = at + 1;
    }
    out.push_str(&input[clean..]);
}

/// Resolve the five predefined entities and numeric character references in
/// `input`, returning the unescaped text.
///
/// # Errors
///
/// Returns [`XmlError`] with kind `UnknownEntity` for undefined entity
/// references and `Malformed` for unterminated or out-of-range character
/// references. `position` in the error is relative to `base_offset`.
pub fn unescape(input: &str, base_offset: usize) -> Result<Cow<'_, str>, XmlError> {
    if find_byte(input.as_bytes(), 0, b'&').is_none() {
        return Ok(Cow::Borrowed(input));
    }
    let mut out = String::with_capacity(input.len());
    scan_refs(input, base_offset, |clean, decoded| {
        out.push_str(clean);
        out.extend(decoded);
    })?;
    // The text usually ends up in a tree someone keeps: hand back the
    // room the references took.
    out.shrink_to_fit();
    Ok(Cow::Owned(out))
}

/// Validate every entity and character reference in `input` exactly as
/// [`unescape`] would, without building the unescaped text.
///
/// # Errors
///
/// The same errors, at the same positions, as [`unescape`].
pub fn check_refs(input: &str, base_offset: usize) -> Result<(), XmlError> {
    scan_refs(input, base_offset, |_, _| {})
}

/// The one reference grammar behind [`unescape`] and [`check_refs`]: walk
/// `input`, handing `emit` each clean run together with the character the
/// reference ending it decodes to (`None` for the tail after the last
/// reference).
fn scan_refs(
    input: &str,
    base_offset: usize,
    mut emit: impl FnMut(&str, Option<char>),
) -> Result<(), XmlError> {
    let mut rest = input;
    let mut offset = base_offset;
    while let Some(amp) = find_byte(rest.as_bytes(), 0, b'&') {
        let after = &rest[amp + 1..];
        // The five predefined entities are nearly every reference there
        // is: match them as literals before looking for the `;` (a second
        // search per reference triples the cost of reference-dense text).
        let (decoded, tail) = match predefined(after.as_bytes()) {
            Some((c, len)) => (c, &after[len..]),
            None => {
                let semi = after.find(';').ok_or_else(|| {
                    XmlError::new(
                        XmlErrorKind::Malformed("unterminated entity reference".into()),
                        offset + amp,
                    )
                })?;
                let name = &after[..semi];
                if !name.starts_with('#') {
                    return Err(XmlError::new(
                        XmlErrorKind::UnknownEntity(name.to_string()),
                        offset + amp,
                    ));
                }
                (parse_char_ref(name, offset + amp)?, &after[semi + 1..])
            }
        };
        emit(&rest[..amp], Some(decoded));
        offset += rest.len() - tail.len();
        rest = tail;
    }
    emit(rest, None);
    Ok(())
}

/// The predefined entity `after` (the bytes past an `&`) starts with: the
/// character it stands for and the length of its name and `;`.
pub(crate) fn predefined(after: &[u8]) -> Option<(char, usize)> {
    match after {
        [b'a', b'm', b'p', b';', ..] => Some(('&', 4)),
        [b'l', b't', b';', ..] => Some(('<', 3)),
        [b'g', b't', b';', ..] => Some(('>', 3)),
        [b'q', b'u', b'o', b't', b';', ..] => Some(('"', 5)),
        [b'a', b'p', b'o', b's', b';', ..] => Some(('\'', 5)),
        _ => None,
    }
}

/// [`find_by`]'s test for a byte that may start a character XML 1.0's
/// `Char` production leaves out: a byte below `' '`, or 0xEF, the first
/// byte of U+FFFE and U+FFFF — the only code points above U+007F a `str`
/// can hold that `Char` excludes. Tab, line feed and carriage return pass
/// it too; [`not_char_at`] lets them through.
#[inline(always)]
pub(crate) fn may_start_not_char(byte: u8) -> bool {
    (byte < b' ') | (byte == 0xEF)
}

/// Whether the character starting at `bytes[at]` is outside `Char`.
pub(crate) fn not_char_at(bytes: &[u8], at: usize) -> bool {
    match bytes[at] {
        b'\t' | b'\n' | b'\r' => false,
        0xEF => matches!(bytes[at + 1..], [0xBF, 0xBE | 0xBF, ..]),
        byte => byte < b' ',
    }
}

/// Offset of the first character of `bytes` outside `Char`.
pub(crate) fn find_not_char(bytes: &[u8]) -> Option<usize> {
    let mut from = 0;
    loop {
        let at = find_by(bytes, from, may_start_not_char)?;
        if not_char_at(bytes, at) {
            return Some(at);
        }
        from = at + 1;
    }
}

/// Offset of the first byte at or after `from` that `hit`s: the one
/// search every byte scan makes. It tests a block at a time with plain
/// byte predicates and no branch inside a block, which the compiler turns
/// into vector compares. Markup and references come every few dozen
/// bytes, so the first blocks are short — 16, 16, then 32 bytes — before
/// it goes 64 at a time: at a hit every 24 bytes, 64-byte blocks from the
/// start cost twice as much, while over a 16 KiB CDATA section they run
/// at a third of the cost of testing eight bytes at a time.
#[inline(always)]
pub(crate) fn find_by(bytes: &[u8], from: usize, hit: impl Fn(u8) -> bool) -> Option<usize> {
    let (hit, mut at) = (&hit, from);
    let short = block::<16>(bytes, &mut at, hit)
        .or_else(|| block::<16>(bytes, &mut at, hit))
        .or_else(|| block::<32>(bytes, &mut at, hit));
    if short.is_some() {
        return short;
    }
    while at + 64 <= bytes.len() {
        if let Some(found) = block::<64>(bytes, &mut at, hit) {
            return Some(found);
        }
    }
    bytes.get(at..)?.iter().position(|&b| hit(b)).map(|i| at + i)
}

/// Where the first hit among the `N` bytes at `at` stands, found in the
/// first 16 of them that hold one; `at` steps past them when none hits,
/// and stays when fewer than `N` are left.
#[inline(always)]
fn block<const N: usize>(bytes: &[u8], at: &mut usize, hit: &impl Fn(u8) -> bool) -> Option<usize> {
    let block: &[u8; N] = bytes.get(*at..*at + N)?.try_into().ok()?;
    let any = N == 16 || block.iter().fold(0, |any, &b| any | u8::from(hit(b))) != 0;
    let found = block.chunks_exact(16).take(if any { N / 16 } else { 0 }).enumerate().find_map(|(k, sub)| {
        // The 16 bytes as one number of 1s where they hit.
        let sub: [u8; 16] = sub.try_into().expect("sixteen bytes");
        let hits = u128::from_le_bytes(sub.map(|b| u8::from(hit(b))));
        (hits != 0).then(|| 16 * k + hits.trailing_zeros() as usize / 8)
    });
    *at += if found.is_none() { N } else { 0 };
    found.map(|i| *at + i)
}

/// Offset of the first `byte` at or after `from` in `bytes`.
pub fn find_byte(bytes: &[u8], from: usize, byte: u8) -> Option<usize> {
    find_by(bytes, from, |b| b == byte)
}

/// Where the first `]]>` in `text` starts, found by its `]`s.
pub fn cdata_end(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    loop {
        let at = find_byte(bytes, from, b']')?;
        if bytes[at..].starts_with(b"]]>") {
            return Some(at);
        }
        from = at + 1;
    }
}

fn parse_char_ref(name: &str, position: usize) -> Result<char, XmlError> {
    let digits = &name[1..];
    let value = if let Some(hex) = digits.strip_prefix('x').or_else(|| digits.strip_prefix('X')) {
        u32::from_str_radix(hex, 16)
    } else {
        digits.parse::<u32>()
    }
    .map_err(|_| {
        XmlError::new(
            XmlErrorKind::Malformed(format!("invalid character reference '&{name};'")),
            position,
        )
    })?;
    char::from_u32(value).filter(|c| is_xml_char(*c)).ok_or_else(|| {
        XmlError::new(
            XmlErrorKind::Malformed(format!("character reference out of range '&{name};'")),
            position,
        )
    })
}

/// Whether `c` is a character permitted by the XML 1.0 `Char` production.
pub fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

/// Whether `c` may start an XML name (`NameStartChar`, minus the rarely
/// used supplementary ranges kept for simplicity).
pub(crate) fn is_name_start(c: char) -> bool {
    c == ':' || c == '_' || c.is_ascii_alphabetic() || matches!(c,
        '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}' | '\u{200C}'..='\u{200D}'
        | '\u{2070}'..='\u{218F}' | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}' | '\u{10000}'..='\u{EFFFF}')
}

/// Whether `c` may continue an XML name (`NameChar`).
pub(crate) fn is_name_char(c: char) -> bool {
    is_name_start(c)
        || c == '-'
        || c == '.'
        || c.is_ascii_digit()
        || matches!(c, '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// Validate that `lexical` is a namespace-well-formed qualified name: at
/// most one colon, and the prefix / local parts each a legal colon-free
/// name. Plain [`validate_name`] treats `:` as an ordinary name character
/// (per XML 1.0), so it accepts `wsa:0` — whose local part the writer
/// then refuses to serialise. Parsers that resolve prefixes must use this
/// instead (regression: fuzz/corpus/regressions/xml/79758a29844b826c).
pub(crate) fn validate_qname(lexical: &str) -> Result<(), XmlError> {
    let invalid = || XmlError::new(XmlErrorKind::InvalidName(lexical.to_string()), 0);
    let (prefix, local) = match lexical.split_once(':') {
        Some((prefix, local)) => (Some(prefix), local),
        None => (None, lexical),
    };
    if local.contains(':') {
        return Err(invalid());
    }
    if let Some(prefix) = prefix {
        validate_name(prefix).map_err(|_| invalid())?;
    }
    validate_name(local).map_err(|_| invalid())
}

/// Validate that `name` is a legal XML name.
pub(crate) fn validate_name(name: &str) -> Result<(), XmlError> {
    let mut chars = name.chars();
    if chars.next().is_some_and(is_name_start) && chars.all(is_name_char) {
        Ok(())
    } else {
        Err(XmlError::new(XmlErrorKind::InvalidName(name.to_string()), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::check::run;
    use wsg_net::prop_assert_eq;

    #[test]
    fn find_by_agrees_with_a_byte_at_a_time_search() {
        // Runs up to 300 bytes long — across every block and tail edge —
        // at every density of hits, from any start.
        const BYTES: [u8; 8] = [b'<', b']', b'&', b'"', 0x01, b'\n', 0xEF, 0xBF];
        run("find_by_agrees_with_a_byte_at_a_time_search", 4_000, |g| {
            let density = g.f64(0.0..1.0).powi(3);
            let len = g.usize(0..=300);
            let mut bytes: Vec<u8> =
                (0..len).map(|_| if g.bool(density) { *g.pick(&BYTES) } else { b'a' }).collect();
            // Now and then one hit alone, anywhere.
            if len > 0 && g.bool(0.3) {
                bytes.fill(b'a');
                bytes[g.usize(0..=len - 1)] = *g.pick(&BYTES);
            }
            let mut set = Vec::new();
            for byte in BYTES {
                if g.bool(0.4) {
                    set.push(byte);
                }
            }
            let hit = |b: u8| set.contains(&b);
            let from = g.usize(0..=len + 1);
            let expected = bytes.get(from..).and_then(|rest| rest.iter().position(|&b| hit(b)));
            prop_assert_eq!(find_by(&bytes, from, hit), expected.map(|i| from + i));
            Ok(())
        });
    }

    #[test]
    fn cdata_end_finds_the_first_whole_close() {
        assert_eq!(cdata_end("]]"), None);
        assert_eq!(cdata_end("]]]>"), Some(1));
        assert_eq!(cdata_end(&format!("{}]]>]]>", "]".repeat(70))), Some(70));
    }

    fn escaped(input: &str, attr: bool) -> String {
        let mut out = String::from("prefix:");
        if attr {
            escape_attr_into(&mut out, input);
        } else {
            escape_text_into(&mut out, input);
        }
        out.split_off("prefix:".len())
    }

    #[test]
    fn text_escaping_replaces_specials() {
        assert_eq!(escaped("<a&b>", false), "&lt;a&amp;b&gt;");
        // Clean text is appended as it is, in both modes.
        for attr in [false, true] {
            assert_eq!(escaped("hello", attr), "hello");
            assert_eq!(escaped("", attr), "");
        }
        assert_eq!(escape_growth("hello", 0), 0);
    }

    #[test]
    fn attr_escaping_handles_quotes_and_whitespace() {
        assert_eq!(escaped("a\"b\nc", true), "a&quot;b&#10;c");
        assert_eq!(escaped("a\"b\nc", false), "a\"b\nc");
    }

    #[test]
    fn unescape_predefined_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;&quot;&apos;", 0).unwrap(), "<>&\"'");
    }

    #[test]
    fn unescape_char_refs_decimal_and_hex() {
        assert_eq!(unescape("&#65;&#x42;", 0).unwrap(), "AB");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("&nbsp;", 0).unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnknownEntity(e) if e == "nbsp"));
    }

    #[test]
    fn unescape_rejects_unterminated() {
        assert!(unescape("&amp", 0).is_err());
    }

    #[test]
    fn unescape_rejects_surrogate_char_ref() {
        assert!(unescape("&#xD800;", 0).is_err());
    }

    #[test]
    fn roundtrip_text() {
        let original = "price < 100 && symbol == \"ACME\"";
        assert_eq!(unescape(&escaped(original, false), 0).unwrap(), original);
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("env:Envelope").is_ok());
        assert!(validate_name("_x").is_ok());
        assert!(validate_name("9abc").is_err());
        assert!(validate_name("").is_err());
        assert!(validate_name("a b").is_err());
    }
}
