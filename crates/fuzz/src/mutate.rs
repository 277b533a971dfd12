//! Deterministic byte-level and structure-aware mutators.
//!
//! Every mutation is a pure function of the RNG stream, the input and
//! the corpus — no wall clock, no global state — so a fuzzing run can be
//! replayed exactly from `WSG_FUZZ_SEED`. The structure-aware mutators
//! work at token granularity on the wire shapes this workspace actually
//! speaks (XML tags, `Content-Length` framing, `wsgb:Msg` segments),
//! which is what lets the engine reach deep parser branches that blind
//! bitflips practically never hit.

use wsg_net::rng::RngExt;
use wsg_net::SplitMix64;

/// Grammar fragments of the five wire formats, spliced in wholesale so a
/// mutation can introduce a well-formed token the parsers dispatch on.
const DICTIONARY: &[&[u8]] = &[
    b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
    b"<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\">",
    b"</wsgb:Batch>",
    b"<wsgb:Msg ops=\"",
    b"\"><![CDATA[",
    b"]]></wsgb:Msg>",
    b"</wsgb:Msg>",
    b"<wsgb:Msg target=\"/membership\" ops=\"",
    b"0:64,",
    b"<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">",
    b"</env:Envelope>",
    b"<env:Header>",
    b"<env:Body>",
    b"</env:Body>",
    b"<env:Fault>",
    b"<wsa:To>http://peer/gossip</wsa:To>",
    b"<wsa:Action>urn:app:Op</wsa:Action>",
    b"urn:ws-membership:2008",
    b"<wsm:Member id=\"1\" addr=\"127.0.0.1:9000\" heartbeat=\"2\"/>",
    b"Heartbeat",
    b"JoinResponse",
    b"POST /gossip HTTP/1.1\r\n",
    b"HTTP/1.1 200 OK\r\n",
    b"Content-Length: 0\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b"\r\n\r\n",
    b"<![CDATA[",
    b"]]>",
    b"<!--",
    b"-->",
    b"<!DOCTYPE a>",
    b"xmlns=\"\"",
    b"&amp;",
    b"&#x41;",
    b"&#xD800;",
];

/// Boundary numbers for length fields and numeric attributes.
const INTERESTING: &[&[u8]] = &[
    b"0",
    b"1",
    b"-1",
    b"255",
    b"65536",
    b"4294967295",
    b"8388609",
    b"18446744073709551615",
    b"99999999999999999999",
];

/// Apply a random stack of 1–4 mutations to `input` in place, truncating
/// to `max_len` at the end.
pub(crate) fn mutate(
    input: &mut Vec<u8>,
    corpus: &[Vec<u8>],
    rng: &mut SplitMix64,
    max_len: usize,
) {
    let stack = rng.gen_range(1..=4usize);
    for _ in 0..stack {
        mutate_once(input, corpus, rng);
    }
    if input.len() > max_len {
        input.truncate(max_len);
    }
}

fn mutate_once(input: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut SplitMix64) {
    match rng.gen_range(0..16u32) {
        0 => bitflip(input, rng),
        1 => byte_set(input, rng),
        2 => insert_bytes(input, rng),
        3 => delete_range(input, rng),
        4 => repeat_range(input, rng),
        5 => truncate_tail(input, rng),
        6 => splice(input, corpus, rng),
        7 => overwrite_token(input, rng, INTERESTING),
        8 => insert_token(input, rng, DICTIONARY),
        9 => overwrite_token(input, rng, DICTIONARY),
        10 => case_flip(input, rng),
        11 => insert_token(input, rng, &[b"\r\n", b"\r", b"\n", b"\0"]),
        12 => swap_tags(input, rng),
        13 => duplicate_or_drop_tag(input, rng),
        14 => corrupt_content_length(input, rng),
        _ => shuffle_batch_segments(input, rng),
    }
}

fn bitflip(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    if input.is_empty() {
        return insert_token(input, rng, DICTIONARY);
    }
    let bit = rng.gen_range(0..input.len() * 8);
    input[bit / 8] ^= 1 << (bit % 8);
}

fn byte_set(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    if input.is_empty() {
        return insert_token(input, rng, DICTIONARY);
    }
    let at = rng.gen_range(0..input.len());
    input[at] = rng.gen_range(0..=255u32) as u8;
}

fn insert_bytes(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    let at = rng.gen_range(0..=input.len());
    let count = rng.gen_range(1..=8usize);
    for i in 0..count {
        input.insert(at + i, rng.gen_range(0..=255u32) as u8);
    }
}

fn delete_range(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    if input.is_empty() {
        return;
    }
    let start = rng.gen_range(0..input.len());
    let len = rng.gen_range(1..=(input.len() - start).min(32));
    input.drain(start..start + len);
}

fn repeat_range(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    if input.is_empty() {
        return insert_token(input, rng, DICTIONARY);
    }
    let start = rng.gen_range(0..input.len());
    let len = rng.gen_range(1..=(input.len() - start).min(64));
    let times = rng.gen_range(1..=4usize);
    let chunk: Vec<u8> = input[start..start + len].to_vec();
    let at = start + len;
    for t in 0..times {
        for (i, &b) in chunk.iter().enumerate() {
            input.insert(at + t * chunk.len() + i, b);
        }
    }
}

fn truncate_tail(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    if input.is_empty() {
        return;
    }
    let keep = rng.gen_range(0..input.len());
    input.truncate(keep);
}

fn splice(input: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut SplitMix64) {
    let Some(other) = rng.choose(corpus) else {
        return;
    };
    if other.is_empty() {
        return;
    }
    let own_cut = rng.gen_range(0..=input.len());
    let other_cut = rng.gen_range(0..other.len());
    input.truncate(own_cut);
    input.extend_from_slice(&other[other_cut..]);
}

fn insert_token(input: &mut Vec<u8>, rng: &mut SplitMix64, pool: &[&[u8]]) {
    let Some(token) = rng.choose(pool) else {
        return;
    };
    let at = rng.gen_range(0..=input.len());
    for (i, &b) in token.iter().enumerate() {
        input.insert(at + i, b);
    }
}

fn overwrite_token(input: &mut Vec<u8>, rng: &mut SplitMix64, pool: &[&[u8]]) {
    let Some(token) = rng.choose(pool) else {
        return;
    };
    if input.len() < token.len() {
        return insert_token(input, rng, pool);
    }
    let at = rng.gen_range(0..=input.len() - token.len());
    input[at..at + token.len()].copy_from_slice(token);
}

fn case_flip(input: &mut [u8], rng: &mut SplitMix64) {
    if input.is_empty() {
        return;
    }
    let at = rng.gen_range(0..input.len());
    if input[at].is_ascii_alphabetic() {
        input[at] ^= 0x20;
    }
}

/// Byte spans of `<...>` markup tokens, by simple bracket scanning (no
/// parse — mutation must work on malformed input too).
fn tag_spans(input: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut open: Option<usize> = None;
    for (i, &b) in input.iter().enumerate() {
        match b {
            b'<' => open = Some(i),
            b'>' => {
                if let Some(start) = open.take() {
                    spans.push((start, i + 1));
                }
            }
            _ => {}
        }
    }
    spans
}

/// Structure-aware: exchange two markup tokens (start tags, end tags,
/// whole self-closing elements), e.g. reordering `</a></b>` close order.
fn swap_tags(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    let spans = tag_spans(input);
    if spans.len() < 2 {
        return bitflip(input, rng);
    }
    let a = rng.gen_range(0..spans.len());
    let b = rng.gen_range(0..spans.len());
    let (first, second) = if spans[a].0 <= spans[b].0 { (spans[a], spans[b]) } else { (spans[b], spans[a]) };
    if first == second || first.1 > second.0 {
        return bitflip(input, rng);
    }
    let mut out = Vec::with_capacity(input.len());
    out.extend_from_slice(&input[..first.0]);
    out.extend_from_slice(&input[second.0..second.1]);
    out.extend_from_slice(&input[first.1..second.0]);
    out.extend_from_slice(&input[first.0..first.1]);
    out.extend_from_slice(&input[second.1..]);
    *input = out;
}

/// Structure-aware: duplicate or delete one markup token, unbalancing
/// the element structure in a way byte mutators rarely produce cleanly.
fn duplicate_or_drop_tag(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    let spans = tag_spans(input);
    let Some(&(start, end)) = rng.choose(&spans) else {
        return bitflip(input, rng);
    };
    if rng.gen_range(0..2u32) == 0 {
        let chunk: Vec<u8> = input[start..end].to_vec();
        for (i, &b) in chunk.iter().enumerate() {
            input.insert(end + i, b);
        }
    } else {
        input.drain(start..end);
    }
}

/// Structure-aware: desynchronise the `Content-Length` header from the
/// actual body length — the classic HTTP framing attack surface.
fn corrupt_content_length(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    let needle = b"Content-Length:";
    let Some(at) = input
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
    else {
        return insert_token(input, rng, &[b"Content-Length: 99\r\n"]);
    };
    let value_start = at + needle.len();
    let value_end = input[value_start..]
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .map(|i| value_start + i)
        .unwrap_or(input.len());
    let replacement: Vec<u8> = match rng.gen_range(0..3u32) {
        0 => {
            let Some(token) = rng.choose(INTERESTING) else { return };
            let mut v = b" ".to_vec();
            v.extend_from_slice(token);
            v
        }
        1 => format!(" {}", rng.gen_range(0..10_000u32)).into_bytes(),
        _ => b" ".to_vec(),
    };
    input.splice(value_start..value_end, replacement);
}

/// Structure-aware: reorder the `wsgb:Msg` segments of a batch document
/// (segment boundaries found textually, so near-batches mutate too).
fn shuffle_batch_segments(input: &mut Vec<u8>, rng: &mut SplitMix64) {
    let sep = b"</wsgb:Msg>";
    let mut cuts = Vec::new();
    let mut from = 0;
    while let Some(i) = input[from..]
        .windows(sep.len())
        .position(|w| w == sep)
        .map(|i| from + i)
    {
        cuts.push(i + sep.len());
        from = i + sep.len();
    }
    if cuts.len() < 2 {
        return overwrite_token(input, rng, DICTIONARY);
    }
    // Segments: [0, cuts[0]), [cuts[0], cuts[1]), …, tail stays in place.
    let mut segments: Vec<Vec<u8>> = Vec::with_capacity(cuts.len());
    let mut start = 0;
    for &cut in &cuts {
        segments.push(input[start..cut].to_vec());
        start = cut;
    }
    let tail: Vec<u8> = input[start..].to_vec();
    rng.shuffle(&mut segments);
    input.clear();
    for segment in &segments {
        input.extend_from_slice(segment);
    }
    input.extend_from_slice(&tail);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn mutation_is_deterministic() {
        let corpus = vec![b"<a><b/></a>".to_vec(), b"POST / HTTP/1.1\r\n\r\n".to_vec()];
        let mut first = corpus[0].clone();
        let mut second = corpus[0].clone();
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..200 {
            mutate(&mut first, &corpus, &mut r1, 1 << 12);
            mutate(&mut second, &corpus, &mut r2, 1 << 12);
        }
        assert_eq!(first, second);
    }

    #[test]
    fn mutators_survive_degenerate_inputs() {
        let corpus = vec![Vec::new(), b"x".to_vec()];
        let mut r = rng();
        for len in [0usize, 1, 2, 3] {
            let mut input = vec![b'<'; len];
            for _ in 0..500 {
                mutate(&mut input, &corpus, &mut r, 64);
                assert!(input.len() <= 64);
            }
        }
    }

    #[test]
    fn tag_spans_finds_markup() {
        assert_eq!(tag_spans(b"<a><b/>"), vec![(0, 3), (3, 7)]);
        assert!(tag_spans(b"no markup").is_empty());
        // Unterminated tail tag is simply not a span.
        assert_eq!(tag_spans(b"<a><oops"), vec![(0, 3)]);
    }

    #[test]
    fn content_length_corruption_targets_the_value() {
        let mut input = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let mut r = rng();
        corrupt_content_length(&mut input, &mut r);
        let text = String::from_utf8_lossy(&input);
        assert!(text.starts_with("POST / HTTP/1.1\r\nContent-Length:"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello"), "{text}");
    }

    #[test]
    fn batch_shuffle_preserves_segment_multiset() {
        let wire = b"<B><wsgb:Msg ops=\"1\">1</wsgb:Msg><wsgb:Msg ops=\"0:1\"></wsgb:Msg><wsgb:Msg ops=\"1\">3</wsgb:Msg></B>";
        let mut r = SplitMix64::new(9);
        for _ in 0..16 {
            let mut input = wire.to_vec();
            shuffle_batch_segments(&mut input, &mut r);
            assert_eq!(input.len(), wire.len());
            let text = String::from_utf8(input).unwrap();
            assert_eq!(text.matches("</wsgb:Msg>").count(), 3);
            assert!(text.ends_with("</B>"));
        }
    }
}
