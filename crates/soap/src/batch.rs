//! Wire-level envelope coalescing: the `urn:ws-gossip:batch` wrapper.
//!
//! The live transport amortises per-POST SOAP/HTTP overhead by draining
//! everything queued for one peer into a single document:
//!
//! ```xml
//! <wsgb:Batch xmlns:wsgb="urn:ws-gossip:batch">
//!   <wsgb:Msg>…env:Envelope…</wsgb:Msg>
//!   <wsgb:Msg ops="0:896,1,897:98,45,1040:39,281,1360:26"><![CDATA[…]]></wsgb:Msg>
//!   <wsgb:Msg target="/membership">…env:Envelope…</wsgb:Msg>
//! </wsgb:Batch>
//! ```
//!
//! Each `Msg` carries exactly one inner envelope, in FIFO queue order. An
//! optional `target` attribute routes a piggybacked message to a different
//! service route than the POST's own target (heartbeats riding a gossip
//! batch); absent, the message dispatches to the POST target itself. The
//! document has no XML declaration: UTF-8 is XML's default.
//!
//! A `Msg` holds its envelope whole, as an element, or **coded**: an
//! `ops` attribute and character data only. The *text* of a `Msg` is what
//! stands between its tags (for a coded one, what it expands to). `ops` is
//! a comma-separated list of runs that, in order, make the text up:
//! `from:len` copies `len` bytes at byte offset `from` of the text before
//! this one, and a lone `len` takes the next `len` bytes of the `Msg`'s
//! character data, which the literal runs use up exactly. Every offset and
//! length falls on a character boundary.
//!
//! The writer copies **envelope markup** only: what stands before the
//! content of the message's `Body`, and its closing tail from the `Body`
//! end tag on, out of the same parts of the text before. Consecutive
//! messages to one peer repeat their `Action`, `From`, coordination
//! context and gossip header, and the element tags around every value that
//! differs — sequence number, round, `MessageID` — so a connection says
//! them once. Whatever a payload shares with the one before it travels
//! again. A message that copies at least 64 bytes is coded, however long
//! it is: a 16 KiB notification's ~1 100 bytes of markup are left out as a
//! 256-byte one's are.
//!
//! The text before a `Msg` is that of the previous message **on the same
//! keep-alive connection**: the `Msg` before it in this document or, for
//! the first, the last message of the previous request on the connection
//! (a bare envelope's is its body past the prologue). Each end keeps that
//! text between requests — the *reference* [`write_batch_parts`] and
//! [`parse_wire_after`] take and advance; on a fresh connection it is
//! empty, and a copy on the first `Msg` there is refused. [`write_batch`]
//! and [`parse_wire`] are the fresh-connection forms.
//!
//! Building a batch never re-parses: the sender already holds each inner
//! envelope as serialised XML, so [`write_batch`] splices the strings
//! (declarations stripped) into a caller-owned scratch buffer. Unwrapping
//! gives every message back as the standalone document it was: a coded
//! one is rebuilt and then checked exactly as a bare POST is. The
//! transport's sender posts every message this way, one or many to a
//! batch (see `wsg_http::runtime`).

use std::ops::Range;

use wsg_net::cov;
use wsg_xml::escape::{cdata_end, escape_attr_into, find_byte};
use wsg_xml::{Element, RawEvent, XmlReader};

use crate::envelope::{read_root, walk};
use crate::gossip::{self, GossipId};
use crate::{Envelope, SoapError, SOAP_ENV_NS};

/// Namespace of the batch wrapper vocabulary.
const BATCH_NS: &str = "urn:ws-gossip:batch";

/// What every unwrapped message starts with, to stand alone.
const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Fewest bytes a message must copy from the one before it to travel
/// coded. Coding costs ` ops=""`, `<![CDATA[` and `]]>` (19 bytes) and
/// ~8 bytes a run. Two envelopes of this stack share ~150 bytes in their
/// root start tag alone, two forwards to one peer ~1 100: the form is for
/// messages that share real header content, and out of the way of
/// strangers. It is the only threshold: a message is coded whatever its
/// length, so a 16 KiB notification's head and tail are copied as a
/// 256-byte one's are (EXPERIMENTS.md §E12, "every message is coded").
const MIN_SHARED: usize = 64;

/// How many tags ahead in the text before the writer looks for the tag a
/// message goes on with after a value they do not share: enough to step
/// over a header block one of the two lacks, and a bound on the work per
/// tag...
///
/// Forwards of one stack share their header blocks, so the tag sought is
/// the first one looked at: over 200 forwards to one peer (four origins,
/// rounds 1–3, 256 B and 16 KiB payloads) every setting from 1 tag and
/// 128 bytes to no bound at all writes the same bytes (97 097 and
/// 3 323 294), and the writer's time per message moved inside its run to
/// run spread (EXPERIMENTS.md §E12, "a byte scan runs a block at a time").
/// The bounds are for the message that lacks a block — see
/// `resyncing_steps_over_a_header_block_one_side_lacks` — and for markup
/// made to cost (`markup_full_of_lone_angle_brackets_is_matched_in_linear_time`).
const LOOKAHEAD: usize = 16;

/// ...and how many bytes: the coordination context, the longest block
/// two messages of this stack may not share, is ~560.
const LOOKAHEAD_BYTES: usize = 1024;

/// Most bytes the messages of one batch may unwrap to, whole and coded
/// together: the HTTP body limit (`wsg_http::parser::MAX_BODY_BYTES`,
/// 8 MiB), so a batch can ask the receiver for no more memory than a POST
/// of whole messages could. Without it a 250 KB message followed by ten
/// thousand copies of it would expand to 2.5 GB.
pub const MAX_UNWRAPPED_BYTES: usize = 8 * 1024 * 1024;

/// One message to be wrapped: already-serialised envelope XML plus the
/// route it should dispatch to (`None` = the POST's own target).
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// Dispatch route override, e.g. `"/membership"` for a piggybacked
    /// heartbeat riding a gossip batch.
    pub target: Option<&'a str>,
    /// The serialised inner envelope (with or without XML declaration).
    pub xml: &'a str,
}

/// One message unwrapped from a batch on the receiving side: framed and
/// checked for the envelope shape, not decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchedEnvelope {
    /// Dispatch route override (the `target` attribute), if any.
    pub target: Option<String>,
    /// The inner envelope as a standalone document (declaration + compact
    /// XML), so downstream services see the same shape as a bare POST.
    pub raw: String,
    /// The message's gossip identity, read while its shape was checked.
    pub gossip: Option<GossipId<'static>>,
}

impl BatchedEnvelope {
    /// Decode the message.
    ///
    /// # Errors
    ///
    /// What [`Envelope::parse`] finds wrong past the shape the unwrapper
    /// checked — an addressing header or fault it cannot decode.
    pub fn envelope(&self) -> Result<Envelope, SoapError> {
        Envelope::parse(&self.raw)
    }
}

/// Serialise `items` into `out` (cleared first, allocation reused) as the
/// first batch document on a fresh connection: order is preserved,
/// declarations are stripped, and a message whose markup repeats the one
/// before it is coded. Returns the bytes coding left out.
pub fn write_batch(items: &[BatchItem<'_>], out: &mut String) -> usize {
    write_coded(items.iter().map(|item| (item.target, [item.xml, "", ""])), "", out).0
}

/// [`write_batch`] mid-connection, over messages held in pieces —
/// `(target, parts)`, the inner XML being the parts in order — so a sender
/// whose queued copies of one notification share most of their bytes can
/// splice them without joining each first. The first message may be coded
/// against `reference`, the text of the last message said on the
/// connection (empty on a fresh one), which then becomes the text of the
/// last message written here.
pub fn write_batch_parts<'a>(
    items: impl Iterator<Item = (Option<&'a str>, [&'a str; 3])> + Clone,
    reference: &mut String,
    out: &mut String,
) -> usize {
    let (left_out, last) = write_coded(items, reference, out);
    if let Some(last) = last {
        reference.clear();
        last.iter().for_each(|part| reference.push_str(part));
    }
    left_out
}

/// The writer behind both: the batch of `items`, the first coded against
/// `reference`, into `out`; the bytes left out and the last message's text.
///
/// A coded message's literal runs are copied piece by piece into its CDATA
/// section, and every `]]>` in them — a payload's CDATA section ending,
/// say — is split across two sections as it is copied (see
/// [`push_in_section`]): the receiver joins the runs, so whatever the
/// message holds, it is still coded.
fn write_coded<'a>(
    items: impl Iterator<Item = (Option<&'a str>, [&'a str; 3])> + Clone,
    reference: &str,
    out: &mut String,
) -> (usize, Option<[&'a str; 3]>) {
    out.clear();
    let body: usize =
        items.clone().map(|(_, parts)| parts.iter().map(|p| p.len()).sum::<usize>() + 24).sum();
    out.reserve(64 + body);
    out.push_str("<wsgb:Batch xmlns:wsgb=\"");
    out.push_str(BATCH_NS);
    out.push_str("\">");
    // The text before the next message, and where its markup lies, once
    // worked out.
    let mut before = Text::new([reference, "", ""]);
    let mut before_markup = None;
    let mut last = None;
    let mut runs = Vec::new();
    let mut left_out = 0;
    for (target, parts) in items {
        let parts = without_declaration(parts);
        let text = Text::new(parts);
        out.push_str("<wsgb:Msg");
        if let Some(target) = target {
            out.push_str(" target=\"");
            escape_attr_into(out, target);
            out.push('"');
        }
        let from = before_markup.get_or_insert_with(|| before.markup()).clone();
        // What the matcher finds of the message's own markup, if it runs;
        // worked out again when the next message needs it otherwise.
        let (copied, markup) = match from {
            Some(from) if may_copy_enough(&from, before.len()) => {
                let (copied, markup) = match_markup(&text, &before, from, &mut runs);
                (copied, Some(markup))
            }
            _ => (0, None),
        };
        if copied >= MIN_SHARED {
            cov!();
            write_runs(out, &text, &runs);
            left_out += copied;
        } else {
            out.push('>');
            parts.iter().for_each(|part| out.push_str(part));
            out.push_str("</wsgb:Msg>");
        }
        (before, before_markup, last) = (text, markup, Some(parts));
    }
    out.push_str("</wsgb:Batch>");
    (left_out, last)
}

/// Whether a message may copy enough out of a text of `before_len` bytes
/// whose markup ends and starts again at `from` to be coded: copies come
/// from that markup only, so one under [`MIN_SHARED`] bytes is not matched
/// against.
fn may_copy_enough(from: &Range<usize>, before_len: usize) -> bool {
    from.start + (before_len - from.end) >= MIN_SHARED
}

/// The `ops` attribute, the literal runs as one CDATA section and the end
/// tag of a message coded as `runs` out of the text before it.
fn write_runs(out: &mut String, text: &Text<'_>, runs: &[Copied]) {
    out.push_str(" ops=\"");
    let mut said = 0;
    for run in runs {
        if run.at > said {
            push_number(out, run.at - said);
            out.push(',');
        }
        push_number(out, run.from);
        out.push(':');
        push_number(out, run.len);
        out.push(',');
        said = run.at + run.len;
    }
    if said < text.len() {
        push_number(out, text.len() - said);
    } else {
        out.pop(); // the last run's `,`
    }
    out.push_str("\"><![CDATA[");
    let mut said = 0;
    for run in runs {
        text.push_in_section(out, said..run.at);
        said = run.at + run.len;
    }
    text.push_in_section(out, said..text.len());
    out.push_str("]]></wsgb:Msg>");
}

/// Append `n` in decimal — a quarter of what `write!` costs, on a path
/// that writes a dozen numbers a message.
fn push_number(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[at..].iter().for_each(|&digit| out.push(char::from(digit)));
}

/// One run a coded message copies: `len` bytes at `from` in the text
/// before it, standing at `at` in its own.
struct Copied {
    at: usize,
    from: usize,
    len: usize,
}

impl Copied {
    /// Whether the run is longer than what it costs on the wire: its own
    /// `from:len,` and the `len,` of the literal run it splits in two.
    fn pays(&self) -> bool {
        let digits = |n: usize| n.checked_ilog10().map_or(1, |log| log as usize + 1);
        self.len > digits(self.from) + digits(self.len) + 2 + 4
    }
}

/// The runs of `text`'s markup that `before` has in its markup — before
/// and after its body's content at `from` — into `runs`: how many bytes
/// they copy, and where `text`'s own markup ends and starts again (`None`
/// for a text without a `Body` start tag, which is not coded).
///
/// The runs are the shared start — compared a word at a time up to
/// `before`'s body, cut back to a character — then whatever resyncing tag
/// by tag finds after it (see [`resync`]); a run is kept only if it
/// [pays](Copied::pays). Where the message's head ends is found on the
/// way: where a copy reaches the end of `before`'s — the two `Body` start
/// tags are then the same bytes — or at a `Body` start tag the walk steps
/// over. So the ~900 bytes two forwards share are never scanned tag by
/// tag.
fn match_markup(
    text: &Text<'_>,
    before: &Text<'_>,
    from: Range<usize>,
    runs: &mut Vec<Copied>,
) -> (usize, Option<Range<usize>>) {
    runs.clear();
    let mut shared = text.common(0, before, 0, from.start.min(text.len()));
    while !text.is_char_boundary(shared) {
        shared -= 1;
    }
    runs.push(Copied { at: 0, from: 0, len: shared });
    let head = if shared == from.start {
        Some(shared)
    } else {
        // The shared start may end inside the body's start tag.
        match text.rfind(0..shared, b'<').filter(|&open| text.starts_body(open)) {
            Some(open) => text.find(open..text.len(), b'>').map(|close| close + 1),
            None => resync(text, shared..text.len(), before, shared..from.start, runs),
        }
    };
    let Some(head) = head else { return (0, None) };
    let tail = text.body_end(head);
    resync(text, tail..text.len(), before, from.end..before.len(), runs);
    runs.retain(Copied::pays);
    (runs.iter().map(|run| run.len).sum(), Some(head..tail))
}

/// Walk `text`'s tags in `at`, finding each in `before`'s in `from` — from
/// where the last run found ended, at most [`LOOKAHEAD`] tags and
/// [`LOOKAHEAD_BYTES`] on — and take the longest run of whole tags that
/// follows from it. A tag found nowhere is left for the literal runs.
/// Returns where the walk stopped, if it stopped early: the end of a copy
/// that reached the end of `from`, or of a `Body` start tag it stepped
/// over.
///
/// A tag is a `<` and the first `>` after it with no `<` between them, so
/// that a `<` in a comment or a CDATA section costs one step, not a scan to
/// the next `>`: every byte of `text` is looked at a bounded number of
/// times, however its markup is spelled.
fn resync(
    text: &Text<'_>,
    mut at: Range<usize>,
    before: &Text<'_>,
    mut from: Range<usize>,
    runs: &mut Vec<Copied>,
) -> Option<usize> {
    while let Some(open) = text.find(at.clone(), b'<') {
        let close = text.position(open + 1..at.end, |b| b == b'<' || b == b'>')?;
        if text.byte(close) == Some(b'<') {
            at.start = close;
            continue;
        }
        let window = from.start..from.end.min(from.start + LOOKAHEAD_BYTES);
        let mut next = window.start;
        let found = (0..LOOKAHEAD).find_map(|_| {
            let candidate = before.find(next..window.end, b'<')?;
            next = candidate + 1;
            let same = text.common(open, before, candidate, (at.end - open).min(from.end - candidate));
            (same > close - open).then_some((candidate, same))
        });
        match found {
            Some((candidate, same)) => {
                let end = text.rfind(open..open + same, b'>').unwrap_or(close) + 1;
                runs.push(Copied { at: open, from: candidate, len: end - open });
                (at.start, from.start) = (end, candidate + end - open);
                if from.start == from.end {
                    return Some(end);
                }
            }
            None if text.starts_body(open) => return Some(close + 1),
            None => at.start = open + 1,
        }
    }
    None
}

/// A text held in up to three pieces, read as one string and addressed by
/// byte offsets into the whole: a message as the sender's queue holds it,
/// or a coded message's literal runs as the reader meets them.
struct Text<'t> {
    parts: [&'t str; 3],
    /// Where each part starts, and the total length last.
    starts: [usize; 4],
}

impl<'t> Text<'t> {
    fn new(parts: [&'t str; 3]) -> Self {
        let mut starts = [0; 4];
        for (k, part) in parts.iter().enumerate() {
            starts[k + 1] = starts[k] + part.len();
        }
        Text { parts, starts }
    }

    fn len(&self) -> usize {
        self.starts[3]
    }

    /// The bytes in `range`, part by part: which part, and where in it.
    fn spans(&self, range: Range<usize>) -> impl DoubleEndedIterator<Item = (usize, Range<usize>)> + '_ {
        (0..3).filter_map(move |k| {
            let (start, end) = (range.start.max(self.starts[k]), range.end.min(self.starts[k + 1]));
            (start < end).then(|| (k, start - self.starts[k]..end - self.starts[k]))
        })
    }

    /// The bytes in `range` as slices, each with its offset in the text.
    fn segments(&self, range: Range<usize>) -> impl DoubleEndedIterator<Item = (usize, &'t [u8])> + '_ {
        self.spans(range).map(|(k, span)| (self.starts[k] + span.start, &self.parts[k].as_bytes()[span]))
    }

    /// Where the first `byte` in `range` stands.
    fn find(&self, range: Range<usize>, byte: u8) -> Option<usize> {
        self.segments(range).find_map(|(at, bytes)| Some(at + find_byte(bytes, 0, byte)?))
    }

    /// Where the first byte in `range` that `is` stands.
    fn position(&self, range: Range<usize>, is: impl Fn(u8) -> bool) -> Option<usize> {
        self.segments(range).find_map(|(at, bytes)| Some(at + bytes.iter().position(|&b| is(b))?))
    }

    /// Where the last `byte` in `range` stands.
    fn rfind(&self, range: Range<usize>, byte: u8) -> Option<usize> {
        self.rposition(range, |b| b == byte)
    }

    /// How many bytes, at most `limit`, `self` from `at` and `other` from
    /// `other_at` have in common.
    fn common(&self, at: usize, other: &Text<'_>, other_at: usize, limit: usize) -> usize {
        let mut same = 0;
        while same < limit {
            let (Some((_, x)), Some((_, y))) = (
                self.segments(at + same..at + limit).next(),
                other.segments(other_at + same..other_at + limit).next(),
            ) else {
                break;
            };
            let span = x.len().min(y.len());
            let (x, y) = (&x[..span], &y[..span]);
            // Whole 64-byte blocks first (slice equality is a memcmp),
            // single bytes to finish.
            let mut run: usize =
                x.chunks(64).zip(y.chunks(64)).take_while(|(p, q)| p == q).map(|(p, _)| p.len()).sum();
            run += x[run..].iter().zip(&y[run..]).take_while(|(p, q)| p == q).count();
            same += run;
            if run < span {
                break;
            }
        }
        same
    }

    /// Whether the bytes at `at` are `expected`.
    fn holds(&self, at: usize, expected: &str) -> bool {
        let mut rest = expected.as_bytes();
        for (_, bytes) in self.segments(at..at + expected.len()) {
            match rest.strip_prefix(bytes) {
                Some(after) => rest = after,
                None => return false,
            }
        }
        rest.is_empty()
    }

    /// A part is a `str`: no character straddles two of them.
    fn is_char_boundary(&self, at: usize) -> bool {
        let k = (0..3).find(|&k| at < self.starts[k + 1]).unwrap_or(2);
        self.parts[k].is_char_boundary(at - self.starts[k])
    }

    /// Where the message's envelope markup stops and starts again: past
    /// its first `Body` start tag (of any prefix), and at its last `Body`
    /// end tag after that — or where it stopped, when there is none (an
    /// empty `<env:Body/>`). `None` for a text without a `Body` start tag.
    fn markup(&self) -> Option<Range<usize>> {
        self.body_start(0).map(|head| head..self.body_end(head))
    }

    /// Past the first `Body` start tag from `at` on.
    fn body_start(&self, mut at: usize) -> Option<usize> {
        loop {
            let body = self.find(at..self.len(), b'B')?;
            if let Some((open, false)) = self.body_tag(body) {
                return Some(self.find(open..self.len(), b'>')? + 1);
            }
            at = body + 1;
        }
    }

    /// Where the last `Body` end tag after `head` starts; `head` without
    /// one.
    fn body_end(&self, head: usize) -> usize {
        let mut to = self.len();
        while let Some(body) = self.rfind(head..to, b'B') {
            if let Some((open, true)) = self.body_tag(body) {
                return open;
            }
            to = body;
        }
        head
    }

    /// Whether the tag at `open` starts an element named `Body`.
    fn starts_body(&self, open: usize) -> bool {
        // A name never holds a `<`: stopping there keeps a run of `<`s in
        // a comment from being read once per `<`.
        let ends = |b: u8| matches!(b, b'>' | b'/' | b'<' | b' ' | b'\t' | b'\r' | b'\n');
        let end = self.position(open + 1..self.len(), ends);
        end.is_some_and(|end| end >= open + 5 && self.body_tag(end - 4) == Some((open, false)))
    }

    /// Whether the `B` at `at` begins the name `Body` of a start or an end
    /// tag, with or without a prefix: where that tag's `<` stands, and
    /// whether it ends an element. Found from a `B` rather than from every
    /// `<`, a `Body` costs one search a word at a time; stepping back over
    /// a prefix stops at its `:`, so no byte is stepped over twice.
    fn body_tag(&self, at: usize) -> Option<(usize, bool)> {
        let delimiter = |b: u8| matches!(b, b'>' | b'/' | b' ' | b'\t' | b'\r' | b'\n');
        if !self.holds(at, "Body") || !self.byte(at + 4).is_some_and(delimiter) {
            return None;
        }
        let mut open = at.checked_sub(1)?;
        if self.byte(open) == Some(b':') {
            let prefix = |b: u8| !(delimiter(b) || matches!(b, b'<' | b':' | b'=' | b'"' | b'\''));
            open = self.rposition(0..open, |b| !prefix(b))?;
        }
        match (self.byte(open), open.checked_sub(1).and_then(|lt| self.byte(lt))) {
            (Some(b'<'), _) => Some((open, false)),
            (Some(b'/'), Some(b'<')) => Some((open - 1, true)),
            _ => None,
        }
    }

    /// The byte at `at`.
    fn byte(&self, at: usize) -> Option<u8> {
        self.segments(at..at + 1).next().map(|(_, bytes)| bytes[0])
    }

    /// Where the last byte in `range` that `is` stands.
    fn rposition(&self, range: Range<usize>, is: impl Fn(u8) -> bool) -> Option<usize> {
        self.segments(range).rev().find_map(|(at, bytes)| Some(at + bytes.iter().rposition(|&b| is(b))?))
    }

    /// Append the text in `range` — which starts and ends on characters —
    /// to the CDATA section open at the end of `out`.
    fn push_in_section(&self, out: &mut String, range: Range<usize>) {
        for (k, span) in self.spans(range) {
            push_in_section(out, &self.parts[k][span]);
        }
    }
}

/// Append `text` to the CDATA section open at the end of `out`, ending the
/// section before the `>` of every `]]>` and opening another for the `>`:
/// `]]>` is written `]]]]><![CDATA[>`. The section's opening `<![CDATA[`
/// ends in `[`, so the `]`s `out` ends with are the text's, and a `]]>`
/// that straddles two pieces is found from them.
fn push_in_section(out: &mut String, mut text: &str) {
    while !text.is_empty() {
        let close = if out.ends_with("]]") && text.starts_with('>') {
            0
        } else if out.ends_with(']') && text.starts_with("]>") {
            1
        } else if let Some(at) = cdata_end(text) {
            at + 2
        } else {
            out.push_str(text);
            return;
        };
        cov!();
        out.push_str(&text[..close]);
        out.push_str("]]><![CDATA[");
        text = &text[close..];
    }
}

/// `parts` without a leading `<?xml …?>` declaration — all of it in the
/// first part that has any bytes (see [`prologue_len`]) — and the
/// whitespace around it, so the envelope can stand inside the batch
/// document.
fn without_declaration(mut parts: [&str; 3]) -> [&str; 3] {
    let mut declaration = true;
    for part in &mut parts {
        if declaration && !part.is_empty() {
            *part = &part[prologue_len(part)..];
            declaration = false;
        }
        *part = part.trim_start();
        if !part.is_empty() {
            break;
        }
    }
    parts
}

/// Bytes of `xml` up to the end of a leading `<?xml …?>` declaration
/// (leading whitespace up to the first markup when there is none) —
/// where [`write_batch_parts`] starts copying. A message handed to it in
/// pieces must have all of this in its first non-empty piece.
pub fn prologue_len(xml: &str) -> usize {
    let rest = xml.trim_start();
    let leading = xml.len() - rest.len();
    match rest.strip_prefix("<?xml").and_then(|after| after.find("?>")) {
        Some(end) => leading + "<?xml".len() + end + "?>".len(),
        None => leading,
    }
}

/// The text a document has as a whole `Msg`: `xml` past its prologue and
/// the whitespace after it. What a bare POST of `xml` leaves as its
/// connection's reference.
pub fn text_of(xml: &str) -> &str {
    xml[prologue_len(xml)..].trim_start()
}

/// A wire document classified by [`parse_wire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unbundled {
    /// The document was a `wsgb:Batch`: its messages, in wire order.
    Batch(Vec<BatchedEnvelope>),
    /// Not a batch: one well-formed document, with its gossip identity or
    /// what keeps it from having the shape of a SOAP envelope.
    Single(Result<Option<GossipId<'static>>, SoapError>),
}

/// Check a wire document — the first request on a fresh connection —
/// unwrapping it when it is a batch: [`parse_wire_after`] an empty
/// reference, which it leaves alone.
///
/// # Errors
///
/// As [`parse_wire_after`].
pub fn parse_wire(wire: &str) -> Result<Unbundled, SoapError> {
    unwrap_wire(wire, "").map(|(unbundled, _)| unbundled)
}

/// Check a wire document that follows `reference` on its connection — the
/// text of the last message said there, empty on a fresh one — unwrapping
/// it when it is a batch. On success `reference` becomes the text of the
/// document's last message (of a bare envelope, [`text_of`] it).
///
/// This is the receive hot path, and it builds no tree: the document is
/// streamed once with [`XmlReader::skip_element`] doing the well-formedness
/// work, every envelope is checked for its shape only (root is
/// `env:Envelope`, has an `env:Body`), and each batched message's `raw`
/// form is the sender's exact bytes — sliced back out of `wire`, or for a
/// coded message put together from the text before it and its own and
/// then checked as a document of its own — in one exact-capacity
/// allocation per message.
///
/// # Errors
///
/// [`SoapError::Xml`] for malformed XML (including trailing content after
/// the root, matching [`Element::parse`]), [`SoapError::Batch`] for a
/// malformed wrapper — an `ops` run that is no number, copies past or
/// into a character of the text before it, takes past or into a character
/// of its own text, or literal runs that leave some of it over; an `ops`
/// beside an element; messages unwrapping to more than
/// [`MAX_UNWRAPPED_BYTES`] — and the envelope-shape errors for a batched
/// message that is not an envelope. Never panics, whatever the input looks
/// like.
pub fn parse_wire_after(wire: &str, reference: &mut String) -> Result<Unbundled, SoapError> {
    let (unbundled, last) = unwrap_wire(wire, reference)?;
    let text = match (&unbundled, last) {
        (_, Some(text)) => &wire[text],
        (Unbundled::Batch(messages), None) => {
            messages.last().map_or("", |coded| &coded.raw[XML_DECL.len()..])
        }
        (Unbundled::Single(_), None) => text_of(wire),
    };
    reference.clear();
    reference.push_str(text);
    Ok(unbundled)
}

/// The reader behind both: the document unwrapped against `reference`, and
/// where in `wire` its last message's text lies when it was sent whole
/// (`None` for a coded one, whose text is its `raw` past the declaration,
/// and for a bare envelope).
fn unwrap_wire(
    wire: &str,
    reference: &str,
) -> Result<(Unbundled, Option<Range<usize>>), SoapError> {
    let mut reader = XmlReader::new(wire);
    read_root(&mut reader)?;
    if reader.element_name() != (Some(BATCH_NS), "Batch") {
        cov!();
        let shape = envelope_shape(&mut reader)?;
        reader.finish()?;
        return Ok((Unbundled::Single(shape), None));
    }

    let mut out: Vec<BatchedEnvelope> = Vec::new();
    // Where in `wire` the text of the message before lies, when it was
    // sent whole; a coded one's text is its `raw` past the declaration.
    let mut sent: Option<Range<usize>> = None;
    let mut room = MAX_UNWRAPPED_BYTES;
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                if reader.element_name() != (Some(BATCH_NS), "Msg") {
                    cov!();
                    let name = reader.element_qname();
                    return Err(SoapError::Batch(format!("batch carries a {name}")));
                }
                let target = reader.attribute(None, "target").map(|target| target.into_owned());
                let (raw, gossip) = match reader.attribute(None, "ops") {
                    None => {
                        cov!();
                        let (raw, gossip, text) = read_msg(&mut reader, wire)?;
                        room = spend(room, text.len())?;
                        sent = Some(text);
                        (raw, gossip)
                    }
                    Some(ops) => {
                        cov!();
                        let before = match (sent.take(), out.last()) {
                            (Some(text), _) => &wire[text],
                            (None, Some(coded)) => &coded.raw[XML_DECL.len()..],
                            // Coded against the request before (empty on a
                            // fresh connection: nothing to copy from).
                            (None, None) => {
                                cov!();
                                reference
                            }
                        };
                        read_coded(&mut reader, &ops, before, &mut room)?
                    }
                };
                out.push(BatchedEnvelope { target, raw, gossip });
            }
            // `</wsgb:Batch>` — the reader itself balances tags, so an
            // `End` at this depth can only be the wrapper's.
            RawEvent::End => break,
            // Text and comments between messages are ignored, exactly
            // as the tree walk in `unbundle` ignores non-element nodes.
            _ => {}
        }
    }
    reader.finish()?;
    if out.is_empty() {
        cov!();
        return Err(SoapError::Batch("batch carries no messages".into()));
    }
    Ok((Unbundled::Batch(out), sent))
}

/// `room` less the `bytes` one more message, or run of one, unwraps to.
fn spend(room: usize, bytes: usize) -> Result<usize, SoapError> {
    room.checked_sub(bytes).ok_or_else(|| {
        cov!();
        SoapError::Batch(format!("batch unwraps to more than {MAX_UNWRAPPED_BYTES} bytes"))
    })
}

/// Go through the element just started — reading its gossip identity off
/// the header, skipping everything else — and report that identity, or
/// what keeps the element from having the shape of an envelope.
fn envelope_shape(
    reader: &mut XmlReader<'_>,
) -> Result<Result<Option<GossipId<'static>>, SoapError>, SoapError> {
    let mut id = None;
    let shape = walk(
        reader,
        |reader| {
            id = gossip::read_header(reader)?.map(GossipId::into_owned);
            Ok(())
        },
        XmlReader::skip_element,
    )?;
    Ok(shape.is_envelope().and_then(|()| shape.has_body()).map(|()| id))
}

/// Read one whole `wsgb:Msg`'s content — exactly one inner element, shaped
/// like an envelope — and return its standalone `raw` form, its gossip
/// identity, and where in `wire` the message's text (all that stands
/// between its tags) lies.
fn read_msg(
    reader: &mut XmlReader<'_>,
    wire: &str,
) -> Result<(String, Option<GossipId<'static>>, Range<usize>), SoapError> {
    let mut inner: Option<(String, Option<GossipId<'static>>)> = None;
    // Bindings declared at or below this scope depth (the batch wrapper's
    // xmlns:wsgb, or anything else on the outer elements) are invisible to
    // a message slice replayed standalone.
    let outer_scope = reader.scope_depth();
    let text_from = reader.position();
    loop {
        // After the previous event is consumed the cursor sits exactly
        // on the next construct, so for a tag this is the byte offset of
        // its `<`.
        let start = reader.position();
        reader.reset_binding_watermark();
        match reader.next_raw()? {
            RawEvent::Start => {
                if inner.is_some() {
                    cov!();
                    return Err(SoapError::Batch(
                        "Msg wraps more than one element (want exactly 1)".into(),
                    ));
                }
                cov!();
                let gossip = envelope_shape(reader)??;
                let slice = &wire[start..reader.position()];
                let mut raw = String::with_capacity(XML_DECL.len() + slice.len());
                raw.push_str(XML_DECL);
                if reader.binding_watermark() > outer_scope {
                    // The envelope resolved every prefix from its own
                    // declarations: the sender's exact bytes are a
                    // standalone document.
                    cov!();
                    raw.push_str(slice);
                } else {
                    // The envelope leaned on a binding inherited from
                    // the batch wrapper (e.g. wsgb:), which the slice
                    // would lose — build this one message's tree and let
                    // the writer re-declare everything it uses.
                    // (Regression:
                    // fuzz/corpus/regressions/batch/24ffc09407f20b43.)
                    cov!();
                    let tree = Element::parse_in_scope(slice, &reader.in_scope_bindings())?;
                    raw.push_str(&tree.to_xml_string());
                }
                inner = Some((raw, gossip));
            }
            // `</wsgb:Msg>`, with at least the element before it.
            RawEvent::End => {
                let (raw, gossip) = inner.ok_or_else(|| {
                    cov!();
                    SoapError::Batch("Msg wraps 0 elements (want exactly 1)".into())
                })?;
                return Ok((raw, gossip, text_from..start));
            }
            _ => {} // text/comments alongside the envelope are ignored
        }
    }
}

/// Read one coded `wsgb:Msg`'s content — character data only — and return
/// its standalone `raw` form, put together by [`splice`] from `before` and
/// that character data and checked as a bare POST's body is, with its
/// gossip identity.
///
/// Every byte of the character data ends up in that text, which is read
/// whole: a CDATA section — the writer's spelling, split once per `]]>` —
/// is stepped over here by its `]]>` and not tokenized, so the literal is
/// read once. The runs are kept as the reader hands them over, borrowed
/// from `wire`, and joined only past the third.
fn read_coded(
    reader: &mut XmlReader<'_>,
    ops: &str,
    before: &str,
    room: &mut usize,
) -> Result<(String, Option<GossipId<'static>>), SoapError> {
    let mut literal: [std::borrow::Cow<'_, str>; 3] = Default::default();
    let mut runs = 0;
    let mut push = |run| {
        if runs < literal.len() {
            literal[runs] = run;
            runs += 1;
        } else {
            // More runs: a tail with several `]]>`, or another writer's
            // spelling (escaped text, comments between runs).
            cov!();
            literal[2].to_mut().push_str(&run);
        }
    };
    loop {
        if let Some(section) = reader.cdata_unchecked() {
            push(section.into());
            continue;
        }
        match reader.next_raw()? {
            RawEvent::Text(run) => push(run),
            RawEvent::Start => {
                cov!();
                return Err(SoapError::Batch("a coded Msg wraps an element".into()));
            }
            RawEvent::End => break,
            _ => {}
        }
    }
    let raw = splice(ops, before, &Text::new([&literal[0], &literal[1], &literal[2]]), room)?;
    let mut rebuilt = XmlReader::new(&raw);
    read_root(&mut rebuilt)?;
    let gossip = envelope_shape(&mut rebuilt)??;
    rebuilt.finish()?;
    Ok((raw, gossip))
}

/// A coded message's standalone form: the declaration, then the runs
/// `ops` makes its text of, out of `before` and the message's own
/// character data `literal`. Every run is checked, and charged to `room`,
/// before anything is allocated; the text is then put together in one
/// exact-capacity allocation.
fn splice(ops: &str, before: &str, literal: &Text<'_>, room: &mut usize) -> Result<String, SoapError> {
    let mut left = *room;
    for run in runs(ops, before, literal) {
        left = spend(left, run?.len())?;
    }
    let mut raw = String::with_capacity(XML_DECL.len() + (*room - left));
    *room = left;
    raw.push_str(XML_DECL);
    for run in runs(ops, before, literal).map_while(Result::ok) {
        match run {
            Run::Copy(copied) => raw.push_str(copied),
            Run::Literal(range) => {
                literal.spans(range).for_each(|(k, span)| raw.push_str(&literal.parts[k][span]));
            }
        }
    }
    Ok(raw)
}

/// One run of a coded message's text: a slice of the text before it, or
/// the next bytes of its own character data.
enum Run<'t> {
    Copy(&'t str),
    Literal(Range<usize>),
}

impl Run<'_> {
    fn len(&self) -> usize {
        match self {
            Run::Copy(copied) => copied.len(),
            Run::Literal(range) => range.len(),
        }
    }
}

/// The runs `ops` makes a coded message's text of, in order — each copy a
/// slice of `before`, each literal the next bytes of `literal`, both on
/// characters — and, when the list is through with `literal` left over,
/// an error. Allocates nothing but the error.
fn runs<'t>(
    ops: &'t str,
    before: &'t str,
    literal: &'t Text<'_>,
) -> impl Iterator<Item = Result<Run<'t>, SoapError>> + 't {
    let mut list = Some(ops.split(','));
    let mut taken = 0;
    std::iter::from_fn(move || {
        let Some(op) = list.as_mut()?.next() else {
            list = None;
            return (taken < literal.len()).then(|| {
                cov!();
                Err(SoapError::Batch(format!(
                    "Msg ops leave {} bytes of its own text unused",
                    literal.len() - taken
                )))
            });
        };
        let run = match op.split_once(':').map(|(from, len)| (number(from), number(len))) {
            None => match number(op) {
                Some(len) if len <= literal.len() - taken && literal.is_char_boundary(taken + len) => {
                    taken += len;
                    Ok(Run::Literal(taken - len..taken))
                }
                Some(len) => {
                    cov!();
                    Err(SoapError::Batch(format!(
                        "Msg ops take {len} bytes, no run of the {} left of its own text",
                        literal.len() - taken
                    )))
                }
                None => Err(malformed_op(op)),
            },
            Some((Some(from), Some(len))) => match from.checked_add(len) {
                Some(end) if end <= before.len() => {
                    if before.is_char_boundary(from) && before.is_char_boundary(end) {
                        Ok(Run::Copy(&before[from..end]))
                    } else {
                        cov!();
                        Err(SoapError::Batch(format!(
                            "Msg ops copy {from}:{len}, not on characters of the text before it"
                        )))
                    }
                }
                _ => {
                    cov!();
                    Err(SoapError::Batch(format!(
                        "Msg ops copy {from}:{len}, past the {} bytes before it",
                        before.len()
                    )))
                }
            },
            Some(_) => Err(malformed_op(op)),
        };
        Some(run)
    })
}

/// An `ops` entry that is no run.
fn malformed_op(op: &str) -> SoapError {
    cov!();
    let shown: String = op.chars().take(24).collect();
    SoapError::Batch(format!("Msg ops hold {shown:?}, which is no run"))
}

/// A decimal number of digits only, that fits a `usize`.
fn number(digits: &str) -> Option<usize> {
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0usize, |n, digit| {
        let digit = usize::from(digit.checked_sub(b'0').filter(|d| *d < 10)?);
        n.checked_mul(10)?.checked_add(digit)
    })
}

/// Whether a parsed document root is a batch wrapper.
pub fn is_batch(root: &Element) -> bool {
    root.name().matches(Some(BATCH_NS), "Batch")
}

/// Unwrap a batch document that follows `reference` on its connection by
/// building its tree and walking it, messages in wire order — the
/// reference [`parse_wire_after`] is tested and fuzzed against, advancing
/// `reference` as it does. (It takes the text, not the tree: an `ops` run
/// counts bytes of the text, which no tree keeps.)
///
/// # Errors
///
/// [`SoapError::Xml`] when `wire` is no XML document;
/// [`SoapError::Batch`] when the root is not a `wsgb:Batch`, a child is
/// not a `wsgb:Msg`, a whole `Msg` does not carry exactly one child
/// element, a coded one carries any or has `ops` that fit nothing before
/// it or not its own text, the batch is empty or unwraps to more than
/// [`MAX_UNWRAPPED_BYTES`]; [`SoapError::NotAnEnvelope`] /
/// [`SoapError::MissingPart`] for a message without the envelope shape;
/// [`SoapError::Xml`] for a coded message that unwraps to no document.
/// Never panics, whatever the input looks like.
pub fn unbundle(wire: &str, reference: &mut String) -> Result<Vec<BatchedEnvelope>, SoapError> {
    let root = &Element::parse(wire)?;
    if !is_batch(root) {
        cov!();
        return Err(SoapError::Batch(format!("root element is {}", root.name())));
    }
    let children = root.children();
    if children.is_empty() {
        cov!();
        return Err(SoapError::Batch("batch carries no messages".into()));
    }
    let texts = child_texts(wire)?;
    let mut out = Vec::with_capacity(children.len());
    let mut before = reference.clone();
    let mut room = MAX_UNWRAPPED_BYTES;
    for (child, sent) in children.into_iter().zip(texts) {
        if !child.name().matches(Some(BATCH_NS), "Msg") {
            cov!();
            return Err(SoapError::Batch(format!("batch carries a {}", child.name())));
        }
        let wrapped = child.children();
        // A whole message as the tree has it; a coded one as it was sent.
        let (text, inner, raw) = match (child.attr("ops"), wrapped.as_slice()) {
            (None, [only]) => {
                room = spend(room, sent.len())?;
                let raw = format!("{XML_DECL}{}", only.to_xml_string());
                (wire[sent].to_string(), (*only).clone(), raw)
            }
            (None, _) => {
                cov!();
                return Err(SoapError::Batch(format!(
                    "Msg wraps {} elements (want exactly 1)",
                    wrapped.len()
                )));
            }
            (Some(ops), []) => {
                let raw = splice(ops, &before, &Text::new([&child.text(), "", ""]), &mut room)?;
                (raw[XML_DECL.len()..].to_string(), Element::parse(&raw)?, raw)
            }
            (Some(_), _) => {
                cov!();
                return Err(SoapError::Batch("a coded Msg wraps an element".into()));
            }
        };
        cov!();
        if !inner.name().matches(Some(SOAP_ENV_NS), "Envelope") {
            return Err(SoapError::NotAnEnvelope(format!("root element is {}", inner.name())));
        }
        if inner.child_ns(SOAP_ENV_NS, "Body").is_none() {
            return Err(SoapError::MissingPart("Body"));
        }
        let gossip = gossip::of_tree(&inner);
        out.push(BatchedEnvelope { target: child.attr("target").map(str::to_string), raw, gossip });
        before = text;
    }
    *reference = before;
    Ok(out)
}

/// Where in `wire` the text of each child of the document element lies:
/// what stands between the child's tags.
fn child_texts(wire: &str) -> Result<Vec<Range<usize>>, SoapError> {
    let mut reader = XmlReader::new(wire);
    read_root(&mut reader)?;
    let mut texts = Vec::new();
    loop {
        match reader.next_raw()? {
            RawEvent::Start => {
                let from = reader.position();
                reader.skip_element()?;
                // An end tag holds one `<`, its first byte; `<a/>` has no
                // end tag, and the `<` found is its own, before `from`.
                let to = wire[..reader.position()].rfind('<').map_or(from, |to| to.max(from));
                texts.push(from..to);
            }
            RawEvent::End => return Ok(texts),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::{EndpointReference, MessageHeaders};

    fn sample(n: usize) -> Envelope {
        Envelope::request(
            MessageHeaders::request(format!("http://dest/{n}"), format!("urn:app:Op{n}"))
                .with_message_id(format!("urn:uuid:{n}")),
            Element::text_node("tick", format!("payload-{n}")),
        )
    }

    /// The `n`-th notification one node forwards to one peer: everything
    /// but the ids and the payload repeats.
    fn forward(n: usize) -> String {
        forward_with(n, &format!("ACME {n} é"))
    }

    /// [`forward`] with `payload` as its text.
    fn forward_with(n: usize, payload: &str) -> String {
        let context = Element::in_ns("wscoor", "urn:wscoor", "CoordinationContext")
            .with_child(Element::text_node("Identifier", "urn:ctx:7"))
            .with_child(Element::text_node("Expires", "86400000"));
        Envelope::request(
            MessageHeaders::request("http://127.0.0.1:4100/gossip", "urn:ws-gossip:2008:Notify")
                .with_from(EndpointReference::new("http://127.0.0.1:4200/gossip"))
                .with_message_id(format!("urn:uuid:{n:032x}")),
            Element::text_node("tick", payload),
        )
        .with_header(context)
        .with_header(Element::text_node("Seq", n.to_string()))
        .to_xml()
    }

    fn batch_of(xmls: &[String]) -> (String, usize) {
        let items: Vec<BatchItem<'_>> =
            xmls.iter().map(|xml| BatchItem { target: None, xml }).collect();
        let mut wire = String::new();
        let left_out = write_batch(&items, &mut wire);
        (wire, left_out)
    }

    fn streamed(wire: &str) -> Vec<BatchedEnvelope> {
        match parse_wire(wire).unwrap() {
            Unbundled::Batch(messages) => messages,
            other => panic!("batch wire classified as {other:?}"),
        }
    }

    /// The tree walk on a fresh connection.
    fn fresh(wire: &str) -> Result<Vec<BatchedEnvelope>, SoapError> {
        unbundle(wire, &mut String::new())
    }

    #[test]
    fn the_first_message_of_a_request_is_coded_against_the_request_before() {
        let xmls: Vec<String> = (0..4).map(forward).collect();
        let (mut sent, mut received, mut walked) = (String::new(), String::new(), String::new());
        let post = |xmls: &[String], sent: &mut String| {
            let mut wire = String::new();
            let left_out = write_batch_parts(
                xmls.iter().map(|xml| (None, [xml.as_str(), "", ""])),
                sent,
                &mut wire,
            );
            (wire, left_out)
        };
        // One message per request: the first goes whole, every later one
        // as what it adds to the one the connection carried before it.
        for (n, xml) in xmls.iter().enumerate() {
            let (wire, left_out) = post(std::slice::from_ref(xml), &mut sent);
            assert_eq!(wire.contains(" ops=\""), n > 0, "{wire}");
            assert_eq!(left_out > xml.len() / 2, n > 0, "{left_out} of {wire}");
            let Unbundled::Batch(messages) = parse_wire_after(&wire, &mut received).unwrap() else {
                panic!("{wire}");
            };
            assert_eq!(messages[0].raw, *xml);
            // (The tree walk gives a whole message back re-serialised.)
            let walk = unbundle(&wire, &mut walked).unwrap();
            assert_eq!(walk[0].envelope(), messages[0].envelope());
            assert_eq!(sent, xml[XML_DECL.len()..]);
            assert_eq!((&received, &walked), (&sent, &sent));
            // Without the request before, the same document is refused.
            if n > 0 {
                assert!(matches!(parse_wire(&wire), Err(SoapError::Batch(_))), "{wire}");
                assert!(matches!(fresh(&wire), Err(SoapError::Batch(_))), "{wire}");
            }
        }
        // A bare envelope leaves its text past the prologue as the
        // reference, whitespace after the declaration trimmed.
        let bare = format!("{XML_DECL}\n {}", &xmls[0][XML_DECL.len()..]);
        assert_eq!(parse_wire_after(&bare, &mut received).unwrap(), Unbundled::Single(Ok(None)));
        assert_eq!(received, text_of(&bare));
        assert_eq!(received, xmls[0][XML_DECL.len()..]);
        let (wire, left_out) = post(&xmls[1..3], &mut received.clone());
        assert!(left_out > 0 && wire.matches(" ops=\"").count() == 2, "{wire}");
        let Unbundled::Batch(messages) = parse_wire_after(&wire, &mut received).unwrap() else {
            panic!("{wire}");
        };
        assert_eq!([messages[0].raw.as_str(), &messages[1].raw], [&xmls[1], &xmls[2]]);
        assert_eq!(received, xmls[2][XML_DECL.len()..]);
    }

    #[test]
    fn round_trips_order_targets_and_content() {
        let envelopes: Vec<Envelope> = (0..4).map(sample).collect();
        let xmls: Vec<String> = envelopes.iter().map(Envelope::to_xml).collect();
        let items: Vec<BatchItem<'_>> = xmls
            .iter()
            .enumerate()
            .map(|(i, xml)| BatchItem {
                target: if i == 2 { Some("/membership") } else { None },
                xml,
            })
            .collect();
        let mut wire = String::new();
        write_batch(&items, &mut wire);

        assert!(is_batch(&Element::parse(&wire).unwrap()));
        let unpacked = fresh(&wire).unwrap();
        assert_eq!(unpacked.len(), 4);
        for (i, msg) in unpacked.iter().enumerate() {
            assert_eq!(msg.envelope().unwrap(), envelopes[i], "message {i} round-trips");
            assert_eq!(
                msg.target.as_deref(),
                if i == 2 { Some("/membership") } else { None }
            );
            // The reconstructed raw is itself a parseable standalone doc
            // describing the same envelope.
            assert_eq!(Envelope::parse(&msg.raw).unwrap(), envelopes[i]);
        }
    }

    #[test]
    fn scratch_buffer_is_reused_and_cleared() {
        let xml = sample(1).to_xml();
        let items = [BatchItem { target: None, xml: &xml }];
        let mut buf = String::from("stale contents from the previous batch");
        write_batch(&items, &mut buf);
        let first = buf.clone();
        write_batch(&items, &mut buf);
        assert_eq!(buf, first);
    }

    #[test]
    fn declaration_is_stripped_once_regardless_of_form() {
        let strip_declaration = |xml| without_declaration([xml, "", ""]).concat();
        assert_eq!(strip_declaration("<a/>"), "<a/>");
        assert_eq!(
            strip_declaration("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>"),
            "<a/>"
        );
        assert_eq!(strip_declaration("  <?xml version=\"1.0\"?>\n  <a/>"), "<a/>");
        // A truncated declaration is left alone (the parse will reject it).
        assert_eq!(strip_declaration("<?xml version"), "<?xml version");
        // In pieces: the declaration in the first that has bytes, the
        // whitespace after it wherever it falls.
        assert_eq!(without_declaration(["", " <?xml version=\"1.0\"?> ", "\n<a/> "]).concat(), "<a/> ");
        assert_eq!(without_declaration(["<a>", " <?xml?>", ""]).concat(), "<a> <?xml?>");
    }

    #[test]
    fn parse_wire_matches_unbundle_and_slices_sender_bytes() {
        let envelopes: Vec<Envelope> = (0..4).map(sample).collect();
        let xmls: Vec<String> = envelopes.iter().map(Envelope::to_xml).collect();
        let items: Vec<BatchItem<'_>> = xmls
            .iter()
            .enumerate()
            .map(|(i, xml)| BatchItem {
                target: if i == 1 { Some("/membership") } else { None },
                xml,
            })
            .collect();
        let mut wire = String::new();
        write_batch(&items, &mut wire);

        let via_tree = fresh(&wire).unwrap();
        let streamed = streamed(&wire);
        assert_eq!(streamed.len(), via_tree.len());
        for (i, (s, t)) in streamed.iter().zip(&via_tree).enumerate() {
            assert_eq!(s.envelope(), t.envelope(), "message {i} envelope");
            assert_eq!(s.target, t.target, "message {i} target");
            // The streamed raw is the sender's own serialisation, byte for
            // byte — not a re-serialisation of the parsed tree.
            assert_eq!(s.raw, xmls[i], "message {i} raw");
        }
    }

    /// The `ops` of every coded `Msg` in `wire`, in order.
    fn ops_of(wire: &str) -> Vec<&str> {
        wire.split(" ops=\"").skip(1).map(|rest| &rest[..rest.find('"').unwrap()]).collect()
    }

    #[test]
    fn forwards_to_one_peer_are_said_once_and_come_back_byte_for_byte() {
        let xmls: Vec<String> = (0..5).map(forward).collect();
        let (wire, left_out) = batch_of(&xmls);
        // The first goes whole, the rest as what they add to it.
        assert_eq!(wire.matches("<wsgb:Msg>").count(), 1, "{wire}");
        assert_eq!(wire.matches("<wsgb:Msg ops=\"").count(), 4, "{wire}");
        assert_eq!(wire.matches("<wscoor:CoordinationContext").count(), 1, "{wire}");
        // Each copies its markup around the values it does not share —
        // the sequence number, the message id — and its closing tail.
        let ops = ops_of(&wire);
        assert!(ops.iter().all(|ops| ops.matches(':').count() >= 3), "{ops:?}");
        let whole: usize = xmls.iter().map(|xml| xml.len() - XML_DECL.len() + 21).sum();
        assert!(left_out > whole * 2 / 3, "{left_out} bytes left out of {whole}");
        // Per coded message: ` ops="…"` and the CDATA brackets.
        let attributes: usize = ops.iter().map(|ops| ops.len() + 19).sum();
        assert_eq!(wire.len(), 58 + whole - left_out + attributes);
        assert!(!wire.starts_with("<?xml"), "{wire}");
        for (message, xml) in streamed(&wire).iter().zip(&xmls) {
            assert_eq!(&message.raw, xml);
        }
        // (The reference gives a whole message back re-serialised.)
        for (message, xml) in fresh(&wire).unwrap().iter().zip(&xmls).skip(1) {
            assert_eq!(&message.raw, xml, "the reference rebuilds the same bytes");
        }

        // However long the message, its markup is copied and its payload
        // said: the same 575 bytes around a 16 KiB payload as around a
        // 2 KiB one — all of them after a message of its own shape, all but
        // the values they do not share after a forward.
        let with_payload = |bytes: usize| {
            let payload = Element::text_node("tick", "é".repeat(bytes / 2));
            let grown = Envelope::parse(&xmls[1]).unwrap();
            let mut headers = Envelope::request(grown.addressing().clone(), payload);
            grown.headers().into_iter().for_each(|block| headers.push_header(block.clone()));
            headers.to_xml()
        };
        let (long, short) = (with_payload(16 * 1024), with_payload(2 * 1024));
        for pair in [[&xmls[0], &long], [&xmls[0], &short], [&short, &long], [&long, &long]] {
            let pair = pair.map(String::clone);
            let (wire, left_out) = batch_of(&pair);
            let [ops] = ops_of(&wire)[..] else { panic!("{wire}") };
            let text = &pair[1][XML_DECL.len()..];
            let content = Text::new([text, "", ""]).markup().unwrap();
            // Copies of markup only, and the payload literal and whole.
            let markup = text.len() - content.len();
            assert_eq!(markup, 575);
            if pair[0] == xmls[0] {
                assert!((500..markup).contains(&left_out), "{left_out} of {markup}");
            } else {
                assert_eq!(left_out, markup);
            }
            let literal = wire.rsplit("<![CDATA[").next().unwrap();
            assert!(literal.contains(&text[content.clone()]), "{ops}");
            assert_eq!(wire.len(), 58 + pair[0].len() - XML_DECL.len() + 21 + text.len() - left_out + ops.len() + 19 + 21);
            assert_eq!(streamed(&wire)[1].raw, pair[1]);
            assert_eq!(fresh(&wire).unwrap()[1].raw, pair[1]);
        }

        // A lone message shares with nobody, a stranger with no one
        // either; identical neighbours share all their markup, and the
        // content of their bodies travels again.
        assert_eq!(batch_of(&xmls[..1]).1, 0);
        let stranger = format!("<e:Envelope xmlns:e=\"{SOAP_ENV_NS}\"><e:Body/></e:Envelope>");
        let (wire, left_out) = batch_of(&[stranger, xmls[0].clone(), xmls[0].clone()]);
        let text = &xmls[0][XML_DECL.len()..];
        let content = "<tick>ACME 0 é</tick>";
        assert!(text.contains(&format!("<env:Body>{content}</env:Body>")), "{text}");
        assert_eq!(left_out, text.len() - content.len());
        let body = text.find(content).unwrap();
        let tail = body + content.len();
        assert_eq!(ops_of(&wire), [format!("0:{body},{},{tail}:{}", content.len(), text.len() - tail)]);
        assert!(wire.ends_with(&format!("\"><![CDATA[{content}]]></wsgb:Msg></wsgb:Batch>")), "{wire}");
        let back = streamed(&wire);
        assert_eq!(back[1].raw, back[2].raw);
        assert_eq!(back[2].raw, xmls[0]);
    }

    #[test]
    fn the_shared_start_is_cut_on_a_character_and_found_across_pieces() {
        // The bytes two texts in pieces start with, cut back to a
        // character of the second.
        let shared = |a: [&str; 3], b: [&str; 3]| {
            let (a, b) = (Text::new(a), Text::new(b));
            let mut shared = b.common(0, &a, 0, a.len().min(b.len()));
            while !b.is_char_boundary(shared) {
                shared -= 1;
            }
            shared
        };
        let long = "x".repeat(70);
        // `é` and `è` share their first byte: the cut falls before it.
        let (a, b) = (format!("{long}é1"), format!("{long}è2"));
        assert_eq!(shared([&a, "", ""], [&b, "", ""]), 70);
        assert_eq!(shared([&a, "", ""], ["", &b[..30], &b[30..]]), 70);
        assert_eq!(shared([&a[..10], &a[10..72], &a[72..]], [&b, "", ""]), 70);
        assert_eq!(shared([&a, "", ""], [&a[..5], "", &a[5..]]), a.len());
        assert_eq!(shared([&a, "", ""], [&a[..5], "", ""]), 5);
        assert_eq!(shared(["", "", ""], [&a, "", ""]), 0);
        assert_eq!(shared([&a, "", ""], ["", "", ""]), 0);

        // Messages in three pieces, as a sender's queue hands them over,
        // batch to the bytes whole messages batch to.
        let xmls: Vec<String> = (0..4).map(forward).collect();
        let pieces = xmls.iter().enumerate().map(|(i, xml)| {
            let (cut, end) = (xml.len() * i / 4, xml.len() - 9 * i);
            (None, [&xml[..cut], &xml[cut..end], &xml[end..]])
        });
        let mut in_pieces = String::new();
        let left_out = write_batch_parts(pieces, &mut String::new(), &mut in_pieces);
        assert_eq!((in_pieces, left_out), batch_of(&xmls));
    }

    #[test]
    fn markup_is_what_stands_around_the_content_of_the_body_in_any_pieces() {
        fn markup(text: &str) -> Option<&str> {
            let whole = Text::new([text, "", ""]).markup();
            // Cut anywhere into three pieces, the text has the same.
            for a in (0..=text.len()).filter(|&a| text.is_char_boundary(a)) {
                for b in (a..=text.len()).filter(|&b| text.is_char_boundary(b)) {
                    let pieces = Text::new([&text[..a], &text[a..b], &text[b..]]);
                    assert_eq!(pieces.markup(), whole, "{text} cut at {a} and {b}");
                }
            }
            whole.map(|body| &text[body])
        }
        assert_eq!(markup("<e:Envelope><e:Header/><e:Body><a>1</a></e:Body></e:Envelope>"), Some("<a>1</a>"));
        // No prefix, attributes, a `Body` inside the body, an empty one.
        assert_eq!(markup("<E><Body x='1'><Body/>é</Body ></E>"), Some("<Body/>é"));
        assert_eq!(markup("<env:Envelope><env:Body/></env:Envelope>"), Some(""));
        assert_eq!(markup("<E><env:Body></env:Body></E>"), Some(""));
        // Names that only end in `Body`, and texts without one.
        assert_eq!(markup("<E><xBody>1</xBody><p:Body>2</p:Body></E>"), Some("2"));
        assert_eq!(markup("<E><h:Bodyguard/></E>"), None);
        assert_eq!(markup("<E>Body</E>"), None);
        assert_eq!(markup(""), None);
    }

    #[test]
    fn resyncing_steps_over_a_header_block_one_side_lacks() {
        let envelope = |extra: &str, seq: usize| {
            format!(
                "<env:Envelope xmlns:env=\"{SOAP_ENV_NS}\"><env:Header><h:A xmlns:h=\"urn:h\">{seq}</h:A>\
                 {extra}<h:B xmlns:h=\"urn:h\">a long header value that both messages share</h:B>\
                 </env:Header><env:Body><p>{seq}</p></env:Body></env:Envelope>"
            )
        };
        let block: String = (0..6).map(|i| format!("<x:I{i} xmlns:x=\"urn:x\">{i}</x:I{i}>")).collect();
        for (first, second) in [(envelope("", 1), envelope(&block, 2)), (envelope(&block, 1), envelope("", 2))] {
            let (wire, _) = batch_of(&[first.clone(), second.clone()]);
            let [ops] = ops_of(&wire)[..] else { panic!("{wire}") };
            // `h:B` and everything after it up to the body is one copy.
            let b = second.find("<h:B").unwrap();
            let from = first.find("<h:B").unwrap();
            let len = second.find("<env:Body>").unwrap() + "<env:Body>".len() - b;
            assert!(ops.contains(&format!(",{from}:{len},")), "{ops} in {wire}");
            assert_eq!(streamed(&wire)[1].raw, format!("{XML_DECL}{second}"));
        }
        // Past the lookahead, the block the second lacks is not stepped
        // over: the rest of the head travels again.
        let long: String = (0..LOOKAHEAD).map(|i| format!("<x:I{i} xmlns:x=\"urn:x\">{i}</x:I{i}>")).collect();
        let (first, second) = (envelope(&long, 1), envelope("", 2));
        let (wire, _) = batch_of(&[first.clone(), second.clone()]);
        let b = first.find("<h:B").unwrap();
        assert!(ops_of(&wire).iter().all(|ops| !ops.contains(&format!(",{b}:"))), "{wire}");
        assert_eq!(streamed(&wire)[1].raw, format!("{XML_DECL}{second}"));
    }

    #[test]
    fn markup_full_of_lone_angle_brackets_is_matched_in_linear_time() {
        // Every `<` of a comment or a CDATA section in a header could start
        // a scan to the next `>`, or a comparison with each of the
        // reference's `<`s: 200 000 of them would be 10^10 steps. Here
        // they cost one each, and the message still comes back whole.
        let brackets = "<".repeat(200_000);
        let envelope = |seq: usize| {
            format!(
                "<env:Envelope xmlns:env=\"{SOAP_ENV_NS}\"><env:Header><h:C xmlns:h=\"urn:h\">\
                 <![CDATA[{brackets}{seq}]]><!--{brackets}{seq}--></h:C><h:S xmlns:h=\"urn:h\">{seq}</h:S>\
                 </env:Header><env:Body><p>{seq}</p></env:Body></env:Envelope>"
            )
        };
        let xmls = [envelope(1), envelope(2)];
        let started = std::time::Instant::now();
        let (wire, _) = batch_of(&xmls);
        assert!(started.elapsed() < std::time::Duration::from_secs(20), "{:?}", started.elapsed());
        assert_eq!(wire.matches(" ops=\"").count(), 1);
        assert_eq!(streamed(&wire)[1].raw, format!("{XML_DECL}{}", xmls[1]));
    }

    #[test]
    fn a_tail_that_would_end_the_cdata_section_is_split_across_two_sections() {
        const SPLIT: &str = "]]]]><![CDATA[>";
        let head = format!("<env:Envelope xmlns:env=\"{SOAP_ENV_NS}\"><env:Body>");
        let comment = format!("<!--{}-->", "x".repeat(80));
        let plain = format!("{head}{comment}<a>1</a></env:Body></env:Envelope>");
        let foreign = format!("{head}{comment}<a><![CDATA[2]]></a><b><![CDATA[]]]]><![CDATA[>]]></b></env:Body></env:Envelope>");
        let split = format!("{head}{comment}<a>3]]</a></env:Body></env:Envelope>");
        let xmls = [plain.clone(), foreign.clone(), plain.clone(), split.clone()];
        let (wire, left_out) = batch_of(&xmls);
        // Every message after the first is coded, the foreign one too: its
        // head and its closing tail are copies, its body's content literal.
        assert_eq!(wire.matches(" ops=\"").count(), 3, "{wire}");
        let tail = "</env:Body></env:Envelope>".len();
        assert_eq!(left_out, 3 * (head.len() + tail));
        // Its literal run carries the split once per `]]>` it holds.
        let content = &foreign[head.len()..foreign.len() - tail];
        assert_eq!(content.matches("]]>").count(), 3);
        let coded = format!(
            "<wsgb:Msg ops=\"0:{},{},{}:{tail}\"><![CDATA[{}]]></wsgb:Msg>",
            head.len(),
            content.len(),
            plain.len() - tail,
            content.replace("]]>", SPLIT)
        );
        assert!(wire.contains(&coded), "{wire}");
        assert_eq!(wire.matches(SPLIT).count(), 3, "{wire}");
        // `]]` alone is text like any other.
        assert!(wire.ends_with("<a>3]]</a>]]></wsgb:Msg></wsgb:Batch>"), "{wire}");
        for (message, xml) in streamed(&wire).iter().zip(&xmls) {
            assert_eq!(message.raw, format!("{XML_DECL}{xml}"));
        }
        for (message, xml) in fresh(&wire).unwrap().iter().zip(&xmls).skip(1) {
            assert_eq!(message.raw, format!("{XML_DECL}{xml}"));
        }
        // Cut at every byte of every `]]>` into two or three pieces, the
        // batch is the one written whole.
        let mut cuts: Vec<usize> = foreign.match_indices("]]>").flat_map(|(at, _)| at..=at + 3).collect();
        cuts.push(foreign.len());
        for &a in &cuts {
            for &b in cuts.iter().filter(|&&b| b >= a) {
                let pieces = [
                    (None, [plain.as_str(), "", ""]),
                    (None, [&foreign[..a], &foreign[a..b], &foreign[b..]]),
                    (None, [plain.as_str(), "", ""]),
                    (None, [&split[..head.len() + 8], &split[head.len() + 8..], ""]),
                ];
                let mut in_pieces = String::new();
                let left = write_batch_parts(pieces.into_iter(), &mut String::new(), &mut in_pieces);
                assert_eq!((left, &in_pieces), (left_out, &wire), "cut at {a} and {b}");
            }
        }
    }

    #[test]
    fn coded_messages_written_by_others_unwrap_the_same() {
        let first = forward(1);
        let first = &first[XML_DECL.len()..];
        let cut = first.find("<wsa:To>").unwrap();
        let rest = &first[cut..];
        // Escaped text instead of a CDATA section, several runs, a
        // comment, the message before with whitespace around it, a
        // literal run ahead of a copy, runs of nothing.
        let escaped = rest.replace('&', "&amp;").replace('<', "&lt;");
        let (half, other) = rest.split_at(rest.len() / 2);
        let wire = format!(
            "<b:Batch xmlns:b=\"{BATCH_NS}\"><b:Msg>\n{first}\n</b:Msg>\
             <b:Msg ops=\"0:{0},{2}\" target=\"/x\">{escaped}</b:Msg>\
             <b:Msg ops=\"0:{0},{2}\"><![CDATA[{half}]]><!-- and --><![CDATA[{other}]]></b:Msg>\
             <b:Msg ops='1,1:{1}'>\n</b:Msg>\
             <b:Msg ops='0,0:0,0:{3},0'/></b:Batch>",
            cut + 1,
            first.len(),
            rest.len(),
            first.len() + 1,
        );
        let messages = streamed(&wire);
        assert_eq!(messages.len(), 5);
        // A copy counts bytes of the text between the tags, the newline
        // included.
        for message in &messages[1..] {
            assert_eq!(message.raw, format!("{XML_DECL}\n{first}"));
        }
        assert_eq!(messages[0].raw, format!("{XML_DECL}{first}"));
        assert_eq!(messages[1].target.as_deref(), Some("/x"));
        let reference = fresh(&wire).unwrap();
        assert_eq!(messages[1..], reference[1..]);
        assert_eq!(messages[0].envelope(), reference[0].envelope());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_coded_message_is_tokenized_once_on_receipt() {
        // Two 16 KiB forwards on one connection, the second coded: its
        // literal (the payload, a CDATA section whose `]]>` splits it in
        // two) is read in the text rebuilt from it, and not in the wire.
        let dense: String = "tick 101.25 & rising <fast> ".chars().cycle().take(16 * 1024).collect();
        let forward = |n: usize| forward_with(n, &format!("{dense}{n}"));
        let (mut sent, mut received) = (String::new(), String::new());
        let mut wire = String::new();
        write_batch_parts(std::iter::once((None, [forward(1).as_str(), "", ""])), &mut sent, &mut wire);
        parse_wire_after(&wire, &mut received).unwrap();
        let second = forward(2);
        write_batch_parts(std::iter::once((None, [second.as_str(), "", ""])), &mut sent, &mut wire);
        let ops = ops_of(&wire);
        assert_eq!(ops.len(), 1);
        let literal: usize = ops[0].split(',').filter(|run| !run.contains(':')).map(|len| number(len).unwrap()).sum();
        assert!(literal > dense.len() && wire.matches("<![CDATA[").count() >= 2);

        let read = wsg_xml::reader::tokenized_bytes();
        let Unbundled::Batch(messages) = parse_wire_after(&wire, &mut received).unwrap() else { panic!("a batch") };
        let read = wsg_xml::reader::tokenized_bytes() - read;
        assert_eq!(messages[0].raw, format!("{XML_DECL}{}", text_of(&second)));
        // The rebuilt text whole, and of the wire no more than what is not
        // the literal: each literal byte once (twice would be 16 KiB more).
        let raw = messages[0].raw.len();
        assert!((raw..=raw + wire.len() - literal).contains(&read), "{read} bytes tokenized");
    }

    #[test]
    fn hostile_wrappers_are_errors_never_panics() {
        let envelope = forward(1);
        let envelope = &envelope[XML_DECL.len()..];
        let body = envelope.find("<env:Body>").unwrap();
        let batch = |msgs: &str| format!("<wsgb:Batch xmlns:wsgb=\"{BATCH_NS}\">{msgs}</wsgb:Batch>");
        let after = |msg: &str| batch(&format!("<wsgb:Msg>{envelope}é</wsgb:Msg>{msg}"));
        let len = envelope.len();
        type Class = fn(&SoapError) -> bool;
        let wrapper: Class = |e| matches!(e, SoapError::Batch(_));
        let xml: Class = |e| matches!(e, SoapError::Xml(_));
        let table: Vec<(&str, String, Class)> = vec![
            ("a copy on the first Msg", batch("<wsgb:Msg ops=\"0:4\"><![CDATA[<a/>]]></wsgb:Msg>"), wrapper),
            ("a copy past the text before", after(&format!("<wsgb:Msg ops=\"0:{}\"/>", len + 3)), wrapper),
            ("a copy overlapping its end", after(&format!("<wsgb:Msg ops=\"{len}:3\"/>")), wrapper),
            ("a copy ending inside a character", after(&format!("<wsgb:Msg ops=\"0:{}\"/>", len + 1)), wrapper),
            ("a copy starting inside a character", after(&format!("<wsgb:Msg ops=\"{}:1\"/>", len + 1)), wrapper),
            ("a copy whose end overflows", after(&format!("<wsgb:Msg ops=\"1:{}\"/>", usize::MAX)), wrapper),
            ("a literal past the text", after("<wsgb:Msg ops=\"0:5,4\">abc</wsgb:Msg>"), wrapper),
            ("a literal inside a character", after(&format!("<wsgb:Msg ops=\"1,0:{len}\">é</wsgb:Msg>")), wrapper),
            ("literals that leave text over", after(&format!("<wsgb:Msg ops=\"0:{len}\">x</wsgb:Msg>")), wrapper),
            ("literals that leave text over, none taken", after("<wsgb:Msg ops=\"0:0\">x</wsgb:Msg>"), wrapper),
            ("a run not a number", after("<wsgb:Msg ops=\"12x\"/>"), wrapper),
            ("a copy not a number", after("<wsgb:Msg ops=\"0:1:2\"/>"), wrapper),
            ("a signed run", after("<wsgb:Msg ops=\"+0\"/>"), wrapper),
            ("a negative copy", after("<wsgb:Msg ops=\"-1:2\"/>"), wrapper),
            ("no runs", after("<wsgb:Msg ops=\"\"/>"), wrapper),
            ("a trailing comma", after("<wsgb:Msg ops=\"0:5,\"/>"), wrapper),
            ("a run beyond usize", after("<wsgb:Msg ops=\"99999999999999999999999\"/>"), wrapper),
            ("an element in a coded Msg", after(&format!("<wsgb:Msg ops=\"0:0\">{envelope}</wsgb:Msg>")), wrapper),
            ("an element beside the literal", after("<wsgb:Msg ops=\"1\">x<a/></wsgb:Msg>"), wrapper),
            // The form before this one: character data and no element.
            ("a leftover pre", after(&format!("<wsgb:Msg pre=\"{body}\"><![CDATA[<env:Body/></env:Envelope>]]></wsgb:Msg>")), wrapper),
            ("a leftover pre, all of it", after(&format!("<wsgb:Msg pre=\"{len}\"/>")), wrapper),
            ("rebuilt text is no XML", after("<wsgb:Msg ops=\"0:30\"/>"), xml),
            ("rebuilt text with content after its root", after(&format!("<wsgb:Msg ops=\"0:{len},4\">&lt;a/></wsgb:Msg>")), xml),
            (
                "rebuilt text with a second declaration",
                after(&format!(
                    "<wsgb:Msg ops=\"21,0:{len}\">&lt;?xml version=\"1.0\"?></wsgb:Msg>"
                )),
                xml,
            ),
            ("rebuilt text is no envelope", after("<wsgb:Msg ops=\"4\">&lt;a/></wsgb:Msg>"), |e| matches!(e, SoapError::NotAnEnvelope(_))),
            (
                "rebuilt text has no env:Body",
                after(&format!("<wsgb:Msg ops=\"0:{body},15\">&lt;/env:Envelope></wsgb:Msg>")),
                |e| matches!(e, SoapError::MissingPart("Body")),
            ),
            ("a coded Msg leaning on the wrapper's prefix", after("<wsgb:Msg ops=\"9\">&lt;wsgb:a/></wsgb:Msg>"), xml),
        ];
        for (what, wire, class) in table {
            let error = parse_wire(&wire).expect_err(what);
            assert!(class(&error), "{what}: {error}");
            let reference = fresh(&wire).expect_err(what);
            assert!(class(&reference), "{what}, by the tree walk: {reference}");
        }
        // The same text before it, copied up to the boundary: accepted.
        let fine = after(&format!("<wsgb:Msg ops=\"0:{len}\"/>"));
        assert_eq!(streamed(&fine)[1].raw, format!("{XML_DECL}{envelope}"));
    }

    #[test]
    fn a_batch_cannot_unwrap_to_more_than_a_body_may_hold() {
        // 250 KB once, then "the same again" ten thousand times: 2.5 GB
        // asked for in 530 KB — in a `Msg` each, or in one.
        let big = format!(
            "<env:Envelope xmlns:env=\"{SOAP_ENV_NS}\"><env:Body><a>{}</a></env:Body></env:Envelope>",
            "x".repeat(250_000)
        );
        let again = format!("0:{}", big.len());
        let bomb = |copies: usize| {
            let again = format!("<wsgb:Msg ops=\"{again}\"/>").repeat(copies);
            format!("<wsgb:Batch xmlns:wsgb=\"{BATCH_NS}\"><wsgb:Msg>{big}</wsgb:Msg>{again}</wsgb:Batch>")
        };
        let fits = MAX_UNWRAPPED_BYTES / big.len() - 1;
        assert_eq!(streamed(&bomb(fits)).len(), fits + 1);
        let in_one = |copies: usize| {
            let runs = vec![again.as_str(); copies].join(",");
            format!("<wsgb:Batch xmlns:wsgb=\"{BATCH_NS}\"><wsgb:Msg>{big}</wsgb:Msg><wsgb:Msg ops=\"{runs}\"/></wsgb:Batch>")
        };
        for wire in [bomb(fits + 1), bomb(10_000), in_one(fits + 1), in_one(10_000)] {
            assert!(wire.len() < 600_000);
            assert!(matches!(parse_wire(&wire), Err(SoapError::Batch(_))), "{}", &wire[wire.len() - 80..]);
            assert!(matches!(fresh(&wire), Err(SoapError::Batch(_))), "{}", &wire[wire.len() - 80..]);
        }
    }

    #[test]
    fn parse_wire_hands_back_non_batch_documents() {
        let xml = sample(3).to_xml();
        match parse_wire(&xml).unwrap() {
            Unbundled::Single(shape) => assert_eq!(shape, Ok(None)),
            other => panic!("lone envelope classified as {other:?}"),
        }
        // Trailing junk is rejected just as Element::parse rejects it.
        let trailing = format!("{xml}<extra/>");
        assert!(parse_wire(&trailing).is_err());
        assert!(parse_wire("").is_err());
    }

    #[test]
    fn parse_wire_rejects_what_unbundle_rejects() {
        for bad in [
            "<x/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><other/></wsgb:Batch>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg/></wsgb:Batch>",
        ] {
            match parse_wire(bad) {
                Ok(Unbundled::Single(shape)) => {
                    assert_eq!(bad, "<x/>", "only <x/> is a document");
                    assert!(matches!(shape, Err(SoapError::NotAnEnvelope(_))));
                }
                Ok(Unbundled::Batch(_)) => panic!("{bad} accepted as a batch"),
                Err(SoapError::Batch(_)) => {}
                Err(other) => panic!("{bad} failed with {other}"),
            }
        }
        let not_envelope =
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg><x/></wsgb:Msg></wsgb:Batch>";
        assert!(matches!(parse_wire(not_envelope), Err(SoapError::NotAnEnvelope(_))));
    }

    #[test]
    fn rejects_malformed_wrappers() {
        for bad in [
            "<x/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"/>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><other/></wsgb:Batch>",
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg/></wsgb:Batch>",
        ] {
            assert!(matches!(fresh(bad), Err(SoapError::Batch(_))), "{bad}");
        }
        let not_envelope =
            "<wsgb:Batch xmlns:wsgb=\"urn:ws-gossip:batch\"><wsgb:Msg><x/></wsgb:Msg></wsgb:Batch>";
        assert!(matches!(fresh(not_envelope), Err(SoapError::NotAnEnvelope(_))));
        assert!(matches!(fresh("<unclosed"), Err(SoapError::Xml(_))));
    }
}
