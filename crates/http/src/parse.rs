//! Incremental HTTP/1.1 message parsers.
//!
//! Both simulated endpoints read their peer's bytes from a TLS plaintext
//! stream that arrives in arbitrary-sized pieces, so parsing is
//! incremental: feed bytes, pop complete messages. Only
//! `Content-Length` framing is supported (all simulated traffic uses
//! it; see the crate docs).

use crate::{RequestView, ResponseView};

/// A malformed message head, as a typed error.
///
/// Both parsers consume bytes that (from the server's perspective)
/// originate from an untrusted peer, so every malformation maps to a
/// variant here — the parse path never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header block is not valid UTF-8.
    NonUtf8Head,
    /// `Content-Length` is present but not a decimal `usize`.
    BadContentLength(String),
    /// A header line has no `:` separator.
    MalformedHeaderLine(String),
    /// The request line is not `METHOD PATH HTTP/1.x`.
    MalformedRequestLine(String),
    /// The status line is not `HTTP/1.x CODE [reason]`.
    BadStatusLine(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::NonUtf8Head => write!(f, "non-UTF-8 header block"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::MalformedHeaderLine(l) => write!(f, "malformed header line {l:?}"),
            ParseError::MalformedRequestLine(l) => write!(f, "malformed request line {l:?}"),
            ParseError::BadStatusLine(l) => write!(f, "bad status line {l:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Where the parser currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePhase {
    /// Accumulating header bytes (until `\r\n\r\n`).
    Headers,
    /// Headers parsed; accumulating `remaining` body bytes.
    Body,
}

/// Start-line rules of one message kind.
trait StartLine {
    /// Check a framed head's start line (`Err` is the message's parse
    /// error).
    fn check(line: &str) -> Result<(), ParseError>;
}

struct RequestLine;
struct StatusLine;

impl StartLine for RequestLine {
    fn check(line: &str) -> Result<(), ParseError> {
        let mut parts = line.split(' ');
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("");
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(ParseError::MalformedRequestLine(line.to_owned()));
        }
        Ok(())
    }
}

impl StartLine for StatusLine {
    fn check(line: &str) -> Result<(), ParseError> {
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status = parts.next().unwrap_or("").parse::<u16>();
        if status.is_err() || !version.starts_with("HTTP/1.") {
            return Err(ParseError::BadStatusLine(line.to_owned()));
        }
        Ok(())
    }
}

/// One framed message: where its head and body sit in the buffer.
#[derive(Debug, Clone, Copy)]
struct Framed {
    head_start: usize,
    head_end: usize,
    body_start: usize,
    body_end: usize,
}

/// Generic head-then-body accumulator shared by both parsers.
///
/// Every fed byte lands in one buffer. A feed frames what it can; the
/// messages it completes are lent out as views of that buffer until
/// the next feed, which drops their bytes first.
///
/// Errors come in two tiers, as the framing requires. A head that is
/// not UTF-8 or has a bad `Content-Length` cannot be framed: the feed
/// stops there and returns the error, dropping the rest of its bytes.
/// A bad start line or header line still frames (its body is consumed),
/// so it is kept as the feed's error and reported after the whole feed
/// is framed. Either way the feed hands out no messages.
struct Accumulator<K> {
    buf: Vec<u8>,
    /// Messages the latest feed completed.
    framed: Vec<Framed>,
    /// The first message-level error of the latest feed.
    error: Option<ParseError>,
    /// Start of the message in progress.
    start: usize,
    /// No `\r\n\r\n` of the head in progress starts before here.
    scan: usize,
    /// The message in progress once its head is framed: the head's
    /// verdict, its end, and the body's extent.
    pending: Option<(Result<(), ParseError>, Framed)>,
    kind: std::marker::PhantomData<K>,
}

impl<K: StartLine> Accumulator<K> {
    fn new() -> Self {
        Accumulator {
            buf: Vec::new(),
            framed: Vec::new(),
            error: None,
            start: 0,
            scan: 0,
            pending: None,
            kind: std::marker::PhantomData,
        }
    }

    /// Feed bytes; on success, [`Accumulator::framed`] lists the
    /// messages they complete.
    fn feed(&mut self, bytes: &[u8]) -> Result<(), ParseError> {
        self.forget_framed();
        self.buf.extend_from_slice(bytes);
        loop {
            if let Some((_, f)) = &self.pending {
                if self.buf.len() < f.body_end {
                    break;
                }
                if let Some((verdict, f)) = self.pending.take() {
                    match verdict {
                        Ok(()) => self.framed.push(f),
                        Err(e) => {
                            self.error.get_or_insert(e);
                        }
                    }
                    self.start = f.body_end;
                    self.scan = f.body_end;
                }
            }
            let from = self.scan.max(self.start);
            let Some(at) = find_double_crlf(self.buf.get(from..).unwrap_or_default()) else {
                // A terminator may still start in the last three bytes.
                self.scan = self.buf.len().saturating_sub(3).max(self.start);
                break;
            };
            let head_end = from + at;
            let head = self.buf.get(self.start..head_end).unwrap_or_default();
            let (verdict, length) = match frame_head::<K>(head) {
                Ok(framed) => framed,
                Err(e) => {
                    self.reset();
                    return Err(e);
                }
            };
            let body_start = head_end + 4;
            self.pending = Some((
                verdict,
                Framed {
                    head_start: self.start,
                    head_end,
                    body_start,
                    body_end: body_start.saturating_add(length),
                },
            ));
        }
        match self.error.take() {
            Some(e) => {
                self.framed.clear();
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// Drop the bytes of messages handed out by the previous feed.
    fn forget_framed(&mut self) {
        self.framed.clear();
        let gone = self.start;
        if gone == 0 {
            return;
        }
        self.buf.drain(..gone);
        self.start = 0;
        self.scan -= gone;
        if let Some((_, f)) = &mut self.pending {
            f.head_start -= gone;
            f.head_end -= gone;
            f.body_start -= gone;
            f.body_end -= gone;
        }
    }

    /// Forget everything buffered (an unframeable head).
    fn reset(&mut self) {
        self.buf.clear();
        self.framed.clear();
        self.error = None;
        self.start = 0;
        self.scan = 0;
        self.pending = None;
    }

    fn phase(&self) -> ParsePhase {
        if self.pending.is_some() {
            ParsePhase::Body
        } else {
            ParsePhase::Headers
        }
    }

    fn views<'a, V>(&'a self, view: fn(&'a str, &'a [u8]) -> V) -> Views<'a, V> {
        Views {
            buf: &self.buf,
            framed: self.framed.iter(),
            view,
        }
    }
}

/// Frame a complete head: its verdict (start line and header lines)
/// and its body length. The outer `Err` is for heads that cannot be
/// framed (see [`Accumulator`]).
fn frame_head<K: StartLine>(head: &[u8]) -> Result<(Result<(), ParseError>, usize), ParseError> {
    let head = std::str::from_utf8(head).map_err(|_| ParseError::NonUtf8Head)?;
    let mut lines = CrlfLines::new(head);
    let start = lines.next().unwrap_or_default();
    let mut malformed = None;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            // wm-lint: allow(hotpath/alloc, reason = "error path: a malformed line is quoted in the error, once per bad message")
            malformed.get_or_insert_with(|| ParseError::MalformedHeaderLine(line.to_owned()));
            continue;
        };
        // The first Content-Length frames the body; the builders
        // re-add it on serialization, so views do not list it.
        if length.is_none() && name.trim().eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let parsed = value.parse::<usize>();
            // wm-lint: allow(hotpath/alloc, reason = "error path: the bad value is quoted in the error, once per unframeable head")
            length = Some(parsed.map_err(|_| ParseError::BadContentLength(value.to_owned()))?);
        }
    }
    let verdict = K::check(start).and_then(|()| malformed.map_or(Ok(()), Err));
    Ok((verdict, length.unwrap_or(0)))
}

const CRLF2: &[u8; 4] = b"\r\n\r\n";

/// Offset of the first `\r\n\r\n` in `buf`.
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    let mut at = 0;
    while let Some(&last) = buf.get(at + 3) {
        if last != b'\r' && last != b'\n' {
            // No match can cover a byte outside the terminator's
            // alphabet, so none starts at `at..=at + 3`.
            at += 4;
        } else if buf.get(at..at + 4) == Some(CRLF2) {
            return Some(at);
        } else {
            at += 1;
        }
    }
    None
}

/// `str::split("\r\n")` without the substring searcher's setup cost.
pub(crate) struct CrlfLines<'a>(Option<&'a str>);

impl<'a> CrlfLines<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        CrlfLines(Some(text))
    }
}

impl<'a> Iterator for CrlfLines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let text = self.0?;
        let bytes = text.as_bytes();
        let mut from = 0;
        while let Some(cr) = bytes.get(from..)?.iter().position(|&b| b == b'\r') {
            let at = from + cr;
            if bytes.get(at + 1) == Some(&b'\n') {
                // `\r\n` is ASCII, so both cuts are char boundaries.
                self.0 = text.get(at + 2..);
                return text.get(..at);
            }
            from = at + 1;
        }
        self.0 = None;
        Some(text)
    }
}

/// The messages one feed completed, borrowed from the parser's buffer
/// as [`RequestView`]s or [`ResponseView`]s.
pub struct Views<'a, V> {
    buf: &'a [u8],
    framed: std::slice::Iter<'a, Framed>,
    view: fn(&'a str, &'a [u8]) -> V,
}

impl<'a, V> Iterator for Views<'a, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        let f = self.framed.next()?;
        let head = self.buf.get(f.head_start..f.head_end).unwrap_or_default();
        // Framing checked the head is UTF-8.
        let head = std::str::from_utf8(head).unwrap_or_default();
        let body = self.buf.get(f.body_start..f.body_end).unwrap_or_default();
        Some((self.view)(head, body))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.framed.size_hint()
    }
}

impl<V> ExactSizeIterator for Views<'_, V> {}

/// Incremental request parser (server side).
pub struct RequestParser {
    acc: Accumulator<RequestLine>,
}

impl RequestParser {
    pub fn new() -> Self {
        RequestParser {
            acc: Accumulator::new(),
        }
    }

    /// Current phase (tests and flow-control use this).
    pub fn phase(&self) -> ParsePhase {
        self.acc.phase()
    }

    /// Feed stream bytes; returns the requests completed by this feed,
    /// valid until the next one.
    // wm-lint: hotpath
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Views<'_, RequestView<'_>>, ParseError> {
        self.acc.feed(bytes)?;
        Ok(self.acc.views(RequestView::new))
    }
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental response parser (client side).
pub struct ResponseParser {
    acc: Accumulator<StatusLine>,
}

impl ResponseParser {
    pub fn new() -> Self {
        ResponseParser {
            acc: Accumulator::new(),
        }
    }

    pub fn phase(&self) -> ParsePhase {
        self.acc.phase()
    }

    /// Feed stream bytes; returns the responses completed by this feed,
    /// valid until the next one.
    // wm-lint: hotpath
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Views<'_, ResponseView<'_>>, ParseError> {
        self.acc.feed(bytes)?;
        Ok(self.acc.views(ResponseView::new))
    }
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response};

    /// Every request one feed completes, as (method, path, headers, body).
    type Fields = (String, String, Vec<(String, String)>, Vec<u8>);

    fn requests(p: &mut RequestParser, bytes: &[u8]) -> Vec<Fields> {
        p.feed(bytes)
            .unwrap()
            .map(|r| {
                let headers = r
                    .headers()
                    .map(|(n, v)| (n.to_owned(), v.to_owned()))
                    .collect();
                (
                    r.method().into(),
                    r.path().into(),
                    headers,
                    r.body().to_vec(),
                )
            })
            .collect()
    }

    fn fields(req: &Request) -> Fields {
        let mut p = RequestParser::new();
        let mut got = requests(&mut p, req.as_bytes());
        assert_eq!(got.len(), 1);
        got.remove(0)
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::new("POST", "/api/state")
            .header("Host", "www.netflix.com")
            .header("X-Esn", "NFCDIE-02-XYZ")
            .with_body(b"{\"event\":1}");
        let (method, path, headers, body) = fields(&req);
        assert_eq!((method.as_str(), path.as_str()), ("POST", "/api/state"));
        assert_eq!(
            headers,
            [
                ("Host".to_owned(), "www.netflix.com".to_owned()),
                ("X-Esn".to_owned(), "NFCDIE-02-XYZ".to_owned())
            ]
        );
        assert_eq!(body, req.body());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok()
            .header("Content-Type", "application/json")
            .with_body(b"ok");
        let mut p = ResponseParser::new();
        let got: Vec<_> = p.feed(resp.as_bytes()).unwrap().collect();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].status(), got[0].reason()), (200, "OK"));
        assert_eq!(
            got[0].headers().collect::<Vec<_>>(),
            [("Content-Type", "application/json")]
        );
        assert_eq!(got[0].body(), b"ok");
    }

    #[test]
    fn byte_at_a_time() {
        let req = Request::new("GET", "/chunk/42").header("Host", "nflx");
        let mut p = RequestParser::new();
        let mut got = Vec::new();
        for b in req.as_bytes() {
            got.extend(requests(&mut p, std::slice::from_ref(b)));
        }
        assert_eq!(got, [fields(&req)]);
    }

    #[test]
    fn pipelined_messages() {
        let a = Request::new("GET", "/a");
        let b = Request::new("POST", "/b").with_body(b"xyz");
        let mut wire = a.as_bytes().to_vec();
        wire.extend_from_slice(b.as_bytes());
        let mut p = RequestParser::new();
        assert_eq!(requests(&mut p, &wire), [fields(&a), fields(&b)]);
    }

    #[test]
    fn body_split_across_feeds() {
        let req = Request::new("POST", "/s").with_body(&[b'q'; 1000]);
        let bytes = req.as_bytes();
        let mut p = RequestParser::new();
        assert!(requests(&mut p, &bytes[..bytes.len() - 500]).is_empty());
        assert_eq!(p.phase(), ParsePhase::Body);
        let second = requests(&mut p, &bytes[bytes.len() - 500..]);
        assert_eq!(second, [fields(&req)]);
    }

    #[test]
    fn malformed_inputs_error() {
        let mut p = RequestParser::new();
        assert!(p.feed(b"NOT A REQUEST\r\n\r\n").is_err());
        let mut p2 = RequestParser::new();
        assert!(p2
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
            .is_err());
        let mut p3 = ResponseParser::new();
        assert!(p3.feed(b"HTTP/1.1 abc Bad\r\n\r\n").is_err());
    }

    #[test]
    fn zero_length_body_completes_without_more_bytes() {
        let mut p = ResponseParser::new();
        let got: Vec<_> = p
            .feed(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
            .unwrap()
            .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].status(), 204);
        assert!(got[0].body().is_empty());
    }

    #[test]
    fn a_feed_forgets_the_messages_of_the_last_one() {
        let one = Request::new("GET", "/x").header("Host", "h");
        let mut p = RequestParser::new();
        let mut wire = one.as_bytes().to_vec();
        wire.extend_from_slice(&one.as_bytes()[..5]);
        assert_eq!(p.feed(&wire).unwrap().len(), 1);
        assert_eq!(p.feed(&one.as_bytes()[5..]).unwrap().len(), 1);
        // Only the unfinished head ever outlives a feed.
        assert!(p.acc.buf.len() <= one.as_bytes().len());
    }
}
