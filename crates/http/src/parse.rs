//! Incremental HTTP/1.1 message parsers.
//!
//! Both simulated endpoints read their peer's bytes from a TLS plaintext
//! stream that arrives in arbitrary-sized pieces, so parsing is
//! incremental: feed bytes, pop complete messages. Only
//! `Content-Length` framing is supported (all simulated traffic uses
//! it; see the crate docs).

use crate::{Request, Response};

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

/// A message kind the accumulator frames: built from its start line,
/// then given its headers and body.
trait Message: Sized {
    /// Parse the start line (`Err` is the message's parse error).
    fn from_start_line(line: &str) -> Result<Self, ParseError>;
    fn set_headers(&mut self, headers: Vec<(String, String)>);
    fn set_body(&mut self, body: Vec<u8>);
}

impl Message for Request {
    fn from_start_line(line: &str) -> Result<Self, ParseError> {
        let mut parts = line.split(' ');
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("");
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(ParseError::MalformedRequestLine(line.to_owned()));
        }
        Ok(Request::new(method, path))
    }

    fn set_headers(&mut self, headers: Vec<(String, String)>) {
        self.headers = headers;
    }

    fn set_body(&mut self, body: Vec<u8>) {
        self.body = body;
    }
}

impl Message for Response {
    fn from_start_line(line: &str) -> Result<Self, ParseError> {
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status: u16 = parts
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| ParseError::BadStatusLine(line.to_owned()))?;
        let reason = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(ParseError::BadStatusLine(line.to_owned()));
        }
        Ok(Response::new(status, reason))
    }

    fn set_headers(&mut self, headers: Vec<(String, String)>) {
        self.headers = headers;
    }

    fn set_body(&mut self, body: Vec<u8>) {
        self.body = body;
    }
}

/// Bodies are preallocated up to this many bytes; a larger
/// (peer-supplied) `Content-Length` grows the buffer as bytes arrive.
const MAX_BODY_PREALLOC: usize = 1 << 20;

/// Generic head-then-body accumulator shared by both parsers.
///
/// Errors come in two tiers, as the framing requires. A head that is
/// not UTF-8 or has a bad `Content-Length` cannot be framed: the feed
/// stops there and returns the error, dropping the rest of its bytes.
/// A bad start line or header line still frames (its body is consumed),
/// so it is carried as that message's `Err` and reported by the parser
/// after the whole feed is framed.
struct Accumulator<M> {
    /// Head bytes of a message whose `\r\n\r\n` has not arrived yet.
    buf: Vec<u8>,
    /// The message whose body is being accumulated (`None` while
    /// reading a head).
    pending: Option<Result<M, ParseError>>,
    body_remaining: usize,
    body: Vec<u8>,
}

impl<M: Message> Accumulator<M> {
    fn new() -> Self {
        Accumulator {
            buf: Vec::new(),
            pending: None,
            body_remaining: 0,
            body: Vec::new(),
        }
    }

    /// Feed bytes, appending every message they complete to `out`.
    fn feed(
        &mut self,
        mut bytes: &[u8],
        out: &mut Vec<Result<M, ParseError>>,
    ) -> Result<(), ParseError> {
        loop {
            if self.pending.is_some() {
                let take = bytes.len().min(self.body_remaining);
                let (chunk, rest) = bytes.split_at_checked(take).unwrap_or((bytes, &[]));
                self.body.extend_from_slice(chunk);
                self.body_remaining -= chunk.len();
                bytes = rest;
                if self.body_remaining > 0 {
                    return Ok(());
                }
                self.complete(out);
            }
            if bytes.is_empty() {
                return Ok(());
            }
            if self.buf.is_empty() {
                // Nothing buffered: parse the head in place.
                let Some(end) = find_double_crlf(bytes) else {
                    self.buf.extend_from_slice(bytes);
                    return Ok(());
                };
                let (head, rest) = bytes.split_at(end);
                bytes = rest.get(4..).unwrap_or_default();
                self.begin(parse_head(head)?);
            } else {
                // A head begun by an earlier feed: only the new bytes
                // (and the three before them) can complete it.
                let Some((head_end, rest)) = self.find_buffered_head_end(bytes) else {
                    self.buf.extend_from_slice(bytes);
                    return Ok(());
                };
                bytes = rest;
                let parsed = parse_head(self.buf.get(..head_end).unwrap_or_default());
                self.buf.clear();
                self.begin(parsed?);
            }
            if self.body_remaining == 0 {
                // Zero-length bodies complete without further bytes.
                self.complete(out);
            }
        }
    }

    /// Complete a head buffered across feeds with the new `bytes`:
    /// appends the rest of the head to `buf` and returns the head's
    /// length there plus the bytes that follow the `\r\n\r\n`.
    fn find_buffered_head_end<'b>(&mut self, bytes: &'b [u8]) -> Option<(usize, &'b [u8])> {
        // The terminator may start in the last three buffered bytes
        // (`buf` itself holds none); earlier starts win.
        for k in (1..=3).rev() {
            let (in_buf, in_bytes) = CRLF2.split_at(k);
            if self.buf.ends_with(in_buf) && bytes.starts_with(in_bytes) {
                let head_end = self.buf.len() - k;
                return Some((head_end, bytes.get(4 - k..).unwrap_or_default()));
            }
        }
        let end = find_double_crlf(bytes)?;
        self.buf
            .extend_from_slice(bytes.get(..end).unwrap_or_default());
        Some((self.buf.len(), bytes.get(end + 4..).unwrap_or_default()))
    }

    /// Enter the body phase of a parsed head.
    fn begin(&mut self, (message, length): (Result<M, ParseError>, usize)) {
        self.body_remaining = length;
        self.body = Vec::with_capacity(length.min(MAX_BODY_PREALLOC));
        self.pending = Some(message);
    }

    /// The pending message's body is complete: emit it.
    fn complete(&mut self, out: &mut Vec<Result<M, ParseError>>) {
        let body = std::mem::take(&mut self.body);
        if let Some(message) = self.pending.take() {
            out.push(message.map(|mut m| {
                m.set_body(body);
                m
            }));
        }
    }

    fn phase(&self) -> ParsePhase {
        if self.pending.is_some() {
            ParsePhase::Body
        } else {
            ParsePhase::Headers
        }
    }
}

/// Parse a complete head into its message and body length. The outer
/// `Err` is for heads that cannot be framed (see [`Accumulator`]).
fn parse_head<M: Message>(head: &[u8]) -> Result<(Result<M, ParseError>, usize), ParseError> {
    let head = std::str::from_utf8(head).map_err(|_| ParseError::NonUtf8Head)?;
    let mut lines = CrlfLines(Some(head));
    let start = lines.next().unwrap_or_default();
    let mut headers = Vec::with_capacity(head.bytes().filter(|&b| b == b'\n').count());
    let mut malformed = None;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            malformed.get_or_insert_with(|| ParseError::MalformedHeaderLine(line.to_owned()));
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // The first Content-Length frames the body; the builders
            // re-add it on serialization, so it is not kept.
            if length.is_none() {
                let parsed = value.parse::<usize>();
                length = Some(parsed.map_err(|_| ParseError::BadContentLength(value.to_owned()))?);
            }
        } else if malformed.is_none() {
            headers.push((name.to_owned(), value.to_owned()));
        }
    }
    let message = M::from_start_line(start).and_then(|mut m| match malformed {
        Some(e) => Err(e),
        None => {
            m.set_headers(headers);
            Ok(m)
        }
    });
    Ok((message, length.unwrap_or(0)))
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
struct CrlfLines<'a>(Option<&'a str>);

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

/// Incremental request parser (server side).
pub struct RequestParser {
    acc: Accumulator<Request>,
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

    /// Feed stream bytes; returns the requests completed by this feed.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Request>, ParseError> {
        let mut out = Vec::new();
        self.acc.feed(bytes, &mut out)?;
        out.into_iter().collect()
    }
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental response parser (client side).
pub struct ResponseParser {
    acc: Accumulator<Response>,
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

    /// Feed stream bytes; returns the responses completed by this feed.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Response>, ParseError> {
        let mut out = Vec::new();
        self.acc.feed(bytes, &mut out)?;
        out.into_iter().collect()
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

    #[test]
    fn request_roundtrip() {
        let req = Request::new("POST", "/api/state")
            .header("Host", "www.netflix.com")
            .header("X-Esn", "NFCDIE-02-XYZ")
            .body(b"{\"event\":1}".to_vec());
        let mut p = RequestParser::new();
        let got = p.feed(&req.to_bytes()).unwrap();
        assert_eq!(got, vec![req]);
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok()
            .header("Content-Type", "application/json")
            .body(b"ok".to_vec());
        let mut p = ResponseParser::new();
        let got = p.feed(&resp.to_bytes()).unwrap();
        assert_eq!(got, vec![resp]);
    }

    #[test]
    fn byte_at_a_time() {
        let req = Request::new("GET", "/chunk/42").header("Host", "nflx");
        let bytes = req.to_bytes();
        let mut p = RequestParser::new();
        let mut got = Vec::new();
        for b in &bytes {
            got.extend(p.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, vec![req]);
    }

    #[test]
    fn pipelined_messages() {
        let a = Request::new("GET", "/a");
        let b = Request::new("POST", "/b").body(b"xyz".to_vec());
        let mut wire = a.to_bytes();
        wire.extend(b.to_bytes());
        let mut p = RequestParser::new();
        let got = p.feed(&wire).unwrap();
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn body_split_across_feeds() {
        let req = Request::new("POST", "/s").body(vec![b'q'; 1000]);
        let bytes = req.to_bytes();
        let mut p = RequestParser::new();
        let first = p.feed(&bytes[..bytes.len() - 500]).unwrap();
        assert!(first.is_empty());
        assert_eq!(p.phase(), ParsePhase::Body);
        let second = p.feed(&bytes[bytes.len() - 500..]).unwrap();
        assert_eq!(second, vec![req]);
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
        let got = p
            .feed(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].status, 204);
        assert!(got[0].body.is_empty());
    }
}
