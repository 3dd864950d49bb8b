//! Differential tests: HTTP messages and parsers against the ones they
//! replaced.
//!
//! `owned` below is the earlier representation: `String` fields per
//! method, path, reason and header, a serializer that assembles them,
//! and the parser that built owned messages from the accumulated bytes.
//! `reference` is the accumulator that parser replaced in turn, reading
//! into the same owned messages. Both are kept verbatim as oracles.
//!
//! * Builders: random methods, paths, header sets and bodies must
//!   serialize to the same bytes and the same predicted lengths.
//! * Parsers: the same concatenations of valid and malformed messages,
//!   split at every byte offset or into random pieces, must yield the
//!   same messages field by field, the same errors (tier included:
//!   unframeable heads end the feed, malformed ones are framed) from
//!   every feed, and end in the same phase.

use wm_http::{ParseError, ParsePhase, Request, RequestParser, Response, ResponseParser};

/// The owned message representation, serializer and parser the
/// one-buffer messages and borrowed views replaced, kept verbatim
/// (bar `use` lines) as the oracle.
#[allow(dead_code)]
mod owned {
    use std::io::Write as _;
    use wm_http::{ParseError, ParsePhase};

    /// An HTTP/1.1 request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Request {
        pub method: String,
        pub path: String,
        /// Headers in serialization order (order matters for byte layout).
        pub headers: Vec<(String, String)>,
        pub body: Vec<u8>,
    }

    impl Request {
        /// Build a request; a `Content-Length` header is appended
        /// automatically when a body is present.
        pub fn new(method: &str, path: &str) -> Self {
            Request {
                method: method.to_owned(),
                path: path.to_owned(),
                headers: Vec::new(),
                body: Vec::new(),
            }
        }

        /// Append a header (chainable).
        pub fn header(mut self, name: &str, value: &str) -> Self {
            self.headers.push((name.to_owned(), value.to_owned()));
            self
        }

        /// Attach a body (chainable).
        pub fn body(mut self, body: Vec<u8>) -> Self {
            self.body = body;
            self
        }

        /// Serialize to wire bytes.
        pub fn to_bytes(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(self.serialized_len());
            out.extend_from_slice(self.method.as_bytes());
            out.push(b' ');
            out.extend_from_slice(self.path.as_bytes());
            out.extend_from_slice(b" HTTP/1.1\r\n");
            for (name, value) in &self.headers {
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b": ");
                out.extend_from_slice(value.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            if !self.body.is_empty() {
                out.extend_from_slice(b"Content-Length: ");
                push_decimal(&mut out, self.body.len());
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(&self.body);
            out
        }

        /// Exact length of [`Request::to_bytes`].
        pub fn serialized_len(&self) -> usize {
            self.serialized_len_with_body(self.body.len())
        }

        /// Exact length of [`Request::to_bytes`] once a body of `body_len`
        /// bytes replaces the current one (sizing a body to a wire target
        /// without building it).
        pub fn serialized_len_with_body(&self, body_len: usize) -> usize {
            let mut n = self.method.len() + 1 + self.path.len() + 11; // " HTTP/1.1\r\n"
            for (name, value) in &self.headers {
                n += name.len() + 2 + value.len() + 2;
            }
            if body_len > 0 {
                n += 16 + dec_len(body_len) + 2; // "Content-Length: …\r\n"
            }
            n + 2 + body_len
        }

        /// Look up a header value (case-insensitive name match).
        pub fn header_value(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }
    }

    /// An HTTP/1.1 response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Response {
        pub status: u16,
        pub reason: String,
        pub headers: Vec<(String, String)>,
        pub body: Vec<u8>,
    }

    impl Response {
        pub fn new(status: u16, reason: &str) -> Self {
            Response {
                status,
                reason: reason.to_owned(),
                headers: Vec::new(),
                body: Vec::new(),
            }
        }

        /// `200 OK` shorthand.
        pub fn ok() -> Self {
            Response::new(200, "OK")
        }

        pub fn header(mut self, name: &str, value: &str) -> Self {
            self.headers.push((name.to_owned(), value.to_owned()));
            self
        }

        pub fn body(mut self, body: Vec<u8>) -> Self {
            self.body = body;
            self
        }

        /// Serialize to wire bytes (Content-Length always present, matching
        /// real origin servers).
        pub fn to_bytes(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(128 + self.body.len());
            out.extend_from_slice(b"HTTP/1.1 ");
            push_decimal(&mut out, self.status as usize);
            out.push(b' ');
            out.extend_from_slice(self.reason.as_bytes());
            out.extend_from_slice(b"\r\n");
            for (name, value) in &self.headers {
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b": ");
                out.extend_from_slice(value.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"Content-Length: ");
            push_decimal(&mut out, self.body.len());
            out.extend_from_slice(b"\r\n\r\n");
            out.extend_from_slice(&self.body);
            out
        }

        pub fn header_value(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }
    }

    /// Append the decimal digits of `v` (no intermediate `String`).
    fn push_decimal(out: &mut Vec<u8>, v: usize) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{v}");
    }

    fn dec_len(mut v: usize) -> usize {
        let mut n = 1;
        while v >= 10 {
            v /= 10;
            n += 1;
        }
        n
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
                    length =
                        Some(parsed.map_err(|_| ParseError::BadContentLength(value.to_owned()))?);
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
}

/// The split-based accumulator that preceded `owned`'s parser (fresh
/// `Vec`s per head, one `String` per head line, one recursion per
/// pipelined message), kept verbatim (bar `use` lines) as a second,
/// independent oracle over the `owned` message types.
#[allow(dead_code)]
mod reference {
    use super::owned::{Request, Response};
    use wm_http::{ParseError, ParsePhase};

    /// Generic head-then-body accumulator shared by both parsers.
    struct Accumulator {
        buf: Vec<u8>,
        phase: ParsePhase,
        /// Parsed head lines (start line + headers) once phase is Body.
        head: Vec<String>,
        body_remaining: usize,
        body: Vec<u8>,
    }

    impl Accumulator {
        fn new() -> Self {
            Accumulator {
                buf: Vec::new(),
                phase: ParsePhase::Headers,
                head: Vec::new(),
                body_remaining: 0,
                body: Vec::new(),
            }
        }

        /// Feed bytes; returns `Some((head_lines, body))` per complete
        /// message. Returns `Err` on malformed heads.
        fn feed(
            &mut self,
            mut bytes: &[u8],
            out: &mut Vec<(Vec<String>, Vec<u8>)>,
        ) -> Result<(), ParseError> {
            while !bytes.is_empty() {
                match self.phase {
                    ParsePhase::Headers => {
                        self.buf.extend_from_slice(bytes);
                        bytes = &[];
                        if let Some(end) = find_double_crlf(&self.buf) {
                            let head_bytes = self.buf.get(..end).unwrap_or_default().to_vec();
                            let rest = self.buf.get(end + 4..).unwrap_or_default().to_vec();
                            self.buf.clear();
                            let head_text = String::from_utf8(head_bytes)
                                .map_err(|_| ParseError::NonUtf8Head)?;
                            self.head = head_text.split("\r\n").map(str::to_owned).collect();
                            self.body_remaining = content_length(&self.head)?;
                            self.body = Vec::with_capacity(self.body_remaining);
                            self.phase = ParsePhase::Body;
                            // Re-feed what followed the head.
                            self.feed(&rest, out)?;
                        }
                    }
                    ParsePhase::Body => {
                        let take = bytes.len().min(self.body_remaining);
                        let (chunk, rest) = bytes.split_at_checked(take).unwrap_or((bytes, &[]));
                        self.body.extend_from_slice(chunk);
                        self.body_remaining -= chunk.len();
                        bytes = rest;
                        if self.body_remaining == 0 {
                            out.push((
                                std::mem::take(&mut self.head),
                                std::mem::take(&mut self.body),
                            ));
                            self.phase = ParsePhase::Headers;
                        }
                    }
                }
            }
            // Zero-length bodies complete immediately even with no trailing bytes.
            if self.phase == ParsePhase::Body && self.body_remaining == 0 {
                out.push((
                    std::mem::take(&mut self.head),
                    std::mem::take(&mut self.body),
                ));
                self.phase = ParsePhase::Headers;
            }
            Ok(())
        }

        fn phase(&self) -> ParsePhase {
            self.phase
        }
    }

    fn find_double_crlf(buf: &[u8]) -> Option<usize> {
        buf.windows(4).position(|w| w == b"\r\n\r\n")
    }

    /// The head lines after the start line (empty when the head is empty).
    fn header_lines(head: &[String]) -> &[String] {
        head.get(1..).unwrap_or_default()
    }

    /// The start line of a head block (`""` when the head is empty).
    fn start_line(head: &[String]) -> &str {
        head.first().map(String::as_str).unwrap_or_default()
    }

    fn content_length(head: &[String]) -> Result<usize, ParseError> {
        for line in header_lines(head) {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    return value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ParseError::BadContentLength(value.trim().to_owned()));
                }
            }
        }
        Ok(0)
    }

    fn split_headers(head: &[String]) -> Result<Vec<(String, String)>, ParseError> {
        header_lines(head)
            .iter()
            .map(|line| {
                line.split_once(':')
                    .map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
                    .ok_or_else(|| ParseError::MalformedHeaderLine(line.clone()))
            })
            .collect()
    }

    /// Incremental request parser (server side).
    pub struct RequestParser {
        acc: Accumulator,
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
            let mut raw = Vec::new();
            self.acc.feed(bytes, &mut raw)?;
            raw.into_iter()
                .map(|(head, body)| {
                    let mut parts = start_line(&head).split(' ');
                    let method = parts.next().unwrap_or("").to_owned();
                    let path = parts.next().unwrap_or("").to_owned();
                    let version = parts.next().unwrap_or("");
                    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
                        return Err(ParseError::MalformedRequestLine(
                            start_line(&head).to_owned(),
                        ));
                    }
                    Ok(Request {
                        method,
                        path,
                        headers: strip_content_length(split_headers(&head)?),
                        body,
                    })
                })
                .collect()
        }
    }

    impl Default for RequestParser {
        fn default() -> Self {
            Self::new()
        }
    }

    /// Incremental response parser (client side).
    pub struct ResponseParser {
        acc: Accumulator,
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
            let mut raw = Vec::new();
            self.acc.feed(bytes, &mut raw)?;
            raw.into_iter()
                .map(|(head, body)| {
                    let mut parts = start_line(&head).splitn(3, ' ');
                    let version = parts.next().unwrap_or("");
                    let status: u16 = parts
                        .next()
                        .unwrap_or("")
                        .parse()
                        .map_err(|_| ParseError::BadStatusLine(start_line(&head).to_owned()))?;
                    let reason = parts.next().unwrap_or("").to_owned();
                    if !version.starts_with("HTTP/1.") {
                        return Err(ParseError::BadStatusLine(start_line(&head).to_owned()));
                    }
                    Ok(Response {
                        status,
                        reason,
                        headers: strip_content_length(split_headers(&head)?),
                        body,
                    })
                })
                .collect()
        }
    }

    impl Default for ResponseParser {
        fn default() -> Self {
            Self::new()
        }
    }

    /// The builders re-add Content-Length on serialization; strip it on
    /// parse so `parse(serialize(m)) == m`.
    fn strip_content_length(headers: Vec<(String, String)>) -> Vec<(String, String)> {
        headers
            .into_iter()
            .filter(|(n, _)| !n.eq_ignore_ascii_case("content-length"))
            .collect()
    }
}

/// Minimal splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }
    /// Up to `max` characters from `alphabet`.
    fn text(&mut self, alphabet: &[u8], max: usize) -> String {
        (0..self.below(max + 1))
            .map(|_| alphabet[self.below(alphabet.len())] as char)
            .collect()
    }
    fn bytes(&mut self, max: usize) -> Vec<u8> {
        (0..self.below(max + 1))
            .map(|_| self.next() as u8)
            .collect()
    }
}

const NAME_CHARS: &[u8] = b"ABCXYZabcxyz019-";
/// Printable ASCII without `:` (values may carry inner spaces).
const VALUE_CHARS: &[u8] = b"abcXYZ019 ;=/.,*-_()";
const PATH_CHARS: &[u8] = b"abcxyz019/._-?=&%";

/// A header set the player or server could send: names drawn from
/// the real ones plus random tokens (never `Content-Length`, which the
/// builders frame), values trimmed as a parser would read them.
fn header_set(rng: &mut Rng) -> Vec<(String, String)> {
    const NAMES: &[&str] = &["Host", "User-Agent", "Cookie", "Accept", "Content-Type"];
    (0..rng.below(7))
        .map(|_| {
            let name = if rng.below(2) == 0 {
                rng.pick(NAMES).to_owned()
            } else {
                format!("X{}", rng.text(NAME_CHARS, 12))
            };
            (name, rng.text(VALUE_CHARS, 40).trim().to_owned())
        })
        .collect()
}

/// A random request, built both ways.
fn request_pair(rng: &mut Rng) -> (Request, owned::Request) {
    let method = rng.pick(&["GET", "POST", "PUT"]);
    let path = format!("/{}", rng.text(PATH_CHARS, 30));
    let body = if rng.below(3) == 0 {
        Vec::new()
    } else {
        rng.bytes(700)
    };
    let mut new = Request::new(method, &path);
    let mut old = owned::Request::new(method, &path);
    for (name, value) in header_set(rng) {
        new = new.header(&name, &value);
        old = old.header(&name, &value);
    }
    (new.with_body(&body), old.body(body))
}

/// A random response, built both ways.
fn response_pair(rng: &mut Rng) -> (Response, owned::Response) {
    let status = 100 + rng.below(500) as u16;
    let reason = rng.text(b"abcOK Not", 20);
    let body = rng.bytes(900);
    let mut new = Response::with_capacity(status, &reason, rng.below(1000));
    let mut old = owned::Response::new(status, &reason);
    for (name, value) in header_set(rng) {
        new = new.header(&name, &value);
        old = old.header(&name, &value);
    }
    (new.with_body(&body), old.body(body))
}

fn owned_request(v: wm_http::RequestView<'_>) -> owned::Request {
    owned::Request {
        method: v.method().to_owned(),
        path: v.path().to_owned(),
        headers: v
            .headers()
            .map(|(n, v)| (n.to_owned(), v.to_owned()))
            .collect(),
        body: v.body().to_vec(),
    }
}

fn owned_response(v: wm_http::ResponseView<'_>) -> owned::Response {
    owned::Response {
        status: v.status(),
        reason: v.reason().to_owned(),
        headers: v
            .headers()
            .map(|(n, v)| (n.to_owned(), v.to_owned()))
            .collect(),
        body: v.body().to_vec(),
    }
}

/// Message fragments: valid requests and responses plus every
/// malformation either parser distinguishes.
const REQUESTS: &[&[u8]] = &[
    b"GET /chunk/7 HTTP/1.1\r\nHost: nflx\r\n\r\n",
    b"POST /state HTTP/1.1\r\nHost: nflx\r\nContent-Length: 5\r\n\r\nhello",
    b"POST /s HTTP/1.1\r\ncontent-length :  3 \r\nX: y\r\n\r\nabc",
    b"POST /z HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    b"POST /d HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: oops\r\n\r\nok",
    b"PUT /r HTTP/1.0\r\nA:\r\n :b\r\nC: d\re\r\n\r\n",
    b"GET /\xc3\xa9 HTTP/1.1\r\nX-\xe4\xb8\x96: v\r\n\r\n",
    b"NOT A REQUEST\r\n\r\n",
    b"GET /x HTTP/2\r\n\r\n",
    b"GET /h HTTP/1.1\r\nno colon here\r\nContent-Length: 4\r\n\r\nbody",
    b"POST /b HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    b"GET /u HTTP/1.1\r\nX: \xff\xfe\r\n\r\n",
    b"\r\n\r\n",
    b"GET /cr HTTP/1.1\r\nA: b\r\r\n\r\n",
];

const RESPONSES: &[&[u8]] = &[
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 206 Partial Content\r\nContent-Length: 7\r\n\r\n\r\n\r\n\r\nx",
    b"HTTP/1.1 503\r\nRetry-After: 2\r\n\r\n",
    b"HTTP/1.1 abc Bad\r\n\r\n",
    b"HTTP/2 200 OK\r\n\r\n",
    b"HTTP/1.1 99999 Big\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nbroken\r\nContent-Length: 1\r\n\r\nz",
    b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
    b"HTTP/1.1 200 \xc3\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n",
];

/// `count` fragments drawn from `pool`, concatenated.
fn wire(rng: &mut Rng, pool: &[&[u8]], count: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..count {
        out.extend_from_slice(pool[rng.below(pool.len())]);
    }
    out
}

type Feed<M> = Result<Vec<M>, ParseError>;

/// Feed `pieces` to the parser under test and both oracles; every feed
/// must agree.
fn assert_same<M: PartialEq + std::fmt::Debug>(
    case: &str,
    pieces: &[&[u8]],
    mut new: impl FnMut(&[u8]) -> (Feed<M>, ParsePhase),
    mut owned: impl FnMut(&[u8]) -> (Feed<M>, ParsePhase),
    mut reference: impl FnMut(&[u8]) -> (Feed<M>, ParsePhase),
) {
    for (i, piece) in pieces.iter().enumerate() {
        let got = new(piece);
        let n = pieces.len();
        assert_eq!(got, owned(piece), "{case}: feed {i} of {n} (owned)");
        assert_eq!(got, reference(piece), "{case}: feed {i} of {n} (reference)");
    }
}

fn check_requests(case: &str, pieces: &[&[u8]]) {
    let mut new = RequestParser::new();
    let mut owned = owned::RequestParser::new();
    let mut reference = reference::RequestParser::new();
    assert_same(
        case,
        pieces,
        |b| {
            let got = new.feed(b).map(|rs| rs.map(owned_request).collect());
            (got, new.phase())
        },
        |b| (owned.feed(b), owned.phase()),
        |b| (reference.feed(b), reference.phase()),
    );
}

fn check_responses(case: &str, pieces: &[&[u8]]) {
    let mut new = ResponseParser::new();
    let mut owned = owned::ResponseParser::new();
    let mut reference = reference::ResponseParser::new();
    assert_same(
        case,
        pieces,
        |b| {
            let got = new.feed(b).map(|rs| rs.map(owned_response).collect());
            (got, new.phase())
        },
        |b| (owned.feed(b), owned.phase()),
        |b| (reference.feed(b), reference.phase()),
    );
}

#[test]
fn every_fragment_alone_at_every_split_point() {
    for (pool, is_req) in [(REQUESTS, true), (RESPONSES, false)] {
        for (f, frag) in pool.iter().enumerate() {
            for cut in 0..=frag.len() {
                let (a, b) = frag.split_at(cut);
                let case = format!("fragment {f} cut {cut}");
                if is_req {
                    check_requests(&case, &[a, b]);
                } else {
                    check_responses(&case, &[a, b]);
                }
            }
        }
    }
}

#[test]
fn concatenations_agree_at_every_split_point() {
    let mut rng = Rng(0x4854_5450);
    for case in 0..60 {
        for (pool, is_req) in [(REQUESTS, true), (RESPONSES, false)] {
            let count = 1 + rng.below(5);
            let bytes = wire(&mut rng, pool, count);
            for cut in 0..=bytes.len() {
                let (a, b) = bytes.split_at(cut);
                let name = format!("case {case} cut {cut}");
                if is_req {
                    check_requests(&name, &[a, b]);
                } else {
                    check_responses(&name, &[a, b]);
                }
            }
        }
    }
}

#[test]
fn random_multi_piece_feeds_agree() {
    let mut rng = Rng(0x5049_4543);
    for case in 0..300 {
        for (pool, is_req) in [(REQUESTS, true), (RESPONSES, false)] {
            let count = 1 + rng.below(8);
            let bytes = wire(&mut rng, pool, count);
            let mut pieces = Vec::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (a, b) = rest.split_at(rng.below(rest.len().min(12) + 1));
                pieces.push(a);
                rest = b;
            }
            let name = format!("case {case}");
            if is_req {
                check_requests(&name, &pieces);
            } else {
                check_responses(&name, &pieces);
            }
        }
    }
}

/// Random methods, paths, header sets and bodies serialize to the
/// owned builders' bytes, predict the same lengths and read back the
/// same fields.
#[test]
fn builders_serialize_like_the_owned_ones() {
    let mut rng = Rng(0x4255_494c);
    for case in 0..500 {
        let (new, old) = request_pair(&mut rng);
        assert_eq!(new.as_bytes(), &old.to_bytes()[..], "request case {case}");
        assert_eq!(new.serialized_len(), old.serialized_len(), "case {case}");
        for body_len in [0, 1, 9, 10, 999, 1000, rng.below(5000)] {
            assert_eq!(
                new.serialized_len_with_body(body_len),
                old.serialized_len_with_body(body_len),
                "case {case} body {body_len}"
            );
        }
        let view = new.view();
        assert_eq!(
            (view.method(), view.path()),
            (&old.method[..], &old.path[..])
        );
        assert_eq!(new.body(), &old.body[..], "case {case}");
        assert_eq!(new.head_len() + old.body.len(), old.to_bytes().len());
        for (name, _) in &old.headers {
            assert_eq!(
                view.header_value(name),
                old.header_value(name),
                "case {case}"
            );
        }
        assert_eq!(owned_request(new.view()), old, "request case {case}");

        let (new, old) = response_pair(&mut rng);
        assert_eq!(new.as_bytes(), &old.to_bytes()[..], "response case {case}");
        assert_eq!((new.status(), new.body()), (old.status, &old.body[..]));
        assert_eq!(owned_response(new.view()), old, "response case {case}");
    }
}

/// Pipelines of random built messages, mixed with malformed fragments,
/// parse alike at every split point and in random pieces.
#[test]
fn built_pipelines_parse_alike_at_every_split_point() {
    let mut rng = Rng(0x5049_5045);
    for case in 0..40 {
        let mut reqs = Vec::new();
        let mut resps = Vec::new();
        for _ in 0..1 + rng.below(4) {
            reqs.extend_from_slice(request_pair(&mut rng).0.as_bytes());
            resps.extend_from_slice(response_pair(&mut rng).0.as_bytes());
            if rng.below(4) == 0 {
                reqs.extend_from_slice(REQUESTS[rng.below(REQUESTS.len())]);
                resps.extend_from_slice(RESPONSES[rng.below(RESPONSES.len())]);
            }
        }
        for (bytes, is_req) in [(&reqs, true), (&resps, false)] {
            for cut in (0..=bytes.len()).step_by(1 + rng.below(3)) {
                let (a, b) = bytes.split_at(cut);
                let name = format!("case {case} cut {cut}");
                if is_req {
                    check_requests(&name, &[a, b]);
                } else {
                    check_responses(&name, &[a, b]);
                }
            }
            let mut pieces = Vec::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let (a, b) = rest.split_at(rng.below(rest.len().min(400) + 1));
                pieces.push(a);
                rest = b;
            }
            let name = format!("case {case} pieces");
            if is_req {
                check_requests(&name, &pieces);
            } else {
                check_responses(&name, &pieces);
            }
        }
    }
}

/// Built messages survive byte-at-a-time delivery identically too.
#[test]
fn byte_at_a_time_agrees() {
    let req = Request::new("POST", "/api/state")
        .header("Host", "www.netflix.com")
        .with_body(b"{\"event\":1}");
    let resp = Response::ok().header("X", "y").with_body(&[b'q'; 40]);
    let mut wire_req = req.as_bytes().to_vec();
    wire_req.extend_from_slice(req.as_bytes());
    let mut wire_resp = resp.as_bytes().to_vec();
    wire_resp.extend_from_slice(resp.as_bytes());
    let req_pieces: Vec<&[u8]> = wire_req.chunks(1).collect();
    let resp_pieces: Vec<&[u8]> = wire_resp.chunks(1).collect();
    check_requests("requests bytewise", &req_pieces);
    check_responses("responses bytewise", &resp_pieces);
}

/// A head that arrives in pieces, then a long pipeline in one feed:
/// framing is a loop, so depth does not grow with the message count.
#[test]
fn long_pipeline_in_one_feed_does_not_grow_the_stack() {
    let handle = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let one = Request::new("GET", "/chunk/1")
                .header("Host", "nflx")
                .as_bytes()
                .to_vec();
            let mut parser = RequestParser::new();
            let (head, tail) = one.split_at(5);
            assert_eq!(parser.feed(head).expect("partial head").len(), 0);
            let mut rest = tail.to_vec();
            for _ in 0..100_000 {
                rest.extend_from_slice(&one);
            }
            parser.feed(&rest).expect("pipelined requests").len()
        })
        .expect("spawn parser thread");
    assert_eq!(handle.join().expect("parser thread"), 100_001);
}
