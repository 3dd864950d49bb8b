//! # wm-http — minimal HTTP/1.1 framing
//!
//! The Netflix player speaks HTTPS: HTTP requests and responses inside
//! the TLS stream. Header bytes count toward the TLS record lengths the
//! eavesdropper observes, so requests are serialized byte-exactly here
//! (header order and spacing fixed, `Content-Length` framing only — the
//! state-report POSTs the paper studies are small single-record bodies,
//! not chunked).
//!
//! A built [`Request`]/[`Response`] *is* its wire bytes: one buffer
//! holding the start line, the header lines, the framing and the body,
//! which builders append to and the session seals as it stands. The
//! incremental parsers ([`RequestParser`], [`ResponseParser`]) used by
//! the simulated server and player hand out borrowed views
//! ([`RequestView`], [`ResponseView`]) of the bytes they accumulated;
//! a built message lends the same view, so handlers take one type
//! whichever side the message came from.

mod parse;

pub use parse::{ParseError, ParsePhase, RequestParser, ResponseParser, Views};

/// Head bytes reserved up front, so a message's header lines (a
/// state report's run to ~600 bytes) are appended without regrowing
/// its buffer.
const HEAD_RESERVE: usize = 768;

/// A serialized message under construction: the start line and header
/// lines, then the framing (`Content-Length` line, blank line), then
/// the body. Always complete, so it can be sent at any point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Wire {
    bytes: Vec<u8>,
    /// End of the header lines: the framing starts here.
    head_end: usize,
    /// Start of the body.
    body_start: usize,
}

impl Wire {
    /// A message whose start line is `parts` concatenated (CRLF added),
    /// framed for an empty body, with room for a body of `body_capacity`
    /// bytes.
    // wm-lint: alloc-ok(reason = "one buffer per message: the head, framing and body all land in it")
    fn new(parts: &[&[u8]], framing: Framing, body_capacity: usize) -> Self {
        let start_len: usize = parts.iter().map(|p| p.len()).sum::<usize>() + 2;
        let mut bytes = Vec::with_capacity(start_len + HEAD_RESERVE + body_capacity);
        for part in parts {
            bytes.extend_from_slice(part);
        }
        bytes.extend_from_slice(b"\r\n");
        let mut wire = Wire {
            head_end: bytes.len(),
            body_start: bytes.len(),
            bytes,
        };
        wire.set_body(0, framing, |_| {});
        wire
    }

    /// Insert the header line `name: value` after the present ones.
    // wm-lint: hotpath
    fn push_header(&mut self, name: &str, value: &str) {
        let at = self.head_end;
        let grow = name.len() + value.len() + 4;
        let old_len = self.bytes.len();
        // Open a gap at the end of the header lines (the framing and
        // body, if any, shift right) and write the line into it.
        self.bytes.resize(old_len + grow, 0);
        self.bytes.copy_within(at..old_len, at + grow);
        let mut w = at;
        for piece in [name.as_bytes(), b": ", value.as_bytes(), b"\r\n"] {
            if let Some(dst) = self.bytes.get_mut(w..w + piece.len()) {
                dst.copy_from_slice(piece);
            }
            w += piece.len();
        }
        self.head_end += grow;
        self.body_start += grow;
    }

    /// Replace the framing and body with a body of `len` bytes, written
    /// by `fill` into a slice of exactly that length.
    // wm-lint: hotpath
    fn set_body(&mut self, len: usize, framing: Framing, fill: impl FnOnce(&mut [u8])) {
        self.bytes.truncate(self.head_end);
        let framing_len = framing.len(len);
        self.bytes.reserve_exact(framing_len + len);
        if framing.has_length(len) {
            self.bytes.extend_from_slice(b"Content-Length: ");
            push_decimal(&mut self.bytes, len);
            self.bytes.extend_from_slice(b"\r\n");
        }
        self.bytes.extend_from_slice(b"\r\n");
        self.body_start = self.bytes.len();
        self.bytes.resize(self.body_start + len, 0);
        fill(self.bytes.get_mut(self.body_start..).unwrap_or_default());
    }

    /// The header block a parser would frame: start line and header
    /// lines, without the CRLF ending the last one.
    fn head(&self) -> &str {
        let head = self.bytes.get(..self.head_end.saturating_sub(2));
        // Builders only ever insert whole `&str`s, so this never fails.
        std::str::from_utf8(head.unwrap_or_default()).unwrap_or_default()
    }

    fn body(&self) -> &[u8] {
        self.bytes.get(self.body_start..).unwrap_or_default()
    }

    /// Exact serialized length once a body of `body_len` bytes replaces
    /// the current one.
    fn len_with_body(&self, body_len: usize, framing: Framing) -> usize {
        self.head_end + framing.len(body_len) + body_len
    }
}

/// How a message frames its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// `Content-Length` only when a body is present (requests).
    LengthIfBody,
    /// `Content-Length` always, `0` included (responses, matching real
    /// origin servers).
    AlwaysLength,
}

impl Framing {
    fn has_length(self, body_len: usize) -> bool {
        body_len > 0 || self == Framing::AlwaysLength
    }

    /// Bytes between the header lines and the body.
    fn len(self, body_len: usize) -> usize {
        if self.has_length(body_len) {
            16 + dec_len(body_len) + 2 + 2 // "Content-Length: …\r\n\r\n"
        } else {
            2
        }
    }
}

/// An HTTP/1.1 request, held as its serialized bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    wire: Wire,
}

impl Request {
    /// Start a request with no headers and no body. A `Content-Length`
    /// header is framed automatically once a body is attached.
    pub fn new(method: &str, path: &str) -> Self {
        Request {
            wire: Wire::new(
                &[method.as_bytes(), b" ", path.as_bytes(), b" HTTP/1.1"],
                Framing::LengthIfBody,
                0,
            ),
        }
    }

    /// Append a header (chainable). Headers serialize in call order.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.wire.push_header(name, value);
        self
    }

    /// Attach a body (chainable), replacing any earlier one.
    pub fn with_body(self, body: &[u8]) -> Self {
        self.with_body_fn(body.len(), |dst| dst.copy_from_slice(body))
    }

    /// Attach a body of `len` bytes written in place by `fill`, which
    /// receives a slice of exactly that length.
    pub fn with_body_fn(mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        self.wire.set_body(len, Framing::LengthIfBody, fill);
        self
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.wire.bytes
    }

    /// The wire bytes, owned.
    pub fn into_bytes(self) -> Vec<u8> {
        self.wire.bytes
    }

    /// Exact length of [`Request::as_bytes`].
    pub fn serialized_len(&self) -> usize {
        self.wire.bytes.len()
    }

    /// Exact serialized length once a body of `body_len` bytes replaces
    /// the current one (sizing a body to a wire target without
    /// building it).
    pub fn serialized_len_with_body(&self, body_len: usize) -> usize {
        self.wire.len_with_body(body_len, Framing::LengthIfBody)
    }

    /// Length of the head as serialized, framing included: the body
    /// starts at this offset of [`Request::as_bytes`].
    pub fn head_len(&self) -> usize {
        self.wire.body_start
    }

    /// The request as a parser would read it off the wire.
    pub fn view(&self) -> RequestView<'_> {
        RequestView::new(self.wire.head(), self.wire.body())
    }

    pub fn body(&self) -> &[u8] {
        self.wire.body()
    }
}

impl std::fmt::Display for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let view = self.view();
        write!(
            f,
            "{} {} ({} body bytes)",
            view.method(),
            view.path(),
            view.body().len()
        )
    }
}

/// An HTTP/1.1 response, held as its serialized bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    wire: Wire,
}

impl Response {
    /// Start a response with no headers and an empty body
    /// (`Content-Length: 0`).
    pub fn new(status: u16, reason: &str) -> Self {
        Response::with_capacity(status, reason, 0)
    }

    /// [`Response::new`] with room for a body of `body_capacity` bytes,
    /// so attaching one does not regrow the buffer.
    pub fn with_capacity(status: u16, reason: &str, body_capacity: usize) -> Self {
        let mut digits = [0u8; 20];
        let status = decimal(&mut digits, status as usize);
        Response {
            wire: Wire::new(
                &[b"HTTP/1.1 ", status, b" ", reason.as_bytes()],
                Framing::AlwaysLength,
                body_capacity,
            ),
        }
    }

    /// `200 OK` shorthand.
    pub fn ok() -> Self {
        Response::new(200, "OK")
    }

    /// Append a header (chainable).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.wire.push_header(name, value);
        self
    }

    /// Attach a body (chainable), replacing any earlier one.
    pub fn with_body(self, body: &[u8]) -> Self {
        self.with_body_fn(body.len(), |dst| dst.copy_from_slice(body))
    }

    /// Attach a body of `len` bytes written in place by `fill`.
    pub fn with_body_fn(mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        self.wire.set_body(len, Framing::AlwaysLength, fill);
        self
    }

    /// The wire bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.wire.bytes
    }

    /// The response as a parser would read it off the wire.
    pub fn view(&self) -> ResponseView<'_> {
        ResponseView::new(self.wire.head(), self.wire.body())
    }

    pub fn status(&self) -> u16 {
        self.view().status()
    }

    pub fn body(&self) -> &[u8] {
        self.wire.body()
    }
}

/// A request as read off the wire: its header block and body, borrowed
/// from a parser's buffer or from a built [`Request`].
///
/// Fields read as the parser frames them: header names and values are
/// trimmed, and `Content-Length` (framing, re-added by the builders) is
/// not a header.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    head: &'a str,
    body: &'a [u8],
}

impl<'a> RequestView<'a> {
    pub(crate) fn new(head: &'a str, body: &'a [u8]) -> Self {
        RequestView { head, body }
    }

    pub fn method(&self) -> &'a str {
        start_line(self.head).split(' ').next().unwrap_or("")
    }

    pub fn path(&self) -> &'a str {
        start_line(self.head).split(' ').nth(1).unwrap_or("")
    }

    /// Headers in wire order.
    pub fn headers(&self) -> Headers<'a> {
        Headers::of(self.head)
    }

    /// Look up a header value (case-insensitive name match; the first
    /// occurrence wins).
    pub fn header_value(&self, name: &str) -> Option<&'a str> {
        lookup(self.head, name)
    }

    pub fn body(&self) -> &'a [u8] {
        self.body
    }

    /// The same head over another body (a decoded one, say).
    pub fn with_body<'b>(&self, body: &'b [u8]) -> RequestView<'b>
    where
        'a: 'b,
    {
        RequestView {
            head: self.head,
            body,
        }
    }
}

/// A response as read off the wire (see [`RequestView`]).
#[derive(Debug, Clone, Copy)]
pub struct ResponseView<'a> {
    head: &'a str,
    body: &'a [u8],
}

impl<'a> ResponseView<'a> {
    pub(crate) fn new(head: &'a str, body: &'a [u8]) -> Self {
        ResponseView { head, body }
    }

    pub fn status(&self) -> u16 {
        let mut parts = start_line(self.head).splitn(3, ' ');
        parts.nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
    }

    pub fn reason(&self) -> &'a str {
        start_line(self.head).splitn(3, ' ').nth(2).unwrap_or("")
    }

    pub fn headers(&self) -> Headers<'a> {
        Headers::of(self.head)
    }

    pub fn header_value(&self, name: &str) -> Option<&'a str> {
        lookup(self.head, name)
    }

    pub fn body(&self) -> &'a [u8] {
        self.body
    }
}

/// The `(name, value)` header pairs of a head, in wire order.
pub struct Headers<'a> {
    lines: parse::CrlfLines<'a>,
}

impl<'a> Headers<'a> {
    fn of(head: &'a str) -> Self {
        let mut lines = parse::CrlfLines::new(head);
        lines.next(); // the start line
        Headers { lines }
    }
}

impl<'a> Iterator for Headers<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        for line in self.lines.by_ref() {
            let Some((name, value)) = line.split_once(':') else {
                continue; // framed heads have none; built ones neither
            };
            let name = name.trim();
            if !name.eq_ignore_ascii_case("content-length") {
                return Some((name, value.trim()));
            }
        }
        None
    }
}

fn start_line(head: &str) -> &str {
    parse::CrlfLines::new(head).next().unwrap_or("")
}

fn lookup<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    Headers::of(head)
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v)
}

/// The decimal digits of `v`, written into the tail of `buf`.
fn decimal(buf: &mut [u8; 20], mut v: usize) -> &[u8] {
    let mut at = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        at -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.get(at..).unwrap_or_default()
}

/// Append the decimal digits of `v` (no formatting machinery).
fn push_decimal(out: &mut Vec<u8>, v: usize) {
    let mut buf = [0u8; 20];
    out.extend_from_slice(decimal(&mut buf, v));
}

fn dec_len(mut v: usize) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_format() {
        let req = Request::new("POST", "/state")
            .header("Host", "www.netflix.com")
            .with_body(b"{\"x\":1}");
        let text = std::str::from_utf8(req.as_bytes()).unwrap();
        assert!(text.starts_with("POST /state HTTP/1.1\r\n"));
        assert!(text.contains("Host: www.netflix.com\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
        assert_eq!(req.as_bytes().len(), req.serialized_len());
        assert_eq!(req.head_len(), req.serialized_len() - 7);
    }

    #[test]
    fn get_without_body_has_no_content_length() {
        let req = Request::new("GET", "/chunk/1");
        assert_eq!(req.as_bytes(), b"GET /chunk/1 HTTP/1.1\r\n\r\n");
        assert_eq!(req.serialized_len_with_body(0), req.serialized_len());
    }

    #[test]
    fn serialized_len_matches_across_sizes() {
        for body_len in [0usize, 1, 9, 10, 99, 100, 1000, 12345] {
            let base = Request::new("POST", "/x").header("A", "b");
            let predicted = base.serialized_len_with_body(body_len);
            let req = base.with_body(&vec![b'z'; body_len]);
            assert_eq!(req.as_bytes().len(), predicted, "body {body_len}");
        }
    }

    #[test]
    fn headers_after_the_body_land_before_the_framing() {
        let late = Request::new("POST", "/s")
            .header("A", "1")
            .with_body(b"xyz")
            .header("B", "2");
        let early = Request::new("POST", "/s")
            .header("A", "1")
            .header("B", "2")
            .with_body(b"xyz");
        assert_eq!(late, early);
        assert_eq!(late.body(), b"xyz");
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::ok()
            .header("Content-Type", "application/json")
            .with_body(b"{}");
        let text = std::str::from_utf8(resp.as_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert_eq!(
            Response::new(503, "Service Unavailable").as_bytes(),
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"
        );
    }

    #[test]
    fn accessors_read_the_wire() {
        let req = Request::new("GET", "/media/1/2?br=3")
            .header("X-Netflix-Esn", "NFCDIE-02")
            .header("Accept", "*/*");
        let req = req.view();
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path(), "/media/1/2?br=3");
        assert_eq!(req.header_value("x-netflix-esn"), Some("NFCDIE-02"));
        assert_eq!(req.header_value("missing"), None);
        let names: Vec<_> = req.headers().map(|(n, _)| n).collect();
        assert_eq!(names, ["X-Netflix-Esn", "Accept"]);
        let resp = Response::new(404, "Not Found").with_body(b"{}");
        let view = resp.view();
        assert_eq!((view.status(), view.reason()), (404, "Not Found"));
        assert_eq!(view.body(), b"{}");
    }

    #[test]
    fn decimals_match_formatting() {
        for v in [0usize, 7, 10, 99, 100, 65_535, usize::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
            assert_eq!(dec_len(v), out.len());
        }
    }
}
