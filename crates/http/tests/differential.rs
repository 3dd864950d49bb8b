//! Differential tests: the HTTP parsers against the accumulator they
//! replaced.
//!
//! `reference` below is the earlier, copying accumulator (fresh `Vec`s
//! per head, one `String` per head line, one recursion per pipelined
//! message), kept verbatim as an oracle. Both parsers are fed the same
//! concatenations of valid and malformed messages, split at every byte
//! offset, and must return the same messages and the same errors from
//! every feed and end in the same phase.

use wm_http::{ParseError, ParsePhase, Request, RequestParser, Response, ResponseParser};

#[allow(dead_code)]
mod reference {
    use wm_http::{ParseError, ParsePhase, Request, Response};

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

/// Feed `pieces` to both parsers; every feed must agree.
fn assert_same<M: PartialEq + std::fmt::Debug>(
    case: &str,
    pieces: &[&[u8]],
    mut new: impl FnMut(&[u8]) -> (Feed<M>, ParsePhase),
    mut old: impl FnMut(&[u8]) -> (Feed<M>, ParsePhase),
) {
    for (i, piece) in pieces.iter().enumerate() {
        assert_eq!(
            new(piece),
            old(piece),
            "{case}: feed {i} of {}",
            pieces.len()
        );
    }
}

fn check_requests(case: &str, pieces: &[&[u8]]) {
    let mut new = RequestParser::new();
    let mut old = reference::RequestParser::new();
    assert_same(
        case,
        pieces,
        |b| (new.feed(b), new.phase()),
        |b| (old.feed(b), old.phase()),
    );
}

fn check_responses(case: &str, pieces: &[&[u8]]) {
    let mut new = ResponseParser::new();
    let mut old = reference::ResponseParser::new();
    assert_same(
        case,
        pieces,
        |b| (new.feed(b), new.phase()),
        |b| (old.feed(b), old.phase()),
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

/// Built messages survive byte-at-a-time delivery identically too.
#[test]
fn byte_at_a_time_agrees() {
    let req = Request::new("POST", "/api/state")
        .header("Host", "www.netflix.com")
        .body(b"{\"event\":1}".to_vec());
    let resp = Response::ok().header("X", "y").body(vec![b'q'; 40]);
    let mut wire_req = req.to_bytes();
    wire_req.extend(req.to_bytes());
    let mut wire_resp = resp.to_bytes();
    wire_resp.extend(resp.to_bytes());
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
                .to_bytes();
            let mut parser = RequestParser::new();
            let (head, tail) = one.split_at(5);
            assert!(parser.feed(head).expect("partial head").is_empty());
            let mut rest = tail.to_vec();
            for _ in 0..100_000 {
                rest.extend_from_slice(&one);
            }
            parser.feed(&rest).expect("pipelined requests").len()
        })
        .expect("spawn parser thread");
    assert_eq!(handle.join().expect("parser thread"), 100_001);
}
