//! Property-based tests for HTTP framing.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_http::{ParseError, Request, RequestParser, RequestView, Response, ResponseParser};

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
    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn pick_char(&mut self, pool: &[u8]) -> char {
        pool[self.below(pool.len())] as char
    }
    /// `[A-Za-z][A-Za-z0-9-]{0,15}` — a header-name token.
    fn token(&mut self) -> String {
        const FIRST: &[u8] = b"ABCXYZabcxyz";
        const REST: &[u8] = b"ABCXYZabcxyz019-";
        let mut s = String::new();
        s.push(self.pick_char(FIRST));
        for _ in 0..self.below(16) {
            s.push(self.pick_char(REST));
        }
        s
    }
    /// Printable-ASCII header value without `:` or CR/LF, trimmed.
    fn header_value(&mut self) -> String {
        let len = self.below(41);
        let s: String = (0..len)
            .map(|_| {
                let c = (0x20 + self.below(0x5f)) as u8 as char;
                if c == ':' {
                    ';'
                } else {
                    c
                }
            })
            .collect();
        s.trim().to_string()
    }
}

/// Requests round-trip through the parser for any method, path,
/// headers and body, under any feed chunking.
#[test]
fn request_roundtrip() {
    const PATH_POOL: &[u8] = b"abcxyz019/._-";
    for case in 0..200u64 {
        let mut rng = Rng(0x47_0000 + case);
        let method = ["GET", "POST", "PUT"][rng.below(3)];
        let mut path = String::from("/");
        for _ in 0..rng.below(31) {
            path.push(rng.pick_char(PATH_POOL));
        }
        let n_headers = rng.below(6);
        let headers: Vec<(String, String)> = (0..n_headers)
            .map(|_| (rng.token(), rng.header_value()))
            .collect();
        let body = rng.bytes(799);
        let chunk = 1 + rng.below(255);
        // Content-Length is parser-internal; exclude colliding names.
        let mut req = Request::new(method, &path);
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length") {
                continue;
            }
            req = req.header(n, v);
        }
        let req = req.with_body(&body);
        assert_eq!(req.as_bytes().len(), req.serialized_len(), "case {case}");
        let mut parser = RequestParser::new();
        let mut got = Vec::new();
        for piece in req.as_bytes().chunks(chunk) {
            got.extend(parser.feed(piece).expect("own request").map(fields));
        }
        let want: Vec<_> = headers
            .into_iter()
            .filter(|(n, _)| !n.eq_ignore_ascii_case("content-length"))
            .collect();
        assert_eq!(got, [(method.to_owned(), path, want, body)], "case {case}");
    }
}

/// Responses round-trip likewise.
#[test]
fn response_roundtrip() {
    const REASON_POOL: &[u8] = b"ABCXYZabcxyz ";
    for case in 0..200u64 {
        let mut rng = Rng(0x47_1000 + case);
        let status = 100 + rng.below(500) as u16;
        let reason: String = (0..rng.below(17))
            .map(|_| rng.pick_char(REASON_POOL))
            .collect();
        let body = rng.bytes(799);
        let chunk = 1 + rng.below(255);
        let resp = Response::new(status, reason.trim()).with_body(&body);
        let mut parser = ResponseParser::new();
        let mut got = Vec::new();
        for piece in resp.as_bytes().chunks(chunk) {
            for r in parser.feed(piece).expect("own response") {
                got.push((r.status(), r.reason().to_owned(), r.body().to_vec()));
            }
        }
        assert_eq!(
            got,
            [(status, reason.trim().to_owned(), body)],
            "case {case}"
        );
    }
}

/// A request's fields as the parser reads them, owned.
type Fields = (String, String, Vec<(String, String)>, Vec<u8>);

fn fields(r: RequestView<'_>) -> Fields {
    let headers = r
        .headers()
        .map(|(n, v)| (n.to_owned(), v.to_owned()))
        .collect();
    (
        r.method().to_owned(),
        r.path().to_owned(),
        headers,
        r.body().to_vec(),
    )
}

/// Pipelined request sequences parse back in order, every field intact.
#[test]
fn pipelining() {
    for case in 0..150u64 {
        let mut rng = Rng(0x47_2000 + case);
        let n = 1 + rng.below(5);
        let want: Vec<Fields> = (0..n)
            .map(|i| {
                let method = ["GET", "POST", "PUT"][rng.below(3)].to_owned();
                let headers = (0..rng.below(4))
                    .map(|_| (rng.token(), rng.header_value()))
                    .collect();
                (method, format!("/r/{i}"), headers, rng.bytes(99))
            })
            .collect();
        let reqs: Vec<Request> = want
            .iter()
            .map(|(method, path, headers, body)| {
                let mut req = Request::new(method, path);
                for (n, v) in headers {
                    req = req.header(n, v);
                }
                req.with_body(body)
            })
            .collect();
        let built: Vec<Fields> = reqs.iter().map(|r| fields(r.view())).collect();
        assert_eq!(built, want, "case {case}");
        let wire: Vec<u8> = reqs.iter().flat_map(Request::as_bytes).copied().collect();
        let mut parser = RequestParser::new();
        let got: Vec<Fields> = parser
            .feed(&wire)
            .expect("own requests")
            .map(fields)
            .collect();
        assert_eq!(got, want, "case {case}");
    }
}

/// The parser never panics on arbitrary bytes.
#[test]
fn parser_total() {
    for case in 0..300u64 {
        let mut rng = Rng(0x47_3000 + case);
        let bytes = rng.bytes(399);
        let mut p = RequestParser::new();
        let _ = p.feed(&bytes);
        let mut p = ResponseParser::new();
        let _ = p.feed(&bytes);
    }
}

/// Mutating one byte of a valid request (or truncating it) never
/// panics: the parser either produces requests, keeps waiting for more
/// input, or returns a typed error — under any feed chunking.
#[test]
fn mutated_requests_never_panic() {
    for case in 0..300u64 {
        let mut rng = Rng(0x47_4000 + case);
        let req = Request::new("POST", "/pbo/choice")
            .header("X-Netflix.esn", "NFCDIE-03-ABC")
            .with_body(&rng.bytes(199));
        let mut bytes = req.as_bytes().to_vec();
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ => {
                let at = rng.below(bytes.len());
                bytes.insert(at, rng.next() as u8);
            }
        }
        let chunk = 1 + rng.below(64);
        let mut parser = RequestParser::new();
        for piece in bytes.chunks(chunk) {
            if parser.feed(piece).is_err() {
                break; // typed error: fine, just must not panic
            }
        }
    }
}

/// Structurally malformed heads are rejected with the *right* typed
/// error, so callers can tell protocol violations apart.
#[test]
fn malformed_heads_yield_typed_errors() {
    let feed_req = |bytes: &[u8]| RequestParser::new().feed(bytes).map(|r| r.len());
    let feed_resp = |bytes: &[u8]| ResponseParser::new().feed(bytes).map(|r| r.len());

    assert!(matches!(
        feed_req(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
        Err(ParseError::BadContentLength(v)) if v == "banana"
    ));
    assert!(matches!(
        feed_req(b"POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n"),
        Err(ParseError::MalformedHeaderLine(_))
    ));
    assert!(matches!(
        feed_req(b"NOT-A-REQUEST-LINE\r\n\r\n"),
        Err(ParseError::MalformedRequestLine(_))
    ));
    assert!(matches!(
        feed_req(b"POST /x HTTP/1.1\r\nX: \xff\xfe\r\n\r\n"),
        Err(ParseError::NonUtf8Head)
    ));
    assert!(matches!(
        feed_resp(b"HTTP/1.1 banana OK\r\n\r\n"),
        Err(ParseError::BadStatusLine(_))
    ));
    // Errors are values: Display/Error impls must hold up.
    let err = feed_req(b"oops\r\n\r\n").expect_err("malformed");
    assert!(!err.to_string().is_empty());
    let _: &dyn std::error::Error = &err;
}
