//! Wire transforms for outgoing state reports (§VI countermeasures).
//!
//! A [`Defense`] rewrites a state-report HTTP request into the list of
//! TLS-record *writes* the client performs. The session layer applies
//! it to type-1/type-2 posts only — exactly the messages the paper's
//! fix targets — and gives the server the matching decoder where one is
//! needed (compression).

use std::borrow::Cow;
use wm_http::Request;

use crate::lz;

/// A countermeasure applied to state reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Defense {
    /// No countermeasure (the paper's measured reality).
    None,
    /// Split every state report across records of at most `max` bytes
    /// (§VI: "split the JSON file"). Total length still leaks across
    /// the record group; individual record lengths no longer match the
    /// signature bands.
    Split { max: usize },
    /// Compress the JSON body (§VI: "compress it so that it becomes
    /// indistinguishable"). Honest LZ77 compression — the residual
    /// length differences between type-1 and type-2 are real.
    Compress,
    /// Pad the JSON body so the whole request serializes to `size`
    /// bytes (the strong defense the paper implies would be needed;
    /// state posts become length-indistinguishable).
    PadToConstant { size: usize },
    /// Padding plus *dummy second posts*: the client sends exactly one
    /// extra padded post per question whether or not the pick was
    /// non-default, so the count/timing channel (E6) closes too. The
    /// complete fix this reproduction's evaluation arrives at.
    PadWithDummies { size: usize },
}

impl Defense {
    /// Label for experiment output.
    pub fn label(self) -> String {
        match self {
            Defense::None => "none".into(),
            Defense::Split { max } => format!("split(max={max})"),
            Defense::Compress => "compress".into(),
            Defense::PadToConstant { size } => format!("pad(size={size})"),
            Defense::PadWithDummies { size } => format!("pad+dummies(size={size})"),
        }
    }

    /// Whether the client must emit a dummy second post at every
    /// default pick (the session layer wires this into the player).
    pub fn injects_dummies(self) -> bool {
        matches!(self, Defense::PadWithDummies { .. })
    }

    /// The constant post size, for defenses that fix one.
    pub fn constant_size(self) -> Option<usize> {
        match self {
            Defense::PadToConstant { size } | Defense::PadWithDummies { size } => Some(size),
            _ => None,
        }
    }

    /// Rewrite a state-report request into TLS-record writes, borrowing
    /// the request's bytes where the defense leaves them as they are.
    // wm-lint: response-path
    pub fn encode(self, req: &Request) -> Vec<Cow<'_, [u8]>> {
        match self {
            Defense::None => vec![Cow::Borrowed(req.as_bytes())],
            Defense::Split { max } => {
                let max = max.max(64);
                req.as_bytes().chunks(max).map(Cow::Borrowed).collect()
            }
            Defense::Compress => {
                let compressed = lz::compress(req.body());
                let wrapped = req
                    .clone()
                    .with_body(&compressed)
                    .header("Content-Encoding", "wm-lz");
                vec![Cow::Owned(wrapped.into_bytes())]
            }
            Defense::PadWithDummies { size } => Defense::PadToConstant { size }.encode(req),
            Defense::PadToConstant { size } => {
                vec![Cow::Owned(pad_to_constant(req, size).into_bytes())]
            }
        }
    }

    /// Server-side body decoder matching this defense: only compression
    /// changes the body bytes, and a body that does not decompress is
    /// left as it arrived.
    pub fn decode_body<'b>(self, headers_encoding: Option<&str>, body: &'b [u8]) -> Cow<'b, [u8]> {
        match (self, headers_encoding) {
            (Defense::Compress, Some("wm-lz")) => match lz::decompress(body) {
                Some(decoded) => Cow::Owned(decoded),
                None => Cow::Borrowed(body),
            },
            _ => Cow::Borrowed(body),
        }
    }
}

/// Pad `req` with trailing spaces after the JSON document —
/// insignificant whitespace the server's parser skips — so the whole
/// request serializes to exactly `size` bytes (no-op when the request
/// is already larger). Iterates to a fixed point because adding pad
/// bytes can grow the Content-Length digits.
// wm-lint: quantizer(reason = "maps every state report to the single constant wire length `size`; the lengths read here choose the pad amount, not the emitted size")
fn pad_to_constant(req: &Request, size: usize) -> Request {
    let base_len = req.serialized_len();
    if size <= base_len {
        return req.clone();
    }
    let body = req.body();
    let mut pad = size - base_len;
    let mut chosen = pad;
    for _ in 0..4 {
        chosen = pad;
        let got = req.serialized_len_with_body(body.len() + pad);
        if got == size {
            break;
        }
        pad = (pad as i64 + size as i64 - got as i64).max(0) as usize;
    }
    req.clone().with_body_fn(body.len() + chosen, |dst| {
        let (kept, spaces) = dst.split_at_mut(body.len());
        kept.copy_from_slice(body);
        spaces.fill(b' ');
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_req(body_len: usize) -> Request {
        let body: Vec<u8> = {
            let mut b = b"{\"esn\":\"NFCDIE\",\"event\":\"snapshot\",\"blob\":\"".to_vec();
            while b.len() < body_len.saturating_sub(2) {
                b.push(b'A' + ((b.len() * 7) % 26) as u8);
            }
            b.truncate(body_len.saturating_sub(2));
            b.extend_from_slice(b"\"}");
            b
        };
        Request::new("POST", "/interact/state")
            .header("Host", "www.netflix.com")
            .with_body(&body)
    }

    #[test]
    fn none_is_identity() {
        let req = state_req(1000);
        let writes = Defense::None.encode(&req);
        assert_eq!(writes, vec![req.as_bytes().to_vec()]);
    }

    #[test]
    fn split_bounds_every_write() {
        let req = state_req(2000);
        let writes = Defense::Split { max: 500 }.encode(&req);
        assert!(writes.len() >= 4);
        assert!(writes.iter().all(|w| w.len() <= 500));
        // Reassembled stream is unchanged — the server parses normally.
        let glued: Vec<u8> = writes.concat();
        assert_eq!(glued, req.as_bytes());
    }

    #[test]
    fn compress_shrinks_and_decodes() {
        let req = state_req(2000);
        let writes = Defense::Compress.encode(&req);
        assert_eq!(writes.len(), 1);
        assert!(writes[0].len() < req.serialized_len());
        // Parse the rewritten request and invert the body.
        let mut parser = wm_http::RequestParser::new();
        let parsed = parser.feed(&writes[0]).unwrap().next().unwrap();
        assert_eq!(parsed.header_value("content-encoding"), Some("wm-lz"));
        let decoded =
            Defense::Compress.decode_body(parsed.header_value("content-encoding"), parsed.body());
        assert_eq!(&*decoded, req.body());
    }

    #[test]
    fn pad_reaches_exact_size() {
        let req = state_req(1500);
        for size in [3000usize, 3333, 4096] {
            let writes = Defense::PadToConstant { size }.encode(&req);
            assert_eq!(writes.len(), 1);
            assert_eq!(writes[0].len(), size, "target {size}");
        }
    }

    #[test]
    fn pad_smaller_than_request_is_noop() {
        let req = state_req(1500);
        let writes = Defense::PadToConstant { size: 100 }.encode(&req);
        assert_eq!(writes[0], req.as_bytes());
    }

    #[test]
    fn padded_body_still_parses_as_json_with_trailing_ws() {
        let req = Request::new("POST", "/interact/state").with_body(b"{\"a\":1}");
        let writes = Defense::PadToConstant { size: 600 }.encode(&req);
        let mut parser = wm_http::RequestParser::new();
        let parsed = parser.feed(&writes[0]).unwrap().next().unwrap();
        assert!(
            wm_json::parse(parsed.body()).is_ok(),
            "trailing spaces tolerated"
        );
    }

    #[test]
    fn two_different_reports_pad_to_same_length() {
        let t1 = state_req(1630);
        let t2 = state_req(2411);
        let a = Defense::PadToConstant { size: 4000 }.encode(&t1);
        let b = Defense::PadToConstant { size: 4000 }.encode(&t2);
        assert_eq!(a[0].len(), b[0].len(), "padding kills the length signal");
    }

    #[test]
    fn labels() {
        assert_eq!(Defense::None.label(), "none");
        assert_eq!(Defense::Split { max: 700 }.label(), "split(max=700)");
        assert_eq!(Defense::Compress.label(), "compress");
        assert_eq!(
            Defense::PadToConstant { size: 4096 }.label(),
            "pad(size=4096)"
        );
    }
}
