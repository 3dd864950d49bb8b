//! Property-based tests for the countermeasure transforms.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_defense::lz::{compress, decompress};
use wm_defense::Defense;
use wm_http::{Request, RequestParser};

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
    fn printable(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| (0x20 + self.below(0x5f)) as u8).collect()
    }
    /// JSON-ish printable, arbitrary, or highly repetitive bodies —
    /// the realistic, adversarial and compression-stress cases.
    fn body(&mut self) -> Vec<u8> {
        match self.below(3) {
            0 => self.printable(1500),
            1 => {
                let len = self.below(1500);
                (0..len).map(|_| self.next() as u8).collect()
            }
            _ => {
                let b = self.next() as u8;
                vec![b; self.below(3000)]
            }
        }
    }
}

/// LZ round-trips every input.
#[test]
fn lz_roundtrip() {
    for case in 0..200u64 {
        let mut rng = Rng(0xDE_0000 + case);
        let data = rng.body();
        let c = compress(&data);
        let d = decompress(&c);
        assert_eq!(d.as_deref(), Some(&data[..]), "case {case}");
    }
}

/// The decompressor never panics on arbitrary input and never
/// produces output from obviously malformed streams.
#[test]
fn lz_decompress_total() {
    for case in 0..300u64 {
        let mut rng = Rng(0xDE_1000 + case);
        let len = rng.below(512);
        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = decompress(&data);
    }
}

/// Split preserves the exact byte stream (only framing changes).
#[test]
fn split_stream_identity() {
    for case in 0..150u64 {
        let mut rng = Rng(0xDE_2000 + case);
        let body = rng.body();
        let max = 64 + rng.below(836);
        let req = Request::new("POST", "/interact/state")
            .header("Host", "www.netflix.com")
            .with_body(&body);
        let writes = Defense::Split { max }.encode(&req);
        assert!(writes.iter().all(|w| w.len() <= max.max(64)), "case {case}");
        let glued: Vec<u8> = writes.concat();
        assert_eq!(glued, req.as_bytes(), "case {case}");
    }
}

/// Padding always reaches the exact target when feasible and the
/// padded request still parses with the original body prefix.
#[test]
fn pad_exact_and_parseable() {
    for case in 0..150u64 {
        let mut rng = Rng(0xDE_3000 + case);
        let body = {
            let mut b = rng.printable(600);
            while b.len() < 2 {
                b.push(b'x');
            }
            b
        };
        let size = 1200 + rng.below(3800);
        let req = Request::new("POST", "/interact/state")
            .header("Host", "www.netflix.com")
            .with_body(&body);
        let writes = Defense::PadToConstant { size }.encode(&req);
        assert_eq!(writes.len(), 1, "case {case}");
        if size >= req.serialized_len() {
            assert_eq!(writes[0].len(), size, "case {case}");
        }
        let mut parser = RequestParser::new();
        let parsed = parser
            .feed(&writes[0])
            .expect("padded request parses")
            .next()
            .expect("one request");
        assert!(parsed.body().starts_with(&body), "case {case}");
        assert!(
            parsed.body()[body.len()..].iter().all(|&b| b == b' '),
            "case {case}"
        );
    }
}

/// Compression round-trips through the server-side decoder.
#[test]
fn compress_decode_roundtrip() {
    for case in 0..150u64 {
        let mut rng = Rng(0xDE_4000 + case);
        let body = rng.body();
        let req = Request::new("POST", "/interact/state").with_body(&body);
        let writes = Defense::Compress.encode(&req);
        let mut parser = RequestParser::new();
        let parsed = parser
            .feed(&writes[0])
            .expect("compressed request parses")
            .next()
            .expect("one request");
        let decoded =
            Defense::Compress.decode_body(parsed.header_value("content-encoding"), parsed.body());
        assert_eq!(&*decoded, &body[..], "case {case}");
    }
}

/// Padding makes any two bodies the same wire length (the defense's
/// entire point).
#[test]
fn pad_equalizes() {
    for case in 0..150u64 {
        let mut rng = Rng(0xDE_5000 + case);
        let a = rng.printable(800);
        let b = rng.printable(800);
        let size = 4096usize;
        let ra = Request::new("POST", "/s").with_body(&a);
        let rb = Request::new("POST", "/s").with_body(&b);
        let wa = Defense::PadToConstant { size }.encode(&ra);
        let wb = Defense::PadToConstant { size }.encode(&rb);
        assert_eq!(wa[0].len(), wb[0].len(), "case {case}");
    }
}
