//! Differential test: `unescape` against the implementation it
//! replaced.
//!
//! `reference` below is the earlier `unescape`, which re-validated the
//! rest of the body as UTF-8 before every plain character it copied
//! (quadratic per string). It is kept verbatim as an oracle: on every
//! input — invalid UTF-8, every escape, surrogate pairs and their
//! malformations, long plain runs — both must return the same result,
//! `None` included.

use wm_json::escape::{escape_into, unescape};

mod reference {
    pub fn unescape(body: &[u8]) -> Option<String> {
        let mut out = String::with_capacity(body.len());
        let mut i = 0;
        while let Some(&b) = body.get(i) {
            if b != b'\\' {
                // Validate UTF-8 incrementally by slicing at char boundaries.
                let rest = std::str::from_utf8(body.get(i..)?).ok()?;
                let ch = rest.chars().next()?;
                out.push(ch);
                i += ch.len_utf8();
                continue;
            }
            i += 1;
            let esc = *body.get(i)?;
            i += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b't' => out.push('\t'),
                b'n' => out.push('\n'),
                b'f' => out.push('\u{c}'),
                b'r' => out.push('\r'),
                b'u' => {
                    let hi = parse_hex4(body.get(i..i + 4)?)?;
                    i += 4;
                    if (0xd800..0xdc00).contains(&hi) {
                        // High surrogate: must be followed by \uXXXX low surrogate.
                        if body.get(i) != Some(&b'\\') || body.get(i + 1) != Some(&b'u') {
                            return None;
                        }
                        let lo = parse_hex4(body.get(i + 2..i + 6)?)?;
                        i += 6;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return None;
                        }
                        let cp = 0x10000 + (((hi - 0xd800) as u32) << 10) + (lo - 0xdc00) as u32;
                        out.push(char::from_u32(cp)?);
                    } else if (0xdc00..0xe000).contains(&hi) {
                        return None; // lone low surrogate
                    } else {
                        out.push(char::from_u32(hi as u32)?);
                    }
                }
                _ => return None,
            }
        }
        Some(out)
    }

    fn parse_hex4(bytes: &[u8]) -> Option<u16> {
        let mut v: u16 = 0;
        for &b in bytes {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return None,
            };
            v = v.checked_mul(16)?.checked_add(d as u16)?;
        }
        Some(v)
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

/// Pieces that escapes, surrogates and UTF-8 edge cases are made of.
const PIECES: &[&[u8]] = &[
    b"a",
    b"plain text ",
    b"\\\"",
    b"\\\\",
    b"\\/",
    b"\\b",
    b"\\f",
    b"\\n",
    b"\\r",
    b"\\t",
    b"\\u0041",
    b"\\u00e9",
    b"\\uFFFF",
    b"\\u12",
    b"\\ug000",
    b"\\ud83d\\ude00",
    b"\\uD83D\\uDE00",
    b"\\ud83d",
    b"\\ud83d\\u0041",
    b"\\ud83d\\n",
    b"\\udc00",
    b"\\x",
    b"\\",
    b"\\\xc3\xa9",
    "héllo".as_bytes(),
    "世界".as_bytes(),
    "😀".as_bytes(),
    b"\xc3",
    b"\xa9",
    b"\xff",
    b"\xed\xa0\x80",
    b"\xf0\x9f\x98",
    b"\x00\x1f",
];

fn assert_same(case: &str, body: &[u8]) {
    assert_eq!(
        unescape(body),
        reference::unescape(body),
        "{case}: body {body:?}"
    );
}

#[test]
fn every_piece_alone_and_in_pairs() {
    for (i, a) in PIECES.iter().enumerate() {
        assert_same(&format!("piece {i}"), a);
        for (j, b) in PIECES.iter().enumerate() {
            assert_same(&format!("pieces {i}+{j}"), &[*a, *b].concat());
        }
    }
}

#[test]
fn random_piece_strings_agree() {
    let mut rng = Rng(0x4A53_4F4E);
    for case in 0..5_000 {
        let body: Vec<u8> = (0..rng.below(12))
            .flat_map(|_| PIECES[rng.below(PIECES.len())].to_vec())
            .collect();
        assert_same(&format!("case {case}"), &body);
    }
}

#[test]
fn random_byte_strings_agree() {
    let mut rng = Rng(0x4259_5445);
    for case in 0..5_000 {
        // Bias toward the bytes that matter: backslash, 'u', hex
        // digits and UTF-8 lead/continuation bytes.
        const BIASED: &[u8] = b"\\u0dD8aAfF\"nrt/\xc3\xa9\xed\xf0\x80\xbf";
        let body: Vec<u8> = (0..rng.below(24))
            .map(|_| {
                if rng.below(2) == 0 {
                    BIASED[rng.below(BIASED.len())]
                } else {
                    rng.next() as u8
                }
            })
            .collect();
        assert_same(&format!("case {case}"), &body);
    }
}

#[test]
fn long_plain_runs_agree() {
    let mut rng = Rng(0x5255_4E53);
    for case in 0..20 {
        let text: String = (0..2_000 + rng.below(4_000))
            .map(|_| ['a', 'é', '世', '"', '\\', '\n', '\u{1}'][rng.below(7)])
            .collect();
        let mut body = Vec::new();
        escape_into(&text, &mut body);
        assert_same(&format!("case {case}"), &body);
        assert_eq!(unescape(&body).as_deref(), Some(text.as_str()));
    }
}
