//! State-report JSON construction and length calibration.
//!
//! The builder produces the two report shapes the paper names. At
//! session start it *calibrates* two platform blobs:
//!
//! * `clientInfo` — sized so that a type-1 report at reference field
//!   widths seals to exactly the profile's `type1_target_len`;
//! * `interactionDiff.token` — sized likewise for type-2.
//!
//! Real reports then deviate from the target only by the width jitter
//! of their numeric/label fields (a few bytes), reproducing the tight
//! per-condition clusters of the paper's Figure 2. This calibration is
//! the documented substitute for the real client's platform-specific
//! payload (DESIGN.md, substitution table).
//!
//! Field-width discipline: ids that appear in reports are offset by +10
//! so they always print as two digits; timestamps are 13-digit epoch
//! milliseconds; playback positions are fixed-point seconds. The only
//! intentionally variable-width fields are the playback position
//! (7–8 chars), the report sequence number (1–2), and — for type-2 —
//! the selection label and cancelled-byte count.

use crate::profile::Profile;
use wm_cipher::kdf::derive_seed;
use wm_http::Request;
use wm_json::{Number, Value};

/// Offset applied to segment/choice-point ids in reports so they always
/// serialize as two digits (shared with the server's decoder).
const ID_OFFSET: i64 = wm_netflix::STATE_ID_OFFSET;

/// Simulated capture epoch (2018-12-28, Bandersnatch's release day) in
/// ms; session time is added to it, keeping timestamps at 13 digits.
pub const EPOCH_MS: i64 = 1_545_955_200_000;

/// Everything needed to build byte-calibrated state reports.
pub struct StateJsonBuilder {
    profile: Profile,
    esn: String,
    cookie: String,
    xid: String,
    session_id: String,
    request_id: String,
    client_info: String,
    diff_token: String,
    /// Monotonic report sequence number.
    seq: i64,
}

/// All inputs describing one type-1 report.
#[derive(Debug, Clone, Copy)]
pub struct Type1Fields {
    /// Epoch-relative session time in ms.
    pub session_ms: i64,
    /// Playback position in ms.
    pub position_ms: i64,
    pub segment_id: u16,
    pub choice_point_id: u16,
}

/// Additional inputs for a type-2 report.
#[derive(Debug, Clone)]
pub struct Type2Fields {
    pub base: Type1Fields,
    /// On-screen label of the selected (non-default) option.
    pub selection_label: String,
    /// Target segment of the selection.
    pub selection_segment: u16,
    /// Prefetched chunks discarded.
    pub cancelled_chunks: u32,
    /// Unscaled content bytes discarded (what the real client would
    /// account, independent of the simulation's media_scale).
    pub cancelled_bytes: u64,
}

impl StateJsonBuilder {
    /// Build and calibrate for a session.
    pub fn new(profile: Profile, session_seed: u64) -> Self {
        let mut b = StateJsonBuilder {
            profile,
            esn: profile.esn(session_seed),
            cookie: profile.cookie(session_seed),
            xid: digits_n(derive_seed(session_seed, "xid"), 16),
            session_id: hex_lower(derive_seed(session_seed, "session-id"), 32),
            request_id: hex_lower(derive_seed(session_seed, "request-id"), 32),
            client_info: String::new(),
            diff_token: String::new(),
            seq: 0,
        };
        b.calibrate();
        b
    }

    /// ESN used in headers and bodies.
    pub fn esn(&self) -> &str {
        &self.esn
    }

    /// Cookie header value.
    pub fn cookie(&self) -> &str {
        &self.cookie
    }

    fn calibrate(&mut self) {
        // Solve the clientInfo pad so the reference type-1 request
        // serializes to target-16 plaintext bytes (AEAD adds 16).
        let t1_plain = self.profile.type1_target_len() - wm_cipher::TAG_LEN;
        self.client_info = "c".repeat(64);
        for _ in 0..6 {
            let now = self.reference_type1_request().serialized_len();
            let want = t1_plain as i64 - now as i64 + self.client_info.len() as i64;
            assert!(want > 0, "type-1 target too small for base payload");
            self.client_info = pad_blob(want as usize);
            if self.reference_type1_request().serialized_len() == t1_plain {
                break;
            }
        }
        assert_eq!(
            self.reference_type1_request().serialized_len(),
            t1_plain,
            "type-1 calibration failed to converge"
        );

        let t2_plain = self.profile.type2_target_len() - wm_cipher::TAG_LEN;
        self.diff_token = "t".repeat(64);
        for _ in 0..6 {
            let now = self.reference_type2_request().serialized_len();
            let want = t2_plain as i64 - now as i64 + self.diff_token.len() as i64;
            assert!(want > 0, "type-2 target too small for base payload");
            self.diff_token = pad_blob(want as usize);
            if self.reference_type2_request().serialized_len() == t2_plain {
                break;
            }
        }
        assert_eq!(
            self.reference_type2_request().serialized_len(),
            t2_plain,
            "type-2 calibration failed to converge"
        );
    }

    /// Reference field widths used during calibration: position 8 chars,
    /// two-digit sequence number and ids.
    fn reference_type1_fields() -> Type1Fields {
        Type1Fields {
            session_ms: 8_888_888,  // 13-digit timestamp either way
            position_ms: 8_888_888, // "8888.888"
            segment_id: 78,         // +10 → "88"
            choice_point_id: 78,
        }
    }

    fn reference_type1_request(&self) -> Request {
        // Sequence number at reference width (2 digits).
        self.state_request_with_seq(&self.type1_json_with_seq(&Self::reference_type1_fields(), 88))
    }

    fn reference_type2_request(&self) -> Request {
        let t2 = Type2Fields {
            base: Self::reference_type1_fields(),
            selection_label: "#".repeat(17),
            selection_segment: 78,
            cancelled_chunks: 8,
            cancelled_bytes: 8_888_888,
        };
        self.state_request_with_seq(&self.type2_json_with_seq(&t2, 88))
    }

    /// Build the type-1 report body and its HTTP request; bumps the
    /// report sequence number.
    pub fn type1_request(&mut self, f: &Type1Fields) -> Request {
        self.seq += 1;
        let body = self.type1_json_with_seq(f, self.seq);
        self.state_request_with_seq(&body)
    }

    /// Build the type-2 report; bumps the sequence number.
    pub fn type2_request(&mut self, f: &Type2Fields) -> Request {
        self.seq += 1;
        let body = self.type2_json_with_seq(f, self.seq);
        self.state_request_with_seq(&body)
    }

    fn type1_json_with_seq(&self, f: &Type1Fields, seq: i64) -> Value {
        let cp = f.choice_point_id as i64 + ID_OFFSET;
        Value::object(vec![
            ("version".into(), Value::from(2i64)),
            ("esn".into(), Value::from(self.esn.clone())),
            ("xid".into(), Value::from(self.xid.clone())),
            ("event".into(), Value::from("interactiveStateSnapshot")),
            ("seq".into(), Value::from(seq)),
            ("timestamp".into(), Value::from(EPOCH_MS + f.session_ms)),
            ("position".into(), Value::Num(Number::Fixed3(f.position_ms))),
            ("videoId".into(), Value::from(80_988_062i64)),
            ("momentId".into(), Value::from(43_000 + cp * 97)),
            (
                "segmentId".into(),
                Value::from(f.segment_id as i64 + ID_OFFSET),
            ),
            ("choicePointId".into(), Value::from(cp)),
            ("sessionId".into(), Value::from(self.session_id.clone())),
            ("requestId".into(), Value::from(self.request_id.clone())),
            (
                "stateHistory".into(),
                Value::object(vec![
                    ("p_sg".into(), Value::from(true)),
                    ("p_cq".into(), Value::from(true)),
                    ("p_ps".into(), Value::from(false)),
                    ("p_tt".into(), Value::from(true)),
                    ("p_3l".into(), Value::from(false)),
                    ("p_8a".into(), Value::from(true)),
                    ("p_vs".into(), Value::from(false)),
                    ("p_nw".into(), Value::from(true)),
                ]),
            ),
            (
                "choices".into(),
                Value::array(vec![
                    Value::object(vec![
                        ("id".into(), Value::from(format!("cp{cp}_0"))),
                        ("exitZone".into(), Value::from("zone_a")),
                    ]),
                    Value::object(vec![
                        ("id".into(), Value::from(format!("cp{cp}_1"))),
                        ("exitZone".into(), Value::from("zone_b")),
                    ]),
                ]),
            ),
            (
                "clientCapabilities".into(),
                Value::object(vec![
                    ("protocol".into(), Value::from("https")),
                    ("container".into(), Value::from("cmaf")),
                    ("codec".into(), Value::from("vp9")),
                ]),
            ),
            ("clientInfo".into(), Value::from(self.client_info.clone())),
        ])
    }

    fn type2_json_with_seq(&self, f: &Type2Fields, seq: i64) -> Value {
        let mut doc = self.type1_json_with_seq(&f.base, seq);
        let Value::Object(members) = &mut doc else {
            unreachable!("type1 json is an object")
        };
        members.push((
            "interactionDiff".into(),
            Value::object(vec![
                ("token".into(), Value::from(self.diff_token.clone())),
                (
                    "selection".into(),
                    Value::object(vec![
                        ("label".into(), Value::from(f.selection_label.clone())),
                        ("index".into(), Value::from(1i64)),
                        (
                            "segmentId".into(),
                            Value::from(f.selection_segment as i64 + ID_OFFSET),
                        ),
                    ]),
                ),
                (
                    "cancelledPrefetch".into(),
                    Value::object(vec![
                        (
                            "segmentId".into(),
                            Value::from(f.selection_segment as i64 + ID_OFFSET),
                        ),
                        ("chunks".into(), Value::from(f.cancelled_chunks as i64)),
                        ("bytes".into(), Value::from(f.cancelled_bytes as i64)),
                    ]),
                ),
            ]),
        ));
        doc
    }

    /// Wrap a state body in its POST request (headers identical for
    /// both report types — only the body length differs).
    fn state_request_with_seq(&self, body: &Value) -> Request {
        Request::new("POST", "/interact/state")
            .header("Host", "www.netflix.com")
            .header("User-Agent", self.profile.user_agent())
            .header("Accept", "application/json, text/plain, */*")
            .header("Content-Type", "application/json")
            .header("Cookie", &self.cookie)
            .header("X-Netflix-Esn", &self.esn)
            .with_body(&wm_json::to_bytes(body))
    }
}

/// Deterministic filler blob of exactly `n` bytes (base64-ish alphabet,
/// no JSON-escaped characters, so escaped length == length).
fn pad_blob(n: usize) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    (0..n)
        .map(|i| ALPHABET[(i * 7 + 13) % ALPHABET.len()] as char)
        .collect()
}

/// Exactly `n` decimal digits derived from a seed.
fn digits_n(seed: u64, n: usize) -> String {
    let mut state = seed;
    let mut out = String::with_capacity(n);
    for _ in 0..n {
        state = wm_cipher::kdf::mix(state.wrapping_add(0x9e37_79b9));
        out.push((b'0' + (state % 10) as u8) as char);
    }
    out
}

/// Exactly `n` lowercase hex chars derived from a seed.
fn hex_lower(seed: u64, n: usize) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut state = seed;
    let mut out = String::with_capacity(n);
    for i in 0..n {
        if i % 16 == 0 {
            state = wm_cipher::kdf::mix(state.wrapping_add(0x5bd1_e995));
        }
        out.push(HEX[((state >> ((i % 16) * 4)) & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_cipher::TAG_LEN;

    fn fields(pos_ms: i64, seg: u16, cp: u16) -> Type1Fields {
        Type1Fields {
            session_ms: 1_000_000,
            position_ms: pos_ms,
            segment_id: seg,
            choice_point_id: cp,
        }
    }

    #[test]
    fn type1_lands_in_paper_band_ubuntu() {
        let mut b = StateJsonBuilder::new(Profile::ubuntu_firefox_desktop(), 42);
        // Sweep realistic positions/ids; sealed length = plaintext + 16.
        for (pos, seg, cp) in [
            (110_000i64, 0u16, 0u16),
            (914_250, 12, 4),
            (2_755_000, 40, 15),
            (1_500_125, 27, 10),
        ] {
            let req = b.type1_request(&fields(pos, seg, cp));
            let sealed = req.serialized_len() + TAG_LEN;
            assert!(
                (2211..=2213).contains(&sealed),
                "type-1 sealed {sealed} outside the paper band for pos {pos}"
            );
        }
    }

    #[test]
    fn type1_lands_in_paper_band_windows() {
        let mut b = StateJsonBuilder::new(Profile::windows_firefox_desktop(), 7);
        for (pos, seg, cp) in [(110_000i64, 0u16, 0u16), (2_755_000, 40, 15)] {
            let req = b.type1_request(&fields(pos, seg, cp));
            let sealed = req.serialized_len() + TAG_LEN;
            assert!(
                (2341..=2343).contains(&sealed),
                "type-1 sealed {sealed} outside the Windows band"
            );
        }
    }

    #[test]
    fn type2_lands_in_paper_band_ubuntu() {
        let mut b = StateJsonBuilder::new(Profile::ubuntu_firefox_desktop(), 42);
        for label in ["Refuse", "Phone the studio", "Take it", "Chop it up"] {
            let t2 = Type2Fields {
                base: fields(914_250, 12, 4),
                selection_label: label.to_string(),
                selection_segment: 14,
                cancelled_chunks: 3,
                cancelled_bytes: 1_312_500,
            };
            let req = b.type2_request(&t2);
            let sealed = req.serialized_len() + TAG_LEN;
            assert!(
                (2992..=3017).contains(&sealed),
                "type-2 sealed {sealed} outside the paper band for label {label:?}"
            );
        }
    }

    #[test]
    fn type2_lands_in_paper_band_windows() {
        let mut b = StateJsonBuilder::new(Profile::windows_firefox_desktop(), 3);
        let t2 = Type2Fields {
            base: fields(650_000, 9, 2),
            selection_label: "Refuse".to_string(),
            selection_segment: 9,
            cancelled_chunks: 2,
            cancelled_bytes: 875_000,
        };
        let sealed = b.type2_request(&t2).serialized_len() + TAG_LEN;
        assert!(
            (3118..=3147).contains(&sealed),
            "type-2 sealed {sealed} outside the Windows band"
        );
    }

    #[test]
    fn bands_do_not_overlap_within_profile() {
        for profile in Profile::all() {
            let t1 = profile.type1_target_len();
            let t2 = profile.type2_target_len();
            assert!(t2 > t1 + 100, "type-2 must be clearly separated");
        }
    }

    #[test]
    fn bodies_parse_and_classify_server_side() {
        let mut b = StateJsonBuilder::new(Profile::ubuntu_firefox_desktop(), 9);
        let req = b.type1_request(&fields(120_000, 3, 1));
        let doc = wm_json::parse(req.body()).unwrap();
        assert_eq!(
            doc.get("event").and_then(Value::as_str),
            Some("interactiveStateSnapshot")
        );
        assert!(doc.get("interactionDiff").is_none());
        let t2 = Type2Fields {
            base: fields(120_000, 3, 1),
            selection_label: "Now 2".into(),
            selection_segment: 5,
            cancelled_chunks: 4,
            cancelled_bytes: 2_000_000,
        };
        let req2 = b.type2_request(&t2);
        let doc2 = wm_json::parse(req2.body()).unwrap();
        let diff = doc2.get("interactionDiff").expect("type-2 marker");
        assert_eq!(
            diff.get("selection")
                .and_then(|s| s.get("label"))
                .and_then(Value::as_str),
            Some("Now 2")
        );
    }

    #[test]
    fn seq_increments_across_reports() {
        let mut b = StateJsonBuilder::new(Profile::ubuntu_firefox_desktop(), 1);
        let r1 = b.type1_request(&fields(110_000, 0, 0));
        let r2 = b.type1_request(&fields(200_000, 3, 1));
        let d1 = wm_json::parse(r1.body()).unwrap();
        let d2 = wm_json::parse(r2.body()).unwrap();
        assert_eq!(d1.get("seq").and_then(Value::as_i64), Some(1));
        assert_eq!(d2.get("seq").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn calibration_differs_between_sessions_but_targets_hold() {
        for seed in [1u64, 2, 3] {
            let mut b = StateJsonBuilder::new(Profile::ubuntu_firefox_desktop(), seed);
            let sealed = b.type1_request(&fields(888_888, 12, 5)).serialized_len() + TAG_LEN;
            assert!((2211..=2213).contains(&sealed), "seed {seed}: {sealed}");
        }
    }

    #[test]
    fn pad_blob_has_exact_length_and_no_escapes() {
        for n in [1usize, 10, 100, 1000] {
            let p = pad_blob(n);
            assert_eq!(p.len(), n);
            assert_eq!(wm_json::escape::escaped_len(&p), n);
        }
    }
}
