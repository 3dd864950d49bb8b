//! Property-based tests for the player's byte calibration — the
//! invariant the whole Figure 2 reproduction rests on.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_cipher::TAG_LEN;
use wm_player::state::{Type1Fields, Type2Fields};
use wm_player::{Browser, DeviceForm, Os, Profile, StateJsonBuilder};

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
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }
    fn profile(&mut self) -> Profile {
        Profile::new(
            Os::ALL[self.below(Os::ALL.len().min(3))],
            Browser::ALL[self.below(Browser::ALL.len().min(2))],
            DeviceForm::ALL[self.below(DeviceForm::ALL.len().min(2))],
        )
    }
    /// Realistic field ranges for a Bandersnatch session: positions
    /// from 100 s to 2900 s, ids within the graph, session times
    /// within 2 h.
    fn fields(&mut self) -> Type1Fields {
        Type1Fields {
            session_ms: self.range_i64(0, 7_200_000),
            position_ms: self.range_i64(100_000, 2_900_000),
            segment_id: self.below(46) as u16,
            choice_point_id: self.below(16) as u16,
        }
    }
}

/// Type-1 reports always seal within 3 bytes of the platform target
/// — the paper's bucket width — for every profile, session seed and
/// realistic field values.
#[test]
fn type1_band_holds_everywhere() {
    for case in 0..300u64 {
        let mut rng = Rng(0x91_0000 + case);
        let profile = rng.profile();
        let seed = rng.next();
        let fields = rng.fields();
        let mut b = StateJsonBuilder::new(profile, seed);
        let sealed = b.type1_request(&fields).serialized_len() + TAG_LEN;
        let target = profile.type1_target_len();
        assert!(
            sealed <= target && sealed + 3 > target,
            "case {case} {}: sealed {} vs target {}",
            profile.label(),
            sealed,
            target
        );
    }
}

/// Type-2 reports stay within the paper's wider band (the target
/// minus the selection-label spread) for every realistic selection.
#[test]
fn type2_band_holds_everywhere() {
    for case in 0..300u64 {
        let mut rng = Rng(0x91_1000 + case);
        let profile = rng.profile();
        let seed = rng.next();
        let fields = rng.fields();
        let label_len = 4 + rng.below(14);
        let chunks = 1 + rng.below(9) as u32;
        let bytes = 100_000 + rng.below(9_899_999) as u64;
        let mut b = StateJsonBuilder::new(profile, seed);
        let t2 = Type2Fields {
            base: fields,
            selection_label: "x".repeat(label_len),
            selection_segment: 40,
            cancelled_chunks: chunks,
            cancelled_bytes: bytes,
        };
        let sealed = b.type2_request(&t2).serialized_len() + TAG_LEN;
        let target = profile.type2_target_len();
        assert!(
            sealed <= target && sealed + 26 > target,
            "case {case} {}: sealed {} vs target {}",
            profile.label(),
            sealed,
            target
        );
    }
}

/// Report bands never collide across the two report types within a
/// profile, and type-1 bands are distinct across desktop platforms
/// (Figure 2's per-condition separability).
#[test]
fn bands_separable() {
    let desktops: Vec<Profile> = Profile::all()
        .into_iter()
        .filter(|p| p.device == DeviceForm::Desktop)
        .collect();
    let mut t1_bands = Vec::new();
    for p in &desktops {
        let t1 = p.type1_target_len();
        let t2 = p.type2_target_len();
        assert!(t2 > t1 + 100, "{}: bands too close", p.label());
        t1_bands.push((t1.saturating_sub(3), t1));
    }
    // No two type-1 bands overlap.
    for i in 0..t1_bands.len() {
        for j in (i + 1)..t1_bands.len() {
            let (a_lo, a_hi) = t1_bands[i];
            let (b_lo, b_hi) = t1_bands[j];
            assert!(
                a_hi < b_lo || b_hi < a_lo,
                "bands {:?} and {:?} overlap",
                t1_bands[i],
                t1_bands[j]
            );
        }
    }
}

/// The report bodies always parse as JSON and carry the ids the
/// server validates, whatever the inputs.
#[test]
fn reports_always_server_valid() {
    for case in 0..300u64 {
        let mut rng = Rng(0x91_2000 + case);
        let profile = rng.profile();
        let seed = rng.next();
        let fields = rng.fields();
        let mut b = StateJsonBuilder::new(profile, seed);
        let req = b.type1_request(&fields);
        let doc = wm_json::parse(req.body()).expect("report body is JSON");
        let cp = doc
            .get("choicePointId")
            .and_then(wm_json::Value::as_i64)
            .expect("cp id");
        assert_eq!(
            cp - wm_netflix::STATE_ID_OFFSET,
            fields.choice_point_id as i64,
            "case {case}"
        );
        let seg = doc
            .get("segmentId")
            .and_then(wm_json::Value::as_i64)
            .expect("segment id");
        assert_eq!(
            seg - wm_netflix::STATE_ID_OFFSET,
            fields.segment_id as i64,
            "case {case}"
        );
    }
}
