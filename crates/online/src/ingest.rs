//! Incremental per-flow TCP reassembly and TLS record extraction.
//!
//! The offline pipeline ([`wm_capture::flow`] + [`wm_capture::records`])
//! reassembles a whole capture, then parses records over the finished
//! byte stream. A live attacker cannot wait: [`FlowIngest`] consumes
//! TCP segments one at a time and emits each TLS record the moment its
//! last byte arrives, under hard memory budgets ([`IngestLimits`]).
//!
//! Capture impairments map onto explicit state transitions:
//!
//! * **reordering** — a segment past the contiguous frontier is
//!   *parked* (budgeted) until the hole before it fills;
//! * **loss** — a hole older than the caller's patience is *declared a
//!   gap*: the carry is abandoned, reassembly jumps to the parked data
//!   and header parsing resynchronizes ([`wm_capture::find_resync`]),
//!   exactly what the offline extractor does across a gap — and a
//!   [`GapEvent`] reports the loss window downstream;
//! * **mid-session attach / snaplen truncation** — a header parse
//!   failing mid-stream flips the flow to unsynced and hunts for the
//!   next plausible record chain instead of discarding the rest of the
//!   run (strictly more tolerant than the offline path);
//! * **duplicate delivery** — bytes at or below the frontier are
//!   dropped, earliest copy wins, matching the offline reassembler.
//!
//! On a clean in-order capture this produces byte-for-byte the record
//! stream the offline extractor sees: same times (each record is
//! stamped with the capture time of the segment carrying its first
//! byte), same lengths, same order.

use crate::bounded::{Batch, BoundedVec, ByteCarry, ParkedSegments};
use wm_capture::time::{Duration, SimTime};
use wm_capture::{find_resync, ContentType, RecordHeader, RECORD_HEADER_LEN};

/// Memory budgets for one flow direction. Every byte [`FlowIngest`]
/// holds is covered by one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestLimits {
    /// Reassembly carry: must exceed one maximum TLS record
    /// (5 + 65 540 bytes) or large records can never complete.
    pub max_carry_bytes: usize,
    /// Total bytes of parked out-of-order segments.
    pub max_parked_bytes: usize,
    /// Count of parked out-of-order segments.
    pub max_parked_segments: usize,
    /// Offset→time marks retained for record timestamping.
    pub max_marks: usize,
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits {
            max_carry_bytes: 96 * 1024,
            max_parked_bytes: 64 * 1024,
            max_parked_segments: 64,
            max_marks: 256,
        }
    }
}

/// Why a set of [`IngestLimits`] cannot run a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestLimitsError {
    /// The named budget is zero, so the flow can never make progress.
    ZeroBudget(&'static str),
    /// The carry cannot hold even one record header, so no record
    /// could ever complete.
    CarryTooSmall { need: usize, got: usize },
    /// One half of the parking budget is zero while the other is not:
    /// a budget that can never admit a segment is a configuration
    /// mistake, not a policy.
    ContradictoryParking { bytes: usize, segments: usize },
}

impl std::fmt::Display for IngestLimitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestLimitsError::ZeroBudget(field) => {
                write!(f, "ingest budget `{field}` is zero")
            }
            IngestLimitsError::CarryTooSmall { need, got } => write!(
                f,
                "max_carry_bytes = {got} cannot hold one record header ({need} bytes)"
            ),
            IngestLimitsError::ContradictoryParking { bytes, segments } => write!(
                f,
                "parking budget is contradictory: max_parked_bytes = {bytes}, \
                 max_parked_segments = {segments} (one is zero, the other is not)"
            ),
        }
    }
}

impl std::error::Error for IngestLimitsError {}

impl IngestLimits {
    /// Validating constructor: the checked way to build non-default
    /// limits. The struct keeps public fields for compatibility, but
    /// everything that *runs* a flow against custom limits should go
    /// through here (or [`IngestLimits::validate`]) first.
    pub fn new(
        max_carry_bytes: usize,
        max_parked_bytes: usize,
        max_parked_segments: usize,
        max_marks: usize,
    ) -> Result<Self, IngestLimitsError> {
        let limits = IngestLimits {
            max_carry_bytes,
            max_parked_bytes,
            max_parked_segments,
            max_marks,
        };
        limits.validate()?;
        Ok(limits)
    }

    /// Reject zero or contradictory budgets. Parking may be disabled
    /// entirely (both halves zero — a strictly in-order tap), but a
    /// byte budget without a segment budget (or vice versa) can never
    /// admit anything and is rejected.
    pub fn validate(&self) -> Result<(), IngestLimitsError> {
        if self.max_carry_bytes == 0 {
            return Err(IngestLimitsError::ZeroBudget("max_carry_bytes"));
        }
        if self.max_carry_bytes < RECORD_HEADER_LEN + 1 {
            return Err(IngestLimitsError::CarryTooSmall {
                need: RECORD_HEADER_LEN + 1,
                got: self.max_carry_bytes,
            });
        }
        if self.max_marks == 0 {
            return Err(IngestLimitsError::ZeroBudget("max_marks"));
        }
        if (self.max_parked_bytes == 0) != (self.max_parked_segments == 0) {
            return Err(IngestLimitsError::ContradictoryParking {
                bytes: self.max_parked_bytes,
                segments: self.max_parked_segments,
            });
        }
        Ok(())
    }

    /// Upper bound on one flow's [`FlowIngest::state_bytes`] under
    /// these limits, with generous per-entry allowances (carry +
    /// recycled spares, parked bytes + poison-filled free list, marks,
    /// fixed overhead). The shared half of
    /// [`crate::OnlineConfig::state_bound`].
    pub fn per_flow_state_bound(&self) -> usize {
        2 * self.max_carry_bytes + 3 * self.max_parked_bytes + 256 * self.max_marks + 4096
    }
}

/// One TLS record surfaced by the ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractedRecord {
    /// Capture time of the segment carrying the record's first byte.
    pub time: SimTime,
    pub content_type: ContentType,
    /// Ciphertext length from the record header (the side-channel).
    pub length: u16,
}

/// A declared loss window: reassembly skipped bytes between the last
/// record before the hole and the data it resumed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapEvent {
    /// Time of the last record extracted before the gap.
    pub last_time: SimTime,
    /// Capture time of the segment reassembly resumed at.
    pub resume_time: SimTime,
}

/// Per-flow ingest counters (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records emitted.
    pub records: u64,
    /// Loss windows declared.
    pub gaps: u64,
    /// Header-chain resynchronizations performed.
    pub resyncs: u64,
    /// Bytes abandoned (desync, oversized segments, truncated tails).
    pub skipped_bytes: u64,
    /// Bytes dropped as duplicate/stale deliveries.
    pub duplicate_bytes: u64,
    /// Park refusals that forced a hole to be declared early.
    pub parked_overflows: u64,
}

/// Streaming reassembler + record extractor for one upstream flow
/// direction. Mirrors `wm_capture::flow::DirectionAssembler` semantics
/// (relative offsets from the first payload segment's sequence number,
/// 32-bit sequence unwrap, earliest-copy-wins) but works incrementally
/// and under the [`IngestLimits`] budgets.
#[derive(Debug, Clone)]
pub struct FlowIngest {
    pub(crate) limits: IngestLimits,
    /// Sequence number of the first payload byte seen (relative 0).
    pub(crate) base_seq: Option<u32>,
    /// Highest relative offset seen, for 32-bit sequence unwrapping.
    pub(crate) last_rel: i64,
    /// Contiguous undecoded bytes starting at `carry_start`.
    pub(crate) carry: ByteCarry,
    pub(crate) carry_start: i64,
    /// (relative offset, capture time) marks for timestamping.
    pub(crate) marks: BoundedVec<(i64, SimTime)>,
    /// Out-of-order segments waiting for the hole before them.
    pub(crate) parked: ParkedSegments,
    /// Whether `carry_start` is believed to sit on a record boundary.
    pub(crate) synced: bool,
    /// When the oldest outstanding hole was first observed.
    pub(crate) hole_since: Option<SimTime>,
    /// Time of the last record emitted (gap reporting).
    pub(crate) last_record_time: SimTime,
    pub(crate) stats: IngestStats,
}

impl FlowIngest {
    pub fn new(limits: IngestLimits) -> Self {
        debug_assert!(
            limits.validate().is_ok(),
            "IngestLimits rejected: {:?}",
            limits.validate()
        );
        FlowIngest {
            limits,
            base_seq: None,
            last_rel: 0,
            carry: ByteCarry::new(limits.max_carry_bytes),
            carry_start: 0,
            marks: BoundedVec::new(limits.max_marks),
            parked: ParkedSegments::new(limits.max_parked_bytes, limits.max_parked_segments),
            // The first payload segment defines relative offset 0, and
            // the offline extractor parses straight from it — so a
            // fresh flow starts synced. A tap attached mid-session
            // fails the first header parse and resynchronizes instead.
            synced: true,
            hole_since: None,
            last_record_time: SimTime::ZERO,
            stats: IngestStats::default(),
        }
    }

    /// Feed one upstream TCP segment; completed records and declared
    /// loss windows land in the output batches.
    // wm-lint: hotpath
    pub fn accept_segment(
        &mut self,
        time: SimTime,
        seq: u32,
        payload: &[u8],
        records: &mut Batch<ExtractedRecord>,
        gaps: &mut Batch<GapEvent>,
    ) {
        if payload.is_empty() {
            return;
        }
        let base = *self.base_seq.get_or_insert(seq);
        let raw = seq.wrapping_sub(base) as i64;
        // Unwrap 32-bit sequence space around the last offset seen
        // (same arithmetic as the offline assembler).
        let span = 1i64 << 32;
        let k = (self.last_rel - raw + span / 2).div_euclid(span);
        let rel = raw + k * span;
        if rel < 0 {
            // Predates the attach point (or a retransmit from before
            // relative zero): nothing upstream anchors it. Dropped —
            // a documented divergence from offline, which re-anchors.
            self.stats.duplicate_bytes = self
                .stats
                .duplicate_bytes
                .saturating_add(payload.len() as u64);
            return;
        }
        self.last_rel = self.last_rel.max(rel);
        self.place(rel, time, payload, gaps);
        self.drain(records);
    }

    /// Declare holes older than `patience` lost and resume past them.
    pub fn flush(
        &mut self,
        now: SimTime,
        patience: Duration,
        records: &mut Batch<ExtractedRecord>,
        gaps: &mut Batch<GapEvent>,
    ) {
        while let Some(h) = self.hole_since {
            if now.since(h) <= patience {
                break;
            }
            if !self.jump_to_first_parked(gaps) {
                self.hole_since = None;
                break;
            }
            self.drain(records);
        }
    }

    /// End of capture: declare every outstanding hole, drain what
    /// parses, and write off the rest.
    pub fn finish(&mut self, records: &mut Batch<ExtractedRecord>, gaps: &mut Batch<GapEvent>) {
        self.drain(records);
        while self.jump_to_first_parked(gaps) {
            self.drain(records);
        }
        self.hole_since = None;
        if !self.carry.is_empty() {
            // Truncated final record (or unsynced tail).
            self.stats.skipped_bytes = self
                .stats
                .skipped_bytes
                .saturating_add(self.carry.len() as u64);
            self.carry.clear();
            self.marks.clear();
        }
    }

    /// Earliest capture time this flow could still emit a record for:
    /// the watermark must not pass it while data is pending here.
    pub fn frontier(&self) -> Option<SimTime> {
        if !self.carry.is_empty() {
            return Some(self.mark_time(self.carry_start));
        }
        self.parked.first_time()
    }

    /// When the oldest outstanding hole appeared (for staleness checks).
    pub fn hole_age_start(&self) -> Option<SimTime> {
        self.hole_since
    }

    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Toggle parked-segment buffer recycling (on by default). Turning
    /// it off makes every park a fresh allocation — the oracle the
    /// buffer-hygiene tests compare the recycling path against; the
    /// record/gap output must be identical either way.
    pub fn set_buffer_recycling(&mut self, on: bool) {
        self.parked.set_recycling(on);
    }

    /// Bytes of state this flow currently holds (memory accounting).
    pub fn state_bytes(&self) -> usize {
        self.carry.len()
            + self.parked.bytes()
            + self.marks.len() * std::mem::size_of::<(i64, SimTime)>()
            + std::mem::size_of::<Self>()
    }

    // -- internals ----------------------------------------------------

    fn place(&mut self, rel: i64, time: SimTime, data: &[u8], gaps: &mut Batch<GapEvent>) {
        let end = rel + data.len() as i64;
        loop {
            let appended_end = self.carry_start + self.carry.len() as i64;
            if end <= appended_end {
                self.stats.duplicate_bytes =
                    self.stats.duplicate_bytes.saturating_add(data.len() as u64);
                return;
            }
            if rel <= appended_end {
                let skip = (appended_end - rel) as usize;
                self.stats.duplicate_bytes = self.stats.duplicate_bytes.saturating_add(skip as u64);
                self.absorb_at(appended_end, time, data.get(skip..).unwrap_or_default());
                self.absorb_parked_chain();
                return;
            }
            // A hole precedes this segment: park it.
            if self.parked.park(rel, time, data) {
                if self.hole_since.is_none() {
                    self.hole_since = Some(time);
                }
                return;
            }
            // Budgets exhausted: the oldest hole is forced closed (a
            // declared gap) and the segment retries against the freed
            // budget.
            self.stats.parked_overflows = self.stats.parked_overflows.saturating_add(1);
            if !self.jump_to_first_parked(gaps) {
                // Nothing parked yet the park refused: the segment
                // alone exceeds the byte budget. Start fresh at it.
                self.note_gap(time, gaps);
                self.reset_carry_to(rel);
                self.absorb_at(rel, time, data);
                return;
            }
        }
    }

    /// Force the oldest hole closed: declare a gap, abandon the carry,
    /// and resume reassembly at the first parked segment.
    fn jump_to_first_parked(&mut self, gaps: &mut Batch<GapEvent>) -> bool {
        let Some((off, time, data)) = self.parked.take_first() else {
            return false;
        };
        self.note_gap(time, gaps);
        self.reset_carry_to(off);
        self.absorb_at(off, time, &data);
        self.parked.recycle(data);
        self.absorb_parked_chain();
        true
    }

    /// Append `data` whose first byte sits at stream offset `off`
    /// (callers guarantee `off` == appended end).
    fn absorb_at(&mut self, off: i64, time: SimTime, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if !self.carry.absorb(data) {
            // Carry overflow: whatever is buffered cannot be a live
            // record prefix worth more than the bytes arriving now.
            // Abandoning it counts its bytes as skipped.
            self.reset_carry_to(off);
            if !self.carry.absorb(data) {
                // The segment alone exceeds the budget: write it off.
                self.stats.skipped_bytes =
                    self.stats.skipped_bytes.saturating_add(data.len() as u64);
                return;
            }
        }
        self.marks.admit_evict((off, time));
    }

    /// Pull parked segments that have become contiguous into the carry.
    fn absorb_parked_chain(&mut self) {
        loop {
            let appended_end = self.carry_start + self.carry.len() as i64;
            let Some(off) = self.parked.first_offset() else {
                break;
            };
            if off > appended_end {
                break;
            }
            let Some((o, t, data)) = self.parked.take_first() else {
                break;
            };
            let end = o + data.len() as i64;
            if end <= appended_end {
                self.stats.duplicate_bytes =
                    self.stats.duplicate_bytes.saturating_add(data.len() as u64);
                self.parked.recycle(data);
                continue;
            }
            let skip = (appended_end - o) as usize;
            self.absorb_at(appended_end, t, data.get(skip..).unwrap_or_default());
            self.parked.recycle(data);
        }
        if self.parked.is_empty() {
            self.hole_since = None;
        } else if self.hole_since.is_none() {
            self.hole_since = self.parked.first_time();
        }
    }

    fn note_gap(&mut self, resume_time: SimTime, gaps: &mut Batch<GapEvent>) {
        self.stats.gaps = self.stats.gaps.saturating_add(1);
        gaps.put(GapEvent {
            last_time: self.last_record_time,
            resume_time,
        });
    }

    /// Abandon the carry (counting its bytes lost) and restart
    /// reassembly at `off`, requiring a header resync.
    fn reset_carry_to(&mut self, off: i64) {
        self.stats.skipped_bytes = self
            .stats
            .skipped_bytes
            .saturating_add(self.carry.len() as u64);
        self.carry.clear();
        self.marks.clear();
        self.carry_start = off;
        self.synced = false;
    }

    /// Parse complete records off the front of the carry.
    fn drain(&mut self, records: &mut Batch<ExtractedRecord>) {
        loop {
            if !self.synced {
                let Some(skip) = find_resync(self.carry.as_slice()) else {
                    if self.carry.len() >= self.limits.max_carry_bytes {
                        // A full carry with no plausible header chain
                        // anywhere is garbage; drop it.
                        let n = self.carry.len();
                        self.stats.skipped_bytes =
                            self.stats.skipped_bytes.saturating_add(n as u64);
                        self.carry.clear();
                        self.marks.clear();
                        self.carry_start += n as i64;
                    }
                    return;
                };
                if skip > 0 {
                    self.stats.skipped_bytes = self.stats.skipped_bytes.saturating_add(skip as u64);
                    self.carry.drop_front(skip);
                    self.carry_start += skip as i64;
                    self.prune_marks();
                }
                self.synced = true;
                self.stats.resyncs = self.stats.resyncs.saturating_add(1);
            }
            let Some(header_bytes) = self.carry.as_slice().first_chunk::<RECORD_HEADER_LEN>()
            else {
                return;
            };
            let Some(header) = RecordHeader::parse(header_bytes) else {
                // Mid-stream desync (tap attach, clipped bytes): hunt
                // for the next plausible boundary. `find_resync` cannot
                // return 0 here (the parse at offset 0 just failed), so
                // this always makes progress.
                self.synced = false;
                continue;
            };
            let total = RECORD_HEADER_LEN + header.length as usize;
            if self.carry.len() < total {
                return;
            }
            let time = self.mark_time(self.carry_start);
            records.put(ExtractedRecord {
                time,
                content_type: header.content_type,
                length: header.length,
            });
            self.stats.records = self.stats.records.saturating_add(1);
            self.last_record_time = time;
            self.carry.drop_front(total);
            self.carry_start += total as i64;
            self.prune_marks();
        }
    }

    /// Capture time of the segment covering stream offset `off`: the
    /// last mark at or before it (matches the offline assembler's
    /// `time_at`).
    fn mark_time(&self, off: i64) -> SimTime {
        let mut best: Option<SimTime> = None;
        for &(o, t) in self.marks.iter() {
            if o <= off {
                best = Some(t);
            } else {
                break;
            }
        }
        best.or_else(|| self.marks.first().map(|&(_, t)| t))
            .unwrap_or(SimTime::ZERO)
    }

    /// Drop marks wholly behind the carry start (keeping the one that
    /// still covers it).
    fn prune_marks(&mut self) {
        while let Some(&(o2, _)) = self.marks.get(1) {
            if o2 <= self.carry_start {
                self.marks.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A syntactically valid TLS record: ApplicationData (23), TLS 1.2.
    fn record(len: u16) -> Vec<u8> {
        let mut r = vec![23, 3, 3, (len >> 8) as u8, (len & 0xff) as u8];
        r.extend(std::iter::repeat_n(0xab, len as usize));
        r
    }

    fn drain_all(
        ing: &mut FlowIngest,
        segs: &[(u64, u32, &[u8])],
    ) -> (Vec<ExtractedRecord>, Vec<GapEvent>) {
        let mut recs = Batch::new();
        let mut gaps = Batch::new();
        for &(t, seq, payload) in segs {
            ing.accept_segment(SimTime(t), seq, payload, &mut recs, &mut gaps);
        }
        ing.finish(&mut recs, &mut gaps);
        (recs.into_vec(), gaps.into_vec())
    }

    #[test]
    fn clean_in_order_stream_extracts_records() {
        let mut ing = FlowIngest::new(IngestLimits::default());
        let a = record(100);
        let b = record(2212);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Split mid-record to prove carry handling.
        let (left, right) = all.split_at(a.len() + 3);
        let (recs, gaps) = drain_all(
            &mut ing,
            &[
                (1_000, 5000, left),
                (2_000, 5000 + left.len() as u32, right),
            ],
        );
        assert!(gaps.is_empty());
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].length, 100);
        assert_eq!(recs[0].time, SimTime(1_000));
        assert_eq!(recs[1].length, 2212);
        // Second record's first byte arrived in the first segment.
        assert_eq!(recs[1].time, SimTime(1_000));
    }

    #[test]
    fn reordered_segments_reassemble() {
        let mut ing = FlowIngest::new(IngestLimits::default());
        let a = record(50);
        let b = record(60);
        let (recs, gaps) = drain_all(
            &mut ing,
            &[
                (1_000, 0, &a),
                // b's second half first, then its first half.
                (2_000, (a.len() + 30) as u32, &b[30..]),
                (3_000, a.len() as u32, &b[..30]),
            ],
        );
        assert!(gaps.is_empty());
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].length, 60);
        assert_eq!(
            recs[1].time,
            SimTime(3_000),
            "stamped at first-byte arrival"
        );
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut ing = FlowIngest::new(IngestLimits::default());
        let a = record(40);
        let (recs, _) = drain_all(&mut ing, &[(1_000, 0, &a), (2_000, 0, &a)]);
        assert_eq!(recs.len(), 1);
        assert_eq!(ing.stats().duplicate_bytes, a.len() as u64);
    }

    #[test]
    fn stale_hole_declares_gap_and_resyncs() {
        let mut ing = FlowIngest::new(IngestLimits::default());
        let a = record(40);
        let b = record(80);
        let mut recs = Batch::new();
        let mut gaps = Batch::new();
        ing.accept_segment(SimTime(1_000), 0, &a, &mut recs, &mut gaps);
        // b arrives past a hole (a lost segment before it).
        let hole = (a.len() + 500) as u32;
        ing.accept_segment(SimTime(2_000), hole, &b, &mut recs, &mut gaps);
        assert_eq!(recs.len(), 1);
        // Hole still young: nothing declared.
        ing.flush(
            SimTime(2_100),
            Duration::from_millis(500),
            &mut recs,
            &mut gaps,
        );
        assert!(gaps.is_empty());
        // Hole expires: gap declared, b extracted after resync.
        ing.flush(
            SimTime(600_000),
            Duration::from_millis(500),
            &mut recs,
            &mut gaps,
        );
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps.as_slice()[0].last_time, SimTime(1_000));
        assert_eq!(gaps.as_slice()[0].resume_time, SimTime(2_000));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs.as_slice()[1].length, 80);
        assert!(ing.stats().resyncs >= 1);
    }

    #[test]
    fn carry_overflow_counts_abandoned_bytes_once() {
        let limits = IngestLimits {
            max_carry_bytes: 64,
            ..IngestLimits::default()
        };
        let mut ing = FlowIngest::new(limits);
        let mut recs = Batch::new();
        let mut gaps = Batch::new();
        // A record far longer than the carry: its first 40 bytes wait
        // in the carry, the next 40 overflow it.
        let long = record(1_000);
        ing.accept_segment(SimTime(1_000), 0, &long[..40], &mut recs, &mut gaps);
        assert_eq!(ing.stats().skipped_bytes, 0);
        ing.accept_segment(SimTime(2_000), 40, &long[40..80], &mut recs, &mut gaps);
        assert!(recs.is_empty());
        assert_eq!(
            ing.stats().skipped_bytes,
            40,
            "the abandoned carry is skipped once"
        );
    }

    #[test]
    fn mid_stream_attach_resynchronizes() {
        let mut ing = FlowIngest::new(IngestLimits::default());
        // Tap attached mid-record: the first bytes are a record tail
        // (garbage from the parser's point of view) followed by two
        // complete records.
        let mut bytes = vec![0xaa; 37];
        let tail_len = bytes.len();
        bytes.extend_from_slice(&record(100));
        bytes.extend_from_slice(&record(200));
        let (recs, _) = drain_all(&mut ing, &[(1_000, 77, &bytes)]);
        assert_eq!(recs.len(), 2, "resync recovers the records after the tail");
        assert_eq!(recs[0].length, 100);
        assert!(ing.stats().skipped_bytes >= tail_len as u64);
    }

    #[test]
    fn memory_stays_within_budgets() {
        let limits = IngestLimits {
            max_carry_bytes: 4096,
            max_parked_bytes: 2048,
            max_parked_segments: 8,
            max_marks: 16,
        };
        let mut ing = FlowIngest::new(limits);
        let mut recs = Batch::new();
        let mut gaps = Batch::new();
        // Hostile stream: every segment leaves a hole, forever.
        let mut off = 0u32;
        for i in 0..500u64 {
            let seg = record(90);
            off = off.wrapping_add(seg.len() as u32 + 13);
            ing.accept_segment(SimTime(i * 1_000), off, &seg, &mut recs, &mut gaps);
            assert!(
                ing.state_bytes() <= 4096 + 2048 + 16 * 16 + 512,
                "state grew past budgets at segment {i}"
            );
        }
        // Gaps were declared to stay within budget.
        assert!(ing.stats().parked_overflows > 0 || !gaps.is_empty());
    }
}
