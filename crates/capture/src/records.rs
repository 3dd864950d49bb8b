//! TLS record extraction over a reassembled stream, with gap resync.
//!
//! Within a contiguous chunk this is a straight run of the key-less
//! record parser from `wm-tls`. After a gap the stream usually resumes
//! mid-record, so the extractor *resynchronizes*: it scans forward for
//! an offset where a chain of plausible record headers parses, exactly
//! the heuristic a traffic analyst applies to lossy captures. Records
//! whose bytes were partly lost are dropped (and counted) rather than
//! misreported.

use crate::flow::{StreamChunk, StreamPiece, StreamView};
use wm_net::time::SimTime;
use wm_tls::observer::ObservedRecord;
use wm_tls::record::{RecordHeader, RECORD_HEADER_LEN};

/// A record with the capture timestamp of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedRecord {
    pub time: SimTime,
    pub record: ObservedRecord,
}

/// Extraction bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Records successfully parsed.
    pub records: usize,
    /// Gaps encountered in the stream.
    pub gaps: usize,
    /// Gaps after which a valid header chain was found again.
    pub resyncs: usize,
    /// Bytes skipped while hunting for a resync point.
    pub skipped_bytes: u64,
}

/// The extractor's output.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    pub records: Vec<TimedRecord>,
    pub stats: ExtractStats,
    /// Capture timestamp at which each gap's post-gap chunk resumed
    /// (one entry per counted gap, in stream order). Downstream
    /// decoders use these to mark choice windows the tap was blind in.
    pub gap_times: Vec<SimTime>,
}

/// Minimum chained headers required to accept a resync offset (or one
/// full record that exactly exhausts the chunk).
const RESYNC_CHAIN: usize = 2;

/// Extract every parseable TLS record from one stream direction.
///
/// The walk jumps from header to header over the chunks' borrowed
/// pieces, and the resync scan after a gap reads them in place: no
/// stream byte is copied.
// wm-lint: hotpath
pub fn extract_records(view: &StreamView) -> Extraction {
    let mut out = Extraction::default();
    let mut walk = HeaderWalk::default();
    let mut prev_end: Option<u64> = None;

    for chunk in &view.chunks {
        let gap = prev_end.is_some_and(|end| chunk.start_offset > end);
        prev_end = Some(chunk.end_offset());
        let mut from = chunk.start_offset;
        if gap {
            out.stats.gaps += 1;
            out.gap_times.extend(chunk.pieces.first().map(|p| p.time));
            // The partial record before the gap can never complete.
            walk = HeaderWalk::default();
            let Some(at) = scan_resync(chunk) else {
                out.stats.skipped_bytes += chunk.end_offset() - chunk.start_offset;
                continue;
            };
            out.stats.resyncs += 1;
            out.stats.skipped_bytes += at as u64;
            from += at as u64;
        }
        for piece in &chunk.pieces {
            if let Some(at) = walk.feed(piece, from, &mut out) {
                // Mid-stream desync should not happen on our own traces;
                // if it does, drop the rest of this contiguous run.
                out.stats.skipped_bytes += chunk.end_offset() - at;
                walk = HeaderWalk::default();
                break;
            }
        }
    }
    out
}

/// The record-header walk's cursor, carried from piece to piece.
#[derive(Default)]
struct HeaderWalk {
    /// Stream offset and capture time of the current record's first byte.
    start: (u64, SimTime),
    /// Header bytes gathered so far.
    header: [u8; RECORD_HEADER_LEN],
    have: usize,
    /// The record whose header is read, and its body bytes not yet seen.
    pending: Option<(TimedRecord, usize)>,
}

impl HeaderWalk {
    /// Walk the bytes of `piece` at or after stream offset `from`,
    /// emitting each record once its last byte is seen. Returns the
    /// offset of a header that fails to parse.
    // wm-lint: hotpath
    fn feed(&mut self, piece: &StreamPiece, from: u64, out: &mut Extraction) -> Option<u64> {
        let data = piece.data;
        let mut pos = (from.saturating_sub(piece.offset) as usize).min(data.len());
        loop {
            if let Some((record, body_left)) = &mut self.pending {
                let take = (*body_left).min(data.len() - pos);
                pos += take;
                *body_left -= take;
                if *body_left > 0 {
                    return None;
                }
                out.records.push(*record);
                out.stats.records += 1;
                self.pending = None;
            }
            let rest = data.get(pos..).unwrap_or_default();
            if rest.is_empty() {
                return None;
            }
            if self.have == 0 {
                self.start = (piece.offset + pos as u64, piece.time);
            }
            // Gather the header: it may straddle pieces.
            let slots = self.header.iter_mut().skip(self.have);
            let take = slots.zip(rest).map(|(dst, &src)| *dst = src).count();
            pos += take;
            self.have += take;
            if self.have < RECORD_HEADER_LEN {
                return None;
            }
            self.have = 0;
            let (stream_offset, time) = self.start;
            let Some(header) = RecordHeader::parse(&self.header) else {
                return Some(stream_offset);
            };
            let record = ObservedRecord {
                stream_offset,
                content_type: header.content_type,
                version: header.version,
                length: header.length,
            };
            self.pending = Some((TimedRecord { time, record }, header.length as usize));
        }
    }
}

/// Find the smallest offset in `data` at which a chain of plausible
/// record headers parses.
///
/// Public so the streaming (online) extractor can reuse the exact same
/// resynchronization heuristic as the batch path: accepts an offset
/// where [`RESYNC_CHAIN`] headers chain, or at least one complete
/// header whose final record extends past the buffer edge.
pub fn find_resync(data: &[u8]) -> Option<usize> {
    scan_resync(data)
}

/// The bytes a resync scan reads: a length, and the header-sized
/// window at an offset.
trait ResyncSource {
    fn len(&self) -> usize;
    /// The [`RECORD_HEADER_LEN`] bytes at `at`, if all are in bounds.
    /// `cursor` is the caller's place in the source; it only moves
    /// forward, so a walk over ascending offsets never searches again
    /// from the start.
    fn header_at(&self, at: usize, cursor: &mut usize) -> Option<[u8; RECORD_HEADER_LEN]>;
}

impl ResyncSource for [u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn header_at(&self, at: usize, _cursor: &mut usize) -> Option<[u8; RECORD_HEADER_LEN]> {
        self.get(at..)?.first_chunk().copied()
    }
}

/// A contiguous run read in place: offsets are relative to its first
/// byte and the cursor is a piece index.
impl ResyncSource for StreamChunk<'_> {
    fn len(&self) -> usize {
        (self.end_offset() - self.start_offset) as usize
    }

    fn header_at(&self, at: usize, cursor: &mut usize) -> Option<[u8; RECORD_HEADER_LEN]> {
        let at = self.start_offset + at as u64;
        let ends_before = |p: &StreamPiece| p.offset + p.data.len() as u64 <= at;
        if self.pieces.get(*cursor).is_some_and(ends_before) {
            *cursor += self.pieces.get(*cursor..)?.partition_point(ends_before);
        }
        // Gather the header: it may straddle pieces.
        let (first, rest) = self.pieces.get(*cursor..)?.split_first()?;
        let head = first.data.get(at.checked_sub(first.offset)? as usize..)?;
        let bytes = head.iter().chain(rest.iter().flat_map(|p| p.data));
        let mut header = [0; RECORD_HEADER_LEN];
        let filled = header.iter_mut().zip(bytes).map(|(d, &s)| *d = s).count();
        (filled == RECORD_HEADER_LEN).then_some(header)
    }
}

/// [`find_resync`] over any [`ResyncSource`].
fn scan_resync<S: ResyncSource + ?Sized>(src: &S) -> Option<usize> {
    let len = src.len();
    // Candidate starts ascend, and so does their cursor; a chain check
    // reads ahead on a copy of it.
    let mut cursor = 0;
    'outer: for start in 0..len.saturating_sub(RECORD_HEADER_LEN) {
        let mut ahead = cursor;
        let mut pos = start;
        let mut chained = 0;
        while chained < RESYNC_CHAIN {
            if pos + RECORD_HEADER_LEN > len {
                // Ran out of bytes: accept only if we chained at least
                // one full record and ended exactly at the buffer edge
                // or inside a final partial record's body.
                if chained >= 1 {
                    return Some(start);
                }
                continue 'outer;
            }
            let hdr = src.header_at(pos, &mut ahead);
            if chained == 0 {
                cursor = ahead;
            }
            let Some(h) = hdr.as_ref().and_then(RecordHeader::parse) else {
                continue 'outer;
            };
            pos += RECORD_HEADER_LEN + h.length as usize;
            if pos > len {
                // Final record extends past the chunk: plausible if we
                // already validated at least one complete header chain.
                if chained >= 1 {
                    return Some(start);
                }
                continue 'outer;
            }
            chained += 1;
        }
        return Some(start);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_tls::conn::{RecordEngine, SessionKeys};
    use wm_tls::record::ContentType;
    use wm_tls::suite::CipherSuite;

    fn engine() -> RecordEngine {
        RecordEngine::client(&SessionKeys::derive(&[9; 32], CipherSuite::Aead))
    }

    fn view_of<'t>(chunks: &[(u64, &'t [u8], SimTime)]) -> StreamView<'t> {
        StreamView {
            chunks: chunks
                .iter()
                .map(|&(start_offset, data, time)| StreamChunk {
                    start_offset,
                    pieces: vec![StreamPiece {
                        offset: start_offset,
                        data,
                        time,
                    }],
                })
                .collect(),
        }
    }

    #[test]
    fn clean_stream_extracts_all() {
        let mut eng = engine();
        let mut wire = Vec::new();
        for len in [100usize, 2196, 50] {
            wire.extend(eng.seal_payload(ContentType::ApplicationData, &vec![0; len]));
        }
        let view = view_of(&[(0, &wire, SimTime(77))]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.records, 3);
        assert_eq!(ex.stats.gaps, 0);
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        assert_eq!(lens, vec![116, 2212, 66]);
        assert_eq!(ex.records[0].time, SimTime(77));
    }

    #[test]
    fn record_spanning_chunk_boundary() {
        let mut eng = engine();
        let wire = eng.seal_payload(ContentType::ApplicationData, &vec![1; 500]);
        let (a, b) = wire.split_at(200);
        let view = view_of(&[(0, a, SimTime(1)), (200, b, SimTime(2))]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.records, 1);
        assert_eq!(ex.records[0].record.length, 516);
        assert_eq!(ex.records[0].time, SimTime(1), "timestamp of first byte");
    }

    #[test]
    fn gap_drops_record_and_resyncs() {
        let mut eng = engine();
        let r1 = eng.seal_payload(ContentType::ApplicationData, &vec![1; 1000]);
        let r2 = eng.seal_payload(ContentType::ApplicationData, &vec![2; 1000]);
        let r3 = eng.seal_payload(ContentType::ApplicationData, &vec![3; 400]);
        let r4 = eng.seal_payload(ContentType::ApplicationData, &vec![4; 300]);
        // Capture r1 fully, lose the middle of r2, then r3+r4 intact.
        let mut first = r1.clone();
        first.extend_from_slice(&r2[..300]);
        let mut rest = r3.clone();
        rest.extend_from_slice(&r4);
        let gap_start = first.len() as u64;
        let resume = (r1.len() + r2.len()) as u64;
        let view = view_of(&[(0, &first, SimTime(1)), (resume, &rest, SimTime(9))]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.gaps, 1);
        assert_eq!(ex.stats.resyncs, 1);
        assert_eq!(ex.gap_times, vec![SimTime(9)], "gap stamped at resume time");
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        assert_eq!(lens, vec![1016, 416, 316], "r2 dropped, r3/r4 recovered");
        assert!(gap_start > 0);
    }

    #[test]
    fn resume_mid_record_skips_to_next_header() {
        let mut eng = engine();
        let r1 = eng.seal_payload(ContentType::ApplicationData, &vec![1; 800]);
        let r2 = eng.seal_payload(ContentType::ApplicationData, &vec![2; 600]);
        let r3 = eng.seal_payload(ContentType::ApplicationData, &[3; 200]);
        // The tap missed r1 entirely and the first 100 bytes of r2.
        let mut rest = r2[100..].to_vec();
        rest.extend_from_slice(&r3);
        let view = view_of(&[
            (0, &r1[..50], SimTime(1)), // only a shred of r1
            ((r1.len() + 100) as u64, &rest, SimTime(5)),
        ]);
        let ex = extract_records(&view);
        // r2's tail is unparseable noise; r3 must be recovered.
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        assert_eq!(lens, vec![216]);
        assert!(ex.stats.skipped_bytes >= (r2.len() - 100) as u64 - 5);
    }

    #[test]
    fn unrecoverable_chunk_counted() {
        // One chunk after a gap containing pure noise.
        let view = view_of(&[
            (0, &[0u8; 10], SimTime(1)),
            (100, &[0xffu8; 64], SimTime(2)),
        ]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.records, 0);
        assert_eq!(ex.stats.gaps, 1);
        assert_eq!(ex.stats.resyncs, 0);
        assert!(ex.stats.skipped_bytes >= 64);
    }

    #[test]
    fn empty_view() {
        let ex = extract_records(&StreamView::default());
        assert_eq!(ex.stats, ExtractStats::default());
        assert!(ex.records.is_empty());
    }
}
