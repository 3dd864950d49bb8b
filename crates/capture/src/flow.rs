//! Offline TCP stream reassembly over a captured trace.
//!
//! The eavesdropper rebuilds each direction of each TCP flow into a
//! byte stream before parsing TLS records out of it. Tap loss shows up
//! as *gaps*: runs of sequence space the capture never saw (unless a
//! captured retransmission filled them in). Gaps are first-class here —
//! the record extractor has to resynchronize after each one, and the
//! evaluation counts how much of the paper's accuracy loss they cause.

use std::collections::BTreeMap;
use wm_net::headers::FlowId;
use wm_net::time::SimTime;

use crate::tap::{segments_of, Trace};

/// Flow direction relative to the viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    ClientToServer,
    ServerToClient,
}

/// One captured segment's share of a reassembled stream: bytes
/// borrowed from the capture frame, stamped with its capture time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPiece<'t> {
    /// Stream offset of `data[0]`.
    pub offset: u64,
    pub data: &'t [u8],
    pub time: SimTime,
}

/// A contiguous run of reassembled stream bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChunk<'t> {
    /// Stream offset of the first byte (relative to the first captured
    /// payload byte of this direction).
    pub start_offset: u64,
    /// The captured pieces that tile the run, ascending and trimmed of
    /// overlap: each starts where the previous one ends.
    pub pieces: Vec<StreamPiece<'t>>,
}

impl StreamChunk<'_> {
    /// Stream offset one past the last byte.
    pub fn end_offset(&self) -> u64 {
        self.pieces
            .last()
            .map_or(self.start_offset, |p| p.offset + p.data.len() as u64)
    }

    /// The run's bytes, copied into one exactly sized buffer. For tests
    /// and tools: the decode paths read the pieces in place.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pieces.iter().map(|p| p.data.len()).sum());
        for p in &self.pieces {
            out.extend_from_slice(p.data);
        }
        out
    }
}

/// One direction of one flow, reassembled.
#[derive(Debug, Clone, Default)]
pub struct StreamView<'t> {
    /// Contiguous chunks, ascending, non-overlapping. Bytes between
    /// consecutive chunks were lost by the tap.
    pub chunks: Vec<StreamChunk<'t>>,
}

impl StreamView<'_> {
    /// Total reassembled payload bytes.
    pub fn data_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.end_offset() - c.start_offset)
            .sum()
    }

    /// Total bytes lost in gaps between chunks.
    pub fn gap_bytes(&self) -> u64 {
        self.chunks
            .windows(2)
            .map(|w| match w {
                [a, b] => b.start_offset.saturating_sub(a.end_offset()),
                _ => 0,
            })
            .sum()
    }

    /// Number of gaps.
    pub fn gap_count(&self) -> usize {
        self.chunks.len().saturating_sub(1)
    }

    /// Capture time of the segment containing `offset`, if known.
    pub fn time_at(&self, offset: u64) -> Option<SimTime> {
        let c = self.chunks.partition_point(|c| c.start_offset <= offset);
        let chunk = self.chunks.get(c.checked_sub(1)?)?;
        if offset >= chunk.end_offset() {
            return None;
        }
        let p = chunk.pieces.partition_point(|p| p.offset <= offset);
        chunk.pieces.get(p.checked_sub(1)?).map(|p| p.time)
    }
}

/// Both directions of one TCP connection, borrowing the capture.
#[derive(Debug, Clone)]
pub struct FlowStreams<'t> {
    /// The client→server flow id (client identified as the non-443 side).
    pub client_flow: FlowId,
    pub upstream: StreamView<'t>,
    pub downstream: StreamView<'t>,
}

/// Reassemble every TCP connection in a trace.
///
/// The side with port 443 is taken to be the server (all simulated
/// sessions use TLS on 443, as did the captures in the paper).
pub struct FlowReassembler;

impl FlowReassembler {
    /// Run reassembly over the full trace. No payload byte is copied:
    /// the streams borrow the trace's frames.
    pub fn reassemble(trace: &Trace) -> Vec<FlowStreams<'_>> {
        // Per canonical flow: the client→server id and both directions.
        type Flow<'t> = (FlowId, DirectionAssembler<'t>, DirectionAssembler<'t>);
        let mut flows: BTreeMap<FlowId, Flow<'_>> = BTreeMap::new();
        for (time, flow, tcp, payload) in segments_of(trace) {
            if payload.is_empty() {
                continue; // pure ACKs and control segments carry no stream bytes
            }
            let canonical = flow.canonical();
            let (client_flow, up, down) = flows.entry(canonical).or_insert_with(|| {
                let client_flow = if canonical.src_port == 443 {
                    canonical.reversed()
                } else {
                    canonical
                };
                (client_flow, Default::default(), Default::default())
            });
            if flow == *client_flow {
                up.add(time, tcp.seq, payload);
            } else {
                down.add(time, tcp.seq, payload);
            }
        }
        flows
            .into_values()
            .map(|(client_flow, up, down)| FlowStreams {
                client_flow,
                upstream: up.finish(),
                downstream: down.finish(),
            })
            .collect()
    }
}

/// Sequence-space reassembler for one direction.
///
/// The first captured segment anchors relative offset 0, but later
/// captures may reveal *earlier* stream bytes (out-of-order capture, or
/// the anchor itself was a retransmission), so offsets are tracked as
/// signed relatives and normalized once at the end.
#[derive(Default)]
struct DirectionAssembler<'t> {
    /// Wire seq of the first payload byte seen (relative offset 0).
    base_seq: Option<u32>,
    /// `(signed relative stream offset, payload, capture time)`, in
    /// capture order.
    segments: Vec<(i64, &'t [u8], SimTime)>,
    /// Most recent relative offset, for unwrapping multi-wrap streams.
    last_rel: i64,
}

impl<'t> DirectionAssembler<'t> {
    fn add(&mut self, time: SimTime, seq: u32, payload: &'t [u8]) {
        let base = *self.base_seq.get_or_insert(seq);
        let raw = seq.wrapping_sub(base) as i64; // 0..2^32
                                                 // Choose raw + k·2^32 closest to the last seen offset.
        let span = 1i64 << 32;
        let k = (self.last_rel - raw + span / 2).div_euclid(span);
        let rel = raw + k * span;
        self.last_rel = self.last_rel.max(rel);
        self.segments.push((rel, payload, time));
    }

    fn finish(mut self) -> StreamView<'t> {
        // Keep the earliest copy of each offset (retransmissions are
        // later and carry identical bytes): the sort is stable, so that
        // copy leads its run of equal offsets.
        self.segments.sort_by_key(|&(rel, _, _)| rel);
        self.segments.dedup_by_key(|&mut (rel, _, _)| rel);
        let min_rel = self.segments.first().map_or(0, |&(rel, _, _)| rel);
        let mut chunks: Vec<StreamChunk<'t>> = Vec::new();
        for (rel, data, time) in self.segments {
            let offset = (rel - min_rel) as u64;
            match chunks.last_mut() {
                Some(last) if offset <= last.end_offset() => {
                    // Contiguous or overlapping: keep the new tail.
                    // Fully contained duplicates contribute nothing.
                    let last_end = last.end_offset();
                    if offset + data.len() as u64 > last_end {
                        let skip = (last_end - offset) as usize;
                        last.pieces.push(StreamPiece {
                            offset: last_end,
                            data: data.get(skip..).unwrap_or_default(),
                            time,
                        });
                    }
                }
                _ => chunks.push(StreamChunk {
                    start_offset: offset,
                    pieces: vec![StreamPiece { offset, data, time }],
                }),
            }
        }
        StreamView { chunks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::Tap;
    use wm_net::headers::TcpFlags;
    use wm_net::tcp::TcpSegment;

    fn client_flow() -> FlowId {
        FlowId {
            src_ip: [192, 168, 1, 2],
            src_port: 51000,
            dst_ip: [23, 246, 50, 9],
            dst_port: 443,
        }
    }

    fn seg(flow: FlowId, seq: u32, payload: &[u8]) -> TcpSegment {
        TcpSegment {
            flow,
            seq,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            payload: payload.to_vec(),
            retransmit: false,
        }
    }

    #[test]
    fn reassembles_in_order_stream() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 1000, b"hello "));
        tap.record_segment(SimTime(2), &seg(client_flow(), 1006, b"world"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        assert_eq!(flows.len(), 1);
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 1);
        assert_eq!(up.chunks[0].to_vec(), b"hello world");
        assert_eq!(up.gap_count(), 0);
        assert_eq!(up.time_at(0), Some(SimTime(1)));
        assert_eq!(up.time_at(8), Some(SimTime(2)));
    }

    #[test]
    fn to_vec_joins_many_small_pieces() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut pieces = Vec::new();
        let (mut at, mut len) = (0, 1);
        while at < bytes.len() {
            let end = (at + len).min(bytes.len());
            pieces.push(StreamPiece {
                offset: 40 + at as u64,
                data: &bytes[at..end],
                time: SimTime(at as u64),
            });
            at = end;
            len = len % 7 + 1;
        }
        let chunk = StreamChunk {
            start_offset: 40,
            pieces,
        };
        assert!(chunk.pieces.len() > 200);
        let joined = chunk.to_vec();
        assert_eq!(joined, bytes);
        assert_eq!(joined.capacity(), bytes.len(), "exactly sized");
        assert_eq!(chunk.end_offset(), 40 + bytes.len() as u64);
    }

    #[test]
    fn splits_directions() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 10, b"request"));
        tap.record_segment(SimTime(2), &seg(client_flow().reversed(), 99, b"response"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].client_flow, client_flow());
        assert_eq!(flows[0].upstream.chunks[0].to_vec(), b"request");
        assert_eq!(flows[0].downstream.chunks[0].to_vec(), b"response");
    }

    #[test]
    fn out_of_capture_order_reassembles() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(2), &seg(client_flow(), 1005, b"world"));
        tap.record_segment(SimTime(1), &seg(client_flow(), 1000, b"hello"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        // First captured segment defines offset 0; the earlier-seq one
        // sorts before it in sequence space via unwrap.
        let up = &flows[0].upstream;
        let all: Vec<u8> = up.chunks.iter().flat_map(|c| c.to_vec()).collect();
        assert_eq!(all, b"helloworld");
    }

    #[test]
    fn gap_where_tap_missed() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"aaaa"));
        // 6 bytes at seq 4..10 never captured.
        tap.record_segment(SimTime(3), &seg(client_flow(), 10, b"bbbb"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 2);
        assert_eq!(up.gap_count(), 1);
        assert_eq!(up.gap_bytes(), 6);
        assert_eq!(up.data_bytes(), 8);
        assert_eq!(up.time_at(5), None, "no time inside a gap");
    }

    #[test]
    fn time_at_searches_many_gaps() {
        // 40 chunks of three 5-byte segments each, 7 lost bytes apart.
        let mut tap = Tap::new();
        let mut seq = 0u32;
        for k in 0..40u64 {
            for s in 0..3u64 {
                let time = SimTime(100 * k + s);
                tap.record_segment(time, &seg(client_flow(), seq, b"12345"));
                seq += 5;
            }
            seq += 7;
        }
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 40);
        for (k, c) in up.chunks.iter().enumerate() {
            let k = k as u64;
            assert_eq!(c.pieces.len(), 3);
            let (first, last) = (c.start_offset, c.end_offset() - 1);
            assert_eq!(
                up.time_at(first),
                Some(SimTime(100 * k)),
                "chunk {k} first byte"
            );
            assert_eq!(up.time_at(first + 5), Some(SimTime(100 * k + 1)));
            assert_eq!(
                up.time_at(last),
                Some(SimTime(100 * k + 2)),
                "chunk {k} last byte"
            );
            assert_eq!(up.time_at(last + 1), None, "inside the gap after chunk {k}");
            assert_eq!(up.time_at(last + 7), None, "end of the gap after chunk {k}");
        }
    }

    #[test]
    fn captured_retransmission_fills_gap() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"aaaa"));
        tap.record_segment(SimTime(3), &seg(client_flow(), 8, b"cccc"));
        // Retransmission of the missing middle arrives later.
        tap.record_segment(SimTime(9), &seg(client_flow(), 4, b"bbbb"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 1);
        assert_eq!(up.chunks[0].to_vec(), b"aaaabbbbcccc");
        assert_eq!(up.time_at(5), Some(SimTime(9)), "late copy's timestamp");
    }

    #[test]
    fn duplicate_segments_keep_first_copy_time() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"dup"));
        tap.record_segment(SimTime(5), &seg(client_flow(), 0, b"dup"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        let up = &flows[0].upstream;
        assert_eq!(up.chunks[0].to_vec(), b"dup");
        assert_eq!(up.time_at(0), Some(SimTime(1)));
    }

    #[test]
    fn overlapping_segment_tail_appended() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"abcdef"));
        tap.record_segment(SimTime(2), &seg(client_flow(), 4, b"efgh"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        assert_eq!(flows[0].upstream.chunks[0].to_vec(), b"abcdefgh");
    }

    #[test]
    fn multiple_flows_separated() {
        let mut tap = Tap::new();
        let other = FlowId {
            src_port: 52000,
            ..client_flow()
        };
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"flow-one"));
        tap.record_segment(SimTime(2), &seg(other, 0, b"flow-two"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        assert_eq!(flows.len(), 2);
    }
}
