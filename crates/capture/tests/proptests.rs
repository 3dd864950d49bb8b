//! Property-based tests for the capture toolchain.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use std::sync::Arc;
use wm_capture::flow::{FlowReassembler, StreamChunk, StreamPiece, StreamView};
use wm_capture::pcap::{PcapReader, PcapWriter};
use wm_capture::records::{extract_records, Extraction};
use wm_capture::tap::{CapturedPacket, Tap, Trace};
use wm_capture::RECORD_HEADER_LEN;
use wm_chaos::{FaultKind, FaultPlan};
use wm_core::{client_app_records, ClientFeatures};
use wm_net::conditions::{ConnectionType, LinkConditions, TimeOfDay};
use wm_net::headers::{FlowId, TcpFlags};
use wm_net::tcp::TcpSegment;
use wm_net::time::{Duration, SimTime};
use wm_sim::{run_session, SessionConfig};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ViewerScript};
use wm_tls::conn::{RecordEngine, SessionKeys};
use wm_tls::record::ContentType;
use wm_tls::suite::CipherSuite;

const FLOW: FlowId = FlowId {
    src_ip: [192, 168, 0, 9],
    src_port: 50505,
    dst_ip: [13, 13, 13, 13],
    dst_port: 443,
};

fn seg(seq: u32, payload: Vec<u8>) -> TcpSegment {
    TcpSegment {
        flow: FLOW,
        seq,
        ack: 0,
        flags: TcpFlags::PSH_ACK,
        payload,
        retransmit: false,
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
    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        for b in &mut a {
            *b = self.next() as u8;
        }
        a
    }
}

/// pcap files round-trip arbitrary packet contents and timestamps.
#[test]
fn pcap_roundtrip() {
    for case in 0..150u64 {
        let mut rng = Rng(0xCA_0000 + case);
        let n = rng.below(20);
        let packets: Vec<(u32, u32, Vec<u8>)> = (0..n)
            .map(|_| {
                (
                    rng.next() as u32,
                    rng.below(1_000_000) as u32,
                    rng.bytes(199),
                )
            })
            .collect();
        let mut w = PcapWriter::new();
        for (s, us, data) in &packets {
            w.write_packet(*s, *us, data);
        }
        let bytes = w.into_bytes();
        let mut r = PcapReader::new(&bytes).expect("own file");
        let back = r.read_all().expect("own file");
        assert_eq!(back.len(), packets.len(), "case {case}");
        for (p, (s, us, data)) in back.iter().zip(packets.iter()) {
            assert_eq!(p.ts_sec, *s, "case {case}");
            assert_eq!(p.ts_usec, *us, "case {case}");
            assert_eq!(&p.data, data, "case {case}");
        }
    }
}

/// The pcap reader never panics on arbitrary bytes.
#[test]
fn pcap_reader_total() {
    for case in 0..300u64 {
        let mut rng = Rng(0xCA_1000 + case);
        let bytes = rng.bytes(511);
        if let Ok(mut r) = PcapReader::new(&bytes) {
            let _ = r.read_all();
        }
    }
}

/// Trace serialization round-trips through the pcap format.
#[test]
fn trace_roundtrip() {
    for case in 0..100u64 {
        let mut rng = Rng(0xCA_2000 + case);
        let n = rng.below(12);
        let payloads: Vec<Vec<u8>> = (0..n).map(|_| rng.bytes(299)).collect();
        let mut tap = Tap::new();
        let mut seq = 1u32;
        for (i, p) in payloads.iter().enumerate() {
            tap.record_segment(SimTime(i as u64 * 1000), &seg(seq, p.clone()));
            seq = seq.wrapping_add(p.len() as u32);
        }
        let trace = tap.into_trace();
        let back = Trace::from_pcap_bytes(&trace.to_pcap_bytes()).expect("own trace");
        assert_eq!(back.packets, trace.packets, "case {case}");
    }
}

/// Reassembly is invariant to the capture order of segments, and
/// the reassembled stream equals the original byte stream when no
/// segment is missing.
#[test]
fn reassembly_order_invariant() {
    for case in 0..100u64 {
        let mut rng = Rng(0xCA_3000 + case);
        let n = 1 + rng.below(11);
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let mut c = rng.bytes(99);
                if c.is_empty() {
                    c.push(1);
                }
                c
            })
            .collect();
        // Build contiguous segments.
        let mut segments = Vec::new();
        let mut seq = 1000u32;
        let mut stream = Vec::new();
        for c in &chunks {
            segments.push(seg(seq, c.clone()));
            seq = seq.wrapping_add(c.len() as u32);
            stream.extend_from_slice(c);
        }
        // Record in a shuffled order (times still increasing).
        let mut order: Vec<usize> = (0..segments.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        let mut tap = Tap::new();
        for (t, &idx) in order.iter().enumerate() {
            tap.record_segment(SimTime(t as u64 * 1000), &segments[idx]);
        }
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        assert_eq!(flows.len(), 1, "case {case}");
        let up = &flows[0].upstream;
        assert_eq!(up.gap_count(), 0, "case {case}");
        let got: Vec<u8> = up.chunks.iter().flat_map(|c| c.to_vec()).collect();
        assert_eq!(got, stream, "case {case}");
    }
}

/// Dropping any subset of segments yields gap accounting that
/// exactly matches the missing bytes.
#[test]
fn gap_accounting_exact() {
    for case in 0..150u64 {
        let mut rng = Rng(0xCA_4000 + case);
        let n = 2 + rng.below(8);
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let mut c = rng.bytes(79);
                if c.is_empty() {
                    c.push(2);
                }
                c
            })
            .collect();
        let drop_mask = rng.next() as u16;
        let mut segments = Vec::new();
        let mut seq = 0u32;
        for c in &chunks {
            segments.push((seq, c.clone()));
            seq = seq.wrapping_add(c.len() as u32);
        }
        // Always keep the first and last so the extent is known.
        let mut tap = Tap::new();
        let mut kept_bytes = 0u64;
        let mut total_span = 0u64;
        for (i, (s, c)) in segments.iter().enumerate() {
            total_span += c.len() as u64;
            let dropped = i != 0 && i != segments.len() - 1 && (drop_mask >> (i % 16)) & 1 == 1;
            if !dropped {
                kept_bytes += c.len() as u64;
                tap.record_segment(SimTime(i as u64 * 1000), &seg(*s, c.clone()));
            }
        }
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        let up = &flows[0].upstream;
        assert_eq!(up.data_bytes(), kept_bytes, "case {case}");
        assert_eq!(up.data_bytes() + up.gap_bytes(), total_span, "case {case}");
    }
}

/// Record extraction over a lossless capture of a TLS stream
/// recovers every record exactly; resync stats stay zero.
#[test]
fn extraction_lossless() {
    for case in 0..60u64 {
        let mut rng = Rng(0xCA_5000 + case);
        let master: [u8; 32] = rng.array();
        let n_sizes = 1 + rng.below(9);
        let sizes: Vec<usize> = (0..n_sizes).map(|_| rng.below(2500)).collect();
        let mss = 200 + rng.below(1248);
        let keys = SessionKeys::derive(&master, CipherSuite::Aead);
        let mut engine = RecordEngine::client(&keys);
        let mut wire = Vec::new();
        for &s in &sizes {
            wire.extend(engine.seal_payload(ContentType::ApplicationData, &vec![3u8; s]));
        }
        let mut tap = Tap::new();
        let mut seq = 77u32;
        for (i, piece) in wire.chunks(mss).enumerate() {
            tap.record_segment(SimTime(i as u64 * 500), &seg(seq, piece.to_vec()));
            seq = seq.wrapping_add(piece.len() as u32);
        }
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        let ex = extract_records(&flows[0].upstream);
        assert_eq!(ex.stats.gaps, 0, "case {case}");
        assert_eq!(ex.stats.records, sizes.len(), "case {case}");
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        let expect: Vec<u16> = sizes.iter().map(|&s| (s + 16) as u16).collect();
        assert_eq!(lens, expect, "case {case}");
    }
}

/// Malformed frames in a trace are skipped, never panic.
#[test]
fn reassembler_total_on_garbage() {
    for case in 0..150u64 {
        let mut rng = Rng(0xCA_6000 + case);
        let n = rng.below(10);
        let trace = Trace {
            packets: (0..n)
                .map(|i| CapturedPacket {
                    time: SimTime(i as u64),
                    frame: rng.bytes(119),
                })
                .collect(),
        };
        let _ = FlowReassembler::reassemble(&trace);
    }
}

// ---------------------------------------------------------------------
// Differential oracle: the owned reassembler and extractor that the
// borrowed ones replaced, kept here unchanged as the reference. Every
// payload byte is copied into per-segment `Vec`s, chunks own merged
// buffers with `(offset, time)` marks, and extraction drains a carry
// buffer behind a head cursor. The slice-only resync scan the library
// used before it read pieces in place is kept here too, so the
// reference shares no code with what it checks.
mod owned {
    use std::collections::BTreeMap;
    use wm_capture::records::{Extraction, TimedRecord};
    use wm_capture::tap::Trace;
    use wm_capture::{ContentType, ObservedRecord, RecordHeader, RECORD_HEADER_LEN};
    use wm_core::ClientFeatures;
    use wm_net::headers::{parse_frame, FlowId, TcpHeader};
    use wm_net::time::SimTime;

    /// Minimum chained headers required to accept a resync offset (or
    /// one full record that exactly exhausts the chunk).
    const RESYNC_CHAIN: usize = 2;

    /// Find the smallest offset in `data` at which a chain of plausible
    /// record headers parses.
    pub fn find_resync(data: &[u8]) -> Option<usize> {
        'outer: for start in 0..data.len().saturating_sub(RECORD_HEADER_LEN) {
            let mut pos = start;
            let mut chained = 0;
            while chained < RESYNC_CHAIN {
                if pos + RECORD_HEADER_LEN > data.len() {
                    // Ran out of bytes: accept only if we chained at least
                    // one full record and ended exactly at the buffer edge
                    // or inside a final partial record's body.
                    if chained >= 1 {
                        return Some(start);
                    }
                    continue 'outer;
                }
                let Some(hdr) = data
                    .get(pos..)
                    .and_then(|s| s.first_chunk::<RECORD_HEADER_LEN>())
                else {
                    continue 'outer;
                };
                let Some(h) = RecordHeader::parse(hdr) else {
                    continue 'outer;
                };
                pos += RECORD_HEADER_LEN + h.length as usize;
                if pos > data.len() {
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

    pub struct Chunk {
        pub start_offset: u64,
        pub data: Vec<u8>,
        pub marks: Vec<(u64, SimTime)>,
    }

    #[derive(Default)]
    pub struct View {
        pub chunks: Vec<Chunk>,
    }

    impl View {
        fn time_at(&self, offset: u64) -> Option<SimTime> {
            for c in &self.chunks {
                let end = c.start_offset + c.data.len() as u64;
                if offset >= c.start_offset && offset < end {
                    let idx = c.marks.partition_point(|(o, _)| *o <= offset);
                    return c.marks.get(idx.saturating_sub(1)).map(|(_, t)| *t);
                }
            }
            None
        }
    }

    pub struct Flow {
        pub client_flow: FlowId,
        pub upstream: View,
        pub downstream: View,
    }

    fn segments_of(trace: &Trace) -> Vec<(SimTime, FlowId, TcpHeader, Vec<u8>)> {
        trace
            .packets
            .iter()
            .filter_map(|p| {
                parse_frame(&p.frame)
                    .map(|(flow, tcp, payload)| (p.time, flow, tcp, payload.to_vec()))
            })
            .collect()
    }

    pub fn reassemble(trace: &Trace) -> Vec<Flow> {
        type Segment = (SimTime, FlowId, u32, Vec<u8>);
        let mut flows: BTreeMap<FlowId, Vec<Segment>> = BTreeMap::new();
        for (time, flow, tcp, payload) in segments_of(trace) {
            if payload.is_empty() {
                continue;
            }
            flows
                .entry(flow.canonical())
                .or_default()
                .push((time, flow, tcp.seq, payload));
        }
        flows
            .into_iter()
            .map(|(canonical, segs)| {
                let client_flow = if canonical.src_port == 443 {
                    canonical.reversed()
                } else {
                    canonical
                };
                let mut up = DirectionAssembler::default();
                let mut down = DirectionAssembler::default();
                for (time, flow, seq, payload) in segs {
                    if flow == client_flow {
                        up.add(time, seq, &payload);
                    } else {
                        down.add(time, seq, &payload);
                    }
                }
                Flow {
                    client_flow,
                    upstream: up.finish(),
                    downstream: down.finish(),
                }
            })
            .collect()
    }

    #[derive(Default)]
    struct DirectionAssembler {
        base_seq: Option<u32>,
        segments: BTreeMap<i64, (Vec<u8>, SimTime)>,
        last_rel: i64,
    }

    impl DirectionAssembler {
        fn add(&mut self, time: SimTime, seq: u32, payload: &[u8]) {
            let base = *self.base_seq.get_or_insert(seq);
            let raw = seq.wrapping_sub(base) as i64;
            let span = 1i64 << 32;
            let k = (self.last_rel - raw + span / 2).div_euclid(span);
            let rel = raw + k * span;
            self.last_rel = self.last_rel.max(rel);
            self.segments
                .entry(rel)
                .or_insert_with(|| (payload.to_vec(), time));
        }

        fn finish(self) -> View {
            let min_rel = self.segments.keys().next().copied().unwrap_or(0);
            let mut chunks: Vec<Chunk> = Vec::new();
            for (rel, (payload, time)) in self.segments {
                let abs = (rel - min_rel) as u64;
                let end = abs + payload.len() as u64;
                match chunks.last_mut() {
                    Some(last) if abs <= last.start_offset + last.data.len() as u64 => {
                        let last_end = last.start_offset + last.data.len() as u64;
                        if end > last_end {
                            let skip = (last_end - abs) as usize;
                            last.data.extend_from_slice(&payload[skip..]);
                            last.marks.push((last_end, time));
                        }
                    }
                    _ => chunks.push(Chunk {
                        start_offset: abs,
                        data: payload,
                        marks: vec![(abs, time)],
                    }),
                }
            }
            View { chunks }
        }
    }

    pub fn extract_records(view: &View) -> Extraction {
        let mut out = Extraction::default();
        let mut carry: Vec<u8> = Vec::new();
        let mut head: usize = 0;
        let mut carry_offset: u64 = 0;
        let mut prev_end: Option<u64> = None;
        for chunk in &view.chunks {
            let gap = matches!(prev_end, Some(end) if chunk.start_offset > end);
            if gap {
                out.stats.gaps += 1;
                if let Some(t) = view.time_at(chunk.start_offset) {
                    out.gap_times.push(t);
                }
                carry.clear();
                head = 0;
            }
            prev_end = Some(chunk.start_offset + chunk.data.len() as u64);
            if gap {
                match find_resync(&chunk.data) {
                    Some(skip) => {
                        out.stats.resyncs += 1;
                        out.stats.skipped_bytes += skip as u64;
                        carry_offset = chunk.start_offset + skip as u64;
                        carry.extend_from_slice(&chunk.data[skip..]);
                    }
                    None => {
                        out.stats.skipped_bytes += chunk.data.len() as u64;
                        continue;
                    }
                }
            } else {
                if head == carry.len() {
                    carry.clear();
                    head = 0;
                } else if head >= carry.len() - head {
                    carry.copy_within(head.., 0);
                    carry.truncate(carry.len() - head);
                    head = 0;
                }
                if carry.is_empty() {
                    carry_offset = chunk.start_offset;
                }
                carry.extend_from_slice(&chunk.data);
            }
            loop {
                let live = &carry[head..];
                let Some(header_bytes) = live.first_chunk::<RECORD_HEADER_LEN>() else {
                    break;
                };
                let Some(header) = RecordHeader::parse(header_bytes) else {
                    out.stats.skipped_bytes += live.len() as u64;
                    carry.clear();
                    head = 0;
                    break;
                };
                let total = RECORD_HEADER_LEN + header.length as usize;
                if live.len() < total {
                    break;
                }
                let time = view.time_at(carry_offset).unwrap_or(SimTime::ZERO);
                out.records.push(TimedRecord {
                    time,
                    record: ObservedRecord {
                        stream_offset: carry_offset,
                        content_type: header.content_type,
                        version: header.version,
                        length: header.length,
                    },
                });
                out.stats.records += 1;
                head += total;
                carry_offset += total as u64;
            }
        }
        out
    }

    /// `wm_core::client_app_records` over the owned pipeline.
    pub fn client_app_records(trace: &Trace) -> ClientFeatures {
        let mut out = ClientFeatures::default();
        for flow in reassemble(trace) {
            out.flows += 1;
            let extraction = extract_records(&flow.upstream);
            out.stats.records += extraction.stats.records;
            out.stats.gaps += extraction.stats.gaps;
            out.stats.resyncs += extraction.stats.resyncs;
            out.stats.skipped_bytes += extraction.stats.skipped_bytes;
            out.gap_times.extend(extraction.gap_times);
            for r in extraction.records {
                if r.record.content_type == ContentType::ApplicationData {
                    out.records.push(r);
                } else {
                    out.non_app_records += 1;
                }
            }
        }
        out.records
            .sort_by_key(|r| (r.time, r.record.stream_offset));
        out.gap_times.sort();
        out
    }
}

fn assert_same_view(got: &wm_capture::StreamView, want: &owned::View, ctx: &str) {
    assert_eq!(got.chunks.len(), want.chunks.len(), "{ctx}: chunk count");
    for (g, w) in got.chunks.iter().zip(&want.chunks) {
        assert_eq!(g.start_offset, w.start_offset, "{ctx}: chunk start");
        assert_eq!(g.to_vec(), w.data, "{ctx}: chunk bytes");
        let marks: Vec<(u64, SimTime)> = g.pieces.iter().map(|p| (p.offset, p.time)).collect();
        assert_eq!(marks, w.marks, "{ctx}: piece offsets and times");
    }
}

fn assert_same_extraction(got: &Extraction, want: &Extraction, ctx: &str) {
    assert_eq!(got.records, want.records, "{ctx}: records");
    assert_eq!(got.stats, want.stats, "{ctx}: stats");
    assert_eq!(got.gap_times, want.gap_times, "{ctx}: gap times");
}

fn assert_same_features(got: &ClientFeatures, want: &ClientFeatures, ctx: &str) {
    assert_eq!(got.records, want.records, "{ctx}: records");
    assert_eq!(got.stats, want.stats, "{ctx}: stats");
    assert_eq!(got.non_app_records, want.non_app_records, "{ctx}: non-app");
    assert_eq!(got.gap_times, want.gap_times, "{ctx}: gap times");
    assert_eq!(got.flows, want.flows, "{ctx}: flows");
}

/// A TLS-shaped byte stream: record headers of every content type with
/// bodies of mixed sizes (many shorter than a header, so headers often
/// straddle segments), and rarely a corrupt header that forces a
/// desync. Returns the bytes and each header's offset.
fn record_stream(rng: &mut Rng) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut headers = Vec::new();
    for _ in 0..1 + rng.below(24) {
        let len = match rng.below(3) {
            0 => rng.below(8),
            1 => rng.below(300),
            _ => rng.below(3000),
        };
        headers.push(bytes.len());
        let content_type = if rng.below(60) == 0 {
            0x00 // not a TLS content type
        } else {
            [20u8, 21, 22, 23][rng.below(4)]
        };
        bytes.extend_from_slice(&[content_type, 3, 3]);
        bytes.extend_from_slice(&(len as u16).to_be_bytes());
        bytes.extend((0..len).map(|_| rng.next() as u8));
    }
    (bytes, headers)
}

/// What a generated capture exercises, summed over cases so the test
/// can check that every impairment actually occurred.
#[derive(Default, Debug)]
struct Coverage {
    wrapped: usize,
    split_headers: usize,
    gaps_in_header: usize,
    refilled: usize,
    duplicates: usize,
    overlaps: usize,
    reordered: usize,
    one_way_flows: usize,
}

/// Captured `(seq, payload)` segments of one direction, in capture order.
type Segments = Vec<(u32, Vec<u8>)>;

/// Capture one direction of a flow: cut `stream` into segments (some
/// cuts forced inside headers), then drop, refill, duplicate, overlap
/// and reorder them.
fn impair_direction(
    rng: &mut Rng,
    stream: &[u8],
    headers: &[usize],
    cov: &mut Coverage,
) -> Segments {
    let len = stream.len();
    let seq0 = if rng.below(3) == 0 {
        u32::MAX - rng.below(len) as u32 // the stream crosses 2^32
    } else {
        rng.next() as u32
    };
    if seq0.checked_add(len as u32).is_none() {
        cov.wrapped += 1;
    }
    let mss = 1 + rng.below(600);
    let mut cuts = Vec::new();
    for &h in headers {
        if rng.below(3) == 0 {
            cuts.push(h + 1 + rng.below(4));
        }
    }
    let mut at = 0;
    while at < len {
        cuts.push(at);
        at += 1 + rng.below(mss);
    }
    cuts.retain(|&c| c < len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.push(len);
    let segs: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();

    let drop_p = [0, 0, 8, 25][rng.below(4)];
    let mut captured = vec![false; len];
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut late: Vec<(usize, usize)> = Vec::new();
    for (i, &(a, b)) in segs.iter().enumerate() {
        let keep_first = i == 0 && rng.below(10) != 0;
        if !keep_first && rng.below(100) < drop_p {
            if rng.below(3) == 0 {
                late.push((a, b)); // a retransmission captured later
                cov.refilled += 1;
            }
            continue;
        }
        out.push((a, b));
        if rng.below(15) == 0 {
            late.push((a, b));
            cov.duplicates += 1;
        }
    }
    if len > 1 && rng.below(3) == 0 {
        let a = rng.below(len - 1);
        let b = (a + 1 + rng.below(900)).min(len);
        if out.iter().any(|&(x, y)| x < b && a < y && (x, y) != (a, b)) {
            cov.overlaps += 1;
        }
        late.push((a, b));
    }
    for (a, b) in out.iter().chain(&late) {
        captured[*a..*b].iter_mut().for_each(|c| *c = true);
    }
    for &h in headers {
        let end = (h + RECORD_HEADER_LEN).min(len);
        let seen = captured[h..end].iter().filter(|&&c| c).count();
        if seen > 0 && seen < end - h {
            cov.gaps_in_header += 1;
        }
        if cuts.iter().any(|&c| c > h && c < end) {
            cov.split_headers += 1;
        }
    }
    // Late copies land anywhere after their first position.
    for seg in late {
        let at = rng.below(out.len() + 1);
        out.insert(at, seg);
    }
    // Local reordering: swap neighbours.
    for i in 1..out.len() {
        if rng.below(8) == 0 {
            out.swap(i - 1, i);
            cov.reordered += 1;
        }
    }
    out.into_iter()
        .map(|(a, b)| (seq0.wrapping_add(a as u32), stream[a..b].to_vec()))
        .collect()
}

/// A seeded multi-flow capture: each flow carries records upstream,
/// downstream or both; frames of all flows interleave, with control
/// segments and unparseable noise mixed in.
fn impaired_capture(rng: &mut Rng, cov: &mut Coverage) -> Trace {
    let mut lanes: Vec<(FlowId, Segments)> = Vec::new();
    for f in 0..1 + rng.below(3) {
        let client = FlowId {
            src_port: 50_000 + f as u16,
            ..FLOW
        };
        let (up, down) = match rng.below(4) {
            0 => (true, false),
            1 => (false, true),
            _ => (true, true),
        };
        if up != down {
            cov.one_way_flows += 1;
        }
        for (on, flow) in [(up, client), (down, client.reversed())] {
            if on {
                let (stream, headers) = record_stream(rng);
                lanes.push((flow, impair_direction(rng, &stream, &headers, cov)));
            }
        }
        lanes.push((client, vec![(0, Vec::new())])); // a bare ACK
    }
    let mut tap = Tap::new();
    let mut t = 0u64;
    let mut cursors = vec![0usize; lanes.len()];
    while let Some(lane) = {
        let open: Vec<usize> = (0..lanes.len())
            .filter(|&l| cursors[l] < lanes[l].1.len())
            .collect();
        (!open.is_empty()).then(|| open[rng.below(open.len())])
    } {
        let (flow, segs) = &lanes[lane];
        let (seq, payload) = &segs[cursors[lane]];
        cursors[lane] += 1;
        t += 1 + rng.below(2_000) as u64;
        let segment = TcpSegment {
            flow: *flow,
            seq: *seq,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            payload: payload.clone(),
            retransmit: false,
        };
        tap.record_segment(SimTime(t), &segment);
    }
    let mut trace = tap.into_trace();
    if rng.below(4) == 0 {
        let at = rng.below(trace.packets.len() + 1);
        let frame = rng.bytes(80);
        trace.packets.insert(
            at,
            CapturedPacket {
                time: SimTime(t),
                frame,
            },
        );
    }
    trace
}

/// The borrowed reassembler and header walk reproduce the owned
/// reference exactly — chunk bytes, piece times, records, stats, gap
/// times and client features — on captures with reordered, duplicated,
/// overlapping and lost segments, gap-filling retransmissions, sequence
/// wrap, several flows (some one-way), headers split across segments
/// and gaps inside headers.
#[test]
fn borrowed_pipeline_matches_owned_reference() {
    let mut cov = Coverage::default();
    let (mut gaps, mut resyncs, mut records) = (0, 0, 0);
    for case in 0..300u64 {
        let mut rng = Rng(0xCA_7000 + case);
        let trace = impaired_capture(&mut rng, &mut cov);
        let got = FlowReassembler::reassemble(&trace);
        let want = owned::reassemble(&trace);
        assert_eq!(got.len(), want.len(), "case {case}: flow count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let ctx = format!("case {case} flow {i}");
            assert_eq!(g.client_flow, w.client_flow, "{ctx}");
            assert_same_view(&g.upstream, &w.upstream, &format!("{ctx} up"));
            assert_same_view(&g.downstream, &w.downstream, &format!("{ctx} down"));
            for (gv, wv, dir) in [
                (&g.upstream, &w.upstream, "up"),
                (&g.downstream, &w.downstream, "down"),
            ] {
                let (ge, we) = (extract_records(gv), owned::extract_records(wv));
                assert_same_extraction(&ge, &we, &format!("{ctx} {dir}"));
                gaps += we.stats.gaps;
                resyncs += we.stats.resyncs;
                records += we.stats.records;
            }
        }
        let ctx = format!("case {case} features");
        assert_same_features(
            &client_app_records(&trace),
            &owned::client_app_records(&trace),
            &ctx,
        );
    }
    for (what, n) in [
        ("wrapped", cov.wrapped),
        ("split headers", cov.split_headers),
        ("gaps in headers", cov.gaps_in_header),
        ("refilled gaps", cov.refilled),
        ("duplicates", cov.duplicates),
        ("overlaps", cov.overlaps),
        ("reorders", cov.reordered),
        ("one-way flows", cov.one_way_flows),
        ("gaps", gaps),
        ("resyncs", resyncs),
        ("records", records),
    ] {
        assert!(n >= 10, "the generator produced only {n} {what}: {cov:?}");
    }
}

/// `client_app_records` on simulated sessions whose tap goes blind
/// (`wm-chaos` `TapGap`) matches the owned reference.
#[test]
fn tap_gap_sessions_match_owned_reference() {
    let graph = Arc::new(tiny_film());
    let mut gaps = 0;
    for case in 0..6u64 {
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph.clone(), 300 + case, script);
        let mut plan = FaultPlan::none();
        for k in 0..1 + case % 3 {
            plan.push(
                SimTime(200_000 + case * 70_000 + k * 400_000),
                FaultKind::TapGap {
                    duration: Duration::from_millis(40 + 60 * case),
                },
            );
        }
        cfg.chaos = plan;
        let out = run_session(&cfg).expect("session completes");
        let want = owned::client_app_records(&out.trace);
        gaps += want.stats.gaps;
        assert_same_features(
            &client_app_records(&out.trace),
            &want,
            &format!("session {case}"),
        );
    }
    assert!(
        gaps > 0,
        "no session's tap gap surfaced as a reassembly gap"
    );
}

/// `client_app_records` on simulated sessions whose gaps come from
/// natural link loss (a busy wireless link and a tap that misses
/// frames, no chaos) matches the owned reference.
#[test]
fn lossy_link_sessions_match_owned_reference() {
    let graph = Arc::new(tiny_film());
    let (mut gaps, mut resyncs) = (0, 0);
    // The tap misses under 1% of frames, so a session of the small film
    // sees a gap only now and then.
    for case in 0..100u64 {
        let script = ViewerScript::from_choices(
            &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph.clone(), 500 + case, script);
        cfg.conditions = LinkConditions::new(ConnectionType::Wireless, TimeOfDay::Night);
        let out = run_session(&cfg).expect("session completes");
        let want = owned::client_app_records(&out.trace);
        gaps += want.stats.gaps;
        resyncs += want.stats.resyncs;
        assert_same_features(
            &client_app_records(&out.trace),
            &want,
            &format!("session {case}"),
        );
    }
    assert!(
        gaps >= 10 && resyncs >= 10,
        "link loss surfaced only {gaps} gaps and {resyncs} resyncs"
    );
}

/// What a chunk after a gap holds, for the per-split resync
/// differential.
#[derive(Clone, Copy, Debug)]
enum PostGap {
    /// A lost record's tail, a chain of records, then a few stray bytes.
    Chain,
    /// Bytes that never parse as a header (all at least 0x80).
    Garbage,
    /// A lost record's tail, then records that end exactly at the edge.
    ExactEdge,
    /// A lost record's tail, then records, the last running past the edge.
    PastEdge,
}

fn push_record(rng: &mut Rng, bytes: &mut Vec<u8>, body: usize) {
    bytes.extend_from_slice(&[23, 3, 3]);
    bytes.extend_from_slice(&(body as u16).to_be_bytes());
    bytes.extend((0..body).map(|_| rng.next() as u8));
}

/// Bytes of one post-gap chunk of the given kind. Records are short,
/// so many chunks are small enough to split every possible way.
fn post_gap_chunk(rng: &mut Rng, kind: PostGap) -> Vec<u8> {
    if let PostGap::Garbage = kind {
        return (0..1 + rng.below(40))
            .map(|_| rng.next() as u8 | 0x80)
            .collect();
    }
    let mut bytes: Vec<u8> = (0..rng.below(6)).map(|_| rng.next() as u8).collect();
    if rng.below(3) == 0 {
        // A decoy: a plausible header whose successor is not one.
        let body = rng.below(4);
        push_record(rng, &mut bytes, body);
        bytes.push(0xff);
    }
    for _ in 0..1 + rng.below(3) {
        let body = rng.below(10);
        push_record(rng, &mut bytes, body);
    }
    match kind {
        PostGap::Chain => bytes.extend((0..rng.below(5)).map(|_| rng.next() as u8)),
        PostGap::PastEdge => {
            let body = 1 + rng.below(20);
            push_record(rng, &mut bytes, body);
            bytes.truncate(bytes.len() - 1 - rng.below(body));
        }
        PostGap::ExactEdge | PostGap::Garbage => {}
    }
    bytes
}

/// Cut sets (indices where a new piece starts) to try on `len` bytes:
/// every one when there are few, else no cut, each single cut, all
/// 1-byte pieces and random tilings of 1–6 byte pieces.
fn splits(rng: &mut Rng, len: usize) -> Vec<Vec<usize>> {
    if len <= 13 {
        return (0..1u32 << len.saturating_sub(1))
            .map(|mask| (1..len).filter(|&i| mask >> (i - 1) & 1 == 1).collect())
            .collect();
    }
    let mut out = vec![Vec::new(), (1..len).collect()];
    out.extend((1..len).map(|i| vec![i]));
    for _ in 0..16 {
        let mut cuts = Vec::new();
        let mut at = 1 + rng.below(6);
        while at < len {
            cuts.push(at);
            at += 1 + rng.below(6);
        }
        out.push(cuts);
    }
    out
}

/// The resync scan over a chunk's borrowed pieces agrees with the
/// vendored slice scan on the chunk's bytes, however the chunk is cut
/// into pieces: valid chains, garbage, chains ending exactly at the
/// edge, final records running past it, and headers straddling 1-byte
/// pieces. The whole extraction matches the owned reference too.
#[test]
fn resync_over_pieces_matches_reference_at_every_split() {
    const LEAD: &[u8] = &[23, 3]; // a header the gap cuts short
    const START: u64 = 50;
    let (mut found, mut not_found) = (0, 0);
    for case in 0..400u64 {
        let mut rng = Rng(0xCA_8000 + case);
        let kind = [
            PostGap::Chain,
            PostGap::Garbage,
            PostGap::ExactEdge,
            PostGap::PastEdge,
        ][case as usize % 4];
        let bytes = post_gap_chunk(&mut rng, kind);
        let want = owned::find_resync(&bytes);
        if want.is_some() {
            found += 1;
        } else {
            not_found += 1;
        }
        for cuts in splits(&mut rng, bytes.len()) {
            let ctx = format!("case {case} {kind:?} {bytes:?} cut at {cuts:?}");
            let bounds: Vec<(usize, usize)> = std::iter::once(0)
                .chain(cuts.iter().copied())
                .zip(cuts.iter().copied().chain(std::iter::once(bytes.len())))
                .collect();
            let piece_time = |a: usize| SimTime(100 + a as u64);
            let lead = StreamChunk {
                start_offset: 0,
                pieces: vec![StreamPiece {
                    offset: 0,
                    data: LEAD,
                    time: SimTime(1),
                }],
            };
            let chunk = StreamChunk {
                start_offset: START,
                pieces: bounds
                    .iter()
                    .map(|&(a, b)| StreamPiece {
                        offset: START + a as u64,
                        data: &bytes[a..b],
                        time: piece_time(a),
                    })
                    .collect(),
            };
            let view = StreamView {
                chunks: vec![lead, chunk],
            };
            let reference = owned::View {
                chunks: vec![
                    owned::Chunk {
                        start_offset: 0,
                        data: LEAD.to_vec(),
                        marks: vec![(0, SimTime(1))],
                    },
                    owned::Chunk {
                        start_offset: START,
                        data: bytes.clone(),
                        marks: bounds
                            .iter()
                            .map(|&(a, _)| (START + a as u64, piece_time(a)))
                            .collect(),
                    },
                ],
            };
            let got = extract_records(&view);
            assert_eq!(got.stats.gaps, 1, "{ctx}");
            assert_eq!(got.stats.resyncs, usize::from(want.is_some()), "{ctx}");
            let first = got.records.first().map(|r| r.record.stream_offset);
            assert_eq!(first, want.map(|at| START + at as u64), "{ctx}");
            if want.is_none() {
                assert_eq!(got.stats.skipped_bytes, bytes.len() as u64, "{ctx}");
            }
            assert_same_extraction(&got, &owned::extract_records(&reference), &ctx);
        }
    }
    assert!(
        found >= 10 && not_found >= 10,
        "resync found {found}, not found {not_found}"
    );
}
