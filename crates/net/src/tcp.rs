//! TCP-lite: reliable, ordered byte streams over the lossy link model.
//!
//! Implements the subset of TCP that the reproduction's observables
//! depend on: MSS segmentation with write coalescing, cumulative ACKs,
//! timeout retransmission, and in-order reassembly with overlap
//! trimming. Flow control is a fixed window; congestion control, SACK,
//! delayed ACKs and Nagle proper are intentionally out of scope (the
//! eavesdropper reassembles the stream, so record lengths are invariant
//! to them — see DESIGN.md).
//!
//! The connection handshake (SYN exchange) is emitted by the session
//! layer for pcap realism; endpoints here start in the established
//! state with agreed initial sequence numbers.

use crate::headers::{FlowId, TcpFlags};
use crate::time::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Maximum segment size: 1500 MTU − 20 IP − 32 TCP(w/ timestamps).
pub const MSS: usize = 1448;

/// Fixed send window (bytes in flight).
pub const SEND_WINDOW: usize = 64 * MSS;

/// Initial retransmission timeout.
pub const INITIAL_RTO: Duration = Duration(200_000);

/// RTO cap.
pub const MAX_RTO: Duration = Duration(2_000_000);

/// A TCP segment in flight (payload carried out-of-band from the frame
/// bytes; the capture layer serializes real frames).
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// Direction of travel: `flow.src` is the sender.
    pub flow: FlowId,
    /// Wire sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement (wire numbering of the reverse stream).
    pub ack: u32,
    pub flags: TcpFlags,
    pub payload: Vec<u8>,
    /// True if this segment is a retransmission (for trace statistics).
    pub retransmit: bool,
}

/// What an endpoint wants the session layer to do after an interaction.
#[derive(Debug, Default)]
pub struct TcpActions {
    /// Application bytes newly delivered in order.
    pub delivered: Vec<u8>,
    /// Segments to transmit (data and/or pure ACKs).
    pub to_send: Vec<TcpSegment>,
}

/// One unacknowledged segment. Its bytes stay in the send buffer, so
/// this records only where it starts (the map key) and how long it is.
struct Inflight {
    len: usize,
    retransmitted: bool,
}

/// One endpoint of an established TCP connection.
pub struct TcpEndpoint {
    flow: FlowId,
    isn: u32,
    rcv_isn: u32,
    /// Absolute stream offset of the next byte to segmentize.
    snd_nxt: u64,
    /// Lowest unacknowledged absolute offset.
    snd_una: u64,
    /// Next expected absolute receive offset.
    rcv_nxt: u64,
    /// Every written byte not yet released by an ACK: the unacked
    /// segments (retransmissions copy from here), then the unsent tail.
    send_buf: VecDeque<u8>,
    /// Absolute stream offset of `send_buf[0]`: the start of the oldest
    /// unacked segment, or `snd_nxt` when nothing is in flight.
    send_base: u64,
    inflight: BTreeMap<u64, Inflight>,
    reasm: BTreeMap<u64, Vec<u8>>,
    rto: Duration,
    rto_deadline: Option<SimTime>,
    /// Counters for trace statistics.
    pub stats: TcpStats,
}

/// Transfer statistics for one endpoint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TcpStats {
    pub bytes_sent: u64,
    pub bytes_delivered: u64,
    pub segments_sent: u64,
    pub retransmissions: u64,
    pub duplicate_segments: u64,
}

impl TcpEndpoint {
    /// An established endpoint sending on `flow` (i.e. `flow.src` is us).
    pub fn new(flow: FlowId, isn: u32, rcv_isn: u32) -> Self {
        TcpEndpoint {
            flow,
            isn,
            rcv_isn,
            snd_nxt: 0,
            snd_una: 0,
            rcv_nxt: 0,
            send_buf: VecDeque::new(),
            send_base: 0,
            inflight: BTreeMap::new(),
            reasm: BTreeMap::new(),
            rto: INITIAL_RTO,
            rto_deadline: None,
            stats: TcpStats::default(),
        }
    }

    /// The flow this endpoint transmits on.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Queue application bytes for transmission.
    pub fn write(&mut self, bytes: &[u8]) {
        self.send_buf.extend(bytes);
    }

    /// Bytes accepted but not yet acknowledged by the peer.
    pub fn outstanding(&self) -> usize {
        self.unsent() + (self.snd_nxt - self.snd_una) as usize
    }

    /// Written bytes not yet segmentized.
    fn unsent(&self) -> usize {
        (self.send_base + self.send_buf.len() as u64 - self.snd_nxt) as usize
    }

    /// Copy `len` buffered bytes starting at absolute offset `abs`.
    fn copy_out(&self, abs: u64, len: usize) -> Vec<u8> {
        let start = (abs - self.send_base) as usize;
        let (front, back) = self.send_buf.as_slices();
        let mut out = Vec::with_capacity(len);
        if start < front.len() {
            let end = (start + len).min(front.len());
            out.extend_from_slice(front.get(start..end).unwrap_or_default());
        }
        let from_back = start.saturating_sub(front.len());
        let rest = len - out.len();
        out.extend_from_slice(back.get(from_back..from_back + rest).unwrap_or_default());
        out
    }

    /// Whether every written byte has been acknowledged.
    pub fn fully_acked(&self) -> bool {
        self.outstanding() == 0
    }

    /// When the retransmission timer should fire, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Segmentize buffered bytes up to the send window.
    ///
    /// Multiple preceding `write` calls coalesce here — two small TLS
    /// records written back-to-back ride in one segment, exactly the
    /// write-coalescing real stacks exhibit.
    pub fn flush(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        while self.unsent() > 0 && (self.snd_nxt - self.snd_una) as usize + MSS <= SEND_WINDOW {
            let take = self.unsent().min(MSS);
            let abs = self.snd_nxt;
            let payload = self.copy_out(abs, take);
            self.snd_nxt += take as u64;
            self.stats.bytes_sent += take as u64;
            self.stats.segments_sent += 1;
            out.push(TcpSegment {
                flow: self.flow,
                seq: self.wire_seq(abs),
                ack: self.wire_ack(),
                flags: if self.unsent() == 0 {
                    TcpFlags::PSH_ACK
                } else {
                    TcpFlags::ACK
                },
                payload,
                retransmit: false,
            });
            self.inflight.insert(
                abs,
                Inflight {
                    len: take,
                    retransmitted: false,
                },
            );
        }
        if !self.inflight.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        out
    }

    /// Handle an arriving segment; returns delivered bytes and replies.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> TcpActions {
        let mut actions = TcpActions::default();

        // --- Receive path: payload into the reassembly buffer. ---
        if !seg.payload.is_empty() {
            let abs_seq = unwrap_u32(self.rcv_nxt, seg.seq.wrapping_sub(self.rcv_isn));
            let before = self.rcv_nxt;
            if abs_seq <= self.rcv_nxt && self.reasm.is_empty() {
                // In order with nothing buffered (the common case):
                // deliver the new bytes straight from the segment.
                let fresh = seg
                    .payload
                    .get((self.rcv_nxt - abs_seq) as usize..)
                    .unwrap_or_default();
                actions.delivered.extend_from_slice(fresh);
                self.rcv_nxt += fresh.len() as u64;
            } else {
                self.insert_reasm(abs_seq, &seg.payload);
                self.drain_reasm(&mut actions.delivered);
            }
            if self.rcv_nxt == before && abs_seq + (seg.payload.len() as u64) <= self.rcv_nxt {
                self.stats.duplicate_segments += 1;
            }
            self.stats.bytes_delivered += actions.delivered.len() as u64;
            // Ack every data segment (no delayed ACKs — see module docs).
            actions.to_send.push(TcpSegment {
                flow: self.flow,
                seq: self.wire_seq(self.snd_nxt),
                ack: self.wire_ack(),
                flags: TcpFlags::ACK,
                payload: Vec::new(),
                retransmit: false,
            });
        }

        // --- Send path: process the cumulative ACK. ---
        if seg.flags.ack {
            let abs_ack = unwrap_u32(self.snd_una, seg.ack.wrapping_sub(self.isn));
            if abs_ack > self.snd_una && abs_ack <= self.snd_nxt {
                self.snd_una = abs_ack;
                // Drop fully acked inflight segments.
                while let Some(entry) = self.inflight.first_entry() {
                    if *entry.key() + entry.get().len as u64 > abs_ack {
                        break;
                    }
                    entry.remove();
                }
                // Release the bytes no unacked segment still covers.
                let base = self.inflight.keys().next().copied().unwrap_or(self.snd_nxt);
                self.send_buf.drain(..(base - self.send_base) as usize);
                self.send_base = base;
                // Fresh progress: reset the RTO backoff and re-arm.
                self.rto = INITIAL_RTO;
                self.rto_deadline = if self.inflight.is_empty() {
                    None
                } else {
                    Some(now + self.rto)
                };
                // The window may have opened.
                actions.to_send.extend(self.flush(now));
            }
        }
        actions
    }

    /// Retransmission timer fired (session layer filters stale timers by
    /// comparing against [`TcpEndpoint::rto_deadline`]).
    pub fn on_rto(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let wire_ack = self.wire_ack();
        let Some((&abs, inflight)) = self.inflight.iter_mut().next() else {
            self.rto_deadline = None;
            return Vec::new();
        };
        inflight.retransmitted = true;
        let len = inflight.len;
        self.stats.retransmissions += 1;
        self.stats.segments_sent += 1;
        let seg = TcpSegment {
            flow: self.flow,
            seq: self.isn.wrapping_add(abs as u32),
            ack: wire_ack,
            flags: TcpFlags::PSH_ACK,
            payload: self.copy_out(abs, len),
            retransmit: true,
        };
        // Exponential backoff.
        self.rto = Duration((self.rto.micros() * 2).min(MAX_RTO.micros()));
        self.rto_deadline = Some(now + self.rto);
        vec![seg]
    }

    fn wire_seq(&self, abs: u64) -> u32 {
        self.isn.wrapping_add(abs as u32)
    }

    fn wire_ack(&self) -> u32 {
        self.rcv_isn.wrapping_add(self.rcv_nxt as u32)
    }

    fn insert_reasm(&mut self, mut abs: u64, mut payload: &[u8]) {
        // Trim bytes we already delivered.
        if abs < self.rcv_nxt {
            let skip = (self.rcv_nxt - abs) as usize;
            if skip >= payload.len() {
                return;
            }
            payload = &payload[skip..];
            abs = self.rcv_nxt;
        }
        // Naive overlap handling: keep the first copy of any offset.
        // (Both ends are our own stack, so inconsistent overlaps cannot
        // occur; duplicates from retransmission can.)
        self.reasm.entry(abs).or_insert_with(|| payload.to_vec());
    }

    fn drain_reasm(&mut self, out: &mut Vec<u8>) {
        // The range bound keeps `abs <= rcv_nxt`, so every chunk found
        // here is deliverable (possibly after trimming).
        while let Some((&abs, _)) = self.reasm.range(..=self.rcv_nxt).next_back() {
            let Some(chunk) = self.reasm.remove(&abs) else {
                break;
            };
            let skip = (self.rcv_nxt - abs) as usize;
            if skip < chunk.len() {
                out.extend_from_slice(&chunk[skip..]);
                self.rcv_nxt = abs + chunk.len() as u64;
            }
        }
    }
}

/// Reconstruct a 64-bit stream offset from a 32-bit wire value, choosing
/// the candidate closest to `base`.
pub fn unwrap_u32(base: u64, wire_off: u32) -> u64 {
    let span = 1u64 << 32;
    let high = base & !(span - 1);
    let candidate = high | wire_off as u64;
    let alts = [
        candidate.wrapping_sub(span),
        candidate,
        candidate.wrapping_add(span),
    ];
    alts.into_iter()
        .min_by_key(|c| c.abs_diff(base))
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowId {
        FlowId {
            src_ip: [10, 0, 0, 1],
            src_port: 40000,
            dst_ip: [10, 0, 0, 2],
            dst_port: 443,
        }
    }

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        let f = flow();
        (
            TcpEndpoint::new(f, 1000, 5000),
            TcpEndpoint::new(f.reversed(), 5000, 1000),
        )
    }

    /// Deliver segments between endpoints until quiescent (no loss).
    fn pump(
        a: &mut TcpEndpoint,
        b: &mut TcpEndpoint,
        initial: Vec<TcpSegment>,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut to_a: Vec<TcpSegment> = Vec::new();
        let mut to_b: Vec<TcpSegment> = initial;
        let mut a_bytes = Vec::new();
        let mut b_bytes = Vec::new();
        let now = SimTime(1);
        for _ in 0..10_000 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            for seg in std::mem::take(&mut to_b) {
                let act = b.on_segment(now, &seg);
                b_bytes.extend(act.delivered);
                to_a.extend(act.to_send);
            }
            for seg in std::mem::take(&mut to_a) {
                let act = a.on_segment(now, &seg);
                a_bytes.extend(act.delivered);
                to_b.extend(act.to_send);
            }
        }
        (a_bytes, b_bytes)
    }

    #[test]
    fn simple_transfer() {
        let (mut a, mut b) = pair();
        a.write(b"hello tcp world");
        let segs = a.flush(SimTime(1));
        assert_eq!(segs.len(), 1);
        assert!(segs[0].flags.psh);
        let (_, b_bytes) = pump(&mut a, &mut b, segs);
        assert_eq!(b_bytes, b"hello tcp world");
        assert!(a.fully_acked());
    }

    #[test]
    fn segmentation_at_mss() {
        let (mut a, _) = pair();
        let data = vec![7u8; MSS * 2 + 100];
        a.write(&data);
        let segs = a.flush(SimTime(1));
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].payload.len(), MSS);
        assert_eq!(segs[1].payload.len(), MSS);
        assert_eq!(segs[2].payload.len(), 100);
        assert!(!segs[0].flags.psh);
        assert!(segs[2].flags.psh);
    }

    #[test]
    fn write_coalescing() {
        let (mut a, mut b) = pair();
        a.write(b"first record ");
        a.write(b"second record");
        let segs = a.flush(SimTime(1));
        assert_eq!(segs.len(), 1, "small writes coalesce into one segment");
        let (_, b_bytes) = pump(&mut a, &mut b, segs);
        assert_eq!(b_bytes, b"first record second record");
    }

    #[test]
    fn out_of_order_reassembly() {
        let (mut a, mut b) = pair();
        a.write(&vec![1u8; MSS]);
        a.write(&vec![2u8; MSS]);
        let mut segs = a.flush(SimTime(1));
        segs.reverse(); // deliver out of order
        let now = SimTime(2);
        let first = b.on_segment(now, &segs[0]);
        assert!(first.delivered.is_empty(), "gap: nothing delivered yet");
        let second = b.on_segment(now, &segs[1]);
        assert_eq!(second.delivered.len(), 2 * MSS);
        assert_eq!(&second.delivered[..MSS], &vec![1u8; MSS][..]);
    }

    #[test]
    fn retransmission_recovers_loss() {
        let (mut a, mut b) = pair();
        a.write(b"lost in transit");
        let segs = a.flush(SimTime(1));
        assert_eq!(a.rto_deadline(), Some(SimTime(1) + INITIAL_RTO));
        drop(segs); // the link ate it
        let rtx = a.on_rto(SimTime(1) + INITIAL_RTO);
        assert_eq!(rtx.len(), 1);
        assert!(rtx[0].retransmit);
        assert_eq!(rtx[0].payload, b"lost in transit");
        let (_, b_bytes) = pump(&mut a, &mut b, rtx);
        assert_eq!(b_bytes, b"lost in transit");
        assert!(a.fully_acked());
        assert_eq!(a.stats.retransmissions, 1);
    }

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let (mut a, _) = pair();
        a.write(b"x");
        a.flush(SimTime(0));
        let mut last_gap = Duration::ZERO;
        for _ in 0..8 {
            let now = a.rto_deadline().unwrap();
            a.on_rto(now);
            let gap = a.rto_deadline().unwrap().since(now);
            assert!(gap >= last_gap);
            assert!(gap <= MAX_RTO);
            last_gap = gap;
        }
        assert_eq!(last_gap, MAX_RTO);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let (mut a, mut b) = pair();
        a.write(b"only once");
        let segs = a.flush(SimTime(1));
        let now = SimTime(2);
        let first = b.on_segment(now, &segs[0]);
        assert_eq!(first.delivered, b"only once");
        let dup = b.on_segment(now, &segs[0]);
        assert!(dup.delivered.is_empty(), "duplicate must not re-deliver");
        assert_eq!(b.stats.duplicate_segments, 1);
    }

    #[test]
    fn window_limits_inflight() {
        let (mut a, _) = pair();
        a.write(&vec![0u8; SEND_WINDOW * 2]);
        let segs = a.flush(SimTime(1));
        let inflight: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert!(inflight <= SEND_WINDOW);
        assert!(a.outstanding() > inflight, "rest remains buffered");
    }

    #[test]
    fn window_reopens_on_ack() {
        let (mut a, mut b) = pair();
        a.write(&vec![9u8; SEND_WINDOW + MSS]);
        let segs = a.flush(SimTime(1));
        let (_, b_bytes) = pump(&mut a, &mut b, segs);
        assert_eq!(b_bytes.len(), SEND_WINDOW + MSS, "acks released the tail");
    }

    #[test]
    fn large_bidirectional_transfer() {
        let (mut a, mut b) = pair();
        let a_data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let b_data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        a.write(&a_data);
        b.write(&b_data);
        let mut init = a.flush(SimTime(1));
        init.extend(b.flush(SimTime(1)));
        // pump handles "to b" first; split manually.
        let (to_b, to_a): (Vec<_>, Vec<_>) = init.into_iter().partition(|s| s.flow.dst_port == 443);
        let mut a_recv = Vec::new();
        let mut b_recv = Vec::new();
        let mut qa = to_a;
        let mut qb = to_b;
        let now = SimTime(5);
        for _ in 0..100_000 {
            if qa.is_empty() && qb.is_empty() {
                break;
            }
            for seg in std::mem::take(&mut qb) {
                let act = b.on_segment(now, &seg);
                b_recv.extend(act.delivered);
                qa.extend(act.to_send);
            }
            for seg in std::mem::take(&mut qa) {
                let act = a.on_segment(now, &seg);
                a_recv.extend(act.delivered);
                qb.extend(act.to_send);
            }
        }
        assert_eq!(b_recv, a_data);
        assert_eq!(a_recv, b_data);
    }

    #[test]
    fn unwrap_u32_handles_wrap() {
        assert_eq!(unwrap_u32(0, 100), 100);
        assert_eq!(unwrap_u32(u32::MAX as u64 - 10, 5), (1u64 << 32) + 5);
        assert_eq!(unwrap_u32((1u64 << 32) + 1000, 900), (1u64 << 32) + 900);
        // Slightly behind base is preferred over a full wrap ahead.
        assert_eq!(unwrap_u32(1000, 900), 900);
    }
}
