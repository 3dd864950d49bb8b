//! Differential tests: `TcpEndpoint` against the endpoint it replaced.
//!
//! `reference` below is the earlier endpoint, which drained each
//! segment out of the send buffer byte by byte and kept a second copy
//! of every unacked payload for retransmission. It is kept verbatim as
//! an oracle. Both run the same seeded scenario — random writes, loss,
//! duplication and reordering on the path, retransmission timers firing
//! at their deadlines — and must emit the same segments, deliver the
//! same bytes and report the same statistics and RTO deadlines at every
//! step.

use wm_net::headers::FlowId;
use wm_net::rng::SimRng;
use wm_net::tcp::{TcpActions, TcpEndpoint, TcpSegment, TcpStats};
use wm_net::time::{Duration, SimTime};

#[allow(dead_code)]
mod reference {
    use std::collections::{BTreeMap, VecDeque};
    use wm_net::headers::{FlowId, TcpFlags};
    use wm_net::tcp::{
        unwrap_u32, TcpActions, TcpSegment, TcpStats, INITIAL_RTO, MAX_RTO, MSS, SEND_WINDOW,
    };
    use wm_net::time::{Duration, SimTime};

    struct Inflight {
        payload: Vec<u8>,
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
        send_buf: VecDeque<u8>,
        inflight: BTreeMap<u64, Inflight>,
        reasm: BTreeMap<u64, Vec<u8>>,
        rto: Duration,
        rto_deadline: Option<SimTime>,
        /// Counters for trace statistics.
        pub stats: TcpStats,
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
            self.send_buf.len() + (self.snd_nxt - self.snd_una) as usize
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
            while !self.send_buf.is_empty()
                && (self.snd_nxt - self.snd_una) as usize + MSS <= SEND_WINDOW
            {
                let take = self.send_buf.len().min(MSS);
                let payload: Vec<u8> = self.send_buf.drain(..take).collect();
                let abs = self.snd_nxt;
                self.snd_nxt += payload.len() as u64;
                self.stats.bytes_sent += payload.len() as u64;
                self.stats.segments_sent += 1;
                let is_last = self.send_buf.is_empty();
                out.push(TcpSegment {
                    flow: self.flow,
                    seq: self.wire_seq(abs),
                    ack: self.wire_ack(),
                    flags: if is_last {
                        TcpFlags::PSH_ACK
                    } else {
                        TcpFlags::ACK
                    },
                    payload: payload.clone(),
                    retransmit: false,
                });
                self.inflight.insert(
                    abs,
                    Inflight {
                        payload,
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
                self.insert_reasm(abs_seq, &seg.payload);
                let before = self.rcv_nxt;
                self.drain_reasm(&mut actions.delivered);
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
                    let acked: Vec<u64> = self
                        .inflight
                        .range(..abs_ack)
                        .filter(|(off, seg)| *off + seg.payload.len() as u64 <= abs_ack)
                        .map(|(off, _)| *off)
                        .collect();
                    for off in acked {
                        self.inflight.remove(&off);
                    }
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
            self.stats.retransmissions += 1;
            self.stats.segments_sent += 1;
            let seg = TcpSegment {
                flow: self.flow,
                seq: self.isn.wrapping_add(abs as u32),
                ack: wire_ack,
                flags: TcpFlags::PSH_ACK,
                payload: inflight.payload.clone(),
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
}

/// The endpoint surface the scenario drives.
trait Endpoint {
    fn new(flow: FlowId, isn: u32, rcv_isn: u32) -> Self;
    fn write(&mut self, bytes: &[u8]);
    fn flush(&mut self, now: SimTime) -> Vec<TcpSegment>;
    fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> TcpActions;
    fn on_rto(&mut self, now: SimTime) -> Vec<TcpSegment>;
    fn rto_deadline(&self) -> Option<SimTime>;
    fn outstanding(&self) -> usize;
    fn stats(&self) -> TcpStats;
}

macro_rules! endpoint {
    ($ty:ty) => {
        impl Endpoint for $ty {
            fn new(flow: FlowId, isn: u32, rcv_isn: u32) -> Self {
                <$ty>::new(flow, isn, rcv_isn)
            }
            fn write(&mut self, bytes: &[u8]) {
                <$ty>::write(self, bytes)
            }
            fn flush(&mut self, now: SimTime) -> Vec<TcpSegment> {
                <$ty>::flush(self, now)
            }
            fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> TcpActions {
                <$ty>::on_segment(self, now, seg)
            }
            fn on_rto(&mut self, now: SimTime) -> Vec<TcpSegment> {
                <$ty>::on_rto(self, now)
            }
            fn rto_deadline(&self) -> Option<SimTime> {
                <$ty>::rto_deadline(self)
            }
            fn outstanding(&self) -> usize {
                <$ty>::outstanding(self)
            }
            fn stats(&self) -> TcpStats {
                self.stats
            }
        }
    };
}

endpoint!(TcpEndpoint);
endpoint!(reference::TcpEndpoint);

const FLOW: FlowId = FlowId {
    src_ip: [10, 0, 0, 1],
    src_port: 40_000,
    dst_ip: [10, 0, 0, 2],
    dst_port: 443,
};

/// Path impairments of one scenario.
struct Path {
    loss: f64,
    dup: f64,
    /// Maximum extra delay; delays above the spacing of segments
    /// reorder them.
    max_delay_us: u64,
}

/// Run one seeded scenario; returns a log line per observable output.
fn scenario<E: Endpoint>(seed: u64, path: &Path) -> Vec<String> {
    let mut rng = SimRng::new(seed);
    // Near-wrap ISNs exercise the 32-bit sequence arithmetic.
    let isn_a = u32::MAX - rng.uniform_u64(0, 70_000) as u32;
    let isn_b = rng.next_u64() as u32;
    let mut eps = [
        E::new(FLOW, isn_a, isn_b),
        E::new(FLOW.reversed(), isn_b, isn_a),
    ];
    let mut net: Vec<(SimTime, u64, usize, TcpSegment)> = Vec::new();
    let mut tie = 0u64;
    let mut log = Vec::new();
    let mut now = SimTime(1_000);
    let mut send = |net: &mut Vec<(SimTime, u64, usize, TcpSegment)>,
                    rng: &mut SimRng,
                    log: &mut Vec<String>,
                    now: SimTime,
                    to: usize,
                    segs: Vec<TcpSegment>,
                    lossy: bool| {
        for seg in segs {
            log.push(format!("send->{to} {seg:?}"));
            if lossy && rng.chance(path.loss) {
                continue;
            }
            let copies = if lossy && rng.chance(path.dup) { 2 } else { 1 };
            for _ in 0..copies {
                let delay = 500 + rng.uniform_u64(0, path.max_delay_us);
                tie += 1;
                net.push((now + Duration::from_micros(delay), tie, to, seg.clone()));
            }
        }
    };
    for step in 0..2_500u32 {
        let lossy = step < 2_000;
        now += Duration::from_micros(rng.uniform_u64(0, 3_000));
        // Application writes, coalescing in the send buffer until flushed.
        if lossy && rng.chance(0.3) {
            let side = rng.uniform_u64(0, 1) as usize;
            for _ in 0..rng.uniform_u64(1, 3) {
                let len = rng.uniform_u64(0, 6_000) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                eps[side].write(&bytes);
            }
            let segs = eps[side].flush(now);
            send(&mut net, &mut rng, &mut log, now, 1 - side, segs, lossy);
        }
        // Deliver every due segment in arrival order.
        net.sort_by_key(|(t, tie, ..)| (*t, *tie));
        let due = net.iter().take_while(|(t, ..)| *t <= now).count();
        for (_, _, to, seg) in net.drain(..due).collect::<Vec<_>>() {
            let act = eps[to].on_segment(now, &seg);
            log.push(format!("deliver@{to} {:?}", act.delivered));
            send(
                &mut net,
                &mut rng,
                &mut log,
                now,
                1 - to,
                act.to_send,
                lossy,
            );
        }
        // Fire due retransmission timers.
        for (side, ep) in eps.iter_mut().enumerate() {
            if ep.rto_deadline().is_some_and(|d| d <= now) {
                let segs = ep.on_rto(now);
                send(&mut net, &mut rng, &mut log, now, 1 - side, segs, lossy);
            }
            log.push(format!(
                "state {side} rto={:?} outstanding={} stats={:?}",
                ep.rto_deadline(),
                ep.outstanding(),
                ep.stats()
            ));
        }
    }
    log
}

fn assert_same_scenario(seed: u64, path: &Path) {
    let new = scenario::<TcpEndpoint>(seed, path);
    let old = scenario::<reference::TcpEndpoint>(seed, path);
    for (i, (n, o)) in new.iter().zip(&old).enumerate() {
        assert_eq!(n, o, "seed {seed:#x}: first divergence at log line {i}");
    }
    assert_eq!(new.len(), old.len(), "seed {seed:#x}: log length");
}

#[test]
fn clean_path_matches_reference() {
    let path = Path {
        loss: 0.0,
        dup: 0.0,
        max_delay_us: 0,
    };
    for seed in 0..4u64 {
        assert_same_scenario(0x7C90 + seed, &path);
    }
}

#[test]
fn lossy_duplicating_reordering_path_matches_reference() {
    for (i, path) in [
        Path {
            loss: 0.05,
            dup: 0.05,
            max_delay_us: 4_000,
        },
        Path {
            loss: 0.3,
            dup: 0.2,
            max_delay_us: 40_000,
        },
        Path {
            loss: 0.6,
            dup: 0.0,
            max_delay_us: 200_000,
        },
    ]
    .iter()
    .enumerate()
    {
        for seed in 0..4u64 {
            assert_same_scenario(0x7CA0 + 16 * i as u64 + seed, path);
        }
    }
}

#[test]
fn scenarios_deliver_and_retransmit() {
    // Guard the harness itself: the lossy scenario must actually lose,
    // retransmit and deliver, or the comparison above proves little.
    let path = Path {
        loss: 0.3,
        dup: 0.2,
        max_delay_us: 40_000,
    };
    let log = scenario::<TcpEndpoint>(0x7CB1, &path);
    assert!(log.iter().any(|l| l.contains("retransmit: true")));
    assert!(log
        .iter()
        .any(|l| l.starts_with("deliver@1 [") && l.len() > 20));
    assert!(log.iter().any(|l| l.contains("duplicate_segments: 1")));
}
