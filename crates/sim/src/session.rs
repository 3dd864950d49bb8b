//! The session event loop.

use crate::config::{SessionConfig, SessionOutput, SessionStats};
use crate::error::{SessionError, SessionErrorKind, Side};
use std::collections::VecDeque;
use wm_capture::labels::{LabeledRecord, RecordClass};
use wm_capture::tap::Tap;
use wm_chaos::FaultKind;
use wm_cipher::kdf::{derive_key, derive_seed};
use wm_http::{RequestParser, Response, ResponseParser};
use wm_net::headers::{FlowId, TcpFlags, FRAME_OVERHEAD};
use wm_net::link::{Link, LinkParams};
use wm_net::queue::{Event, EventQueue, PeerId, TimerKind};
use wm_net::rng::SimRng;
use wm_net::tcp::{TcpActions, TcpEndpoint, TcpSegment};
use wm_net::time::{Duration, SimTime};
use wm_netflix::{NetflixServer, ServerConfig};
use wm_player::{Player, PlayerActions, PlayerFault, RequestKind};
use wm_telemetry::{LocalHistogram, Registry, Snapshot};
use wm_tls::handshake::{simulate_handshake, simulate_resumption, Sender};
use wm_tls::record::{ContentType, MAX_FRAGMENT, RECORD_HEADER_LEN};
use wm_tls::{EngineStats, RecordEngine, SessionKeys};
use wm_trace::{SpanId, TraceHandle};

/// Session-layer timer kinds (player kinds start at 0x100).
const TCP_RTO: TimerKind = TimerKind(1);
const SERVER_SEND: TimerKind = TimerKind(2);
const HS_FLIGHT: TimerKind = TimerKind(3);
const PLAYER_START: TimerKind = TimerKind(4);
/// The next chaos fault in the plan is due.
const CHAOS: TimerKind = TimerKind(5);
/// A transient link degradation (collapse/blackout) ends.
const CHAOS_RESTORE: TimerKind = TimerKind(6);

/// Hard ceiling on processed events (runaway guard).
const MAX_EVENTS: u64 = 100_000_000;

/// Run one complete viewing session.
///
/// Deterministic: equal configs (including the fault plan) produce
/// byte-identical traces.
pub fn run_session(config: &SessionConfig) -> Result<SessionOutput, SessionError> {
    let (out, err) = run_session_lossy(config);
    match err {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

/// Run a session, keeping whatever the tap captured even when the
/// session cannot complete (fault-injection analysis wants the partial
/// capture alongside the typed error).
pub fn run_session_lossy(config: &SessionConfig) -> (SessionOutput, Option<SessionError>) {
    let mut state = SessionState::new(config);
    let err = state.drive().err();
    (state.into_output(), err)
}

struct SessionState<'a> {
    cfg: &'a SessionConfig,
    queue: EventQueue,
    rng: SimRng,

    client_tcp: TcpEndpoint,
    server_tcp: TcpEndpoint,
    client_tls: RecordEngine,
    server_tls: RecordEngine,
    up_link: Link,
    down_link: Link,

    /// Bytes of peer handshake transcript each side must discard before
    /// the record engines take over.
    client_skip: usize,
    server_skip: usize,
    hs_flights: Vec<(Sender, Vec<u8>)>,
    hs_cursor: usize,

    player: Player,
    server: NetflixServer,
    req_parser: RequestParser,
    resp_parser: ResponseParser,
    /// Responses waiting for their service delay.
    server_out: VecDeque<(SimTime, Response)>,

    /// The capture point: frames each segment it observes as the
    /// segment is sent, and orders the frames at finish.
    tap: Tap,
    labels: Vec<LabeledRecord>,
    player_done: bool,
    player_started: bool,
    events: u64,

    // ---- chaos state (inert when the fault plan is empty) ----
    /// Fault events not yet applied, in time order.
    pending_faults: VecDeque<wm_chaos::FaultEvent>,
    /// Session keys, kept for TLS session resumption after a reset.
    keys: SessionKeys,
    /// Undegraded link parameters (collapse/blackout restore target).
    base_up: LinkParams,
    base_down: LinkParams,
    /// When the current link degradation ends (None = links nominal).
    degraded_until: Option<SimTime>,
    /// The tap records nothing before this time (capture gap).
    tap_blind_until: SimTime,
    /// Server responses are withheld until this time (stall fault).
    server_stall_until: SimTime,
    /// Current client flow (source port changes on every reconnect).
    flow: FlowId,
    /// Reconnect generation (0 = the original connection).
    generation: u32,
    /// Control frames (SYN exchanges, RSTs) replayed into the capture
    /// at assembly time, merged with data segments by timestamp.
    control_frames: Vec<(SimTime, FlowId, u32, u32, TcpFlags)>,
    faults_applied: u64,
    reconnects: u64,
    tap_frames_dropped: u64,
    chaos_stats: ChaosStats,
    /// Record-layer counts of the engines replaced by reconnects
    /// (client, server), so telemetry spans every connection.
    retired_tls: [EngineStats; 2],

    /// Reused TLS scratch: sealed wire bytes of the current write and
    /// drained plaintext records of the current delivery. Capacity
    /// persists across events so the steady-state record path
    /// allocates nothing.
    wire_buf: Vec<u8>,
    rec_texts: Vec<Vec<u8>>,
    /// Reused TCP outputs: segments of a flush or retransmission, and
    /// the deliveries and replies of an arriving segment.
    seg_buf: Vec<TcpSegment>,
    tcp_actions: TcpActions,
    /// Reused player outputs: the requests and timers of a callback.
    player_actions: PlayerActions,

    /// Stage timers (None when telemetry is disabled). Like every
    /// component's counts they stay session-local until
    /// [`SessionState::into_output`] publishes them.
    spans: Option<SimSpans>,

    /// Causal event recorder (None when tracing is disabled).
    trace: Option<TraceHandle>,
    /// Root span covering the whole session.
    session_span: SpanId,
    /// Span of the current TCP flow (reopened on every reconnect).
    flow_span: SpanId,
    /// Span of the in-progress handshake ([`SpanId::NONE`] when idle).
    hs_span: SpanId,
}

/// Chaos counts not already kept as session fields (observation only).
#[derive(Default)]
struct ChaosStats {
    /// Data segments lost to capture gaps (the session's
    /// `tap_frames_dropped` also counts dropped control frames).
    tap_segments_dropped: u64,
    tap_gap_us: LocalHistogram,
    duplicates: u64,
}

/// Session-layer span histograms: wall-clock time spent in each
/// pipeline stage.
#[derive(Default)]
struct SimSpans {
    player_ns: LocalHistogram,
    server_ns: LocalHistogram,
    seal_ns: LocalHistogram,
    open_ns: LocalHistogram,
}

const CLIENT_FLOW: FlowId = FlowId {
    src_ip: [192, 168, 1, 23],
    src_port: 51_744,
    dst_ip: [198, 38, 120, 10],
    dst_port: 443,
};

impl<'a> SessionState<'a> {
    // wm-lint: alloc-ok(reason = "per-session setup: handshake transcripts and telemetry registration allocate once per session, not per record")
    fn new(cfg: &'a SessionConfig) -> Self {
        let seed = cfg.seed;
        let master = {
            let mut key = [0u8; 32];
            let mut s = derive_seed(seed, "tls master");
            for chunk in key.chunks_mut(8) {
                chunk.copy_from_slice(&wm_cipher::kdf::splitmix64(&mut s).to_le_bytes());
            }
            key
        };
        let keys = SessionKeys {
            client_write: derive_key(&master, "client write key"),
            server_write: derive_key(&master, "server write key"),
            suite: cfg.suite,
        };
        let isn_c = derive_seed(seed, "client isn") as u32;
        let isn_s = derive_seed(seed, "server isn") as u32;

        let hs = simulate_handshake(
            &cfg.profile.handshake_shape(),
            derive_seed(seed, "handshake"),
        );
        let client_hs_bytes: usize = hs
            .iter()
            .filter(|f| f.sender == Sender::Client)
            .map(|f| f.wire.len())
            .sum();
        let server_hs_bytes: usize = hs
            .iter()
            .filter(|f| f.sender == Sender::Server)
            .map(|f| f.wire.len())
            .sum();

        let mut player_cfg = cfg.player.clone();
        if cfg.defense.injects_dummies() {
            player_cfg.dummy_reports = true;
        }
        let mut player = Player::new(
            cfg.profile,
            cfg.graph.clone(),
            cfg.script.clone(),
            player_cfg,
            seed,
        );
        let mut server = NetflixServer::new(
            cfg.graph.clone(),
            ServerConfig {
                media_scale: cfg.media_scale,
            },
        );
        let mut client_tls = RecordEngine::client(&keys);
        let mut server_tls = RecordEngine::server(&keys);
        let mut up_link = Link::new(cfg.conditions.upstream());
        let mut down_link = Link::new(cfg.conditions.downstream());

        // Components count into plain fields of their own; telemetry
        // only adds the stage timers here and a registry at the end.
        // Component RNGs and all simulation-visible state are
        // untouched, so a session replays byte-identically either way.
        let spans = cfg.telemetry.then(SimSpans::default);
        let base_up = *up_link.params();
        let base_down = *down_link.params();

        // Tracing, like telemetry, attaches observation-only handles:
        // no RNG draws, no sim-visible state, so enabling it never
        // perturbs the capture.
        let mut tap = Tap::new();
        let (trace, session_span, flow_span) = if cfg.trace {
            let handle = TraceHandle::new();
            let session_span = handle.span_start_at(0, "session", SpanId::NONE);
            let flow_span = handle.span_start_at(0, "flow", session_span);
            handle.instant_at(0, flow_span, "flow.port", CLIENT_FLOW.src_port as u64, 0);
            player.set_trace(handle.clone(), session_span);
            server.set_trace(handle.clone(), session_span);
            client_tls.set_trace(handle.clone(), flow_span);
            server_tls.set_trace(handle.clone(), flow_span);
            up_link.set_trace(handle.clone(), flow_span);
            down_link.set_trace(handle.clone(), flow_span);
            // Flow-lifecycle events are emitted at assembly time (the
            // tap replays control frames there), stamped with the frame
            // times the eavesdropper saw.
            tap.set_trace(handle.clone(), session_span);
            (Some(handle), session_span, flow_span)
        } else {
            (None, SpanId::NONE, SpanId::NONE)
        };

        SessionState {
            cfg,
            queue: EventQueue::new(),
            rng: SimRng::new(derive_seed(seed, "links")),
            client_tcp: TcpEndpoint::new(CLIENT_FLOW, isn_c, isn_s),
            server_tcp: TcpEndpoint::new(CLIENT_FLOW.reversed(), isn_s, isn_c),
            client_tls,
            server_tls,
            up_link,
            down_link,
            client_skip: server_hs_bytes,
            server_skip: client_hs_bytes,
            hs_flights: hs.into_iter().map(|f| (f.sender, f.wire)).collect(),
            hs_cursor: 0,
            player,
            server,
            req_parser: RequestParser::new(),
            resp_parser: ResponseParser::new(),
            server_out: VecDeque::new(),
            tap,
            labels: Vec::new(),
            player_done: false,
            player_started: false,
            events: 0,
            pending_faults: cfg.chaos.events().iter().copied().collect(),
            keys,
            base_up,
            base_down,
            degraded_until: None,
            tap_blind_until: SimTime::ZERO,
            server_stall_until: SimTime::ZERO,
            flow: CLIENT_FLOW,
            generation: 0,
            control_frames: Vec::new(),
            faults_applied: 0,
            reconnects: 0,
            tap_frames_dropped: 0,
            chaos_stats: ChaosStats::default(),
            retired_tls: [EngineStats::default(); 2],
            wire_buf: Vec::new(),
            rec_texts: Vec::new(),
            seg_buf: Vec::new(),
            tcp_actions: TcpActions::default(),
            player_actions: PlayerActions::default(),
            spans,
            trace,
            session_span,
            flow_span,
            hs_span: SpanId::NONE,
        }
    }

    fn fail(&self, now: SimTime, kind: SessionErrorKind) -> SessionError {
        SessionError {
            kind,
            phase: self.player.phase(),
            at: now,
        }
    }

    fn drive(&mut self) -> Result<(), SessionError> {
        // First handshake flight shortly after the TCP handshake.
        self.queue.schedule(
            SimTime(45_000),
            Event::Timer {
                owner: PeerId::Client,
                kind: HS_FLIGHT,
            },
        );
        // Arm the first fault of the chaos plan (no-op when empty).
        if let Some(f) = self.pending_faults.front() {
            self.queue.schedule(
                f.at,
                Event::Timer {
                    owner: PeerId::Server,
                    kind: CHAOS,
                },
            );
        }

        while let Some((now, event)) = self.queue.pop() {
            // Keep the shared trace clock on sim time so emitters
            // without a `now` parameter still stamp correctly.
            if let Some(h) = &self.trace {
                h.set_now(now.micros());
            }
            self.events += 1;
            if self.events > MAX_EVENTS {
                return Err(self.fail(now, SessionErrorKind::EventBudgetExhausted));
            }
            match event {
                Event::SegmentArrival { to, segment } => {
                    self.on_segment(now, to, &segment)?;
                    self.recycle(to, segment);
                }
                Event::Timer { owner, kind } => self.on_timer(now, owner, kind),
            }
        }

        if !self.player_done {
            return Err(self.fail(self.queue.now(), SessionErrorKind::QueueDrained));
        }
        Ok(())
    }

    /// Assemble whatever the tap captured (callable after a failed
    /// drive: the partial capture is part of the fault analysis).
    // wm-lint: alloc-ok(reason = "per-session teardown: snapshots and output assembly allocate once per session, after the record loop")
    fn into_output(mut self) -> SessionOutput {
        // Assemble the capture in time order: the initial SYN exchange,
        // reconnect control frames (RST + new SYN exchange) and data
        // segments, merged by timestamp.
        // The endpoints start established; the initial SYN exchange is
        // recorded at nominal times before the handshake flights (45 ms).
        let mut controls = vec![
            (SimTime(1_000), CLIENT_FLOW, 0u32, 0u32, TcpFlags::SYN),
            (
                SimTime(19_000),
                CLIENT_FLOW.reversed(),
                0,
                1,
                TcpFlags::SYN_ACK,
            ),
            (SimTime(38_000), CLIENT_FLOW, 1, 1, TcpFlags::ACK),
        ];
        controls.extend(std::mem::take(&mut self.control_frames));
        controls.sort_by_key(|(t, ..)| *t);
        let mut tap = std::mem::take(&mut self.tap);
        tap.assemble(&controls);
        let packets = tap.len();
        let telemetry = if self.cfg.telemetry {
            self.publish_telemetry(&tap)
        } else {
            Snapshot::default()
        };
        let trace = tap.into_trace();

        let trace_events = match &self.trace {
            Some(h) => {
                let end = self.queue.now().micros();
                if self.hs_span != SpanId::NONE {
                    h.span_end_at(end, self.hs_span, "handshake");
                }
                h.span_end_at(end, self.flow_span, "flow");
                h.span_end_at(end, self.session_span, "session");
                h.drain()
            }
            None => Vec::new(),
        };

        SessionOutput {
            trace,
            truth: self.player.truth().to_vec(),
            decisions: self.player.decisions(),
            labels: self.labels,
            server_log: self.server.state_log().to_vec(),
            stats: SessionStats {
                duration: self.queue.now(),
                packets_captured: packets,
                client_tcp: self.client_tcp.stats,
                server_tcp: self.server_tcp.stats,
                events: self.events,
                faults_applied: self.faults_applied,
                reconnects: self.reconnects,
                tap_frames_dropped: self.tap_frames_dropped,
            },
            telemetry,
            trace_events,
        }
    }

    /// Publish every session-local count into a fresh registry, once:
    /// the snapshot holds the same metrics the components would have
    /// counted into shared handles.
    fn publish_telemetry(&self, tap: &Tap) -> Snapshot {
        let reg = Registry::new();
        self.up_link.stats().publish(&reg, "up");
        self.down_link.stats().publish(&reg, "down");
        for ((engine, retired), label) in [&self.client_tls, &self.server_tls]
            .into_iter()
            .zip(&self.retired_tls)
            .zip(["client", "server"])
        {
            let mut stats = *retired;
            stats.merge(engine.stats());
            stats.publish(&reg, label);
        }
        self.player.stats().publish(&reg);
        self.server.stats().publish(&reg);
        tap.publish(&reg);
        if let Some(spans) = &self.spans {
            reg.histogram("sim.player_ns").absorb(&spans.player_ns);
            reg.histogram("sim.server_ns").absorb(&spans.server_ns);
            reg.histogram("sim.tls.seal_ns").absorb(&spans.seal_ns);
            reg.histogram("sim.tls.open_ns").absorb(&spans.open_ns);
        }
        let chaos = &self.chaos_stats;
        reg.counter("chaos.faults_injected")
            .add(self.faults_applied);
        reg.counter("chaos.reconnects").add(self.reconnects);
        reg.counter("chaos.tap_frames_dropped")
            .add(chaos.tap_segments_dropped);
        reg.histogram("chaos.tap_gap_us").absorb(&chaos.tap_gap_us);
        reg.counter("chaos.duplicate_posts_injected")
            .add(chaos.duplicates);
        reg.counter("sim.events").add(self.events);
        reg.snapshot()
    }

    // ---- event handlers -------------------------------------------------

    fn on_timer(&mut self, now: SimTime, owner: PeerId, kind: TimerKind) {
        match (owner, kind) {
            (_, TCP_RTO) => self.on_rto(now, owner),
            (PeerId::Server, SERVER_SEND) => self.on_server_send(now),
            (PeerId::Server, CHAOS) => self.on_chaos(now),
            (PeerId::Server, CHAOS_RESTORE) => self.on_chaos_restore(now),
            (PeerId::Client, HS_FLIGHT) => self.on_hs_flight(now),
            (PeerId::Client, PLAYER_START) => {
                self.player_started = true;
                self.drive_player(now, |player, actions| player.start(now, actions));
            }
            (PeerId::Client, kind) => {
                self.drive_player(now, |player, actions| player.on_timer(now, kind, actions));
            }
            _ => {}
        }
    }

    fn on_hs_flight(&mut self, now: SimTime) {
        if let Some(h) = &self.trace {
            if self.hs_cursor == 0 && self.hs_cursor < self.hs_flights.len() {
                // First flight of an initial or resumption handshake.
                self.hs_span = h.span_start_at(now.micros(), "handshake", self.flow_span);
                h.instant_at(
                    now.micros(),
                    self.hs_span,
                    if self.generation == 0 {
                        "handshake.full"
                    } else {
                        "handshake.resumption"
                    },
                    self.hs_flights.len() as u64,
                    0,
                );
            } else if self.hs_cursor >= self.hs_flights.len() && self.hs_span != SpanId::NONE {
                h.span_end_at(now.micros(), self.hs_span, "handshake");
                self.hs_span = SpanId::NONE;
            }
        }
        if self.hs_cursor >= self.hs_flights.len() {
            if self.player_started {
                // A resumption handshake just finished: the transport
                // is back, let the player replay unacked state.
                self.drive_player(now, |player, actions| player.on_reconnected(now, actions));
                return;
            }
            // Initial handshake done: hand over to the player.
            self.queue.schedule(
                now + Duration::from_millis(5),
                Event::Timer {
                    owner: PeerId::Client,
                    kind: PLAYER_START,
                },
            );
            return;
        }
        let (sender, wire) = self.hs_flights[self.hs_cursor].clone();
        self.hs_cursor += 1;
        match sender {
            Sender::Client => {
                self.client_tcp.write(&wire);
                self.flush_tcp(now, PeerId::Client);
            }
            Sender::Server => {
                self.server_tcp.write(&wire);
                self.flush_tcp(now, PeerId::Server);
            }
        }
        // Next flight one half-RTT plus processing later.
        self.queue.schedule(
            now + Duration::from_millis(60),
            Event::Timer {
                owner: PeerId::Client,
                kind: HS_FLIGHT,
            },
        );
    }

    fn on_rto(&mut self, now: SimTime, owner: PeerId) {
        let ep = match owner {
            PeerId::Client => &mut self.client_tcp,
            PeerId::Server => &mut self.server_tcp,
        };
        match ep.rto_deadline() {
            Some(d) if now >= d => {
                let mut segs = std::mem::take(&mut self.seg_buf);
                ep.on_rto(now, &mut segs);
                for seg in segs.drain(..) {
                    self.send_segment(now, owner.peer(), seg);
                }
                self.seg_buf = segs;
                self.arm_rto(owner);
            }
            _ => {} // stale or disarmed
        }
    }

    fn on_server_send(&mut self, now: SimTime) {
        while let Some((ready, _)) = self.server_out.front() {
            if *ready > now {
                break;
            }
            let (_, resp) = self.server_out.pop_front().expect("peeked");
            self.wire_buf.clear();
            {
                let _s = self.spans.as_mut().map(|s| s.seal_ns.span());
                self.server_tls.seal_payload_into(
                    ContentType::ApplicationData,
                    resp.as_bytes(),
                    &mut self.wire_buf,
                );
            }
            self.server_tcp.write(&self.wire_buf);
        }
        self.flush_tcp(now, PeerId::Server);
    }

    fn on_segment(
        &mut self,
        now: SimTime,
        to: PeerId,
        seg: &TcpSegment,
    ) -> Result<(), SessionError> {
        // Segments from a flow torn down by a connection reset are
        // stale: the receiving endpoint now belongs to the new flow.
        let expected = match to {
            PeerId::Server => self.flow,
            PeerId::Client => self.flow.reversed(),
        };
        if seg.flow != expected {
            return Ok(());
        }
        let mut actions = std::mem::take(&mut self.tcp_actions);
        match to {
            PeerId::Client => self.client_tcp.on_segment(now, seg, &mut actions),
            PeerId::Server => self.server_tcp.on_segment(now, seg, &mut actions),
        }
        for out in actions.to_send.drain(..) {
            self.send_segment(now, to.peer(), out);
        }
        self.arm_rto(to);
        let delivered = match to {
            _ if actions.delivered.is_empty() => Ok(()),
            PeerId::Server => self.server_deliver(now, &actions.delivered),
            PeerId::Client => self.client_deliver(now, &actions.delivered),
        };
        self.tcp_actions = actions;
        delivered
    }

    // ---- byte delivery ----------------------------------------------------

    fn server_deliver(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), SessionError> {
        let bytes = skip_bytes(&mut self.server_skip, bytes);
        if bytes.is_empty() {
            return Ok(());
        }
        self.server_tls.feed(bytes);
        let mut texts = std::mem::take(&mut self.rec_texts);
        let drained = {
            let _s = self.spans.as_mut().map(|s| s.open_ns.span());
            drain_records_reused(&mut self.server_tls, &mut texts)
        };
        let n = match drained {
            Ok(n) => n,
            Err(e) => {
                self.rec_texts = texts;
                return Err(self.fail(
                    now,
                    SessionErrorKind::RecordLayer {
                        side: Side::Server,
                        detail: e.to_string(),
                    },
                ));
            }
        };
        for plaintext in texts.iter().take(n) {
            let requests = match self.req_parser.feed(plaintext) {
                Ok(requests) => requests,
                Err(e) => {
                    return Err(self.fail(
                        now,
                        SessionErrorKind::HttpParse {
                            side: Side::Server,
                            detail: e.to_string(),
                        },
                    ))
                }
            };
            for req in requests {
                // Server-side decode hook (compression defense).
                let body = self
                    .cfg
                    .defense
                    .decode_body(req.header_value("content-encoding"), req.body());
                let resp = {
                    let _s = self.spans.as_mut().map(|s| s.server_ns.span());
                    self.server.handle(req.with_body(&body))
                };
                let delay = Duration::from_micros(400 + self.rng.exponential(300.0) as u64);
                let ready = self
                    .server_out
                    .back()
                    .map(|(t, _)| *t)
                    .unwrap_or(SimTime::ZERO)
                    .max(now + delay)
                    .max(self.server_stall_until);
                self.server_out.push_back((ready, resp));
                self.queue.schedule(
                    ready,
                    Event::Timer {
                        owner: PeerId::Server,
                        kind: SERVER_SEND,
                    },
                );
            }
        }
        self.rec_texts = texts;
        Ok(())
    }

    fn client_deliver(&mut self, now: SimTime, bytes: &[u8]) -> Result<(), SessionError> {
        let bytes = skip_bytes(&mut self.client_skip, bytes);
        if bytes.is_empty() {
            return Ok(());
        }
        self.client_tls.feed(bytes);
        let mut texts = std::mem::take(&mut self.rec_texts);
        let drained = {
            let _s = self.spans.as_mut().map(|s| s.open_ns.span());
            drain_records_reused(&mut self.client_tls, &mut texts)
        };
        let n = match drained {
            Ok(n) => n,
            Err(e) => {
                self.rec_texts = texts;
                return Err(self.fail(
                    now,
                    SessionErrorKind::RecordLayer {
                        side: Side::Client,
                        detail: e.to_string(),
                    },
                ));
            }
        };
        // The parser lends out views of its buffer while the player's
        // actions are applied, so it leaves `self` for the loop.
        let mut parser = std::mem::take(&mut self.resp_parser);
        for plaintext in texts.iter().take(n) {
            let responses = match parser.feed(plaintext) {
                Ok(responses) => responses,
                Err(e) => {
                    return Err(self.fail(
                        now,
                        SessionErrorKind::HttpParse {
                            side: Side::Client,
                            detail: e.to_string(),
                        },
                    ))
                }
            };
            for resp in responses {
                self.drive_player(now, |player, actions| {
                    player.on_response(now, resp, actions)
                });
            }
        }
        self.resp_parser = parser;
        self.rec_texts = texts;
        Ok(())
    }

    // ---- player plumbing ---------------------------------------------------

    /// Run one player entry point under the player span, then apply
    /// what it asks for; the actions buffer is the session's, reused.
    fn drive_player(&mut self, now: SimTime, call: impl FnOnce(&mut Player, &mut PlayerActions)) {
        let mut actions = std::mem::take(&mut self.player_actions);
        {
            let _s = self.spans.as_mut().map(|s| s.player_ns.span());
            call(&mut self.player, &mut actions);
        }
        self.apply_player_actions(now, &mut actions);
        self.player_actions = actions;
    }

    fn apply_player_actions(&mut self, now: SimTime, actions: &mut PlayerActions) {
        for out in actions.requests.drain(..) {
            let is_state = matches!(
                out.kind,
                RequestKind::StateType1 | RequestKind::StateType2 | RequestKind::DummyReport
            );
            if !is_state {
                self.write_request(now, out.kind, false, out.request.as_bytes());
            } else if out.split_flush && self.cfg.defense == wm_defense::Defense::None {
                // A deployed countermeasure controls record framing
                // below the browser's flush quirks; only undefended
                // posts are subject to the rare header/body flush split:
                // the head and the body go out as two writes.
                let (head, body) = out.request.as_bytes().split_at(out.request.head_len());
                if body.is_empty() {
                    self.write_request(now, out.kind, true, head);
                } else {
                    self.write_request(now, out.kind, false, head);
                    self.write_request(now, out.kind, false, body);
                }
            } else {
                let writes = self.cfg.defense.encode(&out.request);
                for write in &writes {
                    self.write_request(now, out.kind, writes.len() == 1, write);
                }
            }
            self.flush_tcp(now, PeerId::Client);
        }
        for (at, kind) in actions.timers.drain(..) {
            // Player callbacks can request timers "now" while the clock
            // already advanced; clamp rather than panic.
            self.queue.schedule(
                at.max(self.queue.now()),
                Event::Timer {
                    owner: PeerId::Client,
                    kind,
                },
            );
        }
        if actions.done {
            self.player_done = true;
        }
    }

    /// Seal one client write of a `kind` request and queue it on the
    /// client's TCP endpoint, labelling its records. A state report
    /// written `whole` in one record is labelled with its type.
    fn write_request(&mut self, now: SimTime, kind: RequestKind, whole: bool, write: &[u8]) {
        self.wire_buf.clear();
        {
            let _s = self.spans.as_mut().map(|s| s.seal_ns.span());
            self.client_tls.seal_payload_into(
                ContentType::ApplicationData,
                write,
                &mut self.wire_buf,
            );
        }
        // Label each record of this write.
        let n_records = write.len().div_ceil(MAX_FRAGMENT).max(1);
        let class = match kind {
            RequestKind::StateType1 if whole && n_records == 1 => RecordClass::Type1,
            RequestKind::StateType2 if whole && n_records == 1 => RecordClass::Type2,
            _ => RecordClass::Other,
        };
        if n_records == 1 {
            self.labels.push(LabeledRecord {
                time: now,
                length: (self.wire_buf.len() - RECORD_HEADER_LEN) as u16,
                class,
            });
        } else {
            // Fragmented write (never a clean state report).
            let mut obs = wm_tls::RecordObserver::new();
            for r in obs.feed(&self.wire_buf) {
                self.labels.push(LabeledRecord {
                    time: now,
                    length: r.length,
                    class: RecordClass::Other,
                });
            }
        }
        self.client_tcp.write(&self.wire_buf);
    }

    // ---- transmission -------------------------------------------------------

    fn flush_tcp(&mut self, now: SimTime, owner: PeerId) {
        let mut segs = std::mem::take(&mut self.seg_buf);
        match owner {
            PeerId::Client => self.client_tcp.flush(now, &mut segs),
            PeerId::Server => self.server_tcp.flush(now, &mut segs),
        }
        for seg in segs.drain(..) {
            self.send_segment(now, owner.peer(), seg);
        }
        self.seg_buf = segs;
        self.arm_rto(owner);
    }

    fn send_segment(&mut self, now: SimTime, to: PeerId, seg: TcpSegment) {
        let link = match to {
            PeerId::Server => &mut self.up_link,
            PeerId::Client => &mut self.down_link,
        };
        let wire_len = FRAME_OVERHEAD + seg.payload.len();
        let transit = link.transmit(now, wire_len, &mut self.rng);
        if let Some(tap_at) = transit.tap_at {
            if tap_at < self.tap_blind_until {
                // Injected capture gap: the path delivers, the
                // eavesdropper's tap records nothing.
                self.tap_frames_dropped += 1;
                self.chaos_stats.tap_segments_dropped += 1;
                if let Some(h) = &self.trace {
                    h.instant_at(
                        tap_at.micros(),
                        self.flow_span,
                        "capture.gap",
                        wire_len as u64,
                        self.tap_blind_until.micros(),
                    );
                }
            } else {
                self.tap.record_unordered(tap_at, &seg);
            }
        }
        match transit.arrives_at {
            Some(at) => self
                .queue
                .schedule(at, Event::SegmentArrival { to, segment: seg }),
            None => self.recycle(to, seg),
        }
    }

    /// A segment bound `to` a peer is consumed: its payload buffer goes
    /// back to the endpoint that sent it.
    fn recycle(&mut self, to: PeerId, seg: TcpSegment) {
        match to {
            PeerId::Server => self.client_tcp.recycle(seg.payload),
            PeerId::Client => self.server_tcp.recycle(seg.payload),
        }
    }

    // ---- chaos --------------------------------------------------------------

    /// CHAOS fired: apply every fault that is due and re-arm for the
    /// next one.
    fn on_chaos(&mut self, now: SimTime) {
        while let Some(f) = self.pending_faults.front() {
            if f.at > now {
                break;
            }
            let f = self.pending_faults.pop_front().expect("peeked");
            self.apply_fault(now, f.kind);
        }
        if let Some(f) = self.pending_faults.front() {
            self.queue.schedule(
                f.at,
                Event::Timer {
                    owner: PeerId::Server,
                    kind: CHAOS,
                },
            );
        }
    }

    // wm-lint: alloc-ok(reason = "chaos fault recovery is rare; reset and resumption allocations are per-fault, not per-record")
    fn apply_fault(&mut self, now: SimTime, kind: FaultKind) {
        if self.player_done {
            return; // the session is over; nothing left to disturb
        }
        self.faults_applied += 1;
        if let Some(h) = &self.trace {
            // `a` carries the fault's magnitude where it has one.
            let a = match kind {
                FaultKind::ServerStall { stall } => stall.micros(),
                FaultKind::ServerError { burst, .. } => burst as u64,
                FaultKind::BandwidthCollapse { duration, .. } => duration.micros(),
                FaultKind::Blackout { duration } => duration.micros(),
                FaultKind::TapGap { duration } => duration.micros(),
                FaultKind::DelayStatePost { delay } => delay.micros(),
                FaultKind::ConnectionReset | FaultKind::DuplicateStatePost => 0,
            };
            h.instant_at(
                now.micros(),
                self.session_span,
                kind.trace_name(),
                a,
                self.faults_applied,
            );
        }
        match kind {
            FaultKind::TapGap { duration } => {
                self.tap_blind_until = self.tap_blind_until.max(now + duration);
                self.chaos_stats.tap_gap_us.record(duration.micros());
            }
            FaultKind::BandwidthCollapse { factor, duration } => {
                let mut up = self.base_up;
                let mut down = self.base_down;
                up.bandwidth_bps = (up.bandwidth_bps * factor).max(1_000.0);
                down.bandwidth_bps = (down.bandwidth_bps * factor).max(1_000.0);
                self.up_link.set_params(up);
                self.down_link.set_params(down);
                self.schedule_restore(now + duration);
            }
            FaultKind::Blackout { duration } => {
                // Total loss both ways: TCP retransmits carry the
                // session across (and show up in the capture).
                let mut up = self.base_up;
                let mut down = self.base_down;
                up.loss_prob = 1.0;
                down.loss_prob = 1.0;
                self.up_link.set_params(up);
                self.down_link.set_params(down);
                self.schedule_restore(now + duration);
            }
            FaultKind::ServerStall { stall } => {
                let until = now + stall;
                self.server_stall_until = self.server_stall_until.max(until);
                // Already queued responses are withheld too; their
                // SERVER_SEND timers fire early and find nothing ready,
                // so re-arm at the stall horizon.
                let mut bumped = false;
                for e in self.server_out.iter_mut() {
                    if e.0 < until {
                        e.0 = until;
                        bumped = true;
                    }
                }
                if bumped {
                    self.queue.schedule(
                        until,
                        Event::Timer {
                            owner: PeerId::Server,
                            kind: SERVER_SEND,
                        },
                    );
                }
            }
            FaultKind::ServerError { burst, retry_after } => {
                let secs = (retry_after.as_secs_f64().ceil() as u32).max(1);
                self.server.arm_state_errors(burst, secs);
            }
            FaultKind::DuplicateStatePost => {
                self.chaos_stats.duplicates += 1;
                self.player
                    .inject_fault(PlayerFault::DuplicateNextStatePost);
            }
            FaultKind::DelayStatePost { delay } => {
                self.player
                    .inject_fault(PlayerFault::DelayNextStatePost { delay });
            }
            FaultKind::ConnectionReset => self.do_reset(now),
        }
    }

    fn schedule_restore(&mut self, at: SimTime) {
        self.degraded_until = Some(self.degraded_until.map_or(at, |d| d.max(at)));
        self.queue.schedule(
            at,
            Event::Timer {
                owner: PeerId::Server,
                kind: CHAOS_RESTORE,
            },
        );
    }

    fn on_chaos_restore(&mut self, now: SimTime) {
        if let Some(until) = self.degraded_until {
            if now >= until {
                self.up_link.set_params(self.base_up);
                self.down_link.set_params(self.base_down);
                self.degraded_until = None;
            }
        }
    }

    /// Mid-session TCP reset: tear down the flow and reconnect on a
    /// fresh one with an abbreviated TLS resumption handshake. The
    /// eavesdropper sees an RST, a new SYN exchange and a second flow
    /// whose record stream must be stitched to the first.
    fn do_reset(&mut self, now: SimTime) {
        self.generation += 1;
        self.reconnects += 1;
        let gen = self.generation;
        let seed = self.cfg.seed;

        // The server closes the dying flow with an RST the tap can see.
        if now >= self.tap_blind_until {
            self.control_frames
                .push((now, self.flow.reversed(), 0, 0, TcpFlags::RST));
        } else {
            self.tap_frames_dropped += 1;
        }

        // Only a started player holds transport state to mourn; a reset
        // during the initial handshake just restarts the connection.
        if self.player_started {
            self.player.on_connection_lost(now);
        }

        // Fresh flow: new source port and ISNs, fresh record engines
        // over the resumed TLS session, clean parsers. Responses queued
        // on the old connection die with it (the player re-requests).
        let isn_c = derive_seed(seed, &format!("client isn r{gen}")) as u32;
        let isn_s = derive_seed(seed, &format!("server isn r{gen}")) as u32;
        let mut flow = CLIENT_FLOW;
        flow.src_port = CLIENT_FLOW.src_port + gen as u16;
        self.flow = flow;
        self.client_tcp = TcpEndpoint::new(flow, isn_c, isn_s);
        self.server_tcp = TcpEndpoint::new(flow.reversed(), isn_s, isn_c);
        // The record counts carry over to the successor engines.
        let [client_retired, server_retired] = &mut self.retired_tls;
        client_retired.merge(self.client_tls.stats());
        server_retired.merge(self.server_tls.stats());
        self.client_tls = RecordEngine::client(&self.keys);
        self.server_tls = RecordEngine::server(&self.keys);
        self.req_parser = RequestParser::new();
        self.resp_parser = ResponseParser::new();
        self.server_out.clear();

        if let Some(h) = self.trace.clone() {
            // Close the dying flow's spans and open the successor's.
            if self.hs_span != SpanId::NONE {
                h.span_end_at(now.micros(), self.hs_span, "handshake");
                self.hs_span = SpanId::NONE;
            }
            h.span_end_at(now.micros(), self.flow_span, "flow");
            self.flow_span = h.span_start_at(now.micros(), "flow", self.session_span);
            h.instant_at(
                now.micros(),
                self.flow_span,
                "flow.port",
                flow.src_port as u64,
                gen as u64,
            );
            self.client_tls.set_trace(h.clone(), self.flow_span);
            self.server_tls.set_trace(h.clone(), self.flow_span);
            self.up_link.set_trace(h.clone(), self.flow_span);
            self.down_link.set_trace(h.clone(), self.flow_span);
        }

        let hs = simulate_resumption(
            &self.cfg.profile.handshake_shape(),
            derive_seed(seed, &format!("handshake r{gen}")),
        );
        self.client_skip = hs
            .iter()
            .filter(|f| f.sender == Sender::Server)
            .map(|f| f.wire.len())
            .sum();
        self.server_skip = hs
            .iter()
            .filter(|f| f.sender == Sender::Client)
            .map(|f| f.wire.len())
            .sum();
        self.hs_flights = hs.into_iter().map(|f| (f.sender, f.wire)).collect();
        self.hs_cursor = 0;

        // New SYN exchange ~30 ms of reconnect latency, then the
        // resumption flights.
        for (dt, fl, seq, ack, flags) in [
            (8u64, flow, 0u32, 0u32, TcpFlags::SYN),
            (18, flow.reversed(), 0, 1, TcpFlags::SYN_ACK),
            (28, flow, 1, 1, TcpFlags::ACK),
        ] {
            let at = now + Duration::from_millis(dt);
            if at >= self.tap_blind_until {
                self.control_frames.push((at, fl, seq, ack, flags));
            } else {
                self.tap_frames_dropped += 1;
            }
        }
        self.queue.schedule(
            now + Duration::from_millis(35),
            Event::Timer {
                owner: PeerId::Client,
                kind: HS_FLIGHT,
            },
        );
    }

    fn arm_rto(&mut self, owner: PeerId) {
        let deadline = match owner {
            PeerId::Client => self.client_tcp.rto_deadline(),
            PeerId::Server => self.server_tcp.rto_deadline(),
        };
        if let Some(d) = deadline {
            self.queue.schedule(
                d.max(self.queue.now()),
                Event::Timer {
                    owner,
                    kind: TCP_RTO,
                },
            );
        }
    }
}

/// `RecordEngine::drain_records` into reusable plaintext buffers:
/// record `i` of this call lands in `texts[i]`, growing `texts` only
/// when a delivery yields more records than any before it. Error
/// behavior matches the allocating API — on failure the records
/// already parsed this call are discarded unprocessed.
// wm-lint: hotpath
fn drain_records_reused(
    engine: &mut RecordEngine,
    texts: &mut Vec<Vec<u8>>,
) -> Result<usize, wm_tls::TlsError> {
    let mut n = 0usize;
    loop {
        if texts.len() == n {
            // wm-lint: allow(hotpath/alloc, reason = "grow-only amortization: a new slot only when this delivery yields more records than any before")
            texts.push(Vec::new());
        }
        match engine.next_record_into(&mut texts[n]) {
            Ok(Some(_)) => n += 1,
            Ok(None) => return Ok(n),
            Err(e) => return Err(e),
        }
    }
}

/// Consume up to `skip` bytes from the front of `bytes`.
fn skip_bytes<'b>(skip: &mut usize, bytes: &'b [u8]) -> &'b [u8] {
    let take = (*skip).min(bytes.len());
    *skip -= take;
    &bytes[take..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;
    use std::sync::Arc;
    use wm_capture::flow::FlowReassembler;
    use wm_capture::records::extract_records;
    use wm_defense::Defense;
    use wm_netflix::StateEventKind;
    use wm_player::ViewerScript;
    use wm_story::bandersnatch::{bandersnatch, tiny_film};
    use wm_story::Choice;
    use wm_tls::CipherSuite;

    fn tiny_session(seed: u64, choices: &[Choice]) -> SessionOutput {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(choices, Duration::from_millis(900));
        let cfg = SessionConfig::fast(graph, seed, script);
        run_session(&cfg).expect("session must complete")
    }

    #[test]
    fn tiny_session_completes() {
        let out = tiny_session(1, &[Choice::Default, Choice::NonDefault, Choice::Default]);
        assert_eq!(out.choice_string(), "DND");
        assert!(out.stats.packets_captured > 10);
        assert!(out.stats.duration > SimTime::ZERO);
    }

    #[test]
    fn server_log_matches_truth() {
        let out = tiny_session(
            2,
            &[Choice::NonDefault, Choice::NonDefault, Choice::Default],
        );
        let t1 = out
            .server_log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type1)
            .count();
        let t2 = out
            .server_log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type2)
            .count();
        assert_eq!(t1, 3, "one type-1 per choice point");
        assert_eq!(t2, 2, "one type-2 per non-default pick");
    }

    #[test]
    fn labels_cover_state_posts() {
        let out = tiny_session(
            3,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let t1 = out
            .labels
            .iter()
            .filter(|l| l.class == RecordClass::Type1)
            .count();
        let t2 = out
            .labels
            .iter()
            .filter(|l| l.class == RecordClass::Type2)
            .count();
        let split_posts = out
            .truth
            .iter()
            .filter(|e| matches!(e, wm_player::TruthEvent::QuestionShown { .. }))
            .count();
        assert!(t1 <= split_posts);
        // Allow for rare flush splits, but the common case is exact.
        assert!(t1 + 1 >= 3, "type-1 labels {t1}");
        assert_eq!(t2, 2);
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::Default],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph, 12, script);
        let plain = run_session(&cfg).expect("plain session");
        assert!(
            plain.telemetry.counters.is_empty(),
            "disabled sessions report nothing"
        );

        cfg.telemetry = true;
        let observed = run_session(&cfg).expect("observed session");
        assert_eq!(
            plain.trace.to_pcap_bytes(),
            observed.trace.to_pcap_bytes(),
            "observation must not perturb the simulation"
        );
        assert_eq!(plain.stats.events, observed.stats.events);

        let c = &observed.telemetry.counters;
        assert_eq!(
            c["capture.frames_tapped"],
            observed.stats.packets_captured as u64
        );
        assert_eq!(c["sim.events"], observed.stats.events);
        assert!(c["net.link.up.delivered"] > 0);
        assert!(c["net.link.down.delivered"] > 0);
        assert!(c["tls.client.records_sealed"] > 0);
        assert!(c["tls.server.records_opened"] > 0);
        assert_eq!(
            c["player.requests.state_type1"], 3,
            "one type-1 per question"
        );
        assert_eq!(
            c["player.requests.state_type2"], 1,
            "one type-2 per non-default pick"
        );
        assert_eq!(
            c["netflix.state_posts.type1"], 3,
            "server agrees with player"
        );
        assert_eq!(c["player.requests.chunk"], c["netflix.chunks_served"]);

        let h = &observed.telemetry.histograms;
        for stage in [
            "sim.player_ns",
            "sim.server_ns",
            "sim.tls.seal_ns",
            "sim.tls.open_ns",
        ] {
            assert!(h[stage].count > 0, "{stage} never fired");
        }
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::Default],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph, 12, script);
        let plain = run_session(&cfg).expect("plain session");
        assert!(
            plain.trace_events.is_empty(),
            "disabled sessions emit nothing"
        );

        cfg.trace = true;
        let traced = run_session(&cfg).expect("traced session");
        assert_eq!(
            plain.trace.to_pcap_bytes(),
            traced.trace.to_pcap_bytes(),
            "tracing must not perturb the simulation"
        );
        assert_eq!(plain.stats.events, traced.stats.events);

        let counts = wm_trace::counts_by_name(&traced.trace_events);
        assert_eq!(
            counts["player.question"], 3,
            "one question instant per choice point"
        );
        assert_eq!(counts["player.state.type1"], 3);
        assert_eq!(
            counts["player.state.type2"], 1,
            "one type-2 per non-default pick"
        );
        assert_eq!(
            counts["netflix.state.hit"], 4,
            "3 type-1 + 1 type-2 server-side"
        );
        assert_eq!(counts["session"], 2, "root span start + end");
        assert_eq!(counts["flow"], 2, "one flow span on a reset-free session");
        assert_eq!(counts["handshake"], 2, "one handshake span");
        assert_eq!(counts["capture.flow.open"], 1);
        assert!(counts["tls.record.sealed"] > 0);
        assert!(counts["tls.record.opened"] > 0);

        // Causality: every event's parent span started earlier.
        let mut open = std::collections::BTreeMap::new();
        for e in &traced.trace_events {
            if e.kind == wm_trace::EventKind::SpanStart {
                open.insert(e.span, e.seq);
            }
            if e.parent != SpanId::NONE {
                assert!(
                    open.contains_key(&e.parent),
                    "event {} ({}) references unopened parent {:?}",
                    e.seq,
                    e.name,
                    e.parent
                );
            }
        }
    }

    #[test]
    fn traced_chaos_session_records_faults_and_flows() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph, 21, script);
        cfg.chaos = stress_plan();
        cfg.trace = true;
        let out = run_session(&cfg).expect("chaotic traced session");
        let counts = wm_trace::counts_by_name(&out.trace_events);
        assert_eq!(counts["chaos.tap_gap"], 1);
        assert_eq!(counts["chaos.connection_reset"], 1);
        assert_eq!(counts["chaos.server_stall"], 1);
        assert_eq!(counts["chaos.duplicate_state_post"], 1);
        assert_eq!(counts["flow"], 4, "two flow spans (start + end each)");
        assert_eq!(counts["handshake"], 4, "full + resumption handshakes");
        assert_eq!(counts["handshake.resumption"], 1);
        assert!(counts["capture.gap"] > 0, "tap-gap drops must be traced");
        assert!(
            counts["capture.flow.close"] >= 1,
            "the RST teardown must be witnessed"
        );
    }

    #[test]
    fn deterministic_replay() {
        let a = tiny_session(7, &[Choice::Default, Choice::NonDefault, Choice::Default]);
        let b = tiny_session(7, &[Choice::Default, Choice::NonDefault, Choice::Default]);
        assert_eq!(
            a.trace.to_pcap_bytes(),
            b.trace.to_pcap_bytes(),
            "byte-identical replay"
        );
        assert_eq!(a.stats.events, b.stats.events);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_session(1, &[Choice::Default; 3]);
        let b = tiny_session(2, &[Choice::Default; 3]);
        assert_ne!(a.trace.to_pcap_bytes(), b.trace.to_pcap_bytes());
    }

    #[test]
    fn capture_reassembles_and_extracts_records() {
        let out = tiny_session(4, &[Choice::NonDefault, Choice::Default, Choice::Default]);
        let flows = FlowReassembler::reassemble(&out.trace);
        assert_eq!(flows.len(), 1);
        let up = extract_records(&flows[0].upstream);
        assert!(up.stats.records > 5, "client records: {}", up.stats.records);
        // The type-1 band must be visible in the extracted lengths.
        let t1_band = up
            .records
            .iter()
            .filter(|r| (2200..=2213).contains(&r.record.length))
            .count();
        assert_eq!(
            t1_band, 3,
            "three type-1 posts in the (tiny-film-widened) band"
        );
        let t2_band = up
            .records
            .iter()
            .filter(|r| (2960..=3017).contains(&r.record.length))
            .count();
        assert_eq!(
            t2_band, 1,
            "one type-2 post in the (tiny-film-widened) band"
        );
    }

    #[test]
    fn cbc_suite_sessions_work() {
        let graph = Arc::new(tiny_film());
        let script =
            ViewerScript::from_choices(&[Choice::NonDefault; 3], Duration::from_millis(900));
        let mut cfg = SessionConfig::fast(graph, 5, script);
        cfg.suite = CipherSuite::Cbc;
        let out = run_session(&cfg).expect("cbc session");
        assert_eq!(out.choice_string(), "NNN");
        // CBC quantizes: type-1 lengths are block multiples (+IV).
        for l in out.labels.iter().filter(|l| l.class == RecordClass::Type1) {
            assert_eq!((l.length as usize - 16) % 16, 0, "CBC length {}", l.length);
        }
    }

    #[test]
    fn defenses_run_end_to_end() {
        for defense in [
            Defense::Split { max: 700 },
            Defense::Compress,
            Defense::PadToConstant { size: 4096 },
        ] {
            let graph = Arc::new(tiny_film());
            let script = ViewerScript::from_choices(
                &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
                Duration::from_millis(900),
            );
            let mut cfg = SessionConfig::fast(graph, 6, script);
            cfg.defense = defense;
            let out = run_session(&cfg).unwrap_or_else(|e| panic!("{}: {e}", defense.label()));
            assert_eq!(out.choice_string(), "NDN", "{}", defense.label());
            // The server still understood every state report.
            let t1 = out
                .server_log
                .iter()
                .filter(|e| e.kind == StateEventKind::Type1)
                .count();
            assert_eq!(t1, 3, "{}", defense.label());
        }
    }

    #[test]
    fn padded_posts_have_constant_length() {
        let graph = Arc::new(tiny_film());
        let script =
            ViewerScript::from_choices(&[Choice::NonDefault; 3], Duration::from_millis(900));
        let mut cfg = SessionConfig::fast(graph, 8, script);
        cfg.defense = Defense::PadToConstant { size: 4096 };
        let out = run_session(&cfg).unwrap();
        let state_lens: Vec<u16> = out
            .labels
            .iter()
            .filter(|l| l.class != RecordClass::Other)
            .map(|l| l.length)
            .collect();
        assert!(!state_lens.is_empty());
        assert!(
            state_lens.iter().all(|&l| l == state_lens[0]),
            "padded lengths must be constant: {state_lens:?}"
        );
    }

    #[test]
    fn pad_with_dummies_equalizes_post_pattern() {
        let graph = Arc::new(tiny_film());
        // One default, two non-default picks.
        let script = ViewerScript::from_choices(
            &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph, 31, script);
        cfg.defense = Defense::PadWithDummies { size: 4096 };
        let out = run_session(&cfg).unwrap();
        assert_eq!(out.choice_string(), "DNN");
        // Count padded posts in the capture: every question must have
        // exactly two (type-1 + either the real type-2 or a dummy).
        let flows = FlowReassembler::reassemble(&out.trace);
        let up = extract_records(&flows[0].upstream);
        let padded = up
            .records
            .iter()
            .filter(|r| r.record.length == 4096 + 16)
            .count();
        assert_eq!(padded, 6, "3 questions × 2 posts each");
    }

    #[test]
    fn full_film_fast_session() {
        let graph = Arc::new(bandersnatch());
        // Seed 10 samples a deep path (14 decisions); some seeds hit an
        // early ending after 4 and leave too little traffic for the
        // volume assertions below.
        let script = ViewerScript::sample(10, 14, 0.5);
        let expected: Vec<Choice> = script.choices();
        let mut cfg = SessionConfig::fast(graph, 10, script);
        cfg.player.time_scale = 40;
        let out = run_session(&cfg).expect("bandersnatch session");
        assert!(out.decisions.len() >= 3);
        for (i, (_, c)) in out.decisions.iter().enumerate() {
            assert_eq!(*c, expected[i], "decision {i}");
        }
        // Trace sanity: plenty of traffic in both directions.
        assert!(out.stats.packets_captured > 200);
        assert!(out.stats.client_tcp.bytes_sent > 10_000);
        assert!(out.stats.server_tcp.bytes_sent > 100_000);
    }

    fn stress_plan() -> wm_chaos::FaultPlan {
        let mut plan = wm_chaos::FaultPlan::none();
        plan.push(
            SimTime(200_000),
            FaultKind::TapGap {
                duration: Duration::from_millis(120),
            },
        )
        .push(SimTime(400_000), FaultKind::ConnectionReset)
        .push(
            SimTime(700_000),
            FaultKind::ServerStall {
                stall: Duration::from_millis(80),
            },
        )
        .push(SimTime(750_000), FaultKind::DuplicateStatePost);
        plan
    }

    #[test]
    fn chaotic_session_completes_with_correct_truth() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph, 21, script);
        cfg.chaos = stress_plan();
        let out = run_session(&cfg).expect("chaotic session completes");
        assert_eq!(
            out.choice_string(),
            "NDN",
            "faults must not change the walk"
        );
        assert_eq!(out.stats.faults_applied, 4);
        assert_eq!(out.stats.reconnects, 1);
        assert!(out.stats.tap_frames_dropped > 0, "tap gap must hide frames");
        // Idempotent state handling: the duplicated post is logged once.
        let t1 = out
            .server_log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type1)
            .count();
        assert_eq!(t1, 3, "duplicates must not double-log");
    }

    #[test]
    fn chaotic_session_replays_byte_identically() {
        let run = || {
            let graph = Arc::new(tiny_film());
            let script = ViewerScript::from_choices(
                &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
                Duration::from_millis(900),
            );
            let mut cfg = SessionConfig::fast(graph, 21, script);
            cfg.chaos = stress_plan();
            run_session(&cfg).expect("chaotic session")
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace.to_pcap_bytes(), b.trace.to_pcap_bytes());
        assert_eq!(a.stats.events, b.stats.events);
    }

    #[test]
    fn chaos_telemetry_surfaces_in_snapshot() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph, 21, script);
        cfg.chaos = stress_plan();
        cfg.telemetry = true;
        let out = run_session(&cfg).expect("chaotic session");
        let c = &out.telemetry.counters;
        assert_eq!(c["chaos.faults_injected"], out.stats.faults_applied);
        assert_eq!(c["chaos.reconnects"], out.stats.reconnects);
        assert_eq!(c["chaos.tap_frames_dropped"], out.stats.tap_frames_dropped);
        assert_eq!(c["chaos.duplicate_posts_injected"], 1);
        assert_eq!(c["player.duplicate_posts"], 1);
        assert!(
            c["player.rebuffers"] >= 1,
            "the reset must register a rebuffer"
        );
        assert!(
            c["player.retries"] >= 1,
            "reconnect replay counts as retries"
        );
    }

    #[test]
    fn empty_plan_is_inert() {
        // A config with an explicit empty plan replays identically to
        // the default config: the chaos machinery must be invisible.
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::Default, Choice::NonDefault, Choice::Default],
            Duration::from_millis(900),
        );
        let base = SessionConfig::fast(graph.clone(), 7, script.clone());
        let mut explicit = SessionConfig::fast(graph, 7, script);
        explicit.chaos = wm_chaos::FaultPlan::none();
        let a = run_session(&base).unwrap();
        let b = run_session(&explicit).unwrap();
        assert_eq!(a.trace.to_pcap_bytes(), b.trace.to_pcap_bytes());
        assert_eq!(a.stats.faults_applied, 0);
        assert_eq!(a.stats.reconnects, 0);
    }

    #[test]
    fn reset_produces_second_flow_with_resumption() {
        let graph = Arc::new(tiny_film());
        let script =
            ViewerScript::from_choices(&[Choice::NonDefault; 3], Duration::from_millis(900));
        let mut cfg = SessionConfig::fast(graph, 33, script);
        let mut plan = wm_chaos::FaultPlan::none();
        plan.push(SimTime(500_000), FaultKind::ConnectionReset);
        cfg.chaos = plan;
        let out = run_session(&cfg).expect("reset session completes");
        assert_eq!(out.choice_string(), "NNN");
        let flows = FlowReassembler::reassemble(&out.trace);
        assert_eq!(flows.len(), 2, "the eavesdropper sees two flows");
        // Every state report still lands exactly once server-side.
        let t1 = out
            .server_log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type1)
            .count();
        assert_eq!(t1, 3);
    }

    #[test]
    fn blackout_is_survived_by_retransmission() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(&[Choice::Default; 3], Duration::from_millis(900));
        let mut cfg = SessionConfig::fast(graph, 40, script);
        let mut plan = wm_chaos::FaultPlan::none();
        plan.push(
            SimTime(600_000),
            FaultKind::Blackout {
                duration: Duration::from_millis(150),
            },
        );
        cfg.chaos = plan;
        let out = run_session(&cfg).expect("blackout session completes");
        assert_eq!(out.choice_string(), "DDD");
        let rtx = out.stats.client_tcp.retransmissions + out.stats.server_tcp.retransmissions;
        assert!(rtx > 0, "a blackout must force retransmissions");
    }

    #[test]
    fn generated_plans_never_panic_the_pipeline() {
        // Arbitrary valid plans either complete or fail with a typed
        // error — never a panic; the lossy runner always yields the
        // partial capture.
        for seed in 0..6u64 {
            let graph = Arc::new(tiny_film());
            let script =
                ViewerScript::from_choices(&[Choice::NonDefault; 3], Duration::from_millis(900));
            let mut cfg = SessionConfig::fast(graph, seed, script);
            cfg.chaos = wm_chaos::FaultPlan::generate(seed, 2.0, Duration::from_secs(4));
            let (out, err) = run_session_lossy(&cfg);
            if let Some(e) = err {
                // Typed and displayable; the partial trace survives.
                let _ = format!("{e}");
            } else {
                assert_eq!(out.choice_string(), "NNN");
            }
        }
    }

    #[test]
    fn lossy_wireless_night_session_completes() {
        let graph = Arc::new(tiny_film());
        let script =
            ViewerScript::from_choices(&[Choice::NonDefault; 3], Duration::from_millis(900));
        // Seed 19 is a run where the lossy link demonstrably forces
        // retransmissions; tiny_film sessions are short enough that
        // some seeds sail through without a single drop.
        let mut cfg = SessionConfig::fast(graph, 19, script);
        cfg.conditions = wm_net::conditions::LinkConditions::new(
            wm_net::conditions::ConnectionType::Wireless,
            wm_net::conditions::TimeOfDay::Night,
        );
        let out = run_session(&cfg).expect("lossy session");
        assert_eq!(out.choice_string(), "NNN");
        // Loss should have forced at least some retransmission over the
        // whole session (probabilistic but overwhelmingly likely given
        // thousands of packets at ~1% loss).
        let rtx = out.stats.client_tcp.retransmissions + out.stats.server_tcp.retransmissions;
        assert!(rtx > 0, "expected retransmissions on a lossy link");
    }
}
