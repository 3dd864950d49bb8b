//! The batch workloads: whole victim sessions as `wm-pool` tasks.
//!
//! * `paper_e2e` simulates each viewer of a seeded dataset over the
//!   72-cell grid, attacks the capture offline with the attack trained
//!   for its condition, and scores the decode against ground truth.
//! * `attack_replay` decodes captures simulated during set-up with
//!   both attacker front ends, offline `decode_trace` and online
//!   `replay_session`, which must agree choice for choice.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use wm_capture::Trace;
use wm_core::{AttackTelemetry, DecodedSession, WhiteMirror, WhiteMirrorConfig};
use wm_dataset::{OperationalConditions, ViewerSpec};
use wm_online::{replay_session, CapturedPacket, OnlineConfig};
use wm_telemetry::Registry;

use crate::alloc::set_counting;
use crate::inputs::{
    cell, correct_choices, dataset, gate, online_packets, peak_rss_mib, reset_peak_rss, simulate,
    timed_setup, train, Capture, Ctx, CHANCE, PAPER_WORST_CASE,
};
use crate::report::{Outcome, FLEET_LAYER};
use crate::stats::{median, tail};
use crate::trace::Recorder;

/// Viewers generated for `paper_e2e`: more than a run can simulate.
const E2E_VIEWERS: usize = 8192;
/// Sessions in one traced `paper_e2e` pass.
const E2E_TRACED: usize = 64;
/// Captures simulated for `attack_replay`, spread over conditions taken
/// evenly across the grid (training costs a few sessions per condition).
/// Session cost varies widely, so throughput follows the mean cost of
/// the seed's captures: at 128 it moved by a quarter between seeds.
const REPLAY_CAPTURES: usize = 384;
const REPLAY_CONDITIONS: usize = 16;
/// Tasks handed to the pool at once; tasks past the deadline return
/// at once. Each chunk's last tasks leave a worker idle for about half
/// a session, and each full chunk gives one `push_tail_us` sample.
const CHUNK: usize = 128;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One victim session's result.
#[derive(Default)]
struct Session {
    ok: bool,
    correct: u64,
    truth: u64,
    micros: f64,
    packets: u64,
    bytes: u64,
    /// Client application records the offline attack extracted.
    records: u64,
    /// Records the online decoder ingested (both directions).
    online_records: u64,
    /// `sim.player_ns`, `sim.server_ns`, `sim.tls.seal_ns`,
    /// `sim.tls.open_ns` sums from the session's own telemetry.
    sim_ns: [u64; 4],
    rec: Option<Recorder>,
}

const SIM_HISTOGRAMS: [&str; 4] = [
    "sim.player_ns",
    "sim.server_ns",
    "sim.tls.seal_ns",
    "sim.tls.open_ns",
];

fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    LANE.with(|l| *l)
}

/// Run `f` over task indices 0, 1, … on the pool, a chunk at a time,
/// until `seconds` have passed; returns each chunk's finished results
/// and the wall time, which includes the tasks still running at the
/// deadline.
fn run_window<T: Send>(
    ctx: &Ctx,
    seconds: u64,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<Vec<T>>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut chunks = Vec::new();
    let mut base = 0;
    while Instant::now() < deadline {
        let chunk = wm_pool::run_indexed(CHUNK, ctx.workers, |i| {
            (Instant::now() < deadline).then(|| f(base + i))
        });
        chunks.push(chunk.into_iter().flatten().collect());
        base += CHUNK;
    }
    (chunks, start.elapsed().as_secs_f64())
}

/// Time `f` as a span when tracing.
fn span<T>(
    rec: &mut Option<Recorder>,
    name: &'static str,
    victim: u32,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.time(name, victim, parent, f),
        None => f(),
    }
}

/// Offline decode. Traced, the call runs on a copy of the attack with
/// its own telemetry, whose `core.decode_ns` timer splits the span into
/// feature extraction (`client_app_records`, first) and the decode.
fn decode_offline(
    rec: &mut Option<Recorder>,
    attack: &WhiteMirror,
    cfg: &WhiteMirrorConfig,
    trace: &Trace,
    ctx: &Ctx,
    victim: u32,
    parent: Option<usize>,
) -> DecodedSession {
    let Some(r) = rec else {
        return attack.decode_trace(trace, &ctx.graph);
    };
    let registry = Registry::new();
    let mut timed = WhiteMirror::from_classifier(attack.classifier().clone(), cfg.clone());
    timed.set_telemetry(AttackTelemetry::register(&registry));
    let id = r.begin("core.decode_trace", victim, parent);
    let decoded = timed.decode_trace(trace, &ctx.graph);
    r.end(id);
    let decode_ns = registry
        .snapshot()
        .histograms
        .get("core.decode_ns")
        .map_or(0, |h| h.sum);
    let features_ns = r.spans[id].nanos().saturating_sub(decode_ns);
    r.split_head(id, "capture.features", features_ns);
    decoded
}

fn e2e_session(
    ctx: &Ctx,
    grid: &[OperationalConditions],
    attacks: &[WhiteMirror],
    viewer: &ViewerSpec,
    origin: Option<Instant>,
) -> Session {
    let t0 = Instant::now();
    let mut rec = origin.map(|o| Recorder::new(o, lane()));
    let task = rec.as_mut().map(|r| r.begin("pool.task", viewer.id, None));
    let cfg = wm_bench::viewer_cfg(&ctx.graph, viewer);
    let out = span(&mut rec, "sim.run_session", viewer.id, task, || {
        wm_sim::run_session(&cfg)
    });
    let mut s = Session::default();
    if let Ok(out) = out {
        let attack = &attacks[cell(grid, viewer)];
        let cfg = WhiteMirrorConfig::scaled(wm_bench::TIME_SCALE);
        let decoded = decode_offline(&mut rec, attack, &cfg, &out.trace, ctx, viewer.id, task);
        span(&mut rec, "check.score", viewer.id, task, || {
            s.correct = correct_choices(&decoded.choices, &out.decisions);
            s.truth = out.decisions.len() as u64;
            // A session with no decision cannot be scored.
            s.ok = s.truth > 0;
        });
        if rec.is_some() {
            s.packets = out.trace.packets.len() as u64;
            s.bytes = out.trace.packets.iter().map(|p| p.frame.len() as u64).sum();
            s.records = decoded.features.records.len() as u64;
            for (slot, name) in s.sim_ns.iter_mut().zip(SIM_HISTOGRAMS) {
                *slot = out.telemetry.histograms.get(name).map_or(0, |h| h.sum);
            }
        }
    }
    if let (Some(r), Some(task)) = (rec.as_mut(), task) {
        r.end(task);
    }
    s.rec = rec;
    s.micros = t0.elapsed().as_secs_f64() * 1e6;
    s
}

/// The offline attack configured as the online decoder walks: greedy,
/// one hypothesis (E4's paper attack tracks a beam of eight).
fn greedy() -> WhiteMirrorConfig {
    WhiteMirrorConfig {
        beam_width: 1,
        ..WhiteMirrorConfig::scaled(wm_bench::TIME_SCALE)
    }
}

/// A capture held for `attack_replay`, in both front ends' input forms.
struct Held {
    capture: Capture,
    packets: Vec<CapturedPacket>,
    attack: usize,
}

fn same_choices(offline: &[wm_core::DecodedChoice], online: &[wm_online::OnlineVerdict]) -> bool {
    offline
        .iter()
        .map(|d| (d.cp, d.choice))
        .eq(online.iter().map(|v| (v.choice.cp, v.choice.choice)))
}

fn replay_capture(
    ctx: &Ctx,
    attacks: &[WhiteMirror],
    online: &OnlineConfig,
    held: &Held,
    victim: u32,
    origin: Option<Instant>,
) -> Session {
    let t0 = Instant::now();
    let mut rec = origin.map(|o| Recorder::new(o, lane()));
    let task = rec.as_mut().map(|r| r.begin("pool.task", victim, None));
    let attack = &attacks[held.attack];
    let offline = decode_offline(
        &mut rec,
        attack,
        &greedy(),
        &held.capture.trace,
        ctx,
        victim,
        task,
    );
    let streamed = span(&mut rec, "online.replay_session", victim, task, || {
        replay_session(attack.classifier(), &ctx.graph, online, &held.packets)
    });
    let mut s = Session::default();
    span(&mut rec, "check.compare", victim, task, || {
        // The front ends agree on clean captures. Across a reassembly
        // gap they may not: there the online decoder must report a
        // loss window instead.
        let agree = if offline.features.stats.gaps == 0 {
            same_choices(&offline.choices, &streamed.verdicts)
        } else {
            !streamed.loss_windows.is_empty()
        };
        s.ok = agree && !held.capture.truth.is_empty();
        s.correct = correct_choices(&offline.choices, &held.capture.truth);
        s.truth = held.capture.truth.len() as u64;
    });
    if let (Some(r), Some(task)) = (rec.as_mut(), task) {
        r.end(task);
        s.packets = held.packets.len() as u64;
        s.records = offline.features.records.len() as u64;
        s.online_records = streamed.stats.records;
    }
    s.rec = rec;
    s.micros = t0.elapsed().as_secs_f64() * 1e6;
    s
}

/// Fold untraced sessions into the end-to-end outcome. The tail is
/// taken per chunk of sessions, and the median over chunks reported; a
/// run too short to fill half a chunk takes it over all sessions.
fn end_to_end(out: &mut Outcome, chunks: &[Vec<Session>], wall_s: f64, setup_s: f64, floor: f64) {
    let (mut correct, mut truth, mut sessions) = (0, 0, 0);
    for s in chunks.iter().flatten() {
        out.tally(s.ok);
        correct += s.correct;
        truth += s.truth;
        sessions += 1;
    }
    let accuracy = correct as f64 / truth.max(1) as f64;
    let micros = |c: &[Session]| c.iter().map(|s| s.micros).collect::<Vec<f64>>();
    let mut tails: Vec<f64> = chunks
        .iter()
        .filter(|c| c.len() >= CHUNK / 2)
        .filter_map(|c| tail(&micros(c)))
        .map(|(t, _)| t)
        .collect();
    if tails.is_empty() {
        tails.extend(
            tail(&chunks.iter().flat_map(|c| micros(c)).collect::<Vec<f64>>()).map(|(t, _)| t),
        );
    }
    let tail_us = median(&tails).unwrap_or(0.0);
    eprintln!(
        "{sessions} sessions in {wall_s:.2} s; session tail {tail_us:.0} us, median over {} chunks",
        tails.len()
    );
    out.set("sessions_per_s", sessions as f64 / wall_s);
    out.set("setup_s", setup_s);
    out.set("push_tail_us", tail_us);
    out.set("choice_accuracy", accuracy);
    out.set("peak_rss_mib", peak_rss_mib());
    gate(out, accuracy, floor);
}

/// One traced pass: its per-layer metrics, its spans, and whether
/// every check passed.
pub type TracedPass = (Vec<(&'static str, f64)>, Recorder, bool);

/// Per-layer metrics of one traced pass over a fixed set of sessions.
fn per_layer(sessions: Vec<Session>, wall_ns: u64, untraced_s: f64, workers: usize) -> TracedPass {
    let mut rec = Recorder::new(Instant::now(), 0);
    let n = sessions.len().max(1) as f64;
    let mut ok = true;
    let (mut packets, mut bytes, mut records, mut online_records) = (0u64, 0u64, 0u64, 0u64);
    let mut sim_ns = [0u64; 4];
    for mut s in sessions {
        ok &= s.ok;
        packets += s.packets;
        bytes += s.bytes;
        records += s.records;
        online_records += s.online_records;
        for (acc, v) in sim_ns.iter_mut().zip(s.sim_ns) {
            *acc += v;
        }
        if let Some(r) = s.rec.take() {
            rec.absorb(r);
        }
    }
    let sim_total = rec.total("sim.run_session").max(1) as f64;
    let share = |ns: u64| ns as f64 / sim_total;
    let per = |count: u64, base: u64| count as f64 / base.max(1) as f64;
    let features: Vec<f64> = rec.millis("capture.features", "");
    let decode: Vec<f64> = rec
        .named("core.decode_trace")
        .zip(rec.named("capture.features"))
        .map(|(d, f)| (d.nanos() - f.nanos()) as f64 / 1e6)
        .collect();
    let traced_s = wall_ns as f64 / 1e9;
    let mut m = vec![
        (
            "pool.busy_share",
            rec.total("pool.task") as f64 / (wall_ns as f64 * workers as f64),
        ),
        ("capture.features_ms", median(&features).unwrap_or(0.0)),
        ("core.decode_ms", median(&decode).unwrap_or(0.0)),
        ("capture.records_per_session", records as f64 / n),
        ("trace.overhead_ms", (traced_s - untraced_s) * 1e3),
        ("trace.overhead_share", (traced_s - untraced_s) / untraced_s),
        ("trace.spans", rec.spans.len() as f64),
        (
            "alloc.core_per_record",
            per(rec.allocs("core.decode_trace"), records),
        ),
    ];
    if rec.named("sim.run_session").next().is_some() {
        let attributed: u64 = sim_ns.iter().sum();
        m.extend([
            (
                "sim.session_ms",
                median(&rec.millis("sim.run_session", "")).unwrap_or(0.0),
            ),
            ("sim.player_share", share(sim_ns[0])),
            ("sim.server_share", share(sim_ns[1])),
            ("sim.tls_seal_share", share(sim_ns[2])),
            ("sim.tls_open_share", share(sim_ns[3])),
            ("sim.unattributed_share", 1.0 - share(attributed)),
            ("sim.packets_per_session", packets as f64 / n),
            ("sim.bytes_per_session", bytes as f64 / n),
            (
                "alloc.sim_per_packet",
                per(rec.allocs("sim.run_session"), packets),
            ),
        ]);
    }
    if rec.named("online.replay_session").next().is_some() {
        m.extend([
            (
                "online.replay_ms",
                median(&rec.millis("online.replay_session", "")).unwrap_or(0.0),
            ),
            (
                "alloc.online_per_record",
                per(rec.allocs("online.replay_session"), online_records),
            ),
        ]);
    }
    let (rows, rest) = rec.ledger(wall_ns, workers as u64).shares();
    // No batch workload calls the fleet: its row is a fleet metric.
    m.extend(
        rows.into_iter()
            .filter(|(name, _)| !FLEET_LAYER.iter().any(|(n, _)| n == name)),
    );
    m.push(("ledger.unattributed_share", rest));
    (m, rec, ok)
}

/// Repeat (untraced pass, traced pass) pairs over the same fixed work
/// until `seconds` have passed, at least once. Each metric is the
/// median over the repeats; the last traced pass's spans are kept.
pub fn traced_repeats(
    seconds: u64,
    mut untraced: impl FnMut() -> f64,
    mut traced: impl FnMut(f64) -> TracedPass,
) -> (Outcome, Recorder) {
    // A first pass warms caches and the allocator; it is not measured.
    untraced();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut reps: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut last = None;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    while last.is_none() || Instant::now() < deadline {
        let untraced_s = untraced();
        set_counting(true);
        let (metrics, rec, ok) = traced(untraced_s);
        set_counting(false);
        out.tally(ok);
        out.correct &= ok;
        reps.push(metrics);
        last = Some(rec);
    }
    for (name, _) in &reps[0] {
        let values: Vec<f64> = reps
            .iter()
            .filter_map(|rep| rep.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        out.set(
            name,
            median(&values).expect("every repeat reports every metric"),
        );
    }
    eprintln!("{} traced repeats", reps.len());
    (out, last.expect("at least one repeat"))
}

pub fn paper_e2e(
    ctx: &Ctx,
    seconds: u64,
    traced: bool,
) -> Result<(Outcome, Option<Recorder>), String> {
    let grid = OperationalConditions::grid();
    let viewers = dataset(ctx, "paper_e2e", E2E_VIEWERS);
    if !traced {
        let (attacks, setup_s) = timed_setup(SETUP_REPEATS, || train(ctx, &grid));
        reset_peak_rss();
        let (chunks, wall_s) = run_window(ctx, seconds, |i| {
            e2e_session(ctx, &grid, &attacks, &viewers[i % viewers.len()], None)
        });
        let mut out = Outcome::default();
        end_to_end(&mut out, &chunks, wall_s, setup_s, PAPER_WORST_CASE);
        return Ok((out, None));
    }
    let attacks = train(ctx, &grid);
    let pass = |origin: Option<Instant>| {
        let t = Instant::now();
        let sessions = wm_pool::run_indexed(E2E_TRACED, ctx.workers, |i| {
            e2e_session(ctx, &grid, &attacks, &viewers[i], origin)
        });
        (sessions, t.elapsed())
    };
    let (out, rec) = traced_repeats(
        seconds,
        || pass(None).1.as_secs_f64(),
        |untraced_s| {
            let (sessions, wall) = pass(Some(Instant::now()));
            per_layer(sessions, wall.as_nanos() as u64, untraced_s, ctx.workers)
        },
    );
    Ok((out, Some(rec)))
}

pub fn attack_replay(
    ctx: &Ctx,
    seconds: u64,
    traced: bool,
) -> Result<(Outcome, Option<Recorder>), String> {
    let grid = OperationalConditions::grid();
    let conditions: Vec<OperationalConditions> = (0..REPLAY_CONDITIONS)
        .map(|c| grid[c * grid.len() / REPLAY_CONDITIONS])
        .collect();
    let mut viewers = dataset(ctx, "attack_replay", REPLAY_CAPTURES);
    for (i, v) in viewers.iter_mut().enumerate() {
        v.operational = conditions[i % REPLAY_CONDITIONS];
    }
    let setup = || -> Result<(Vec<WhiteMirror>, Vec<Held>), String> {
        let attacks: Vec<WhiteMirror> = train(ctx, &conditions)
            .iter()
            .map(|a| WhiteMirror::from_classifier(a.classifier().clone(), greedy()))
            .collect();
        let held = simulate(ctx, &viewers)?
            .into_iter()
            .enumerate()
            .map(|(i, capture)| Held {
                packets: online_packets(&capture.trace, 0),
                capture,
                attack: i % REPLAY_CONDITIONS,
            })
            .collect();
        Ok((attacks, held))
    };
    let online = OnlineConfig::scaled(wm_bench::TIME_SCALE);
    if !traced {
        let (made, setup_s) = timed_setup(SETUP_REPEATS, setup);
        let (attacks, held) = made?;
        reset_peak_rss();
        let (chunks, wall_s) = run_window(ctx, seconds, |i| {
            let k = i % held.len();
            replay_capture(ctx, &attacks, &online, &held[k], k as u32, None)
        });
        let mut out = Outcome::default();
        end_to_end(&mut out, &chunks, wall_s, setup_s, CHANCE);
        return Ok((out, None));
    }
    let (attacks, held) = setup()?;
    let pass = |origin: Option<Instant>| {
        let t = Instant::now();
        let sessions = wm_pool::run_indexed(held.len(), ctx.workers, |k| {
            replay_capture(ctx, &attacks, &online, &held[k], k as u32, origin)
        });
        (sessions, t.elapsed())
    };
    let (out, rec) = traced_repeats(
        seconds,
        || pass(None).1.as_secs_f64(),
        |untraced_s| {
            let (sessions, wall) = pass(Some(Instant::now()));
            per_layer(sessions, wall.as_nanos() as u64, untraced_s, ctx.workers)
        },
    );
    Ok((out, Some(rec)))
}
