//! The fleet workloads: one merged, time-ordered stream of staggered,
//! overlapping victims fed to a `Fleet` by a single feeder thread in a
//! closed loop (push one packet, drain the verdicts, push the next).
//!
//! * `fleet_replay`: an in-process fleet, fault-free, whose merged
//!   verdicts must equal each victim's own `replay_session` output.
//! * `fleet_process_chaos`: process-backed shards under a resize
//!   schedule that shrinks to one shard and grows back, and an
//!   intensity-2 fault plan (kills, real SIGKILLs, corrupt and torn
//!   blobs). Every verdict lost must sit inside a reported window, none
//!   may repeat, and at least one victim must migrate.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wm_capture::time::{Duration as SimDuration, SimTime};
use wm_chaos::ShardFaultPlan;
use wm_core::IntervalClassifier;
use wm_dataset::OperationalConditions;
use wm_fleet::{
    merge_taps, victim_key, Fleet, FleetConfig, FleetReport, FleetStats, HashRing, ObserverConfig,
    ProcessShard, Request, ResizeSchedule, ShardBackend, ShardState, TapPacket, VerdictDedup,
};
use wm_online::{replay_session, CapturedPacket, OnlineVerdict};
use wm_story::{Choice, ChoicePointId};

use crate::alloc::thread_allocations;
use crate::batch::{traced_repeats, TracedPass, SETUP_REPEATS};
use crate::inputs::{
    correct_verdicts, dataset, gate, mix, online_packets, peak_rss_mib, reset_peak_rss, simulate,
    timed_setup, train, Ctx, CHANCE,
};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::Recorder;

/// Victim starts are staggered this far apart in sim-time (as E12).
const STAGGER_US: u64 = 250_000;

/// Which fleet workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Replay,
    ProcessChaos,
}

impl Kind {
    /// Victims in the stream, each its own simulated session: session
    /// lengths vary widely with the viewer's path, so fewer sessions
    /// would make the throughput depend on the seed.
    fn victims(self) -> usize {
        match self {
            Kind::Replay => 96,
            Kind::ProcessChaos => 48,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Replay => "fleet_replay",
            Kind::ProcessChaos => "fleet_process_chaos",
        }
    }
}

/// Everything the timed phase feeds and checks against.
struct Inputs {
    classifier: IntervalClassifier,
    stream: Vec<TapPacket>,
    /// Per victim, unshifted, as the online attacker reads it: the raw
    /// decode base of the traced run (empty untraced).
    sessions: Vec<Vec<CapturedPacket>>,
    /// Per victim: ground truth and the victim's own replay.
    truth: Vec<Vec<(ChoicePointId, Choice)>>,
    expected: Vec<Vec<OnlineVerdict>>,
    span_us: u64,
}

impl Inputs {
    fn victims(&self) -> usize {
        self.truth.len()
    }
}

fn setup(ctx: &Ctx, kind: Kind, traced: bool) -> Result<Inputs, String> {
    let victims = kind.victims();
    // One condition for the whole fleet: it runs one classifier.
    let cond = OperationalConditions::grid()[0];
    let classifier = train(ctx, &[cond])
        .pop()
        .expect("one attack per condition")
        .classifier()
        .clone();
    let mut viewers = dataset(ctx, kind.name(), victims);
    for v in &mut viewers {
        v.operational = cond;
    }
    let captures = simulate(ctx, &viewers)?;
    let online = wm_online::OnlineConfig::scaled(wm_bench::TIME_SCALE);
    let expected = wm_pool::run_indexed(victims, ctx.workers, |v| {
        let packets = online_packets(&captures[v].trace, v as u64 * STAGGER_US);
        replay_session(&classifier, &ctx.graph, &online, &packets).verdicts
    });
    let taps: Vec<Vec<TapPacket>> = (0..victims)
        .map(|v| {
            let offset = v as u64 * STAGGER_US;
            captures[v]
                .trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros() + offset), v as u32, p.frame.clone()))
                .collect()
        })
        .collect();
    let stream = merge_taps(&taps);
    drop(taps);
    let span_us = stream.last().map_or(1, |(t, _, _)| t.micros().max(1));
    Ok(Inputs {
        classifier,
        stream,
        sessions: match traced {
            true => captures
                .iter()
                .map(|c| online_packets(&c.trace, 0))
                .collect(),
            false => Vec::new(),
        },
        truth: captures.into_iter().map(|c| c.truth).collect(),
        expected,
        span_us,
    })
}

/// Shards: one per core; the resized fleet needs two to shrink from.
fn shards(ctx: &Ctx, kind: Kind) -> usize {
    match kind {
        Kind::Replay => ctx.workers,
        Kind::ProcessChaos => ctx.workers.max(2),
    }
}

fn worker_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("shard_worker");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("no shard worker at {}", path.display()))
    }
}

fn config(ctx: &Ctx, kind: Kind, inputs: &Inputs) -> Result<FleetConfig, String> {
    let mut cfg = FleetConfig::scaled(shards(ctx, kind), wm_bench::TIME_SCALE);
    // Every victim stays resident to the end, so a fault-free fleet
    // decodes exactly what each victim's own replay decodes.
    cfg.victim_idle = SimDuration::from_micros(inputs.span_us);
    cfg.max_victims_per_shard = inputs.victims();
    if kind != Kind::Replay {
        cfg.backend = ShardBackend::Process {
            worker: Some(worker_path()?),
        };
    }
    Ok(cfg)
}

/// What happens to the fleet while the stream runs.
#[derive(Default)]
struct Scenario {
    plan: Option<ShardFaultPlan>,
    schedule: Option<ResizeSchedule>,
}

/// The chaos fleet resizes to one shard and back under an intensity-2
/// fault plan with process aborts.
fn scenario(ctx: &Ctx, kind: Kind, cfg: &FleetConfig, inputs: &Inputs) -> Scenario {
    let span = inputs.span_us;
    let schedule = ResizeSchedule::new(vec![
        (SimTime(span / 3), 1),
        (SimTime(span * 2 / 3), cfg.shards),
    ])
    .expect("two sorted steps inside the stream");
    match kind {
        Kind::Replay => Scenario::default(),
        Kind::ProcessChaos => Scenario {
            plan: Some(ShardFaultPlan::generate_with_aborts(
                mix(ctx.seed, 0xC4A05),
                2.0,
                cfg.shards,
                SimDuration::from_micros(span),
            )),
            schedule: Some(schedule),
        },
    }
}

/// One pass of the stream through a fresh fleet.
struct Pass {
    wall_s: f64,
    push_ns: Vec<u64>,
    /// Per victim: every delivered verdict.
    got: Vec<Vec<OnlineVerdict>>,
    report: FleetReport,
}

/// What a `Fleet::push` did, read off the counters it advanced.
fn push_label(before: &FleetStats, after: &FleetStats) -> &'static str {
    if after.resizes > before.resizes {
        "resize"
    } else if after.process_respawns > before.process_respawns {
        "respawn"
    } else if after.restarts > before.restarts || after.kills > before.kills {
        "recovery"
    } else if after.checkpoints > before.checkpoints {
        "tick"
    } else {
        "plain"
    }
}

fn run_pass(
    cfg: &FleetConfig,
    ctx: &Ctx,
    inputs: &Inputs,
    scenario: &Scenario,
    observer: bool,
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let start = Instant::now();
    let new = rec.as_mut().map(|r| r.begin("fleet.new", 0, None));
    let mut fleet = Fleet::new(cfg.clone(), inputs.classifier.clone(), ctx.graph.clone())
        .map_err(|e| format!("fleet: {e}"))?;
    if let Some(plan) = &scenario.plan {
        fleet.inject(plan);
    }
    if let Some(schedule) = &scenario.schedule {
        fleet.schedule_resize(schedule);
    }
    if observer {
        fleet.attach_observer(ObserverConfig::default());
    }
    if let (Some(r), Some(id)) = (rec.as_mut(), new) {
        r.end(id);
    }
    let mut got: Vec<Vec<OnlineVerdict>> = vec![Vec::new(); inputs.victims()];
    let mut push_ns = Vec::with_capacity(inputs.stream.len());
    for (t, victim, frame) in &inputs.stream {
        let drained = match rec.as_mut() {
            None => {
                let t0 = Instant::now();
                fleet.push(*t, *victim, frame);
                let drained = fleet.drain_verdicts();
                push_ns.push(t0.elapsed().as_nanos() as u64);
                drained
            }
            Some(r) => {
                let before = fleet.stats();
                let id = r.begin("fleet.push", *victim, None);
                fleet.push(*t, *victim, frame);
                let drained = fleet.drain_verdicts();
                r.end(id);
                r.spans[id].label = push_label(&before, &fleet.stats());
                push_ns.push(r.spans[id].nanos());
                drained
            }
        };
        for (v, verdict) in drained {
            got[v as usize].push(verdict);
        }
    }
    let finish = rec.as_mut().map(|r| r.begin("fleet.finish", 0, None));
    let mut report = fleet.finish();
    if let (Some(r), Some(id)) = (rec.as_mut(), finish) {
        r.end(id);
    }
    for (v, verdict) in std::mem::take(&mut report.verdicts) {
        got[v as usize].push(verdict);
    }
    for verdicts in &mut got {
        verdicts.sort_by_key(|v| (v.index, v.choice.time.micros()));
    }
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        push_ns,
        got,
        report,
    })
}

/// No verdict delivered twice: choice points and times are unique and
/// the cited evidence only moves forward.
fn no_duplicates(verdicts: &[OnlineVerdict]) -> bool {
    let mut seen = BTreeSet::new();
    let mut record_hw: Option<usize> = None;
    let mut blind_hw: Option<u64> = None;
    for v in verdicts {
        if !seen.insert((v.choice.cp, v.choice.time.micros())) {
            return false;
        }
        match v.provenance.records.iter().map(|r| r.index).max() {
            Some(cited) => {
                if record_hw.is_some_and(|hw| cited <= hw) {
                    return false;
                }
                record_hw = Some(cited);
            }
            None => {
                if blind_hw.is_some_and(|hw| v.index <= hw) {
                    return false;
                }
                blind_hw = Some(v.index);
            }
        }
    }
    true
}

/// Every verdict missing from (or new in) a chaos run sits inside a
/// loss or lossy-migration window the fleet reported for that victim,
/// give or take the decoder's watermark margin.
fn losses_reported(
    victim: u32,
    got: &[OnlineVerdict],
    clean: &[OnlineVerdict],
    report: &FleetReport,
) -> bool {
    let margin = 4 * SimDuration::from_secs_f64(10.0 / f64::from(wm_bench::TIME_SCALE)).micros();
    let covered = |t: SimTime| {
        let covers = |from: SimTime, to: SimTime| {
            t.micros() + margin >= from.micros() && t.micros() <= to.micros() + margin
        };
        report
            .loss_windows
            .iter()
            .any(|w| w.victim == victim && covers(w.from, w.to))
            || report
                .migrations
                .iter()
                .any(|m| m.victim == victim && !m.lossless() && covers(m.from, m.to))
    };
    let lost = clean
        .iter()
        .filter(|c| !got.iter().any(|g| g.choice == c.choice));
    let novel = got
        .iter()
        .filter(|g| !clean.iter().any(|c| c.choice == g.choice));
    lost.chain(novel).all(|v| covered(v.choice.time))
}

/// Check one pass; returns (correct choices, ground-truth choices).
fn check_pass(kind: Kind, inputs: &Inputs, pass: &Pass, out: &mut Outcome) -> (u64, u64) {
    let (mut correct, mut truth) = (0, 0);
    // A resized pass that migrated nobody proved nothing about migration.
    let vacuous = kind != Kind::Replay && pass.report.stats.victims_migrated == 0;
    if vacuous {
        eprintln!("resized pass migrated no victim");
    }
    for (v, got) in pass.got.iter().enumerate() {
        let clean = &inputs.expected[v];
        let ok = match kind {
            Kind::Replay => {
                let same = got == clean;
                if !same {
                    let at = got.iter().zip(clean).take_while(|(g, c)| g == c).count();
                    eprintln!(
                        "victim {v}: the fleet delivered {} verdicts, its own replay {}; \
                         they differ from verdict {at} on",
                        got.len(),
                        clean.len()
                    );
                }
                same
            }
            Kind::ProcessChaos => {
                let unique = no_duplicates(got);
                let bounded = losses_reported(v as u32, got, clean, &pass.report);
                if !unique {
                    eprintln!("victim {v}: a verdict was delivered twice");
                }
                if !bounded {
                    eprintln!("victim {v}: verdicts lost or changed outside every reported window");
                }
                unique && bounded
            }
        };
        out.tally(ok && !vacuous);
        correct += correct_verdicts(got, &inputs.truth[v]);
        truth += inputs.truth[v].len() as u64;
    }
    (correct, truth)
}

fn checked_pass(
    kind: Kind,
    cfg: &FleetConfig,
    ctx: &Ctx,
    inputs: &Inputs,
    scenario: &Scenario,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
) -> Result<(Pass, u64, u64), String> {
    let start = Instant::now();
    let mut pass = run_pass(cfg, ctx, inputs, scenario, true, rec.as_deref_mut())?;
    let check = rec.as_mut().map(|r| r.begin("check.verdicts", 0, None));
    let (correct, truth) = check_pass(kind, inputs, &pass, out);
    if let (Some(r), Some(id)) = (rec, check) {
        r.end(id);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    Ok((pass, correct, truth))
}

pub fn run(
    ctx: &Ctx,
    kind: Kind,
    seconds: u64,
    traced: bool,
) -> Result<(Outcome, Option<Recorder>), String> {
    if !traced {
        let (inputs, setup_s) = timed_setup(SETUP_REPEATS, || setup(ctx, kind, false));
        let inputs = inputs?;
        let cfg = config(ctx, kind, &inputs)?;
        let scenario = scenario(ctx, kind, &cfg, &inputs);
        reset_peak_rss();
        let mut out = Outcome::default();
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let (mut wall, mut tails, mut correct, mut truth, mut passes) = (0.0, Vec::new(), 0, 0, 0);
        while passes == 0 || Instant::now() < deadline {
            let (pass, c, t) = checked_pass(kind, &cfg, ctx, &inputs, &scenario, &mut out, None)?;
            let ns: Vec<f64> = pass.push_ns.iter().map(|&n| n as f64).collect();
            let (tail_ns, beyond) = tail(&ns).unwrap_or((0.0, 0));
            eprintln!(
                "pass {passes}: {:.3} s, push tail {:.0} us with {beyond} of {} pushes beyond, {} verdicts",
                pass.wall_s,
                tail_ns / 1e3,
                ns.len(),
                pass.report.stats.verdicts
            );
            tails.push(tail_ns / 1e3);
            wall += pass.wall_s;
            correct += c;
            truth += t;
            passes += 1;
        }
        let accuracy = correct as f64 / truth.max(1) as f64;
        out.set("sessions_per_s", (inputs.victims() * passes) as f64 / wall);
        out.set("setup_s", setup_s);
        out.set("push_tail_us", median(&tails).unwrap_or(0.0));
        out.set("choice_accuracy", accuracy);
        out.set("peak_rss_mib", peak_rss_mib());
        gate(&mut out, accuracy, CHANCE);
        return Ok((out, None));
    }
    let inputs = setup(ctx, kind, true)?;
    let cfg = config(ctx, kind, &inputs)?;
    let scenario = scenario(ctx, kind, &cfg, &inputs);
    let mut failure: Option<String> = None;
    let (mut out, rec) = traced_repeats(
        seconds,
        || match run_pass(&cfg, ctx, &inputs, &scenario, true, None) {
            Ok(pass) => pass.wall_s,
            Err(e) => {
                failure.get_or_insert(e);
                f64::NAN
            }
        },
        |untraced_s| match traced_rep(kind, &cfg, ctx, &inputs, &scenario, untraced_s) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("traced pass failed: {e}");
                (Vec::new(), Recorder::new(Instant::now(), 0), false)
            }
        },
    );
    if let Some(e) = failure {
        eprintln!("untraced pass failed: {e}");
        out.correct = false;
    }
    Ok((out, Some(rec)))
}

/// One traced repeat: the real fleet with labelled push spans, then
/// the layer calls re-driven on the same stream at the same cadence.
fn traced_rep(
    kind: Kind,
    cfg: &FleetConfig,
    ctx: &Ctx,
    inputs: &Inputs,
    scenario: &Scenario,
    untraced_s: f64,
) -> Result<TracedPass, String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);
    let mut sink = Outcome::default();
    let (pass, _, _) = checked_pass(kind, cfg, ctx, inputs, scenario, &mut sink, Some(&mut rec))?;
    let wall_ns = origin.elapsed().as_nanos() as u64;
    let ok = sink.failed == 0;
    let packets = inputs.stream.len() as f64;
    let pushes: Vec<&crate::trace::Span> = rec.named("fleet.push").collect();
    let count = |label: &str| pushes.iter().filter(|s| s.label == label).count() as f64;
    let recovery: Vec<f64> = rec
        .millis("fleet.push", "recovery")
        .into_iter()
        .chain(rec.millis("fleet.push", "respawn"))
        .collect();
    let tick_ns: u64 = pushes
        .iter()
        .filter(|s| s.label == "tick")
        .map(|s| s.nanos())
        .sum();
    let stats = pass.report.stats;
    let traced_s = pass.wall_s;
    let mut m = vec![
        (
            "fleet.push.plain_us",
            median(&rec.millis("fleet.push", "plain")).unwrap_or(0.0) * 1e3,
        ),
        ("fleet.push.recovery_ms", median(&recovery).unwrap_or(0.0)),
        (
            "fleet.push.resize_ms",
            median(&rec.millis("fleet.push", "resize")).unwrap_or(0.0),
        ),
        ("fleet.push.plain_count", count("plain")),
        ("fleet.push.tick_count", count("tick")),
        ("fleet.push.recovery_count", count("recovery")),
        ("fleet.push.respawn_count", count("respawn")),
        ("fleet.push.resize_count", count("resize")),
        (
            "fleet.checkpoint.tick_ms",
            median(&rec.millis("fleet.push", "tick")).unwrap_or(0.0),
        ),
        ("fleet.checkpoint.share", tick_ns as f64 / wall_ns as f64),
        ("fleet.kills", stats.kills as f64),
        ("fleet.respawns", stats.process_respawns as f64),
        ("fleet.packets_lost", stats.packets_lost as f64),
        (
            "fleet.loss_window_us",
            pass.report
                .loss_windows
                .iter()
                .map(|w| w.to.micros().saturating_sub(w.from.micros()) as f64)
                .sum(),
        ),
        ("fleet.victims_migrated", stats.victims_migrated as f64),
        ("trace.overhead_ms", (traced_s - untraced_s) * 1e3),
        ("trace.overhead_share", (traced_s - untraced_s) / untraced_s),
        ("trace.spans", rec.spans.len() as f64),
        (
            "alloc.fleet_per_packet",
            rec.allocs("fleet.push") as f64 / packets,
        ),
    ];
    let (rows, rest) = rec.ledger(wall_ns, 1).shares();
    m.extend(rows);
    m.push(("ledger.unattributed_share", rest));
    let plain: Vec<bool> = pushes.iter().map(|s| s.label == "plain").collect();
    let plain_ns: u64 = pushes
        .iter()
        .filter(|s| s.label == "plain")
        .map(|s| s.nanos())
        .sum();
    let redrive = match kind {
        Kind::Replay => {
            let no_obs = run_pass(cfg, ctx, inputs, scenario, false, None)?.wall_s;
            let with_obs = run_pass(cfg, ctx, inputs, scenario, true, None)?.wall_s;
            m.push(("obs.observer_share", (with_obs - no_obs) / with_obs));
            let raw = Instant::now();
            let mut replay_ms = Vec::with_capacity(inputs.victims());
            let (mut allocs, mut records) = (0, 0);
            for session in &inputs.sessions {
                let t = Instant::now();
                let a = thread_allocations();
                let decode = replay_session(&inputs.classifier, &ctx.graph, &cfg.decode, session);
                allocs += thread_allocations() - a;
                replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
                records += decode.stats.records;
            }
            let raw_s = raw.elapsed().as_secs_f64();
            m.push(("online.replay_ms", median(&replay_ms).unwrap_or(0.0)));
            m.push((
                "alloc.online_per_record",
                allocs as f64 / records.max(1) as f64,
            ));
            m.push(("fleet.supervision_overhead", untraced_s / raw_s));
            // The process backend's calls, re-driven on this stream too:
            // the one listed workload that measures the IPC layer.
            m.extend(redrive_process(cfg, ctx, inputs, &plain)?.metrics);
            redrive_in_process(cfg, ctx, inputs, &plain)
        }
        Kind::ProcessChaos => redrive_process(cfg, ctx, inputs, &plain)?,
    };
    m.push((
        "fleet.supervisor.unattributed_share",
        1.0 - redrive.plain_ns as f64 / plain_ns.max(1) as f64,
    ));
    m.extend(redrive.metrics);
    Ok((m, rec, ok))
}

/// Re-driven layer costs, and the summed cost of the packets the real
/// fleet pushed as plain pushes.
struct Redrive {
    metrics: Vec<(&'static str, f64)>,
    plain_ns: u64,
}

fn us(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0) / 1e3
}

fn ms(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0) / 1e6
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The in-process fleet's layer calls, re-driven: `HashRing::shard_of`,
/// `ShardState::feed`, `VerdictDedup::admit`, and each shard's idle
/// sweep plus `ShardState::checkpoint` on the supervisor's cadence.
///
/// The stream runs twice. The first pass times each call. The second
/// times each packet's calls together with one timer pair, as the real
/// push was timed: a clock read costs about as much as a ring lookup,
/// so per-call timing would overstate the packet's cost.
fn redrive_in_process(cfg: &FleetConfig, ctx: &Ctx, inputs: &Inputs, plain: &[bool]) -> Redrive {
    let mut metrics = Vec::new();
    let mut plain_ns = 0;
    for per_call in [true, false] {
        let ring = HashRing::new(cfg.ring_seed, cfg.shards, cfg.vnodes_per_shard);
        let mut shards: Vec<ShardState> = (0..cfg.shards)
            .map(|k| {
                ShardState::new(
                    k as u32,
                    inputs.classifier.clone(),
                    ctx.graph.clone(),
                    cfg.decode.clone(),
                )
            })
            .collect();
        let mut dedup = VerdictDedup::new();
        let every = cfg.checkpoint_every.micros().max(1);
        let mut next = vec![every; cfg.shards];
        let (mut route, mut feed, mut admit) = (Vec::new(), Vec::new(), Vec::new());
        let (mut ticks, mut blob_bytes, mut now) = (0u64, 0u64, 0u64);
        let mut out = Vec::new();
        for (i, (t, victim, frame)) in inputs.stream.iter().enumerate() {
            now = now.max(t.micros());
            let t0 = Instant::now();
            if per_call {
                let k = ring.shard_of(victim_key(cfg.ring_seed, *victim));
                let t1 = Instant::now();
                shards[k].feed(*victim, *t, frame, cfg.max_victims_per_shard, &mut out);
                feed.push(nanos_since(t1) as f64);
                route.push((t1 - t0).as_nanos() as f64);
                for (v, verdict) in out.drain(..) {
                    let a = Instant::now();
                    black_box(dedup.admit(v, &verdict));
                    admit.push(nanos_since(a) as f64);
                }
            } else {
                let k = ring.shard_of(victim_key(cfg.ring_seed, *victim));
                shards[k].feed(*victim, *t, frame, cfg.max_victims_per_shard, &mut out);
                for (v, verdict) in out.drain(..) {
                    black_box(dedup.admit(v, &verdict));
                }
                if plain.get(i).copied().unwrap_or(false) {
                    plain_ns += nanos_since(t0);
                }
            }
            for k in 0..shards.len() {
                if now < next[k] {
                    continue;
                }
                shards[k].evict_idle(SimTime(now), cfg.victim_idle, &mut out);
                for (v, verdict) in out.drain(..) {
                    dedup.admit(v, &verdict);
                }
                ticks += 1;
                blob_bytes += shards[k].checkpoint(SimTime(now)).len() as u64;
                while next[k] <= now {
                    next[k] += every;
                }
            }
        }
        if per_call {
            metrics = vec![
                ("fleet.ring.route_us", us(&route)),
                ("fleet.shard.feed_us", us(&feed)),
                ("fleet.dedup.admit_us", us(&admit)),
                (
                    "fleet.checkpoint.bytes_per_tick",
                    blob_bytes as f64 / ticks.max(1) as f64,
                ),
            ];
        }
    }
    Redrive { metrics, plain_ns }
}

/// Request frames and bytes the supervisor would send for `req`.
fn size(req: &Request, buf: &mut Vec<u8>, frames: &mut u64, bytes: &mut u64) {
    buf.clear();
    req.encode(buf);
    *frames += 1;
    *bytes += buf.len() as u64;
}

/// The process backend's layer calls, re-driven fault-free on a static
/// ring: `ProcessShard::spawn`, one `feed` round trip per packet, the
/// idle sweep plus `checkpoint` on the supervisor's cadence, then a
/// respawn and `restore` per shard from its last blob. Request frames
/// are sized with `Request::encode`.
fn redrive_process(
    cfg: &FleetConfig,
    ctx: &Ctx,
    inputs: &Inputs,
    plain: &[bool],
) -> Result<Redrive, String> {
    let worker = worker_path()?;
    let ring = HashRing::new(cfg.ring_seed, cfg.shards, cfg.vnodes_per_shard);
    let (mut frames, mut bytes) = (0u64, 0u64);
    let mut buf = Vec::new();
    let mut respawn = Vec::new();
    let spawn = |k: usize, respawn: &mut Vec<f64>| {
        let a = Instant::now();
        let shard = ProcessShard::spawn(
            &worker,
            k as u32,
            &inputs.classifier,
            &ctx.graph,
            &cfg.decode,
        )
        .map_err(|e| format!("spawn shard {k}: {e:?}"));
        respawn.push(nanos_since(a) as f64);
        shard
    };
    let mut shards = Vec::with_capacity(cfg.shards);
    for k in 0..cfg.shards {
        shards.push(spawn(k, &mut respawn)?);
        let init = Request::Init {
            shard: k as u32,
            cfg: cfg.decode.clone(),
            classifier: inputs.classifier.clone(),
            graph: ctx.graph.clone(),
        };
        size(&init, &mut buf, &mut frames, &mut bytes);
    }
    let mut dedup = VerdictDedup::new();
    let every = cfg.checkpoint_every.micros().max(1);
    let mut next = vec![every; cfg.shards];
    let mut last: Vec<Option<Vec<u8>>> = vec![None; cfg.shards];
    let (mut feed, mut checkpoint) = (Vec::new(), Vec::new());
    let (mut plain_ns, mut now) = (0u64, 0u64);
    let fault = |e| format!("shard worker fault: {e:?}");
    for (i, (t, victim, frame)) in inputs.stream.iter().enumerate() {
        now = now.max(t.micros());
        let t0 = Instant::now();
        let k = ring.shard_of(victim_key(cfg.ring_seed, *victim));
        let t1 = Instant::now();
        let verdicts = shards[k]
            .feed(*victim, *t, frame, cfg.max_victims_per_shard)
            .map_err(fault)?;
        let t2 = Instant::now();
        feed.push((t2 - t1).as_nanos() as f64);
        for (v, verdict) in &verdicts {
            dedup.admit(*v, verdict);
        }
        if plain.get(i).copied().unwrap_or(false) {
            plain_ns += nanos_since(t0);
        }
        let req = Request::Feed {
            time: *t,
            victim: *victim,
            max_victims: cfg.max_victims_per_shard as u32,
            frame: frame.clone(),
        };
        size(&req, &mut buf, &mut frames, &mut bytes);
        for k in 0..shards.len() {
            if now < next[k] {
                continue;
            }
            let taken = SimTime(now);
            for (v, verdict) in shards[k]
                .evict_idle(taken, cfg.victim_idle)
                .map_err(fault)?
            {
                dedup.admit(v, &verdict);
            }
            size(
                &Request::EvictIdle {
                    now: taken,
                    idle: cfg.victim_idle,
                },
                &mut buf,
                &mut frames,
                &mut bytes,
            );
            let a = Instant::now();
            let blob = shards[k].checkpoint(taken).map_err(fault)?;
            checkpoint.push(nanos_since(a) as f64);
            size(
                &Request::Checkpoint { taken },
                &mut buf,
                &mut frames,
                &mut bytes,
            );
            last[k] = Some(blob);
            while next[k] <= now {
                next[k] += every;
            }
        }
    }
    for shard in &mut shards {
        shard.finish_all().map_err(fault)?;
        size(&Request::FinishAll, &mut buf, &mut frames, &mut bytes);
    }
    drop(shards);
    let mut restore = Vec::new();
    for (k, blob) in last.iter().enumerate() {
        if let Some(blob) = blob {
            let mut shard = spawn(k, &mut respawn)?;
            let a = Instant::now();
            shard
                .restore(k as u32, blob)
                .map_err(|e| format!("restore: {e}"))?;
            restore.push(nanos_since(a) as f64);
        }
    }
    let victims = inputs.victims() as f64;
    Ok(Redrive {
        metrics: vec![
            ("fleet.ipc.feed_us", us(&feed)),
            ("fleet.ipc.checkpoint_ms", ms(&checkpoint)),
            ("fleet.ipc.frames_per_session", frames as f64 / victims),
            ("fleet.ipc.bytes_per_session", bytes as f64 / victims),
            ("fleet.restore_ms", ms(&restore)),
            ("fleet.respawn_ms", ms(&respawn)),
        ],
        plain_ns,
    })
}
