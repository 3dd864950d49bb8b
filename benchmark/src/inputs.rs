//! Inputs generated from the workload seed, and the process-level
//! measurements every workload shares.
//!
//! The program under test sees only what is made here: viewer specs,
//! the sessions simulated from them, and attacks trained on other
//! sessions of the same operational condition.

use std::sync::Arc;
use std::time::Instant;

use wm_capture::time::SimTime;
use wm_core::{choice_accuracy, WhiteMirror};
use wm_dataset::{DatasetSpec, OperationalConditions, ViewerSpec};
use wm_online::{CapturedPacket, OnlineVerdict};
use wm_sim::run_session;
use wm_story::{Choice, ChoicePointId, StoryGraph};

/// Training sessions per operational condition (as E4 trains).
pub const TRAIN_SESSIONS: u64 = 3;

/// Shared context of one run.
pub struct Ctx {
    pub graph: Arc<StoryGraph>,
    pub seed: u64,
    /// `wm-pool` workers: one per available core.
    pub workers: usize,
}

/// SplitMix64: derive independent seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Train one attack per condition, in parallel on the pool.
pub fn train(ctx: &Ctx, conditions: &[OperationalConditions]) -> Vec<WhiteMirror> {
    wm_pool::run_indexed(conditions.len(), ctx.workers, |c| {
        let seeds: Vec<u64> = (0..TRAIN_SESSIONS)
            .map(|j| mix(ctx.seed, 1_000_000 + c as u64 * 16 + j))
            .collect();
        wm_bench::train_attack_for(&ctx.graph, &conditions[c], &seeds).0
    })
}

/// `n` viewers over the 72-cell operational grid, from the seed.
pub fn dataset(ctx: &Ctx, name: &str, n: usize) -> Vec<ViewerSpec> {
    DatasetSpec::generate(name, n, ctx.seed).viewers
}

/// The grid cell a viewer's condition sits in.
pub fn cell(grid: &[OperationalConditions], viewer: &ViewerSpec) -> usize {
    grid.iter()
        .position(|c| *c == viewer.operational)
        .expect("dataset viewers sit on the grid")
}

/// One simulated victim: what the tap saw and what the viewer chose.
pub struct Capture {
    pub trace: wm_capture::Trace,
    pub truth: Vec<(ChoicePointId, Choice)>,
}

/// Simulate `viewers` on the pool. A simulation error is a setup
/// failure: the inputs of the timed phase must all exist.
pub fn simulate(ctx: &Ctx, viewers: &[ViewerSpec]) -> Result<Vec<Capture>, String> {
    wm_pool::run_indexed(viewers.len(), ctx.workers, |i| {
        let out = run_session(&wm_bench::viewer_cfg(&ctx.graph, &viewers[i]))
            .map_err(|e| format!("viewer {}: {e}", viewers[i].id))?;
        Ok(Capture {
            trace: out.trace,
            truth: out.decisions,
        })
    })
    .into_iter()
    .collect()
}

/// A capture as the online attacker ingests it, shifted by `offset_us`.
pub fn online_packets(trace: &wm_capture::Trace, offset_us: u64) -> Vec<CapturedPacket> {
    trace
        .packets
        .iter()
        .map(|p| (SimTime(p.time.micros() + offset_us), p.frame.clone()))
        .collect()
}

/// Correct choices among `truth`, from verdicts delivered for one
/// victim: position `i` of the truth is right when a delivered verdict
/// of stream index `i` names its choice point and pick. A lost verdict
/// is wrong; a repeated index is counted once.
pub fn correct_verdicts(verdicts: &[OnlineVerdict], truth: &[(ChoicePointId, Choice)]) -> u64 {
    let mut right = vec![false; truth.len()];
    for v in verdicts {
        if let Some((cp, choice)) = usize::try_from(v.index).ok().and_then(|i| truth.get(i)) {
            if v.choice.cp == *cp && v.choice.choice == *choice {
                right[v.index as usize] = true;
            }
        }
    }
    right.iter().filter(|r| **r).count() as u64
}

/// Correct decisions of an offline decode, scored as E4 scores.
pub fn correct_choices(
    decoded: &[wm_core::DecodedChoice],
    truth: &[(ChoicePointId, Choice)],
) -> u64 {
    choice_accuracy(decoded, truth).correct
}

/// Accuracy floors of the ground-truth check. The paper's attack
/// (E4's beam decoder) must meet the paper's worst case, 96%.
pub const PAPER_WORST_CASE: f64 = 0.96;
/// The greedy front ends (the offline twin of the online decoder, the
/// online decoder, the fleet) must beat a coin flip per choice; under
/// chaos, lost verdicts count as wrong.
pub const CHANCE: f64 = 0.5;

/// Fail the run unless every session passed and `accuracy` meets `floor`.
pub fn gate(out: &mut crate::report::Outcome, accuracy: f64, floor: f64) {
    out.correct = out.failed == 0 && out.attempted > 0 && accuracy >= floor;
    if accuracy < floor {
        eprintln!("ground-truth check failed: accuracy {accuracy:.4} < {floor}");
    }
}

/// Run `setup` `times` times; return the last result and the median
/// wall time, s. Set-up is deterministic, so every result is equal.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Free the previous result first, as a single set-up would.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&secs).expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

/// Reset the resident-set high-water mark, so the peak read at the end
/// covers the timed phase only. Returns whether the kernel allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
