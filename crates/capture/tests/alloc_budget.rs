//! Bytes allocated by offline feature extraction, counted.
//!
//! A counting global allocator, installed in this test binary only,
//! sums the bytes each thread asks for while counting is on. On
//! simulated captures whose tap goes blind, `client_app_records` must
//! allocate no more than its output and the reassembler's tables
//! explain: records, gap times, one flow-table entry per captured
//! segment and a fixed cost per flow. A copy of the stream bytes (for
//! instance, of each run after a gap so the resync scan can read it)
//! has no place in that budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;
use wm_capture::tap::segments_of;
use wm_capture::{FlowReassembler, StreamChunk, StreamPiece, TimedRecord};
use wm_chaos::{FaultKind, FaultPlan};
use wm_core::client_app_records;
use wm_net::time::{Duration, SimTime};
use wm_sim::{run_session, SessionConfig};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ViewerScript};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping touches only const-initialised thread-locals, which
// neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out only the system allocator's blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out only the system allocator's blocks.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread allocates while running `f`.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get))
}

/// Bytes a growing vector of `n` items of `size` bytes may allocate in
/// all: capacities double, so the reallocations sum to under twice the
/// final one, which is under twice `n`; a stable sort may take one more
/// buffer of `n`.
fn grown(n: usize, size: usize) -> u64 {
    (5 * n.max(4) * size) as u64
}

/// On captures with tap gaps, the bytes `client_app_records` allocates
/// stay within what its records, gap times and flow tables explain.
#[test]
fn gapped_extraction_allocates_no_stream_bytes() {
    // Per flow: the flow-table node, the flow's entry in the result and
    // its views' chunk tables start small and are covered here.
    const PER_FLOW: u64 = 4096;
    let graph = Arc::new(tiny_film());
    let (mut gaps, mut resyncs, mut post_gap_bytes) = (0, 0, 0u64);
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
        let trace = run_session(&cfg).expect("session completes").trace;
        let segments = segments_of(&trace)
            .filter(|(_, _, _, payload)| !payload.is_empty())
            .count();
        for flow in FlowReassembler::reassemble(&trace) {
            let chunks = &flow.upstream.chunks;
            post_gap_bytes += chunks
                .iter()
                .skip(1)
                .map(|c| c.end_offset() - c.start_offset)
                .sum::<u64>();
        }

        let (features, allocated) = bytes_allocated(|| client_app_records(&trace));
        gaps += features.stats.gaps;
        resyncs += features.stats.resyncs;
        // Records and gap times: the extraction's buffers, then the
        // merged ones.
        let output = 2 * grown(features.stats.records, size_of::<TimedRecord>())
            + 2 * grown(features.gap_times.len(), size_of::<SimTime>());
        // One flow-table entry per segment (a signed offset, a borrowed
        // payload, a time), then at most one piece and one chunk each.
        let entry = size_of::<(i64, &[u8], SimTime)>()
            + size_of::<StreamPiece>()
            + size_of::<StreamChunk>();
        let tables = grown(segments, entry) + PER_FLOW * features.flows as u64;
        let budget = output + tables;
        assert!(
            allocated <= budget,
            "session {case}: allocated {allocated} bytes, budget {budget} \
             ({output} output + {tables} tables)"
        );
    }
    assert!(
        gaps >= 6 && resyncs >= 6,
        "the sessions surfaced only {gaps} gaps and {resyncs} resyncs"
    );
    assert!(post_gap_bytes > 0, "no stream byte follows a gap");
}
