//! Allocations a victim session makes, counted per captured packet.
//!
//! A counting global allocator, installed in this test binary only,
//! counts the allocation calls (reallocations included) each thread
//! makes while counting is on. A session's one unavoidable allocation
//! per packet is the captured frame itself; each HTTP message adds one
//! buffer, and the TCP endpoints, the tap and the player fill buffers
//! the session reuses. Owned header strings, a fresh segment or action
//! vector per TCP call, or a second copy of every tapped segment would
//! each add close to one allocation per packet and break the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wm_net::conditions::{ConnectionType, LinkConditions, TimeOfDay};
use wm_sim::{run_session, SessionConfig};
use wm_story::bandersnatch::bandersnatch;
use wm_story::ViewerScript;

/// Allocation calls allowed per captured packet.
const PER_PACKET: f64 = 3.0;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping touches only const-initialised thread-locals, which
// neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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

/// Allocation calls this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, CALLS.with(Cell::get))
}

/// Full Bandersnatch sessions at the benchmark's scales, with session
/// telemetry and the causal trace on, stay within the per-packet
/// allocation budget under wired and wireless conditions.
#[test]
fn sessions_allocate_within_the_per_packet_budget() {
    let graph = Arc::new(bandersnatch());
    let mut total = (0u64, 0u64);
    for (seed, connection, time_of_day) in [
        (7, ConnectionType::Wired, TimeOfDay::Morning),
        (11, ConnectionType::Wireless, TimeOfDay::Night),
        (23, ConnectionType::Wired, TimeOfDay::Noon),
    ] {
        let mut cfg =
            SessionConfig::baseline(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
        cfg.media_scale = 1024;
        cfg.player.time_scale = 40;
        cfg.conditions = LinkConditions::new(connection, time_of_day);
        cfg.telemetry = true;
        cfg.trace = true;
        let (out, calls) = allocations(|| run_session(&cfg));
        let packets = out.expect("session completes").trace.packets.len() as u64;
        let per_packet = calls as f64 / packets as f64;
        assert!(
            per_packet <= PER_PACKET,
            "seed {seed}: {calls} allocations for {packets} packets \
             ({per_packet:.2} per packet, budget {PER_PACKET})"
        );
        total.0 += calls;
        total.1 += packets;
    }
    assert!(
        total.1 > 3_000,
        "sessions captured only {} packets",
        total.1
    );
}
