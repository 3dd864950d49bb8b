//! # wm-net — deterministic discrete-event network substrate
//!
//! The paper captures real traffic between a browser and Netflix under a
//! grid of *operational conditions* (Table I): wired vs wireless links,
//! morning/noon/night congestion, different machines. This crate is the
//! stand-in for that physical testbed: a deterministic discrete-event
//! simulator carrying real bytes end-to-end.
//!
//! Components:
//!
//! * [`time`] — simulation clock ([`time::SimTime`], microsecond ticks);
//! * [`queue`] — the event queue driving a session;
//! * [`rng`] — seeded randomness with the distributions the link models
//!   need (uniform, Bernoulli, exponential, truncated normal);
//! * [`headers`] — Ethernet/IPv4/TCP header serialization with real
//!   checksums, so captures are byte-level faithful pcap frames;
//! * [`link`] — per-direction link model: serialization delay from
//!   bandwidth, propagation, jitter, queuing, loss;
//! * [`conditions`] — Table I's operational grid (connection type ×
//!   time-of-day) mapped onto link parameters;
//! * [`tcp`] — TCP-lite: MSS segmentation, cumulative ACKs, RTO
//!   retransmission, in-order reassembly, and write coalescing (the main
//!   benign noise source for the attack).
//!
//! Everything is seeded: the same seed replays an identical session.

pub mod conditions;
pub mod headers;
pub mod link;
pub mod queue;
pub mod rng;
pub mod tcp;
pub mod time;

pub use conditions::{ConnectionType, LinkConditions, TimeOfDay};
pub use headers::{FlowId, Ipv4Header, TcpFlags, TcpHeader};
pub use link::{Link, LinkParams, LinkStats};
pub use queue::{Event, EventQueue, PeerId, TimerKind};
pub use rng::SimRng;
pub use tcp::{TcpEndpoint, TcpSegment, MSS};
pub use time::{Duration, SimTime};
