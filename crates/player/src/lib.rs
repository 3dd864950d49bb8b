//! # wm-player — the simulated browser/player
//!
//! The client half of a viewing session: manifest fetch, ABR chunk
//! streaming, the 10-second choice window with **default-branch
//! prefetch**, and the state reports whose TLS record lengths are the
//! paper's side-channel:
//!
//! * a **type-1** state JSON is posted the moment a choice question is
//!   displayed;
//! * a **type-2** state JSON follows if (and only if) the viewer picks
//!   the non-default option — it reports the selection and the
//!   prefetched chunks that were cancelled.
//!
//! Platform differences (OS × browser × device form, Table I) live in
//! [`profile::Profile`]: user-agent and ESN strings, cookie sizes and a
//! platform `clientInfo` blob shift every state report by a
//! platform-specific constant, which is why the paper's Figure 2 shows
//! different — but equally tight — length clusters per condition.
//!
//! The player is a pure event-driven state machine: the session layer
//! (`wm-sim`) feeds it responses and timer firings, and it returns the
//! requests, timers and ground-truth events to apply. It performs no
//! I/O and holds no clock of its own, which is what makes sessions
//! deterministic and replayable.

pub mod abr;
pub mod player;
pub mod profile;
pub mod state;

pub use abr::ThroughputEstimator;
pub use player::{
    timer_kinds, OutRequest, Player, PlayerActions, PlayerConfig, PlayerFault, PlayerPhase,
    PlayerStats, RequestKind, TruthEvent,
};
pub use profile::{Browser, DeviceForm, Os, Profile};
pub use state::StateJsonBuilder;
pub use wm_story::{ScriptEntry, ViewerScript};
