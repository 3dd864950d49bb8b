//! # wm-netflix — the simulated interactive streaming service
//!
//! A from-scratch stand-in for the Netflix side of the paper's captures:
//! a DASH-like chunk server plus the interactive state API. It speaks
//! the HTTP dialect of `wm-http` over the TLS connection the session
//! layer provides, and it understands the two state-report shapes the
//! paper names:
//!
//! * **type-1** — posted when a choice question is displayed;
//! * **type-2** — posted when the viewer picks the *non-default* option
//!   (it reports the cancelled prefetch alongside the selection).
//!
//! The server parses and validates every state blob with `wm-json`
//! (nothing is trusted blindly — tests feed it malformed input) and
//! keeps an event log that the integration tests use as server-side
//! ground truth.

pub mod manifest;
pub mod server;

pub use manifest::{ladder_label, Manifest, BITRATE_LADDER, CHUNK_SECS};
pub use server::{
    NetflixServer, ServerConfig, ServerStats, StateEventKind, StateLogEntry, STATE_ID_OFFSET,
};
