//! # wm-tls — TLS record layer for the White Mirror reproduction
//!
//! The paper's side-channel is the **SSL record length**: TLS encrypts
//! payloads but transmits each record behind a cleartext 5-byte header
//! whose fourth and fifth bytes spell out the ciphertext length. A
//! passive eavesdropper who reassembles the TCP stream can therefore
//! enumerate `(content_type, version, length)` for every record — and
//! the length of a record carrying a Netflix state JSON betrays which
//! JSON it is.
//!
//! This crate implements the pieces of TLS that matter for that channel:
//!
//! * [`record`] — record header encode/parse, content types, the 2^14
//!   fragmentation limit;
//! * [`suite`] — the two cipher-suite families and their exact
//!   plaintext→ciphertext length maps (AEAD: `+16`; CBC: IV + MAC +
//!   pad-to-block, which *quantizes* lengths);
//! * [`conn`] — a sending/receiving record protection engine with
//!   per-direction keys and sequence numbers (genuine encryption via
//!   `wm-cipher`; receivers authenticate before releasing plaintext);
//! * [`handshake`] — a handshake *transcript simulator* producing the
//!   realistic record sizes (ClientHello, Certificate, …) that populate
//!   the "others" class in the paper's Figure 2;
//! * [`observer`] — the eavesdropper's incremental record parser: given
//!   the reassembled TCP byte stream, it recovers record metadata only.

pub mod conn;
pub mod handshake;
pub mod observer;
pub mod record;
pub mod suite;

pub use conn::{EngineStats, RecordEngine, SessionKeys, TlsError};
pub use observer::{ObservedRecord, RecordObserver};
pub use record::{ContentType, RecordHeader, MAX_FRAGMENT, RECORD_HEADER_LEN};
pub use suite::CipherSuite;
