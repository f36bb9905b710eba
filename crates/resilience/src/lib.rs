//! # mcmap-resilience
//!
//! Crash-safety layer for the mcmap exploration pipeline. The paper treats
//! design-time exploration as the long-running offline phase that *must*
//! complete for the runtime guarantees to exist; this crate gives the
//! explorer itself the fault-tolerance discipline the modeled system gets:
//!
//! * [`atomic_write`] / [`atomic_write_rotating`] — torn-write-free
//!   artifact persistence (temp file + fsync + rename, with a `.bak`
//!   rotation for checkpoint fallback);
//! * [`seal`] / [`unseal`] — a versioned, checksummed envelope so a
//!   truncated or corrupted checkpoint is *detected* (typed
//!   [`ResilienceError`]) instead of silently mis-parsed;
//! * [`write_sealed`] / [`read_sealed`] — the one persistence path for
//!   sealed JSON documents (DSE checkpoints, portfolios, campaign
//!   checkpoints): rotating atomic write, unseal, UTF-8 check, decoder
//!   errors as [`ResilienceError::Malformed`], and the primary → `.bak`
//!   fallback on corruption ([`unseal_with`] is the in-memory half);
//! * [`EvalFailure`] — the typed diagnostic a panicking candidate
//!   evaluation degrades into (instead of unwinding a multi-hour run);
//! * [`FaultPlan`] — a seeded, deterministic chaos plan injecting panics,
//!   delays, and checkpoint truncation at chosen generations/candidates,
//!   driving the `tests/chaos.rs` harness;
//! * [`install_stop_flag`] — a SIGINT/SIGTERM handler that requests a
//!   clean stop at the next generation boundary.
//!
//! The crate is dependency-free (std only) so it can sit below every other
//! pipeline crate in the dependency graph.
//!
//! # Examples
//!
//! ```
//! use mcmap_resilience::{atomic_write, fnv1a64, seal, unseal};
//!
//! let dir = std::env::temp_dir().join("mcmap_resilience_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("artifact.bin");
//!
//! let sealed = seal("demo", b"payload");
//! atomic_write(&path, &sealed).unwrap();
//! let bytes = std::fs::read(&path).unwrap();
//! assert_eq!(unseal("demo", &path, &bytes).unwrap(), b"payload");
//! assert_ne!(fnv1a64(b"payload"), fnv1a64(b"payloae"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atomic;
mod envelope;
mod error;
mod failure;
mod fault;
mod sealed;
mod signal;

pub use atomic::{atomic_write, atomic_write_rotating, backup_path};
pub use envelope::{fnv1a64, seal, unseal, ENVELOPE_VERSION};
pub use error::ResilienceError;
pub use failure::{panic_message, EvalFailure};
pub use fault::FaultPlan;
pub use sealed::{read_sealed, unseal_with, write_sealed};
pub use signal::{install_stop_flag, request_stop, reset_stop_flag, stop_requested};
