//! Runtime fault-reaction layer over an operating-point portfolio.
//!
//! The design-time side of this workspace (`mcmap-core`) produces a
//! [`Portfolio`](mcmap_core::Portfolio) of analyzed operating points;
//! this crate is the run-time side that consumes it, in two halves:
//!
//! * [`RuntimeManager`] — a deterministic mode-switch controller. It
//!   consumes fault events and load changes (as produced by
//!   `mcmap-sim`'s discrete-event engine) and walks a graceful
//!   degradation ladder: under fault pressure it first drops
//!   LO-criticality applications *within* the current operating point
//!   (cheapest service first), escalates to a lower-service point only
//!   when the ladder is exhausted, and re-admits in reverse order once
//!   the system has been quiet long enough. A permanent processor loss
//!   invalidates every point that maps work onto the dead processor and
//!   forces an immediate switch to the best surviving point. Every
//!   transition emits an obs mark (`runtime.switch`), which a
//!   [`MetricsSink`](mcmap_core::MetricsSink) on the recorder counts.
//!
//! * [`run_campaign`] — a seeded Monte-Carlo validation campaign: the
//!   refutation harness for the static analysis. Every fault profile
//!   within the hardening coverage is simulated against every operating
//!   point and the observed response times are checked against the
//!   analyzed WCRT bounds; any excess is a structured [`Violation`].
//!   Campaigns run on the `mcmap-eval` parallel map (bit-identical
//!   summaries for any thread count), checkpoint at chunk boundaries via
//!   the `mcmap-resilience` sealed-envelope machinery, and honor the
//!   cooperative stop flag so a SIGTERM mid-campaign resumes exactly.
//!
//! [`run_reaction`] closes the loop for benchmarking: it drives the
//! manager from actual simulations hyperperiod by hyperperiod, measuring
//! switch latency (fault injection → the mode-switch boundary) and
//! re-checking bounds in every visited mode.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod manager;

pub use campaign::{
    read_campaign_checkpoint, run_campaign, CampaignCheckpoint, CampaignConfig, CampaignSummary,
    PointValidation, Violation,
};
pub use manager::{
    run_reaction, ReactionConfig, ReactionReport, RuntimeConfig, RuntimeEvent, RuntimeManager,
    Transition,
};
