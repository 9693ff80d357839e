//! # cla-serve — a long-running analysis server
//!
//! The paper's pipeline is batch: compile, link, analyze, print, exit. This
//! crate keeps the expensive part — the solved pre-transitive graph —
//! resident, and answers points-to, alias, and dependence queries against
//! it repeatedly: in process through a [`Session`] built from a
//! [`SessionSpec`], or over a Unix socket speaking newline-delimited JSON
//! through [`serve`].
//!
//! `session` holds [`Session`] with its queries, reload and health;
//! `epoch` one epoch's state and the sealer; `sources` where a session's
//! program comes from; `stats` what a session counts (DESIGN.md §8).

pub mod json;

mod client;
mod epoch;
mod server;
mod session;
mod sources;
mod stats;

pub use client::{Client, ClientError, Endpoint};
pub use server::{
    answer, handle_request, publish_latency_percentiles, serve, serve_connection, serve_with,
    Listener, ServeOptions, ServerHandle, Transport,
};
pub use session::{
    AliasAnswer, DependAnswer, DependentLine, Health, PointsToAnswer, ReloadReport, Session,
    SessionError, Target,
};
pub use sources::{object_provenance, SessionSource, SessionSpec};
pub use stats::{SessionStats, SlowQuery, DEFAULT_SLOW_THRESHOLD_US};
