//! The DSR evaluation strategies the paper compares against, run only by
//! Tables 2 and 3.
//!
//! * [`FanBaseline`] ("DSR-Fan", Section 3.2) — the generalization of Fan
//!   et al. \[9\] to source/target sets: every query builds a *dynamic
//!   dependency graph* at the master from per-partition Boolean
//!   reachability formulas (represented here directly as dependency edges)
//!   and resolves the query on it.
//! * [`NaiveBaseline`] ("DSR-Naïve", Section 3.1) — one independent
//!   Fan-style evaluation per `(s, t)` pair, with no sharing of
//!   intermediate results.
//!
//! Both add their rounds, messages and bytes to the
//! [`CommStats`](dsr_cluster::CommStats) their caller passes in, as
//! `DsrEngine::set_reachability_batch_with_stats` does.

pub mod fan;
pub mod naive;

pub use fan::{FanBaseline, FanOutcome};
pub use naive::NaiveBaseline;
