//! mt-check: exhaustive small-world model checking for the concurrency
//! layer.
//!
//! Every synchronization primitive the collectives and the kernel worker
//! pool use flows through the `mt-sync` facade, which under `RUSTFLAGS="--cfg
//! mt_check"` is a schedulable, virtual-time instrumented implementation
//! (see `mt_sync::checked`). This crate supplies the *scenarios*: small
//! worlds (≤ 3 rank threads, 1–3 collectives) that drive the **actual**
//! rendezvous, rank-death-wakeup, epoch-fencing, and point-to-point code,
//! while the scheduler
//! explores every (DPOR-reduced) interleaving and checks:
//!
//! - no deadlock (some transition or armed timer always exists),
//! - no lost wakeup (scenarios marked `expect_quiescent_progress` must
//!   never need a virtual-time timeout to make progress),
//! - every timeout path terminates with `CollectiveError::Timeout` rather
//!   than hanging,
//! - cross-epoch stragglers always fence as `SpmdMismatch`,
//! - the vector-clock detector reports no happens-before race.
//!
//! The scenario registry is shared by the `check-report` binary (which
//! emits `reports/CHECK.json` for CI) and the `tests/scenarios.rs`
//! harness. The *mutation* registry maps each seeded bug from
//! `mt_sync::mutation` to the scenario that must catch it — the
//! self-validation half of the checker.
//!
//! Everything here is `#[cfg(mt_check)]`: an ordinary build sees an empty
//! crate, so tier-1 builds never pay for (or depend on) the checker.

#![forbid(unsafe_code)]

#[cfg(mt_check)]
mod scenarios;

#[cfg(mt_check)]
pub use scenarios::{
    all_scenarios, find_mutation, find_scenario, mutations, Mutation, Scenario, Tune,
};
