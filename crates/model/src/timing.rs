//! The per-thread ledger of how much collective and recomputation time a
//! step spent. Every collective of the TP+SP layer blocks the rank thread
//! and every replay runs inline in the backward pass, so each booked
//! interval is on the critical path: the exposed halves equal the totals.

use std::cell::Cell;

/// Per-step timing ledger: collective and recomputation time, each split
/// into its total and the portion exposed on the critical path.
///
/// Returned from
/// [`Trainer::step_with_ledger`](crate::trainer::Trainer::step_with_ledger),
/// which drains the rank thread's accumulators at step
/// entry and exit — so timings cannot leak across steps on reused rank
/// threads the way an unbracketed thread-local harvest could. Layer-level
/// harnesses that bypass the trainer bracket their work with
/// [`take_step_timing`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTiming {
    /// Total time spent inside blocking collectives.
    pub comm_us: u64,
    /// The portion of `comm_us` no compute covered: all of it, since every
    /// collective blocks the rank thread.
    pub exposed_us: u64,
    /// Total recomputation time: the checkpointed-region replays the
    /// backward pass performed.
    pub recompute_us: u64,
    /// The portion of `recompute_us` on the critical path: all of it, since
    /// every replay runs inline.
    pub exposed_recompute_us: u64,
}

thread_local! {
    static COMM_US: Cell<u64> = const { Cell::new(0) };
    static RECOMPUTE_US: Cell<u64> = const { Cell::new(0) };
}

/// Adds one collective's wall time to this thread's ledger.
pub(crate) fn add_comm_time(us: u64) {
    COMM_US.with(|c| c.set(c.get() + us));
}

/// Adds one recomputation's wall time to this thread's ledger.
pub(crate) fn add_recompute_time(us: u64) {
    RECOMPUTE_US.with(|c| c.set(c.get() + us));
}

/// Runs `f` inside a span called `name`, books its wall time with `book`,
/// and closes the span with the **same** `monotonic_us`-derived integer as
/// both `total_arg` and `exposed_us`, so `mt-profile` can cross-check its
/// attribution against the ledger with exact integer equality rather than
/// clock-tolerance comparisons.
fn timed<T>(
    name: &'static str,
    total_arg: &'static str,
    book: fn(u64),
    f: impl FnOnce() -> T,
) -> T {
    let mut span = mt_trace::current().span(name);
    let t0 = mt_trace::monotonic_us();
    let out = f();
    let dt = mt_trace::monotonic_us().saturating_sub(t0);
    book(dt);
    span.arg(total_arg, dt);
    span.arg("exposed_us", dt);
    drop(span);
    out
}

/// Runs a blocking collective in a `comm_exposed` span and books its wall
/// time as comm time.
pub(crate) fn timed_exposed<T>(f: impl FnOnce() -> T) -> T {
    timed("comm_exposed", "comm_us", add_comm_time, f)
}

/// Runs an inline recomputation and books its wall time as recompute
/// time. `name` is the span name (`recompute_attention` /
/// `recompute_layer`).
pub(crate) fn timed_recompute<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    timed(name, "recompute_us", add_recompute_time, f)
}

/// Returns and resets this thread's accumulated step timing. Each rank
/// thread's layer calls accumulate into its own ledger, so a layer-level
/// bench brackets its work with `take_step_timing()` calls on the rank
/// thread; trainer users get the same ledger returned from
/// [`Trainer::step_with_ledger`](crate::trainer::Trainer::step_with_ledger).
pub fn take_step_timing() -> StepTiming {
    let comm_us = COMM_US.with(|c| c.replace(0));
    let recompute_us = RECOMPUTE_US.with(|c| c.replace(0));
    StepTiming { comm_us, exposed_us: comm_us, recompute_us, exposed_recompute_us: recompute_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_ledger_is_per_thread_and_resets_on_take() {
        assert_eq!(take_step_timing(), StepTiming::default());
        add_comm_time(100);
        add_comm_time(10);
        add_recompute_time(70);
        let t = take_step_timing();
        assert_eq!(
            t,
            StepTiming {
                comm_us: 110,
                exposed_us: 110,
                recompute_us: 70,
                exposed_recompute_us: 70
            }
        );
        assert_eq!(take_step_timing(), StepTiming::default());
        let other = std::thread::spawn(take_step_timing).join().unwrap();
        assert_eq!(other, StepTiming::default(), "ledger is thread-local");
    }
}
