//! `mt-profile`: the analysis layer over `mt-trace` — answers *where the
//! step time actually went*.
//!
//! The paper's argument is an accounting exercise: activation bytes and
//! recompute/communication time per layer (Korthikanti et al., MLSys
//! 2023, Tables 2/4). This crate closes the measurement side of that
//! loop. From a raw [`mt_trace::TraceEvent`] stream it:
//!
//! 1. **Reconstructs per-rank timelines** ([`Timeline`]): spans quantized
//!    to integer nanoseconds and linked into a containment forest per
//!    track.
//! 2. **Links the cross-rank dependency graph**: parent/child nesting
//!    plus collective-rendezvous edges, matched per SPMD issue order and
//!    validated against each span's `CallTag`-derived signature
//!    ([`collective_rounds`]).
//! 3. **Attributes every nanosecond** of each rank's window to a closed
//!    category set — {gemm, exposed_comm, exposed_recompute, optimizer,
//!    bubble, other} — with the invariant that categories sum to wall time **exactly**
//!    ([`segment_track`], [`CategoryNs`]).
//! 4. **Extracts the cross-rank critical path** ([`critical_path`]):
//!    walk backward from the latest span end, hopping to the last arriver
//!    of each gating rendezvous; segments telescope, so the path length
//!    equals the step wall time exactly.
//! 5. **Cross-checks** the attribution against independent ledgers: the
//!    wrapped-comm and wrapped-recompute close-args must equal
//!    `mt-model`'s `StepTiming` integers bit for bit, and (via
//!    `e2e_step_bench --profile`) the `exposed_ms` /
//!    `exposed_recompute_ms` in `reports/BENCH_e2e.json`; a divergence
//!    report compares measured phase times against the `mt-perf` α–β /
//!    GEMM-efficiency model.
//!
//! [`analyze`] bundles all of it into a serializable [`ProfileReport`];
//! [`verify`] re-checks every exact invariant on a deserialized report
//! (the CI smoke step); [`diff_reports`]/[`narrative`] explain what
//! changed between two runs, category by category — wired into
//! `bench_gate`'s failure path so CI regressions arrive with an
//! explanation instead of a bare ratio.

mod attrib;
mod critical;
mod diff;
mod report;
mod timeline;

pub use attrib::{
    segment_timeline, segment_track, Category, CategoryNs, TrackSegments, CATEGORIES,
};
pub use critical::{collective_rounds, critical_path, CritSegment, CriticalPath, Round};
pub use diff::{
    diff_documents, diff_reports, load_profiles, narrative, CategoryDelta, ProfileDiff,
    ProfileDocument,
};
pub use report::{
    analyze, render_ascii, verify, AnalyzeOptions, CritSummary, Divergence, ProfileReport,
    RankProfile, TreeLine, SCHEMA_VERSION,
};
pub use timeline::{Span, Timeline, Track};
