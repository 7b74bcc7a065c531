//! Step-time attribution: every nanosecond of every rank's window goes to
//! exactly one category, so the per-category totals sum to the wall time
//! **exactly** — the profiler's core invariant.
//!
//! Attribution works on self time: a span's interval minus its children's
//! intervals belongs to the span itself, resolved to a category from the
//! span's name and its ancestry (a GEMM kernel inside a recompute region
//! is recompute). Time covered by no span at all is pipeline bubble /
//! idle.

use crate::timeline::{Timeline, Track};
use serde::{Deserialize, Serialize};

/// The closed category set of the attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// GEMM and other kernel compute.
    Gemm,
    /// Communication: blocking collectives and their ledger wrappers.
    ExposedComm,
    /// Activation recomputation serialized into the backward pass (the
    /// paper's trade currency): inline replays and their child kernels.
    ExposedRecompute,
    /// Optimizer / parameter update.
    Optimizer,
    /// Time covered by no span: pipeline bubble or rank idle.
    Bubble,
    /// Instrumented time that fits no other category (layer glue,
    /// dropout masks, loss math).
    Other,
}

/// Every category, in report order.
pub const CATEGORIES: [Category; 6] = [
    Category::Gemm,
    Category::ExposedComm,
    Category::ExposedRecompute,
    Category::Optimizer,
    Category::Bubble,
    Category::Other,
];

impl Category {
    /// Stable snake_case label used in JSON and narratives.
    pub fn label(self) -> &'static str {
        match self {
            Category::Gemm => "gemm",
            Category::ExposedComm => "exposed_comm",
            Category::ExposedRecompute => "exposed_recompute",
            Category::Optimizer => "optimizer",
            Category::Bubble => "bubble",
            Category::Other => "other",
        }
    }
}

/// Nanoseconds per category; the serializable attribution result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryNs {
    /// Kernel/GEMM compute.
    pub gemm: u64,
    /// Exposed communication.
    pub exposed_comm: u64,
    /// Exposed (inline) recomputation.
    pub exposed_recompute: u64,
    /// Optimizer.
    pub optimizer: u64,
    /// Bubble / idle.
    pub bubble: u64,
    /// Everything else.
    pub other: u64,
}

impl CategoryNs {
    /// Adds `ns` to one category.
    pub fn add(&mut self, cat: Category, ns: u64) {
        *self.slot(cat) += ns;
    }

    /// Reads one category.
    pub fn get(&self, cat: Category) -> u64 {
        match cat {
            Category::Gemm => self.gemm,
            Category::ExposedComm => self.exposed_comm,
            Category::ExposedRecompute => self.exposed_recompute,
            Category::Optimizer => self.optimizer,
            Category::Bubble => self.bubble,
            Category::Other => self.other,
        }
    }

    fn slot(&mut self, cat: Category) -> &mut u64 {
        match cat {
            Category::Gemm => &mut self.gemm,
            Category::ExposedComm => &mut self.exposed_comm,
            Category::ExposedRecompute => &mut self.exposed_recompute,
            Category::Optimizer => &mut self.optimizer,
            Category::Bubble => &mut self.bubble,
            Category::Other => &mut self.other,
        }
    }

    /// `(label, ns)` for every category, in report order.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        CATEGORIES.map(|c| (c.label(), self.get(c)))
    }

    /// Sum over all categories — must equal the wall time it was
    /// attributed over.
    pub fn total(&self) -> u64 {
        CATEGORIES.iter().map(|&c| self.get(c)).sum()
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &CategoryNs) {
        for c in CATEGORIES {
            self.add(c, other.get(c));
        }
    }
}

/// Span names that are blocking collective rendezvous.
pub(crate) fn is_collective(name: &str) -> bool {
    matches!(
        name,
        "all_reduce"
            | "all_gather"
            | "reduce_scatter"
            | "broadcast"
            | "barrier"
            | "send_recv"
            | "recv"
    )
}

/// Collectives that are *global* rounds every rank participates in (the
/// rendezvous edges of the cross-rank dependency graph). Point-to-point
/// sends are excluded: they pair two ranks, not the group.
pub(crate) fn is_global_rendezvous(name: &str) -> bool {
    matches!(name, "all_reduce" | "all_gather" | "reduce_scatter" | "broadcast" | "barrier")
}

#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    in_recompute: bool,
    in_optimizer: bool,
}

/// Category of a span's *self* time given its name and ancestry.
fn resolve(name: &str, ctx: Ctx) -> Category {
    if is_collective(name) || name == "comm_exposed" {
        // A rendezvous, or the ledger wrapper whose self time is the
        // bookkeeping around the collective it times.
        return Category::ExposedComm;
    }
    if name.starts_with("kernel_") || name == "fwd_chunk" || name == "bwd_chunk" {
        // Kernels executed for recomputation (or inside the optimizer)
        // count as that phase: the paper's accounting asks "what did this
        // time buy", not "which unit executed".
        if ctx.in_recompute {
            return Category::ExposedRecompute;
        }
        if ctx.in_optimizer {
            return Category::Optimizer;
        }
        return Category::Gemm;
    }
    if name.starts_with("recompute") {
        return Category::ExposedRecompute;
    }
    if name == "optimizer" {
        return Category::Optimizer;
    }
    if matches!(name, "epoch_reform" | "reshard" | "replay_segment") {
        // Elastic-recovery phases (mt-elastic): MTTR wall time bought
        // neither math nor bytes, so it lands in `other` — the category
        // sum still tiles the wall exactly, and a recovery-heavy window is
        // visibly recovery-heavy instead of masquerading as compute.
        return Category::Other;
    }
    if ctx.in_recompute {
        return Category::ExposedRecompute;
    }
    if ctx.in_optimizer {
        return Category::Optimizer;
    }
    Category::Other
}

/// A track's window tiled into disjoint, contiguous, categorized
/// segments: `Σ segment lengths == window length` exactly, by
/// construction.
#[derive(Debug, Clone)]
pub struct TrackSegments {
    /// Track id.
    pub track: u32,
    /// `(start_ns, end_ns, category)`, sorted, disjoint, covering the
    /// window with no gaps.
    pub segments: Vec<(u64, u64, Category)>,
}

impl TrackSegments {
    /// Per-category totals over the whole window.
    pub fn totals(&self) -> CategoryNs {
        let mut out = CategoryNs::default();
        for &(a, b, c) in &self.segments {
            out.add(c, b - a);
        }
        out
    }

    /// Per-category totals clipped to `[a, b]` (used to attribute
    /// critical-path slices).
    pub fn slice(&self, a: u64, b: u64) -> CategoryNs {
        let mut out = CategoryNs::default();
        for &(s, e, c) in &self.segments {
            let lo = s.max(a);
            let hi = e.min(b);
            if hi > lo {
                out.add(c, hi - lo);
            }
        }
        out
    }
}

/// Tiles one track's view of the global window into categorized segments.
pub fn segment_track(track: &Track, window: (u64, u64)) -> TrackSegments {
    let mut segments = Vec::new();
    let mut cursor = window.0;
    for &root in &track.roots {
        let start = track.spans[root].start_ns.max(cursor);
        if start > cursor {
            // Time covered by no span at all: bubble / idle.
            segments.push((cursor, start, Category::Bubble));
        }
        cursor = emit(track, root, Ctx::default(), cursor, &mut segments);
    }
    if window.1 > cursor {
        segments.push((cursor, window.1, Category::Bubble));
    }
    TrackSegments { track: track.track, segments }
}

/// Emits the categorized segments of one span subtree, starting no
/// earlier than `cursor`; returns the new cursor.
fn emit(
    track: &Track,
    idx: usize,
    ctx: Ctx,
    cursor: u64,
    out: &mut Vec<(u64, u64, Category)>,
) -> u64 {
    let span = &track.spans[idx];
    let own = resolve(&span.name, ctx);
    let child_ctx = Ctx {
        in_recompute: ctx.in_recompute || span.name.starts_with("recompute"),
        in_optimizer: ctx.in_optimizer || span.name == "optimizer",
    };
    let mut cursor = cursor.max(span.start_ns);
    for &child in &span.children {
        let child_start = track.spans[child].start_ns.max(cursor);
        if child_start > cursor {
            // Gap between children: the span's own (self) time.
            out.push((cursor, child_start, own));
        }
        cursor = emit(track, child, child_ctx, cursor, out);
    }
    if span.end_ns > cursor {
        out.push((cursor, span.end_ns, own));
        cursor = span.end_ns;
    }
    cursor
}

/// Attribution of every track of a timeline over the shared global
/// window.
pub fn segment_timeline(tl: &Timeline) -> Vec<TrackSegments> {
    tl.tracks.values().map(|t| segment_track(t, tl.window)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;
    use mt_trace::Tracer;

    /// Hand-built timeline with exactly known category splits.
    #[test]
    fn attribution_is_exact_on_a_synthetic_timeline() {
        let t = Tracer::enabled();
        // Track 0, window [0, 100us]:
        //   step [0, 100]
        //     kernel_gemm     [10, 30]  -> gemm      20us
        //     comm_exposed    [30, 50]
        //       all_reduce    [32, 48]  -> exposed   16us (+4us wrapper)
        //     recompute_layer [50, 70]
        //       kernel_gemm   [52, 68]  -> recompute 18us (kernel inherits)
        //     optimizer       [80, 90]  -> optimizer 10us
        // self time of step: [0,10]+[70,80]+[90,100] = 30us -> other
        t.complete_at("all_reduce", 0, 32.0, 16.0, Vec::new());
        t.complete_at("comm_exposed", 0, 30.0, 20.0, Vec::new());
        t.complete_at("kernel_gemm", 0, 10.0, 20.0, Vec::new());
        t.complete_at("kernel_gemm", 0, 52.0, 16.0, Vec::new());
        t.complete_at("recompute_layer", 0, 50.0, 20.0, Vec::new());
        t.complete_at("optimizer", 0, 80.0, 10.0, Vec::new());
        t.complete_at("step", 0, 0.0, 100.0, Vec::new());
        let tl = Timeline::build(&t.events()).unwrap();
        let segs = segment_track(&tl.tracks[&0], tl.window);
        let totals = segs.totals();
        assert_eq!(totals.gemm, 20_000);
        assert_eq!(totals.exposed_comm, 20_000, "collective + wrapper self time");
        assert_eq!(totals.exposed_recompute, 20_000, "kernel inside recompute inherits");
        assert_eq!(totals.optimizer, 10_000);
        assert_eq!(totals.other, 30_000);
        assert_eq!(totals.bubble, 0);
        assert_eq!(totals.total(), tl.wall_ns(), "categories tile the window exactly");
    }

    #[test]
    fn uncovered_time_is_bubble_and_slices_are_exact() {
        let t = Tracer::enabled();
        // Track 3 starts late (10us of bubble), then a kernel with a
        // collective nested in it.
        t.complete_at("all_gather", 3, 15.0, 10.0, Vec::new());
        t.complete_at("kernel_gemm", 3, 10.0, 40.0, Vec::new());
        // A second, earlier-starting track pins the window start at 0.
        t.complete_at("step", 0, 0.0, 50.0, Vec::new());
        let tl = Timeline::build(&t.events()).unwrap();
        assert_eq!(tl.window, (0, 50_000));
        let segs = segment_track(&tl.tracks[&3], tl.window);
        let totals = segs.totals();
        assert_eq!(totals.bubble, 10_000, "pre-first-span time is idle");
        assert_eq!(totals.exposed_comm, 10_000, "the nested collective");
        assert_eq!(totals.gemm, 30_000, "kernel self time");
        assert_eq!(totals.total(), tl.wall_ns());
        // Slices are exact too.
        let head = segs.slice(0, 20_000);
        assert_eq!(head.bubble, 10_000);
        assert_eq!(head.gemm, 5_000);
        assert_eq!(head.exposed_comm, 5_000);
        assert_eq!(head.total(), 20_000);
    }
}
