//! Cross-rank critical path.
//!
//! The dependency graph has two edge kinds: parent/child nesting inside a
//! track (already explicit in the [`Timeline`] forest) and
//! collective-rendezvous edges *across* tracks. The latter come from the
//! SPMD protocol itself: every rank issues the same sequence of global
//! collectives (the property `CallTag` mismatch detection enforces at
//! runtime), so the i-th global collective span on each track is the same
//! logical round, and a round completes only after its **last arriver**
//! enters it.
//!
//! The path is extracted by walking backward from the latest span end:
//! time on the current rank runs back to the rendezvous that gated it,
//! then jumps to whichever rank arrived last at that round, and so on
//! until the window start. Segment boundaries telescope, so the path's
//! total length equals the profiled step wall time **exactly**.

use crate::attrib::is_global_rendezvous;
use crate::timeline::Timeline;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One matched cross-rank rendezvous round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Stable key: `seq:op:payload_bytes` — the profiler's
    /// rendering of the runtime `CallTag`.
    pub key: String,
    /// Track → index of that track's span for this round.
    pub spans: BTreeMap<u32, usize>,
}

/// One critical-path slice: time attributed to `track` over
/// `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CritSegment {
    /// The rank lane this slice runs on.
    pub track: u32,
    /// Slice start (tracer nanoseconds).
    pub start_ns: u64,
    /// Slice end (tracer nanoseconds).
    pub end_ns: u64,
}

/// The extracted path: contiguous segments from window start to window
/// end, plus the number of cross-rank handoffs taken.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Forward-ordered, contiguous segments tiling the window.
    pub segments: Vec<CritSegment>,
    /// Cross-rank rendezvous handoffs along the path.
    pub rendezvous: u64,
}

/// Matches each track's global collective spans into rounds by SPMD issue
/// order, validating that every track agrees on the round's signature.
pub fn collective_rounds(tl: &Timeline) -> Result<Vec<Round>, String> {
    let per_track: BTreeMap<u32, Vec<usize>> = tl
        .tracks
        .iter()
        .map(|(&id, track)| {
            let mut idxs: Vec<usize> = (0..track.spans.len())
                .filter(|&i| is_global_rendezvous(&track.spans[i].name))
                .collect();
            idxs.sort_by_key(|&i| (track.spans[i].start_ns, track.spans[i].end_ns));
            (id, idxs)
        })
        .collect();
    let counts: Vec<usize> = per_track.values().map(Vec::len).collect();
    let Some(&n) = counts.first() else { return Ok(Vec::new()) };
    if counts.iter().any(|&c| c != n) {
        return Err(format!(
            "SPMD violation in trace: per-track global-collective counts differ ({counts:?})"
        ));
    }
    let mut rounds = Vec::with_capacity(n);
    for i in 0..n {
        let mut signature: Option<String> = None;
        let mut spans = BTreeMap::new();
        for (&id, idxs) in &per_track {
            let span = &tl.tracks[&id].spans[idxs[i]];
            let sig = format!("{}:{}", span.name, span.arg_u64("payload_bytes").unwrap_or(0));
            match &signature {
                None => signature = Some(sig),
                Some(expected) if *expected != sig => {
                    return Err(format!(
                        "round {i}: track {id} issued {sig} where others issued {expected} \
                         (trace is not SPMD-consistent)"
                    ));
                }
                Some(_) => {}
            }
            spans.insert(id, idxs[i]);
        }
        rounds.push(Round { key: format!("{i}:{}", signature.unwrap_or_default()), spans });
    }
    Ok(rounds)
}

/// Extracts the cross-rank critical path over the timeline's window.
pub fn critical_path(tl: &Timeline, rounds: &[Round]) -> CriticalPath {
    // Per track: (span start, round index), ascending — the rendezvous
    // this track passed through, in time order.
    let mut gates: BTreeMap<u32, Vec<(u64, usize)>> = BTreeMap::new();
    for (ri, round) in rounds.iter().enumerate() {
        for (&id, &span_idx) in &round.spans {
            gates.entry(id).or_default().push((tl.tracks[&id].spans[span_idx].start_ns, ri));
        }
    }
    for list in gates.values_mut() {
        list.sort_unstable();
    }

    // Start on the track whose timeline ends last.
    let mut track = tl
        .tracks
        .values()
        .max_by_key(|t| t.spans.iter().map(|s| s.end_ns).max().unwrap_or(0))
        .map(|t| t.track)
        .expect("timeline has at least one track");
    let mut t = tl.window.1;
    let mut segments = Vec::new();
    let mut rendezvous = 0u64;
    loop {
        let empty = Vec::new();
        let list = gates.get(&track).unwrap_or(&empty);
        let p = list.partition_point(|&(start, _)| start < t);
        if p == 0 {
            // No rendezvous gated this stretch: pure local execution back
            // to the window start.
            if t > tl.window.0 {
                segments.push(CritSegment { track, start_ns: tl.window.0, end_ns: t });
            }
            break;
        }
        let (gate_start, round_idx) = list[p - 1];
        // The last arriver determines when this round released everyone.
        let (q, arrival) = rounds[round_idx]
            .spans
            .iter()
            .map(|(&id, &si)| (id, tl.tracks[&id].spans[si].start_ns))
            .max_by_key(|&(id, start)| (start, id))
            .expect("round has at least one participant");
        let (hop_track, hop_t) = if q != track && arrival < t {
            rendezvous += 1;
            (q, arrival)
        } else {
            // Current rank arrived last itself (or the trace is skewed):
            // the path stays local back to its own arrival.
            (track, gate_start.min(t))
        };
        if t > hop_t {
            segments.push(CritSegment { track, start_ns: hop_t, end_ns: t });
        }
        debug_assert!(hop_t < t, "critical-path walk must make progress");
        t = hop_t;
        track = hop_track;
        if t <= tl.window.0 {
            break;
        }
    }
    segments.reverse();
    CriticalPath { segments, rendezvous }
}

impl CriticalPath {
    /// Sum of segment lengths — equals the window length exactly when the
    /// walk tiled it (verified by `report::verify`).
    pub fn total_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.end_ns - s.start_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;
    use mt_trace::{ArgValue, Tracer};

    fn comm_args(payload: u64) -> Vec<(&'static str, ArgValue)> {
        vec![("payload_bytes", ArgValue::U64(payload))]
    }

    /// Two ranks, one all-reduce. Rank 1 computes longer and arrives
    /// late; rank 0 waits. The path must run: rank1 compute → rendezvous
    /// → the slowest tail — and total exactly the window.
    #[test]
    fn path_jumps_to_the_last_arriver() {
        let t = Tracer::enabled();
        // rank 0: compute [0,10], all_reduce [10,42], tail [42,50]
        t.complete_at("kernel_gemm", 0, 0.0, 10.0, Vec::new());
        t.complete_at("all_reduce", 0, 10.0, 32.0, comm_args(64));
        t.complete_at("kernel_gemm", 0, 42.0, 8.0, Vec::new());
        // rank 1: compute [0,40], all_reduce [40,42], tail [42,44]
        t.complete_at("kernel_gemm", 1, 0.0, 40.0, Vec::new());
        t.complete_at("all_reduce", 1, 40.0, 2.0, comm_args(64));
        t.complete_at("kernel_gemm", 1, 42.0, 2.0, Vec::new());
        let tl = Timeline::build(&t.events()).unwrap();
        let rounds = collective_rounds(&tl).unwrap();
        assert_eq!(rounds.len(), 1);
        let path = critical_path(&tl, &rounds);
        assert_eq!(path.total_ns(), tl.wall_ns(), "path tiles the window exactly");
        assert_eq!(path.rendezvous, 1);
        // Forward order: rank 1 until its arrival at 40us, then rank 0
        // (the last-ending track) through the rendezvous and tail.
        assert_eq!(
            path.segments,
            vec![
                CritSegment { track: 1, start_ns: 0, end_ns: 40_000 },
                CritSegment { track: 0, start_ns: 40_000, end_ns: 50_000 },
            ]
        );
    }

    #[test]
    fn mismatched_round_signatures_are_rejected() {
        let t = Tracer::enabled();
        t.complete_at("all_reduce", 0, 0.0, 5.0, comm_args(64));
        t.complete_at("all_gather", 1, 0.0, 5.0, comm_args(64));
        let tl = Timeline::build(&t.events()).unwrap();
        assert!(collective_rounds(&tl).is_err());
    }

    #[test]
    fn no_collectives_means_one_local_segment() {
        let t = Tracer::enabled();
        t.complete_at("kernel_gemm", 0, 0.0, 30.0, Vec::new());
        let tl = Timeline::build(&t.events()).unwrap();
        let rounds = collective_rounds(&tl).unwrap();
        let path = critical_path(&tl, &rounds);
        assert_eq!(path.rendezvous, 0);
        assert_eq!(path.total_ns(), tl.wall_ns());
        assert_eq!(path.segments.len(), 1);
    }
}
