//! Error types for the hardened collectives runtime.

use std::fmt;
use std::time::Duration;

/// Identity of one collective call, used to detect SPMD misuse: every rank
/// of a round must issue the same operation with the same shape and root.
///
/// The tag is deposited by the first rank to arrive at the rendezvous and
/// compared by every later rank, so a mismatched-collective bug (one rank
/// in `all_reduce`, another in `all_gather`; or mismatched shapes) surfaces
/// as [`CollectiveError::SpmdMismatch`] in release builds instead of a
/// silent deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallTag {
    /// Operation name (`"all_reduce"`, `"all_gather"`, ...). Distinguishes
    /// ops that share a [`CollectiveKind`](crate::CollectiveKind), e.g.
    /// `all_reduce` vs `all_reduce_max`.
    pub op: &'static str,
    /// Shape of the tensor each rank contributes.
    pub shape: Vec<usize>,
    /// Root rank, for rooted collectives (`broadcast`).
    pub root: Option<usize>,
    /// World-formation epoch the call belongs to. A fresh world is epoch 0;
    /// every elastic re-formation after a rank death bumps it. A straggler
    /// rank still replaying the old epoch that wanders into a re-formed
    /// world's round therefore surfaces as
    /// [`CollectiveError::SpmdMismatch`] naming both epochs, instead of a
    /// silent deadlock or a cross-epoch data mixup.
    pub epoch: u64,
}

impl fmt::Display for CallTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(shape={:?}", self.op, self.shape)?;
        if let Some(root) = self.root {
            write!(f, ", root={root}")?;
        }
        if self.epoch != 0 {
            write!(f, ", epoch={}", self.epoch)?;
        }
        write!(f, ")")
    }
}

/// Why a collective or point-to-point operation failed.
///
/// Returned by the `try_*` methods on [`Communicator`](crate::Communicator);
/// the infallible methods raise the same error as a panic payload, which
/// [`World::run_fallible`](crate::World::run_fallible) catches and converts
/// back into an `Err`, so no caller ever hangs on a lost rank.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveError {
    /// The rendezvous deadline elapsed before every rank arrived.
    Timeout {
        /// Rank that observed the timeout.
        rank: usize,
        /// Operation that timed out.
        op: &'static str,
        /// How long the rank waited.
        waited: Duration,
    },
    /// A participating rank died (panicked); the operation can never
    /// complete.
    RankDead {
        /// Rank that observed the failure.
        rank: usize,
        /// The rank that is known dead.
        dead_rank: usize,
    },
    /// Two ranks issued different collectives (or the same collective with
    /// different shapes/roots) into the same round — an SPMD bug.
    SpmdMismatch {
        /// Rank that observed the mismatch.
        rank: usize,
        /// Tag deposited by the first rank of the round. Boxed to keep the
        /// error (and every `Result` carrying it) pointer-sized-ish; the
        /// mismatch path is already the slow path.
        expected: Box<CallTag>,
        /// Tag this rank (or the mismatching rank) brought.
        found: Box<CallTag>,
    },
    /// A point-to-point peer's channel endpoint is gone.
    PeerDisconnected {
        /// Rank that observed the failure.
        rank: usize,
        /// The peer whose endpoint hung up.
        peer: usize,
    },
    /// A transient failure injected by the world's fault plan. Retrying the
    /// same call succeeds.
    InjectedTransient {
        /// Rank the fault was injected on.
        rank: usize,
        /// The rank's collective sequence number the fault targeted.
        seq: u64,
    },
}

impl CollectiveError {
    /// Short machine-readable label (`"timeout"`, `"rank_dead"`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            CollectiveError::Timeout { .. } => "timeout",
            CollectiveError::RankDead { .. } => "rank_dead",
            CollectiveError::SpmdMismatch { .. } => "spmd_mismatch",
            CollectiveError::PeerDisconnected { .. } => "peer_disconnected",
            CollectiveError::InjectedTransient { .. } => "injected_transient",
        }
    }
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Timeout { rank, op, waited } => {
                write!(f, "rank {rank}: {op} timed out after {waited:?} waiting for peers")
            }
            CollectiveError::RankDead { rank, dead_rank } => {
                write!(f, "rank {rank}: collective aborted, rank {dead_rank} is dead")
            }
            CollectiveError::SpmdMismatch { rank, expected, found } => {
                write!(f, "rank {rank}: SPMD mismatch, round started as {expected} but got {found}")
            }
            CollectiveError::PeerDisconnected { rank, peer } => {
                write!(f, "rank {rank}: peer {peer} disconnected")
            }
            CollectiveError::InjectedTransient { rank, seq } => {
                write!(f, "rank {rank}: injected transient failure at collective #{seq}")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_coordinates() {
        let e = CollectiveError::SpmdMismatch {
            rank: 1,
            expected: Box::new(CallTag {
                op: "all_reduce",
                shape: vec![2, 3],
                root: None,
                epoch: 0,
            }),
            found: Box::new(CallTag {
                op: "broadcast",
                shape: vec![2, 3],
                root: Some(0),
                epoch: 0,
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("all_reduce(shape=[2, 3])"), "{msg}");
        assert!(msg.contains("broadcast(shape=[2, 3], root=0)"), "{msg}");
        assert_eq!(e.label(), "spmd_mismatch");
    }

    #[test]
    fn display_names_the_epoch_after_a_reform() {
        // Epoch 0 (a never-reformed world) stays out of the rendering so
        // ordinary mismatch messages keep their familiar shape.
        let t = CallTag { op: "barrier", shape: vec![], root: None, epoch: 2 };
        assert_eq!(t.to_string(), "barrier(shape=[], epoch=2)");
    }
}
