//! What one step returns, and the output checks every step must pass.

use mt_collectives::CommStats;
use mt_model::StepTiming;
use mt_trace::Tracer;

/// Trace track of the benchmark's own driver spans (`bench.batch`), clear
/// of the rank tracks `0..ranks`.
pub const DRIVER_TRACK: u32 = 100;

/// What one rank reports for one step.
#[derive(Debug, Clone)]
pub struct RankRecord {
    /// The step's loss as this rank saw it.
    pub loss: f32,
    /// Peak live activation bytes (paper accounting) on this rank.
    pub activation_bytes: u64,
    /// Peak microbatch states simultaneously live on this rank.
    pub live_states: usize,
    /// Collective and recompute time, total and exposed.
    pub timing: StepTiming,
    /// Collective calls and bytes this rank issued.
    pub comm: CommStats,
}

/// One step: wall time seen by the driver and each rank's record (or the
/// error that rank failed with).
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Wall seconds of the whole step, driver-side.
    pub wall_s: f64,
    /// Per-rank records in rank (pipeline: stage) order.
    pub ranks: Vec<Result<RankRecord, String>>,
}

/// A set-up model that can run steps.
pub trait Session {
    /// Runs one step, recording spans into `tracer` (a disabled tracer
    /// records nothing).
    fn step(&mut self, tracer: &Tracer) -> StepRecord;
}

/// What every step's outputs must equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expect {
    /// Worst-rank peak activation bytes, when the workload predicts them.
    pub activation_bytes: Option<u64>,
    /// Per-rank peak live microbatch states, when the workload predicts
    /// them.
    pub live_states: Option<Vec<usize>>,
}

impl StepRecord {
    /// The step's loss (rank 0's).
    pub fn loss(&self) -> Option<f32> {
        self.ranks.first()?.as_ref().ok().map(|r| r.loss)
    }

    /// Worst-rank peak activation bytes.
    pub fn activation_bytes(&self) -> u64 {
        self.ranks.iter().flatten().map(|r| r.activation_bytes).max().unwrap_or(0)
    }

    /// Checks the step's outputs: every rank finished, all ranks agree on
    /// the loss bit for bit, the loss is finite, and the activation bytes
    /// and live microbatch states equal `expect`.
    pub fn check(&self, expect: &Expect) -> Result<(), String> {
        let ranks: Vec<&RankRecord> = self
            .ranks
            .iter()
            .map(|r| r.as_ref().map_err(Clone::clone))
            .collect::<Result<_, _>>()?;
        let loss = ranks.first().ok_or("no ranks")?.loss;
        if !loss.is_finite() {
            return Err(format!("loss {loss} is not finite"));
        }
        if let Some(r) = ranks.iter().position(|r| r.loss.to_bits() != loss.to_bits()) {
            return Err(format!("rank {r} loss {} != rank 0 loss {loss}", ranks[r].loss));
        }
        if let Some(want) = expect.activation_bytes {
            let got = self.activation_bytes();
            if got != want {
                return Err(format!("activation bytes {got} != predicted {want}"));
            }
        }
        if let Some(want) = &expect.live_states {
            let got: Vec<usize> = ranks.iter().map(|r| r.live_states).collect();
            if &got != want {
                return Err(format!("peak live states {got:?} != min(p - stage, m) = {want:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(loss: f32, bytes: u64, live: usize) -> Result<RankRecord, String> {
        Ok(RankRecord {
            loss,
            activation_bytes: bytes,
            live_states: live,
            timing: StepTiming::default(),
            comm: CommStats::new(),
        })
    }

    #[test]
    fn checks_pass_on_agreeing_ranks() {
        let step = StepRecord { wall_s: 1.0, ranks: vec![rank(2.5, 10, 2), rank(2.5, 12, 1)] };
        let expect = Expect { activation_bytes: Some(12), live_states: Some(vec![2, 1]) };
        assert_eq!(step.check(&expect), Ok(()));
        assert_eq!(step.check(&Expect::default()), Ok(()));
    }

    #[test]
    fn each_check_can_fail() {
        let step = StepRecord { wall_s: 1.0, ranks: vec![rank(2.5, 10, 2), rank(2.5, 12, 1)] };
        // A perturbed expectation is a failed step.
        assert!(step.check(&Expect { activation_bytes: Some(13), ..Expect::default() }).is_err());
        assert!(step
            .check(&Expect { live_states: Some(vec![2, 2]), ..Expect::default() })
            .is_err());
        let split = StepRecord { wall_s: 1.0, ranks: vec![rank(2.5, 1, 1), rank(2.5000002, 1, 1)] };
        assert!(split.check(&Expect::default()).unwrap_err().contains("rank 1"));
        let nan = StepRecord { wall_s: 1.0, ranks: vec![rank(f32::NAN, 1, 1)] };
        assert!(nan.check(&Expect::default()).is_err());
        let dead =
            StepRecord { wall_s: 1.0, ranks: vec![rank(1.0, 1, 1), Err("rank died".into())] };
        assert_eq!(dead.check(&Expect::default()), Err("rank died".into()));
    }
}
