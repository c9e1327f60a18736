//! DaSGD-style delayed parameter averaging.
//!
//! Like Local SGD, `p` learners average their replicas every `T` steps —
//! but the average launched at round `k` is only *applied* at round
//! `k + 1`, while the learners have already run `T` steps ahead on their
//! stale replicas. Applying the delayed average re-bases each learner's
//! local progress onto it:
//!
//! ```text
//! x_i ← avg_{k-1} + (x_i − snap_i)
//! ```
//!
//! where `snap_i` is learner `i`'s parameter vector right after the
//! previous application. The allreduce thus overlaps with compute: a
//! learner only waits if the *previous* round's average has not finished
//! travelling by the time it needs it, so for `T·step ≥ allreduce` the
//! communication hides completely — the lattice point between
//! bulk-synchronous SASGD (stall every round) and Downpour (unbounded
//! staleness). The price is a fixed one-round staleness, reported through
//! [`AggregationStrategy::collective_tau`].
//!
//! The exchange is the rank program's
//! [`EventOp::DelayedAverage`](crate::engine::rank::EventOp::DelayedAverage).
//! On the simulated backend the allreduce of round `k` leaves the virtual
//! clock at its launch; round `k + 1` waits only for whatever of it has
//! not landed yet.

use crate::engine::{AggregationStrategy, Cadence};

/// Delayed averaging: round-k average applied at round k+1.
pub(crate) struct DaSgdStrategy {
    p: usize,
    t: usize,
}

impl DaSgdStrategy {
    pub(crate) fn new(p: usize, t: usize) -> Self {
        assert!(p >= 1, "need at least one learner");
        assert!(t >= 1, "averaging interval must be positive");
        DaSgdStrategy { p, t }
    }
}

impl AggregationStrategy for DaSgdStrategy {
    fn label(&self) -> String {
        format!("DaSGD(p={},T={})", self.p, self.t)
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cadence(&self) -> Cadence {
        Cadence::EventDriven
    }

    fn sync_interval(&self) -> usize {
        self.t
    }

    fn collective_tau(&self) -> u64 {
        // Every applied average is exactly one round old by construction.
        1
    }
}

#[cfg(test)]
mod tests {
    use crate::{train, Algorithm, History, TSchedule, TrainConfig};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_data::Dataset;
    use sasgd_nn::{models, Model};
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    /// Delayed averaging on the simulated backend.
    fn run(
        factory: &mut dyn FnMut() -> Model,
        train_set: &Dataset,
        test_set: &Dataset,
        cfg: &TrainConfig,
        p: usize,
        t: usize,
    ) -> History {
        train(
            factory,
            train_set,
            test_set,
            &Algorithm::DelayedAvg { p, t },
            cfg,
        )
    }

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
    }

    #[test]
    fn learns_with_four_learners() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = run(&mut factory, &train, &test, &cfg, 4, 2);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        let st = h.staleness.expect("delayed averaging records staleness");
        assert_eq!(st.max, 1, "staleness is one round by construction");
    }

    #[test]
    fn p1_delayed_averaging_is_nearly_transparent() {
        // With one learner the "average" is the learner itself, so the
        // delayed application rebases to prev + (cur − snap) = cur up to
        // f32 association — mathematically the identity, so p=1 delayed
        // averaging must track p=1 Local SGD to rounding noise. (Bitwise
        // equality is the *cross-backend* contract, pinned in the
        // distributed-equivalence suite, not a DaSGD-vs-LocalSGD one.)
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let cfg = quiet_cfg(3, 0.05);
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(9));
        let da = run(&mut f1, &train, &test, &cfg, 1, 2);
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(9));
        let algo = Algorithm::LocalSgd {
            p: 1,
            schedule: TSchedule::Fixed { t: 2 },
        };
        let ls = crate::train(&mut f2, &train, &test, &algo, &cfg);
        let a = da.final_params.expect("params");
        let b = ls.final_params.expect("params");
        assert_eq!(a.len(), b.len());
        let max_diff = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-4,
            "p=1 delayed averaging drifted {max_diff} from plain local training"
        );
    }
}
