//! Local SGD — periodic parameter averaging (Stich, ICLR 2019; Zhang
//! et al.'s "model averaging" done *during* training instead of once).
//!
//! `p` learners run `T` local minibatch steps independently, then every
//! replica is overwritten by the allreduce average of all replicas. For
//! `γp = γ/p` this is exactly the model-averaging view of Algorithm 1 the
//! paper derives in §III — SASGD's global step on the summed gradients
//! equals averaging the locally updated replicas — so Local SGD sits on
//! the same lattice point as SASGD-OverP up to float association.
//!
//! What this strategy adds is the **adaptive interval**: the squared
//! displacement of the average between consecutive rounds is emitted as
//! the sync signal, and an [`TSchedule::AdaptivePlateau`] policy doubles
//! `T` when that signal plateaus — communicating less as training
//! stabilizes. Since `T` only grows, the adaptive run never aggregates
//! more often than `Fixed { t: t0 }` over the same number of steps.
//!
//! The exchange is the rank program's
//! [`EventOp::ParamAverage`](crate::engine::rank::EventOp::ParamAverage):
//! a tree allreduce of the parameters scaled by `1/p`, whose displacement
//! from the previous average is the sync signal.

use crate::engine::{AggregationStrategy, Cadence};
use crate::schedule::{SyncPolicy, TSchedule};

/// Periodic parameter averaging with a fixed or adaptive interval.
pub(crate) struct LocalSgdStrategy {
    p: usize,
    schedule: TSchedule,
}

impl LocalSgdStrategy {
    pub(crate) fn new(p: usize, schedule: TSchedule) -> Self {
        assert!(p >= 1, "need at least one learner");
        if let TSchedule::Fixed { t } = schedule {
            assert!(t >= 1, "Local SGD needs T >= 1");
        }
        LocalSgdStrategy { p, schedule }
    }
}

impl AggregationStrategy for LocalSgdStrategy {
    fn label(&self) -> String {
        let p = self.p;
        match self.schedule {
            TSchedule::Fixed { t } => format!("LocalSGD(p={p},T={t})"),
            TSchedule::AdaptivePlateau { t0, .. } => format!("LocalSGD-adT(p={p},T0={t0})"),
        }
    }

    fn p(&self) -> usize {
        self.p
    }

    fn cadence(&self) -> Cadence {
        Cadence::EventDriven
    }

    fn sync_interval(&self) -> usize {
        match self.schedule {
            TSchedule::Fixed { t } => t,
            TSchedule::AdaptivePlateau { t0, .. } => t0,
        }
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::new(self.schedule)
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

    /// Local SGD on the simulated backend.
    fn run(
        factory: &mut dyn FnMut() -> Model,
        train_set: &Dataset,
        test_set: &Dataset,
        cfg: &TrainConfig,
        p: usize,
        schedule: TSchedule,
    ) -> History {
        let algo = Algorithm::LocalSgd { p, schedule };
        train(factory, train_set, test_set, &algo, cfg)
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
        let h = run(
            &mut factory,
            &train,
            &test,
            &cfg,
            4,
            TSchedule::Fixed { t: 2 },
        );
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "p>1 must communicate"
        );
    }

    #[test]
    fn adaptive_schedule_syncs_no_more_than_fixed_t0() {
        let (train, test) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(6, 0.05);
        let t0 = 2;
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let fixed = run(&mut f1, &train, &test, &cfg, 2, TSchedule::Fixed { t: t0 });
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let adaptive = run(
            &mut f2,
            &train,
            &test,
            &cfg,
            2,
            TSchedule::AdaptivePlateau {
                t0,
                t_max: 16,
                patience: 1,
                rel_improve: 0.5,
            },
        );
        assert!(
            adaptive.sync_rounds <= fixed.sync_rounds,
            "adaptive {} rounds vs fixed {}",
            adaptive.sync_rounds,
            fixed.sync_rounds
        );
        // A 50% improvement bar with patience 1 plateaus almost every
        // round, so T must actually have grown.
        assert!(
            adaptive.sync_rounds < fixed.sync_rounds,
            "plateau schedule should have grown T"
        );
    }
}
