//! One-shot model averaging (Zinkevich et al., NIPS 2010).
//!
//! `p` learners train *independently* on disjoint shards; parameters are
//! averaged only at the end (we also evaluate the running average each
//! epoch so its trajectory can be plotted). Section III of the paper
//! reports this heuristic "results in very poor training and test
//! accuracies" relative to SASGD's per-interval aggregation — an ablation
//! this module lets the benches reproduce.
//!
//! The exchange is the rank program's
//! [`EventOp::EpochAverage`](crate::engine::rank::EventOp::EpochAverage):
//! every epoch end gathers the parameters to rank 0, which averages them
//! in rank order into a spare replica it evaluates. Only the final gather
//! is part of the algorithm, so only it is charged virtual time.

use crate::engine::AggregationStrategy;

/// Independent learners with end-of-training averaging: never syncs, uses
/// the epoch-start γ, evaluates a spare replica holding the rank-ordered
/// average of all learner parameters.
pub(crate) struct AveragingStrategy {
    p: usize,
}

impl AveragingStrategy {
    pub(crate) fn new(p: usize) -> Self {
        assert!(p >= 1);
        AveragingStrategy { p }
    }
}

impl AggregationStrategy for AveragingStrategy {
    fn label(&self) -> String {
        format!("ModelAvg(p={})", self.p)
    }

    fn p(&self) -> usize {
        self.p
    }

    fn lockstep_truncates(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::{train, Algorithm, TrainConfig};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    #[test]
    fn p1_averaging_is_just_sgd() {
        let (train_set, test) = generate(&CifarLikeConfig::tiny(80, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::ModelAverageOnce { p: 1 };
        let h = train(&mut factory, &train_set, &test, &algo, &cfg);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }
}
