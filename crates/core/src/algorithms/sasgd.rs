//! SASGD — Algorithm 1 of the paper, as an engine strategy.
//!
//! `p` learners over disjoint data shards. Each learner runs `T` local
//! minibatch steps at rate `γ`, accumulating raw gradients into `gs`; a
//! global allreduce then sums the `gs` of all learners and every learner
//! applies `x ← x − γp·Σgs` to the *pre-interval* parameters before
//! continuing from the common `x`. The interval `T` amortizes the
//! communication; the allreduce replaces the parameter server.
//!
//! The exchange is the rank program's
//! [`EventOp::Gradient`](crate::engine::rank::EventOp::Gradient), on both
//! backends. Bulk-synchrony means each aggregation waits for the slowest
//! learner; on the simulated backend that wait is virtual time the
//! allreduce's receives charge, so it counts as communication from a
//! learner's perspective, as the paper measures "time spent in
//! communication".
//!
//! With `compression`, each learner's accumulated gradient is compressed
//! (with error feedback) before the allreduce and travels in the scheme's
//! wire format, so the counted traffic (and the simulated link time) falls
//! with the payload.

use crate::compress::Compression;
use crate::engine::AggregationStrategy;
use crate::history::StalenessStats;

/// Algorithm 1 with optional compressed aggregation.
pub(crate) struct SasgdStrategy {
    p: usize,
    t: usize,
    compression: Option<Compression>,
}

impl SasgdStrategy {
    pub(crate) fn new(p: usize, t: usize, compression: Option<Compression>) -> Self {
        assert!(p >= 1, "need at least one learner");
        assert!(t >= 1, "aggregation interval must be positive");
        SasgdStrategy { p, t, compression }
    }
}

impl AggregationStrategy for SasgdStrategy {
    fn label(&self) -> String {
        let (p, t) = (self.p, self.t);
        match self.compression {
            Some(_) => format!("SASGD-compressed(p={p},T={t})"),
            None => format!("SASGD(p={p},T={t})"),
        }
    }

    fn p(&self) -> usize {
        self.p
    }

    fn sync_interval(&self) -> usize {
        self.t
    }

    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        // SASGD's staleness is T by construction — record it so staleness
        // reports can compare against the measured async distributions.
        Some(StalenessStats {
            mean: self.t as f64,
            max: self.t as u64,
            pushes: syncs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, Algorithm, GammaP, History, TrainConfig};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_data::Dataset;
    use sasgd_nn::{models, Model};
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
    }

    /// SASGD on the simulated backend.
    #[allow(clippy::too_many_arguments)] // mirrors the Algorithm variant's fields
    fn run(
        factory: &mut dyn FnMut() -> Model,
        train_set: &Dataset,
        test_set: &Dataset,
        cfg: &TrainConfig,
        p: usize,
        t: usize,
        gamma_p: GammaP,
        compression: Option<Compression>,
    ) -> History {
        let algo = Algorithm::Sasgd {
            p,
            t,
            gamma_p,
            compression,
        };
        train(factory, train_set, test_set, &algo, cfg)
    }

    #[test]
    fn learns_with_four_learners() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        let mut factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = run(&mut factory, &train, &test, &cfg, 4, 2, GammaP::OverP, None);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
        assert!(
            h.records.last().expect("r").comm_seconds > 0.0,
            "p>1 must communicate"
        );
    }

    #[test]
    fn all_learners_hold_identical_params_after_sync() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = quiet_cfg(1, 0.05);
        // Run manually to inspect: easiest is T=1 where every step syncs,
        // so learner 0's history must equal a rerun's.
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let h1 = run(&mut f1, &train, &test, &cfg, 2, 1, GammaP::OverP, None);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let h2 = run(&mut f2, &train, &test, &cfg, 2, 1, GammaP::OverP, None);
        assert_eq!(
            h1.records.last().expect("r").train_loss,
            h2.records.last().expect("r").train_loss
        );
    }

    #[test]
    fn p1_t1_matches_sequential_trajectory() {
        // Algorithm 1 applies local steps to a scratch copy x' and the
        // global step to the pre-interval x. With p=1, T=1, local γ=0 and
        // γp=γ, every aggregation performs exactly x ← x − γ·g — i.e.
        // sequential SGD. The trajectories must coincide bitwise.
        let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
        let sasgd_cfg = quiet_cfg(3, 0.0);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h_sasgd = run(
            &mut f1,
            &train,
            &test,
            &sasgd_cfg,
            1,
            1,
            GammaP::Fixed(0.05),
            None,
        );
        let seq_cfg = quiet_cfg(3, 0.05);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(9));
        let h_seq = crate::train(&mut f2, &train, &test, &Algorithm::Sequential, &seq_cfg);
        for (a, b) in h_sasgd.records.iter().zip(&h_seq.records) {
            assert_eq!(a.train_loss, b.train_loss, "trajectories must coincide");
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn simulated_wire_accounting_shrinks_under_topk() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let cfg = quiet_cfg(1, 0.02);
        let mut f1 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let dense = run(&mut f1, &train, &test, &cfg, 2, 2, GammaP::OverP, None);
        let mut f2 = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let sparse = run(
            &mut f2,
            &train,
            &test,
            &cfg,
            2,
            2,
            GammaP::OverP,
            Some(Compression::TopK { ratio: 0.1 }),
        );
        let (d, s) = (dense.wire.expect("wire"), sparse.wire.expect("wire"));
        assert!(
            s.elements < d.elements / 2,
            "TopK-10% wire {} vs dense {}",
            s.elements,
            d.elements
        );
    }

    #[test]
    #[should_panic(expected = "shards too small")]
    fn rejects_empty_per_learner_epochs() {
        let (train, test) = generate(&CifarLikeConfig::tiny(8, 4, 2));
        let cfg = quiet_cfg(1, 0.05);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        run(&mut f, &train, &test, &cfg, 8, 1, GammaP::OverP, None);
    }
}
