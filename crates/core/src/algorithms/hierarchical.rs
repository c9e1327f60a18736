//! Hierarchical SASGD — a two-level extension of Algorithm 1.
//!
//! The paper's 16-learner runs place two learners per GPU; its conclusion
//! expects GPU counts to keep growing. At that point one flat allreduce
//! over all learners wastes the locality: learners sharing a device (or a
//! PCIe switch) can aggregate almost for free. This module implements the
//! natural two-level scheme:
//!
//! * **level 1** — every `t_local` minibatches, each *group* of
//!   `per_group` learners aggregates its gradient sums over the fast local
//!   fabric and applies the global step to a group-local parameter copy
//!   (exactly Algorithm 1 run per group);
//! * **level 2** — every `t_global` level-1 rounds, the group parameter
//!   copies are averaged across groups over the slower global fabric
//!   (periodic model averaging, which §III shows is what Algorithm 1
//!   simulates).
//!
//! With `groups = 1` this reduces to flat SASGD with `T = t_local`
//! (verified by a test); with `t_global = 1` it is flat SASGD at twice the
//! granularity. The interesting regime is `t_global > 1`: global traffic
//! drops by `t_global×` while staleness across groups stays explicitly
//! bounded by `t_local · t_global`.
//!
//! The exchange is the rank program's
//! [`EventOp::Hierarchical`](crate::engine::rank::EventOp::Hierarchical)
//! over a global, a group and a leader world, on both backends; the
//! level-2 average is taken in rank order at the first leader, so the
//! backends agree bitwise at any group count.

use crate::engine::AggregationStrategy;
use crate::history::StalenessStats;

/// Speed advantage of the intra-group fabric over the global GPU fabric
/// (learners in a group share a device or PCIe switch): the simulated
/// backend divides every group message's link time by it.
pub(crate) const LOCAL_FABRIC_SPEEDUP: f64 = 8.0;

/// Two-level SASGD over `groups × per_group` learners.
pub(crate) struct HierarchicalStrategy {
    groups: usize,
    per_group: usize,
    t_local: usize,
    t_global: usize,
}

impl HierarchicalStrategy {
    pub(crate) fn new(groups: usize, per_group: usize, t_local: usize, t_global: usize) -> Self {
        assert!(groups >= 1 && per_group >= 1, "need at least one learner");
        assert!(t_local >= 1 && t_global >= 1, "intervals must be positive");
        HierarchicalStrategy {
            groups,
            per_group,
            t_local,
            t_global,
        }
    }
}

impl AggregationStrategy for HierarchicalStrategy {
    fn label(&self) -> String {
        format!(
            "H-SASGD(g={}x{},Tl={},Tg={})",
            self.groups, self.per_group, self.t_local, self.t_global
        )
    }

    fn p(&self) -> usize {
        self.groups * self.per_group
    }

    fn sync_interval(&self) -> usize {
        self.t_local
    }

    fn history_interval(&self) -> usize {
        self.t_local * self.t_global
    }

    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        let bound = (self.t_local * self.t_global) as f64;
        Some(StalenessStats {
            mean: bound,
            max: bound as u64,
            pushes: syncs,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{train, Algorithm, GammaP, History, TrainConfig};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_data::Dataset;
    use sasgd_nn::{models, Model};
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    /// Hierarchical SASGD on the simulated backend.
    #[allow(clippy::too_many_arguments)] // mirrors the Algorithm variant's fields
    fn run(
        factory: &mut dyn FnMut() -> Model,
        train_set: &Dataset,
        test_set: &Dataset,
        cfg: &TrainConfig,
        groups: usize,
        per_group: usize,
        t_local: usize,
        t_global: usize,
        gamma_p: GammaP,
    ) -> History {
        let algo = Algorithm::HierarchicalSasgd {
            groups,
            per_group,
            t_local,
            t_global,
            gamma_p,
        };
        train(factory, train_set, test_set, &algo, cfg)
    }

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
    }

    #[test]
    fn single_group_equals_flat_sasgd() {
        let (train_set, test) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(3, 0.05);
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let algo = Algorithm::sasgd(4, 2, GammaP::OverP);
        let flat = train(&mut f1, &train_set, &test, &algo, &cfg);
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let hier = run(&mut f2, &train_set, &test, &cfg, 1, 4, 2, 3, GammaP::OverP);
        for (a, b) in flat.records.iter().zip(&hier.records) {
            assert_eq!(
                a.train_loss, b.train_loss,
                "one group must equal flat SASGD"
            );
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn staleness_bound_is_product_of_intervals() {
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 2));
        let cfg = quiet_cfg(2, 0.02);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        let h = run(&mut f, &train, &test, &cfg, 2, 2, 3, 2, GammaP::OverP);
        let st = h.staleness.expect("hierarchical records staleness");
        assert_eq!(st.max, 6, "bound = t_local × t_global");
    }

    #[test]
    #[should_panic(expected = "intervals must be positive")]
    fn zero_interval_rejected() {
        let (train, test) = generate(&CifarLikeConfig::tiny(32, 8, 2));
        let cfg = quiet_cfg(1, 0.02);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
        run(&mut f, &train, &test, &cfg, 2, 2, 0, 1, GammaP::OverP);
    }
}
