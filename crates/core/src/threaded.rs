//! SASGD over real OS threads — Algorithm 1 on the `sasgd-comm`
//! collectives, measuring wall-clock time instead of virtual time.
//!
//! The batch orders, dropout streams and aggregation arithmetic mirror the
//! simulated `algorithms::sasgd` implementation (the simulated
//! aggregation sums in the same binomial-tree order the collective uses),
//! so the two backends produce *identical parameters*; an integration test
//! in the workspace root asserts it. This is the backend the Criterion
//! benches drive for real-parallelism measurements.

use std::time::{Duration, Instant};

use sasgd_comm::collectives::{allreduce_tree, broadcast};
use sasgd_comm::fault::FaultPlan;
use sasgd_data::{make_shards, Dataset};
use sasgd_nn::Model;

use crate::algorithms::GammaP;
use crate::engine::threaded::join_learners;
use crate::history::History;
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// Fault-injection configuration for [`run_threaded_sasgd_ft`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// The deterministic fault plan (crashes, stalls, message drops).
    pub plan: FaultPlan,
    /// Failure-detection deadline: how long a learner waits on a peer
    /// before treating it as lost. Trades detection latency against
    /// false-positive evictions of stragglers.
    pub deadline: Duration,
}

impl Default for FaultConfig {
    /// No injected faults, half-second detection deadline.
    fn default() -> Self {
        FaultConfig {
            plan: FaultPlan::none(),
            deadline: Duration::from_millis(500),
        }
    }
}

/// Run SASGD with one OS thread per learner. `factory` is called once per
/// thread and must produce identically initialized models. Delegates to
/// the unified engine's threaded backend (kept as a stable entry point for
/// the benches and equivalence tests).
///
/// # Panics
/// Panics on a wire failure — impossible over healthy in-process channels;
/// use [`try_run_threaded_sasgd`] for the typed error.
pub fn run_threaded_sasgd(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
) -> History {
    try_run_threaded_sasgd(factory, train_set, test_set, cfg, p, t, gamma_p)
        .unwrap_or_else(|e| panic!("threaded SASGD(p={p},T={t}): {e}"))
}

/// [`run_threaded_sasgd`] with wire failures surfaced as typed
/// [`EngineError::WireFailure`](crate::EngineError) values instead of
/// panics — the entry point for callers whose substrate can actually fail
/// (the multi-process launcher reports these per rank).
pub fn try_run_threaded_sasgd(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
) -> Result<History, crate::EngineError> {
    crate::engine::threaded::run_sasgd(factory, train_set, test_set, cfg, p, t, gamma_p, None)
}

/// Run SASGD on the threaded backend under the fault-tolerance layer:
/// deterministic crash/stall/drop injection from `faults.plan`, deadline
/// failure detection, and graceful degradation onto the survivors (the
/// binomial tree is rebuilt over `p' < p` ranks and `γp` rescales per
/// `gamma_p`). With [`FaultPlan::none`] the run is bitwise identical to
/// [`run_threaded_sasgd`]; with faults it is bitwise reproducible for the
/// same plan. Membership changes are recorded in
/// [`History::membership`](crate::history::History::membership); learners
/// that left mid-run (evicted *or* cut off by a survivable wire failure)
/// appear in [`History::retirements`](crate::history::History::retirements)
/// — neither path panics.
///
/// # Panics
/// Panics only on an *unsurvivable* failure (a wire failure under the
/// recovery coordinator, rank 0); use [`try_run_threaded_sasgd_ft`] for
/// the typed error.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub fn run_threaded_sasgd_ft(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
    faults: &FaultConfig,
) -> History {
    try_run_threaded_sasgd_ft(factory, train_set, test_set, cfg, p, t, gamma_p, faults)
        .unwrap_or_else(|e| panic!("threaded SASGD-ft(p={p},T={t}) could not degrade: {e}"))
}

/// [`run_threaded_sasgd_ft`] with the unsurvivable-failure case surfaced
/// as a typed [`EngineError`](crate::EngineError) instead of a panic.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub fn try_run_threaded_sasgd_ft(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
    faults: &FaultConfig,
) -> Result<History, crate::EngineError> {
    crate::engine::threaded::try_run_sasgd_ft(
        factory,
        train_set,
        test_set,
        cfg,
        p,
        t,
        gamma_p,
        &faults.plan,
        faults.deadline,
    )
}

/// Run Downpour with one OS thread per learner against `shards`
/// parameter-server shard threads. Unlike the simulated backend, the
/// interleaving here is decided by the OS scheduler — runs are *not*
/// reproducible across executions (that is the point: it demonstrates
/// genuine asynchrony on the same substrate Downpour was defined for).
/// Returns learner 0's history.
///
/// With `staleness_gamma` each push is scaled by `γ/(1+τ)` where τ is the
/// *measured* number of pushes the server applied between this learner's
/// last pull and its push — counted by a shared atomic, so the scaling
/// reflects the real interleaving, not a model of it. Rank 0's per-push τ
/// observations land in
/// [`History::staleness_series`](crate::history::History::staleness_series).
///
/// # Panics
/// Panics on a wire failure; [`Executor::try_run`](crate::Executor::try_run)
/// returns it as [`EngineError::WireFailure`](crate::EngineError).
#[allow(clippy::too_many_arguments)] // mirrors the Downpour variant's fields
pub fn run_threaded_downpour(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    shards: usize,
    staleness_gamma: bool,
) -> History {
    crate::engine::threaded::run_async_ps(
        factory,
        train_set,
        test_set,
        cfg,
        p,
        t,
        shards,
        crate::engine::rank::PsExchange::Downpour,
        staleness_gamma,
    )
    .unwrap_or_else(|e| panic!("threaded Downpour(p={p},T={t}): {e}"))
}

/// Run hierarchical SASGD over real OS threads using the grouped
/// communicators of `sasgd-comm`: every `t_local` minibatches each group
/// aggregates through [`sasgd_comm::hierarchy::hierarchical_allreduce`]-style
/// local collectives
/// and applies the group step; every `t_global` local rounds the group
/// parameter copies are averaged through the leader communicator. The
/// real-substrate counterpart of `Algorithm::HierarchicalSasgd`.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub fn run_threaded_hierarchical_sasgd(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    groups: usize,
    per_group: usize,
    t_local: usize,
    t_global: usize,
    gamma_p: GammaP,
) -> History {
    try_run_threaded_hierarchical_sasgd(
        factory, train_set, test_set, cfg, groups, per_group, t_local, t_global, gamma_p,
    )
    .unwrap_or_else(|e| panic!("threaded H-SASGD(g={groups}x{per_group}): {e}"))
}

/// [`run_threaded_hierarchical_sasgd`] with wire failures surfaced as
/// typed [`EngineError::WireFailure`](crate::EngineError) values instead
/// of panics.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub fn try_run_threaded_hierarchical_sasgd(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    groups: usize,
    per_group: usize,
    t_local: usize,
    t_global: usize,
    gamma_p: GammaP,
) -> Result<History, crate::EngineError> {
    assert!(groups >= 1 && per_group >= 1 && t_local >= 1 && t_global >= 1);
    let p = groups * per_group;
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let steps_per_epoch = shards
        .iter()
        .map(|s| s.len() / cfg.batch_size)
        .min()
        .expect("at least one shard");
    assert!(steps_per_epoch > 0, "shards too small for batch size");

    let bundles = sasgd_comm::hierarchy::grouped(groups, per_group);
    let mut rank0_history: Option<History> = None;

    let mut first_err: Option<crate::EngineError> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut bundle, shard) in bundles.into_iter().zip(shards.iter().cloned()) {
            let handle = scope.spawn(move || {
                let rank = bundle.global.rank();
                // Global sync round (1-based) for wire-failure context; 0
                // covers the x0 broadcast before the loop.
                let mut round = 0u64;
                let result = (|| -> Result<History, sasgd_comm::CommError> {
                    let mut learner = Learner::new(rank, factory(), cfg);
                    let mut x = learner.model.param_vector();
                    broadcast(&mut bundle.global, 0, &mut x)?;
                    learner.model.write_params(&x);
                    let evals = if rank == 0 {
                        Some(EvalSets::prepare(train_set, test_set, cfg.eval_cap))
                    } else {
                        None
                    };
                    let mut history = History::new(
                        format!(
                            "H-SASGD-threaded(g={groups}x{per_group},Tl={t_local},Tg={t_global})"
                        ),
                        p,
                        t_local * t_global,
                    );
                    let mut samples = 0u64;
                    let mut since_local = 0usize;
                    let mut local_rounds = 0usize;
                    let mut compute_s = 0.0f64;
                    let mut comm_s = 0.0f64;
                    for epoch in 1..=cfg.epochs {
                        let batches: Vec<Vec<usize>> = shard
                            .epoch_iter(cfg.batch_size, &mut learner.rng)
                            .take(steps_per_epoch)
                            .collect();
                        for (step, idx) in batches.iter().enumerate() {
                            let epoch_f = (epoch - 1) as f64 + step as f64 / steps_per_epoch as f64;
                            let gamma_now = cfg.gamma_at(epoch_f);
                            samples += idx.len() as u64;
                            let t0 = Instant::now();
                            learner.local_step(train_set, idx, gamma_now, 0.0, 1.0);
                            compute_s += t0.elapsed().as_secs_f64();
                            since_local += 1;
                            if since_local == t_local {
                                // Level 1: group-local allreduce of gs, group step.
                                round += 1;
                                let t1 = Instant::now();
                                let gp = gamma_p.resolve(gamma_now, per_group);
                                allreduce_tree(&mut bundle.local, &mut learner.gs)?;
                                for (xi, &g) in x.iter_mut().zip(&learner.gs) {
                                    *xi -= gp * g;
                                }
                                learner.gs.iter_mut().for_each(|g| *g = 0.0);
                                since_local = 0;
                                local_rounds += 1;
                                if local_rounds == t_global {
                                    // Level 2: average the group copies through
                                    // the leader communicator, broadcast down.
                                    if let Some(leaders) = bundle.leaders.as_mut() {
                                        allreduce_tree(leaders, &mut x)?;
                                        let inv = 1.0 / groups as f32;
                                        x.iter_mut().for_each(|v| *v *= inv);
                                    }
                                    broadcast(&mut bundle.local, 0, &mut x)?;
                                    local_rounds = 0;
                                }
                                learner.model.write_params(&x);
                                comm_s += t1.elapsed().as_secs_f64();
                            }
                        }
                        if let Some(ev) = &evals {
                            let rec = ev.record(
                                &mut learner.model,
                                epoch as f64,
                                compute_s,
                                comm_s,
                                samples * p as u64,
                            );
                            history.records.push(rec);
                        }
                    }
                    history.final_params = Some(learner.model.param_vector());
                    Ok(history)
                })();
                (rank, round, result)
            });
            handles.push(handle);
        }
        for (rank, round, result) in join_learners(handles) {
            match result {
                Ok(history) if rank == 0 => rank0_history = Some(history),
                Ok(_) => {}
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(crate::EngineError::WireFailure {
                            rank,
                            round,
                            detail: e.to_string(),
                        });
                    }
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(rank0_history.expect("rank 0 history"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    #[test]
    fn threaded_sasgd_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = run_threaded_sasgd(&factory, &train, &test, &cfg, 4, 2, GammaP::OverP);
        assert_eq!(h.records.len(), 6);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    fn threaded_downpour_learns_through_a_real_server() {
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.04, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = run_threaded_downpour(&factory, &train, &test, &cfg, 2, 2, 2, false);
        assert!(!h.records.is_empty());
        assert!(
            h.final_test_acc() > 0.45,
            "async threads + real PS should still learn at p=2: {:.2}",
            h.final_test_acc()
        );
    }

    #[test]
    fn threaded_hierarchical_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = run_threaded_hierarchical_sasgd(
            &factory,
            &train,
            &test,
            &cfg,
            2,
            2,
            2,
            2,
            GammaP::OverP,
        );
        assert!(h.final_test_acc() > 0.5, "acc {:.2}", h.final_test_acc());
    }

    #[test]
    fn threaded_hierarchical_single_group_equals_flat() {
        // With one group the leader exchange is a no-op, so the run must
        // equal flat threaded SASGD at T = t_local bitwise.
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.05, 11);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let hier = run_threaded_hierarchical_sasgd(
            &factory,
            &train,
            &test,
            &cfg,
            1,
            3,
            2,
            4,
            GammaP::OverP,
        );
        let flat = run_threaded_sasgd(&factory, &train, &test, &cfg, 3, 2, GammaP::OverP);
        for (a, b) in hier.records.iter().zip(&flat.records) {
            assert_eq!(a.train_loss, b.train_loss);
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn single_thread_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.05, 11);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let th = run_threaded_sasgd(&factory, &train, &test, &cfg, 1, 1, GammaP::OverP);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let sim =
            crate::algorithms::sasgd::run(&mut f, &train, &test, &cfg, 1, 1, GammaP::OverP, None);
        for (a, b) in th.records.iter().zip(&sim.records) {
            assert_eq!(a.train_loss, b.train_loss);
            assert_eq!(a.test_acc, b.test_acc);
        }
    }
}
