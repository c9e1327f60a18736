//! The threaded backend: every algorithm on real OS threads, on the wall
//! clock.
//!
//! * every collective strategy (sequential SGD, SASGD with or without
//!   compression, hierarchical SASGD, one-shot averaging, Local SGD,
//!   DaSGD) runs the engine's shared collective dispatch over in-process
//!   [`Communicator`] endpoints — the same rank program, exchanges and
//!   worlds the simulated backend runs over its virtual-time transport,
//!   so the two agree bitwise — with [`WallClock`] timing each rank;
//! * fault-tolerant SASGD ([`run_threaded_sasgd_ft`]) runs
//!   [`run_sasgd_ft_rank`];
//! * Downpour and EAMSGD run [`run_ps_rank`] against parameter-server
//!   shard threads ([`sasgd_comm::ps_transport`]); they match the
//!   simulated backend at `p = 1` and are intentionally schedule-dependent
//!   beyond that (that is the point of running them on a real substrate).
//!
//! This module also owns the rank threads of both backends
//! (`run_ranks`) and the wall-clock reads of every rank loop
//! ([`WallClock`]). [`History::wire`] comes from the substrate's traffic
//! counters — every world a run builds, the group and leader worlds of
//! hierarchical SASGD included. With
//! [`Compression::TopK`](crate::Compression::TopK) the gradients travel in
//! the sparse wire format ([`sasgd_comm::sparse`]), so the counters
//! record genuinely fewer elements, not a model of fewer elements.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sasgd_comm::fault::FaultPlan;
use sasgd_comm::ps_transport::{run_inproc, PsLayout};
use sasgd_comm::world::{CommWorld, Communicator, Traffic};
use sasgd_data::{make_shards, Dataset};
use sasgd_nn::Model;

use super::rank::{
    run_ps_rank, run_sasgd_ft_rank, PsExchange, PsRankSpec, RankClock, SasgdRankSpec,
};
use super::{resolve_cadence, run_collective, strategy_for, EngineError, Substrate};
use crate::algorithms::{Algorithm, GammaP};
use crate::history::{History, WireStats, MAX_SPARSITY_SAMPLES};
use crate::trainer::TrainConfig;

/// Wall time since a rank started — the clock every threaded and
/// launched rank loop reads.
#[derive(Clone, Copy, Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock reading zero now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }

    /// Seconds since [`WallClock::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

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

/// Run `algo` on the threaded backend at its resolved cadence (see
/// [`resolve_cadence`]). Wire failures come back as
/// [`EngineError::WireFailure`].
pub(crate) fn run(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    let s = strategy_for(algo);
    let cadence = resolve_cadence(algo, &*s, cfg)?;
    match algo {
        Algorithm::Downpour { .. } | Algorithm::Eamsgd { .. } => {
            run_async_ps(factory, train_set, test_set, algo, cfg)
        }
        _ => run_collective(
            &Threads,
            algo,
            &*s,
            &mut || factory(),
            train_set,
            test_set,
            cfg,
            cadence,
        ),
    }
}

/// The threaded substrate: in-process endpoints, wall clocks.
struct Threads;

impl Substrate for Threads {
    type Endpoint = Communicator;

    /// `"SASGD(p=4,T=2)"` → `"SASGD-threaded(p=4,T=2)"` — the backend
    /// suffix before the parameter list.
    fn label(&self, label: String) -> String {
        match label.find('(') {
            Some(i) => format!("{}-threaded{}", &label[..i], &label[i..]),
            None => format!("{label}-threaded"),
        }
    }

    fn endpoint(&self, comm: Communicator, _rank: usize, _group: bool) -> Communicator {
        comm
    }

    fn clock(&self, _rank: usize) -> RankClock {
        RankClock::wall()
    }
}

/// Run SASGD on the threaded backend under the fault-tolerance layer:
/// deterministic crash/stall/drop injection from `faults.plan`, deadline
/// failure detection, and graceful degradation onto the survivors. Faults
/// fire only at step boundaries (a crash retires the thread before its
/// next minibatch, a stall sleeps before it), so a given plan + seed is
/// bitwise reproducible; with [`FaultPlan::none`] the trajectory is
/// bitwise identical to plain threaded SASGD — `ft_allreduce` reduces in
/// the exact combine order of the plain tree.
///
/// On confirmed loss the survivors rebuild the binomial tree over the new
/// membership, `γp` rescales to the survivor count via `gamma_p`, and rank
/// 0 records a [`MembershipEvent`](crate::history::MembershipEvent) (the
/// lost learner's data shard is lost with it). Ranks that exit mid-run —
/// evicted, or cut off by a wire failure the run can survive — retire
/// with a [`RetirementEvent`](crate::history::RetirementEvent) instead of
/// panicking; the merged accounts land in `History::retirements`. Rank 0
/// is the recovery coordinator and must outlive the run (seeded plans
/// never kill it); a wire failure under rank 0 is the one unsurvivable
/// case and comes back as [`EngineError::WireFailure`].
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
) -> Result<History, EngineError> {
    assert!(p >= 1 && t >= 1);
    assert!(
        !faults.deadline.is_zero(),
        "failure-detection deadline must be nonzero"
    );
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let steps_per_epoch = shards
        .iter()
        .map(|s| s.len() / cfg.batch_size)
        .min()
        .expect("at least one shard");
    assert!(steps_per_epoch > 0, "shards too small for batch size");
    let spec = SasgdRankSpec {
        train_set,
        test_set,
        cfg,
        p,
        t,
        gamma_p,
        compression: None,
        label: format!("SASGD-ft-threaded(p={p},T={t})"),
        steps_per_epoch,
    };
    let mut world = CommWorld::new(p);
    if let Some(schedule) = faults.plan.wire_faults(p) {
        world.set_faults(Arc::new(schedule));
    }
    let traffic = [world.traffic()];
    run_ranks(world.communicators(), &traffic, |mut comm| {
        let shard = &shards[comm.rank()];
        run_sasgd_ft_rank(
            &mut comm,
            factory(),
            shard,
            &spec,
            &faults.plan,
            faults.deadline,
        )
    })
}

/// Downpour (one shard per learner) or EAMSGD (one center shard) on real
/// threads: `p` learner threads running [`run_ps_rank`] against
/// parameter-server shard threads ([`sasgd_comm::ps_transport::serve_shard`])
/// over one in-process world of `p + shards` ranks. Returns rank 0's
/// history, with [`History::sync_rounds`] counting every learner's
/// exchanges and [`History::wire`] the world's traffic counters — every PS
/// frame, control words (frame kinds, pull sequence numbers) included.
fn run_async_ps(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    let (p, t, shards, exchange, staleness_gamma) = match *algo {
        Algorithm::Downpour {
            p,
            t,
            staleness_gamma,
        } => (p, t, p, PsExchange::Downpour, staleness_gamma),
        Algorithm::Eamsgd {
            p,
            t,
            moving_rate,
            momentum,
            staleness_gamma,
        } => (
            p,
            t,
            1,
            PsExchange::eamsgd(p, moving_rate, momentum),
            staleness_gamma,
        ),
        _ => unreachable!("not a parameter-server strategy"),
    };
    assert!(p >= 1 && t >= 1);
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let initial = factory().param_vector();
    let layout = PsLayout {
        p,
        shards,
        dim: initial.len(),
    };
    let data_shards = make_shards(train_set, p, cfg.shard_strategy);
    let name = match exchange {
        PsExchange::Downpour => "Downpour",
        PsExchange::Eamsgd { .. } => "EAMSGD",
    };
    let staleness = if staleness_gamma { "-s\u{3b3}" } else { "" };
    let spec = PsRankSpec {
        train_set,
        test_set,
        cfg,
        p,
        t,
        label: format!("{name}{staleness}-threaded(p={p},T={t})"),
        exchange,
        staleness_gamma,
    };
    let exchanges = AtomicU64::new(0);
    let run = run_inproc(layout, &initial, |mut client| {
        let rank = client.rank();
        run_ps_rank(
            &mut client,
            factory(),
            &data_shards[rank],
            &spec,
            &exchanges,
        )
    })
    .map_err(|(shard, e)| EngineError::WireFailure {
        rank: shard,
        round: 0,
        detail: e.to_string(),
    })?;
    let mut history = merge_ranks(run.learners, &[run.traffic])?;
    history.sync_rounds = exchanges.load(Ordering::SeqCst);
    Ok(history)
}

/// Run `rank` on one scoped thread per endpoint (endpoints in rank order)
/// and [`merge_ranks`] the results — the rank threads of both backends.
pub(crate) fn run_ranks<E: Send>(
    endpoints: Vec<E>,
    traffic: &[Arc<Traffic>],
    rank: impl Fn(E) -> Result<History, EngineError> + Sync,
) -> Result<History, EngineError> {
    let rank = &rank;
    let results = std::thread::scope(|scope| {
        let handles = endpoints
            .into_iter()
            .map(|ep| scope.spawn(move || rank(ep)))
            .collect();
        join_learners(handles)
    });
    merge_ranks(results, traffic)
}

/// Rank 0's history with every peer's telemetry folded in — sparsity
/// samples and per-level wire stats, retirements — and [`History::wire`]
/// summed over `traffic`. The lowest-rank error wins: peer ranks typically
/// fail secondarily when the first casualty's endpoint disappears
/// mid-collective.
fn merge_ranks(
    results: Vec<Result<History, EngineError>>,
    traffic: &[Arc<Traffic>],
) -> Result<History, EngineError> {
    let mut results = results.into_iter();
    let mut history = results.next().expect("rank 0 result")?;
    let peers = results.collect::<Result<Vec<History>, EngineError>>()?;
    let mut retirements = Vec::new();
    for peer in peers {
        history.sparsity_series.extend(peer.sparsity_series);
        history.sparse_levels.merge(&peer.sparse_levels);
        retirements.extend(peer.retirements);
    }
    history.sparsity_series.sort_by_key(|s| (s.round, s.rank));
    history.sparsity_series.truncate(MAX_SPARSITY_SAMPLES);
    retirements.sort_by_key(|r| (r.round, r.rank));
    history.retirements.extend(retirements);
    history.wire = Some(WireStats {
        elements: traffic.iter().map(|t| t.elements_sent()).sum(),
        messages: traffic.iter().map(|t| t.messages_sent()).sum(),
    });
    Ok(history)
}

/// Join learner threads, reporting *which* ranks died and why instead of
/// aborting on the first opaque `join` failure. Handles must be in rank
/// order.
///
/// # Panics
/// Panics after joining everything, naming each failed rank and its panic
/// message — one diagnostic for the whole world instead of a bare
/// "learner thread" unwrap on whichever handle happened to be joined first.
fn join_learners<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut ok = Vec::with_capacity(handles.len());
    let mut failed: Vec<String> = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(v) => ok.push(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                failed.push(format!("rank {rank}: {msg}"));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "learner thread(s) panicked — {}",
        failed.join("; ")
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{Compression, KSchedule};
    use crate::engine::{Backend, Cadence, Executor};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    fn threaded(
        factory: &(dyn Fn() -> Model + Sync),
        train: &Dataset,
        test: &Dataset,
        algo: Algorithm,
        cfg: &TrainConfig,
    ) -> History {
        Executor::new(Backend::Threaded).run(factory, train, test, &algo, cfg)
    }

    fn simulated(
        factory: &(dyn Fn() -> Model + Sync),
        train: &Dataset,
        test: &Dataset,
        algo: Algorithm,
        cfg: &TrainConfig,
    ) -> History {
        Executor::new(Backend::Simulated).run(factory, train, test, &algo, cfg)
    }

    fn sasgd(p: usize, t: usize, compression: Option<Compression>) -> Algorithm {
        Algorithm::Sasgd {
            p,
            t,
            gamma_p: GammaP::OverP,
            compression,
        }
    }

    fn hier(groups: usize, per_group: usize, t_local: usize, t_global: usize) -> Algorithm {
        Algorithm::HierarchicalSasgd {
            groups,
            per_group,
            t_local,
            t_global,
            gamma_p: GammaP::OverP,
        }
    }

    #[test]
    fn threaded_sasgd_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = threaded(&factory, &train, &test, sasgd(4, 2, None), &cfg);
        assert_eq!(h.records.len(), 6);
        assert!(h.final_test_acc() > 0.5, "acc {}", h.final_test_acc());
    }

    #[test]
    fn single_thread_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.05, 11);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let th = threaded(&factory, &train, &test, sasgd(1, 1, None), &cfg);
        let sim = simulated(&factory, &train, &test, sasgd(1, 1, None), &cfg);
        for (a, b) in th.records.iter().zip(&sim.records) {
            assert_eq!(a.train_loss, b.train_loss);
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn threaded_sequential_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(52, 16, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.05, 11);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let th = threaded(&factory, &train, &test, Algorithm::Sequential, &cfg);
        let sim = simulated(&factory, &train, &test, Algorithm::Sequential, &cfg);
        assert_eq!(th.final_params, sim.final_params);
    }

    #[test]
    fn threaded_averaging_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let mut cfg = TrainConfig::new(2, 8, 0.03, 7);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::ModelAverageOnce { p: 3 };
        let th = threaded(&factory, &train, &test, algo, &cfg);
        let sim = simulated(&factory, &train, &test, algo, &cfg);
        assert_eq!(th.final_params, sim.final_params);
        assert!(
            th.wire.expect("wire").elements > 0,
            "gather traffic counted"
        );
    }

    #[test]
    fn threaded_hierarchical_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(160, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = threaded(&factory, &train, &test, hier(2, 2, 2, 2), &cfg);
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
        let hier = threaded(&factory, &train, &test, hier(1, 3, 2, 4), &cfg);
        let flat = threaded(&factory, &train, &test, sasgd(3, 2, None), &cfg);
        for (a, b) in hier.records.iter().zip(&flat.records) {
            assert_eq!(a.train_loss, b.train_loss);
            assert_eq!(a.test_acc, b.test_acc);
        }
    }

    #[test]
    fn threaded_hierarchical_history_counts_rounds_staleness_and_wire() {
        // Both cadences report the simulated run's sync rounds and
        // staleness summary, and the traffic of all three worlds: the x0
        // broadcast over the global world, a group allreduce per round,
        // and every t_global rounds a leader allreduce plus a broadcast
        // down each group.
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let m = factory().param_len() as u64;
        for (groups, per_group, t_global) in [(2usize, 2usize, 2usize), (1, 3, 2), (2, 2, 3)] {
            let algo = hier(groups, per_group, 1, t_global);
            for cadence in [Cadence::Lockstep, Cadence::EventDriven] {
                let mut cfg = TrainConfig::new(2, 8, 0.05, 42);
                cfg.cadence = Some(cadence);
                let thr = threaded(&factory, &train, &test, algo, &cfg);
                let sim =
                    Executor::new(Backend::Simulated).run(&factory, &train, &test, &algo, &cfg);
                let what = format!("g={groups}x{per_group} Tg={t_global} {cadence:?}");
                assert!(sim.sync_rounds > 0, "{what}");
                assert_eq!(thr.sync_rounds, sim.sync_rounds, "{what}: sync rounds");
                let (st, ss) = (thr.staleness.expect(&what), sim.staleness.expect(&what));
                assert_eq!(
                    (st.mean, st.max, st.pushes),
                    (ss.mean, ss.max, ss.pushes),
                    "{what}"
                );
                let (g, pg) = (groups as u64, per_group as u64);
                let rounds = thr.sync_rounds;
                let globals = rounds / t_global as u64;
                let expect = (g * pg - 1) * m
                    + rounds * g * 2 * (pg - 1) * m
                    + globals * (2 * (g - 1) * m + g * (pg - 1) * m);
                assert_eq!(
                    thr.wire.expect(&what).elements,
                    expect,
                    "{what}: wire elements"
                );
            }
        }
    }

    #[test]
    fn threaded_downpour_learns_through_a_real_server() {
        let (train, test) = generate(&CifarLikeConfig::tiny(120, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.04, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::Downpour {
            p: 2,
            t: 2,
            staleness_gamma: false,
        };
        let h = threaded(&factory, &train, &test, algo, &cfg);
        assert!(!h.records.is_empty());
        assert!(
            h.final_test_acc() > 0.45,
            "async threads + real PS should still learn at p=2: {:.2}",
            h.final_test_acc()
        );
    }

    #[test]
    fn threaded_eamsgd_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(100, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.02, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::Eamsgd {
            p: 2,
            t: 2,
            moving_rate: None,
            momentum: 0.9,
            staleness_gamma: false,
        };
        let h = threaded(&factory, &train, &test, algo, &cfg);
        assert!(
            h.final_test_acc() > 0.45,
            "async threads + real center should learn: {:.2}",
            h.final_test_acc()
        );
        assert!(h.wire.expect("wire").elements > 0);
    }

    #[test]
    fn dead_shard_is_a_wire_failure_not_a_panic() {
        // The shard endpoint is dropped before it serves anything: the
        // learner's initial pull must come back as a typed error.
        let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
        let cfg = TrainConfig::new(1, 8, 0.05, 3);
        let model = models::tiny_cnn(2, &mut SeedRng::new(5));
        let layout = PsLayout {
            p: 1,
            shards: 1,
            dim: model.param_len(),
        };
        let mut world = sasgd_comm::mock_world(2);
        drop(world.pop());
        let learner = world.pop().expect("learner endpoint");
        let mut client = sasgd_comm::PsTransportClient::new(learner, layout);
        let spec = PsRankSpec {
            train_set: &train,
            test_set: &test,
            cfg: &cfg,
            p: 1,
            t: 1,
            label: "downpour".to_string(),
            exchange: PsExchange::Downpour,
            staleness_gamma: false,
        };
        let shard = &make_shards(&train, 1, cfg.shard_strategy)[0];
        let err = run_ps_rank(&mut client, model, shard, &spec, &AtomicU64::new(0))
            .expect_err("a dead shard cannot serve");
        assert!(
            matches!(
                err,
                EngineError::WireFailure {
                    rank: 0,
                    round: 0,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn compressed_sasgd_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let mut cfg = TrainConfig::new(2, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let comp = Compression::TopK { ratio: 0.25 };
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let th = threaded(&factory, &train, &test, sasgd(4, 2, Some(comp)), &cfg);
        let sim = simulated(&factory, &train, &test, sasgd(4, 2, Some(comp)), &cfg);
        assert_eq!(th.final_params, sim.final_params);
    }

    #[test]
    fn topk_moves_fewer_wire_elements_than_dense() {
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 2));
        let mut cfg = TrainConfig::new(1, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(7));
        let p = 2usize;
        let m = factory().param_vector().len() as u64;
        // 96 samples over 2 shards, batch 8 → 6 steps/epoch; T=2 over one
        // epoch → 3 sync rounds.
        let syncs = 3u64;
        let bcast = (p as u64 - 1) * m; // initial parameter broadcast
        let dense = threaded(&factory, &train, &test, sasgd(p, 2, None), &cfg);
        let d = dense.wire.expect("wire");
        // Dense traffic is exactly modeled: reduce + broadcast move
        // 2(p−1)·m elements per round.
        assert_eq!(d.elements, bcast + syncs * 2 * (p as u64 - 1) * m);

        let topk = Compression::TopK { ratio: 0.1 };
        let sparse = threaded(&factory, &train, &test, sasgd(p, 2, Some(topk)), &cfg);
        let s = sparse.wire.expect("wire");
        assert!(
            s.elements < d.elements / 2,
            "TopK-10% wire {} vs dense {}",
            s.elements,
            d.elements
        );
        // The analytic bracket contains the measured traffic.
        let (lo, hi) = topk.round_wire_bounds(m as usize, p);
        assert!(
            (bcast + syncs * lo..=bcast + syncs * hi).contains(&s.elements),
            "TopK wire {} outside [{}, {}]",
            s.elements,
            bcast + syncs * lo,
            bcast + syncs * hi
        );

        // Uniform8Bit traffic is exactly modeled (packed leaf frames,
        // dense f32 internal partials and broadcast).
        let q8 = Compression::Uniform8Bit;
        let quant = threaded(&factory, &train, &test, sasgd(p, 2, Some(q8)), &cfg);
        let q = quant.wire.expect("wire");
        let (qlo, qhi) = q8.round_wire_bounds(m as usize, p);
        assert_eq!(qlo, qhi, "Uniform8Bit bracket is tight");
        assert_eq!(q.elements, bcast + syncs * qlo);

        // The composed sparse scheme stays inside its bracket too, and
        // under the plain sparse wire.
        let comp = Compression::Sparse {
            k: KSchedule::fixed(0.1),
            q8: true,
            union_bound: true,
        };
        let cm = threaded(&factory, &train, &test, sasgd(p, 2, Some(comp)), &cfg);
        let c = cm.wire.expect("wire");
        let (clo, chi) = comp.round_wire_bounds(m as usize, p);
        assert!(
            (bcast + syncs * clo..=bcast + syncs * chi).contains(&c.elements),
            "Sparse wire {} outside [{}, {}]",
            c.elements,
            bcast + syncs * clo,
            bcast + syncs * chi
        );
        assert!(c.elements < s.elements, "q8 leaves beat f32 sparse frames");
    }

    #[test]
    fn sparse_sasgd_matches_simulated_bitwise() {
        // Every k schedule and wire option must be bitwise identical
        // across the threaded tree and the simulated in-memory mirror —
        // the same invariant the TopK/dense goldens pin.
        let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 3));
        let mut cfg = TrainConfig::new(2, 8, 0.05, 42);
        cfg.jitter = JitterModel::none();
        let schedules = [
            Compression::Sparse {
                k: KSchedule::norm_adaptive(0.1),
                q8: false,
                union_bound: false,
            },
            Compression::Sparse {
                k: KSchedule::layer_wise(0.1),
                q8: false,
                union_bound: false,
            },
            Compression::Sparse {
                k: KSchedule::fixed(0.1),
                q8: true,
                union_bound: true,
            },
        ];
        for comp in schedules {
            let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
            let th = threaded(&factory, &train, &test, sasgd(4, 2, Some(comp)), &cfg);
            let sim = simulated(&factory, &train, &test, sasgd(4, 2, Some(comp)), &cfg);
            assert_eq!(
                th.final_params, sim.final_params,
                "divergence under {comp:?}"
            );
            // Both backends log the same per-round sparsity telemetry.
            assert_eq!(
                th.sparsity_series.len(),
                sim.sparsity_series.len(),
                "series length under {comp:?}"
            );
            for (a, b) in th.sparsity_series.iter().zip(&sim.sparsity_series) {
                assert_eq!((a.round, a.rank, a.k_eff), (b.round, b.rank, b.k_eff));
                assert_eq!(a.residual_norm, b.residual_norm, "norms under {comp:?}");
            }
            assert!(
                th.sparse_levels.levels.iter().any(|l| l.messages > 0),
                "threaded run recorded per-level wire stats"
            );
        }
    }
}
