//! The threaded backend: every algorithm on real OS threads.
//!
//! One thread per learner over the `sasgd-comm` substrate — collectives
//! for the synchronous strategies, parameter-server shard threads
//! ([`sasgd_comm::ps_transport`]) for the asynchronous ones. Batch orders,
//! dropout streams and aggregation arithmetic mirror the simulated
//! backend (the simulated aggregation sums in the same binomial-tree
//! order the collective uses), so the synchronous strategies produce
//! *identical parameters* at any `p`; the asynchronous strategies match
//! at `p = 1` and are intentionally schedule-dependent beyond that (that
//! is the point of running them on a real substrate).
//!
//! Unlike the simulated backend's analytic wire accounting, [`History::wire`]
//! here is filled from the substrate's traffic counters — with
//! [`Compression::TopK`] the gradients travel in the sparse wire format
//! ([`sasgd_comm::sparse`]), so the counters record genuinely fewer
//! elements, not a model of fewer elements.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sasgd_comm::fault::FaultPlan;
use sasgd_comm::ps_transport::{run_inproc, PsLayout};
use sasgd_comm::world::CommWorld;
use sasgd_data::{make_shards, Dataset};
use sasgd_nn::Model;

use super::rank::{
    run_event_rank, run_ps_rank, run_sasgd_ft_rank, run_sasgd_rank, EventOp, EventRankSpec,
    PsExchange, PsRankSpec, SasgdRankSpec,
};
use super::{event_gamma_epoch, strategy_for, BatchStream, Cadence, EngineError};
use crate::algorithms::{Algorithm, GammaP};
use crate::compress::Compression;
use crate::history::{History, WireStats, MAX_SPARSITY_SAMPLES};
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// Join learner threads, reporting *which* ranks died and why instead of
/// aborting on the first opaque `join` failure. Handles must be in rank
/// order (every spawn loop in this crate builds them that way).
///
/// # Panics
/// Panics after joining everything, naming each failed rank and its panic
/// message — one diagnostic for the whole world instead of a bare
/// "learner thread" unwrap on whichever handle happened to be joined first.
pub(crate) fn join_learners<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
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

/// Run `algo` on the threaded backend under the resolved `cadence`. Every
/// runner propagates typed wire failures ([`EngineError::WireFailure`]).
///
/// Lockstep routes to the bulk-synchronous runners; the parameter-server
/// strategies have no bulk-synchronous runner on real threads, so forcing
/// them to lockstep here is a typed [`EngineError::UnsupportedCadence`]
/// (the simulated backend executes every strategy under either cadence).
/// Event-driven routes the collective strategies through the generic
/// event-rank loop and the parameter-server strategies through their
/// native asynchronous runners.
pub(crate) fn run(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
    cadence: Cadence,
) -> Result<History, EngineError> {
    if cadence == Cadence::EventDriven {
        return run_event(factory, train_set, test_set, algo, cfg);
    }
    Ok(match *algo {
        Algorithm::Sequential => run_threaded_sequential(factory, train_set, test_set, cfg),
        Algorithm::Sasgd {
            p,
            t,
            gamma_p,
            compression,
        } => {
            return run_sasgd(
                factory,
                train_set,
                test_set,
                cfg,
                p,
                t,
                gamma_p,
                compression,
            )
        }
        Algorithm::HierarchicalSasgd {
            groups,
            per_group,
            t_local,
            t_global,
            gamma_p,
        } => {
            return crate::threaded::try_run_threaded_hierarchical_sasgd(
                factory, train_set, test_set, cfg, groups, per_group, t_local, t_global, gamma_p,
            )
        }
        Algorithm::ModelAverageOnce { p } => {
            return try_run_threaded_averaging(factory, train_set, test_set, cfg, p)
        }
        // No bulk-synchronous runner exists for these on real threads —
        // the parameter-server algorithms are asynchronous by definition
        // and the averaging lattice points default to the event-driven
        // cadence; only an explicit lockstep override can reach this.
        Algorithm::Downpour { .. }
        | Algorithm::Eamsgd { .. }
        | Algorithm::LocalSgd { .. }
        | Algorithm::DelayedAvg { .. } => {
            return Err(EngineError::UnsupportedCadence {
                label: strategy_for(algo).label(),
            })
        }
    })
}

/// Event-driven dispatch: the asynchronous strategies run their native
/// threaded runners; the collective strategies run the generic event-rank
/// loop over real threads.
fn run_event(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    match *algo {
        Algorithm::Downpour {
            p,
            t,
            staleness_gamma,
        } => run_async_ps(
            factory,
            train_set,
            test_set,
            cfg,
            p,
            t,
            p,
            PsExchange::Downpour,
            staleness_gamma,
        ),
        Algorithm::Eamsgd {
            p,
            t,
            moving_rate,
            momentum,
            staleness_gamma,
        } => run_async_ps(
            factory,
            train_set,
            test_set,
            cfg,
            p,
            t,
            1,
            PsExchange::eamsgd(p, moving_rate, momentum),
            staleness_gamma,
        ),
        _ => run_event_collective(factory, train_set, test_set, algo, cfg),
    }
}

/// `"SASGD(p=4,T=2)"` → `"SASGD-threaded(p=4,T=2)"` — the backend suffix
/// in the position the dedicated runners put it.
fn threaded_label(label: &str) -> String {
    match label.find('(') {
        Some(i) => format!("{}-threaded{}", &label[..i], &label[i..]),
        None => format!("{label}-threaded"),
    }
}

/// The collective strategies under event-driven cadence: one OS thread per
/// rank running [`run_event_rank`] over the in-process world. The round
/// structure (policy, block size, round γ) is resolved independently per
/// rank from rank-invariant state, so the collectives line up without a
/// coordinator. Hierarchical SASGD needs grouped communicators and routes
/// to its own loop.
fn run_event_collective(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    if let Algorithm::HierarchicalSasgd {
        groups,
        per_group,
        t_local,
        t_global,
        gamma_p,
    } = *algo
    {
        return run_event_hierarchical(
            factory, train_set, test_set, cfg, groups, per_group, t_local, t_global, gamma_p,
        );
    }
    let s = strategy_for(algo);
    let p = s.p();
    let policy = s.sync_policy();
    let collective_tau = s.collective_tau();
    let history_interval = s.history_interval();
    let label = threaded_label(&s.label());
    let op = match *algo {
        Algorithm::Sequential => EventOp::LocalOnly,
        Algorithm::ModelAverageOnce { .. } => EventOp::EpochAverage,
        Algorithm::Sasgd {
            gamma_p,
            compression,
            ..
        } => EventOp::Gradient {
            gamma_p,
            compression,
        },
        Algorithm::LocalSgd { .. } => EventOp::ParamAverage,
        Algorithm::DelayedAvg { .. } => EventOp::DelayedAverage,
        Algorithm::HierarchicalSasgd { .. }
        | Algorithm::Downpour { .. }
        | Algorithm::Eamsgd { .. } => {
            unreachable!("routed to a dedicated event runner above")
        }
    };
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let epoch_block = shards
        .iter()
        .map(|s| s.len() / cfg.batch_size)
        .min()
        .expect("at least one shard")
        .max(1);

    let mut world = CommWorld::new(p);
    let traffic = world.traffic();
    let comms = world.communicators();
    let mut rank0_history: Option<History> = None;
    let mut peer_series: Vec<crate::history::SparsitySample> = Vec::new();
    let mut peer_levels = sasgd_comm::sparse::SparseLevelProfile::default();
    let mut first_err: Option<EngineError> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut comm, shard) in comms.into_iter().zip(shards.iter().cloned()) {
            let label = label.clone();
            let policy = policy.clone();
            let handle = scope.spawn(move || {
                let rank = comm.rank();
                // Rank 0 holds the spare replica that evaluates the running
                // average (one-shot averaging only).
                let eval_replica = if rank == 0 && matches!(op, EventOp::EpochAverage) {
                    Some(factory())
                } else {
                    None
                };
                let spec = EventRankSpec {
                    train_set,
                    test_set,
                    cfg,
                    p,
                    label,
                    op,
                    policy,
                    epoch_block,
                    collective_tau,
                    history_interval,
                };
                (
                    rank,
                    run_event_rank(&mut comm, factory(), eval_replica, &shard, &spec),
                )
            });
            handles.push(handle);
        }
        for (rank, result) in join_learners(handles) {
            match result {
                Ok(history) if rank == 0 => rank0_history = Some(history),
                // Fold non-zero ranks' sparsity telemetry into rank 0's
                // report (only the compressed-gradient op produces any).
                Ok(history) => {
                    peer_series.extend(history.sparsity_series);
                    peer_levels.merge(&history.sparse_levels);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    let mut history = rank0_history.expect("rank 0 history");
    history.sparsity_series.extend(peer_series);
    history.sparsity_series.sort_by_key(|s| (s.round, s.rank));
    history.sparsity_series.truncate(MAX_SPARSITY_SAMPLES);
    history.sparse_levels.merge(&peer_levels);
    history.wire = Some(WireStats {
        elements: traffic.elements_sent(),
        messages: traffic.messages_sent(),
    });
    Ok(history)
}

/// Hierarchical SASGD under event-driven cadence: the grouped-communicator
/// mirror of the simulated collective event loop. Each round is a
/// `t_local`-minibatch block at a round γ resolved from nominal progress,
/// then a group allreduce + group step; every `t_global` rounds the group
/// parameter copies are averaged through the leader communicator. Level 2
/// averages via tree-reduce + scale while the simulated strategy
/// accumulates in rank order, so cross-backend equality is bitwise only at
/// `groups = 1` (where level 2 is the identity in both backends).
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
fn run_event_hierarchical(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    groups: usize,
    per_group: usize,
    t_local: usize,
    t_global: usize,
    gamma_p: GammaP,
) -> Result<History, EngineError> {
    use sasgd_comm::collectives::{allreduce_tree, broadcast};
    assert!(groups >= 1 && per_group >= 1 && t_local >= 1 && t_global >= 1);
    let p = groups * per_group;
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let n = train_set.len();
    let target_steps = (cfg.epochs as u64) * (n as u64); // in batch·p units
    let bundles = sasgd_comm::hierarchy::grouped(groups, per_group);
    let mut rank0_history: Option<History> = None;

    let mut first_err: Option<EngineError> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut bundle, shard) in bundles.into_iter().zip(shards.iter().cloned()) {
            let handle = scope.spawn(move || {
                let rank = bundle.global.rank();
                // Global sync round (1-based) for wire-failure context; 0
                // covers the x0 broadcast before the loop.
                let mut round = 0u64;
                let result =
                    (|| -> Result<History, sasgd_comm::CommError> {
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
                    format!("H-SASGD-threaded(g={groups}x{per_group},Tl={t_local},Tg={t_global})"),
                    p,
                    t_local * t_global,
                );
                        let mut stream = BatchStream::new(shard.indices().to_vec(), cfg.batch_size);
                        let mut samples = 0u64;
                        let mut steps_done = 0u64;
                        let mut syncs = 0u64;
                        let mut local_rounds = 0usize;
                        let mut recorded_passes = 0u64;
                        let mut compute_s = 0.0f64;
                        let mut comm_s = 0.0f64;
                        let mut staleness_obs: Vec<u64> = Vec::new();
                        loop {
                            let gamma_now =
                                cfg.gamma_at(event_gamma_epoch(steps_done, cfg.batch_size, p, n));
                            let t0 = Instant::now();
                            for _ in 0..t_local {
                                let idx = stream.next(&mut learner.rng);
                                samples += idx.len() as u64;
                                learner.local_step(train_set, &idx, gamma_now, 0.0, 1.0);
                            }
                            compute_s += t0.elapsed().as_secs_f64();
                            steps_done += t_local as u64;
                            let t1 = Instant::now();
                            // Level 1: group-local allreduce of gs, group step.
                            round += 1;
                            let gp = gamma_p.resolve(gamma_now, per_group);
                            allreduce_tree(&mut bundle.local, &mut learner.gs)?;
                            for (xi, &g) in x.iter_mut().zip(&learner.gs) {
                                *xi -= gp * g;
                            }
                            learner.gs.iter_mut().for_each(|g| *g = 0.0);
                            local_rounds += 1;
                            if local_rounds == t_global {
                                // Level 2: average the group copies through the
                                // leader communicator, broadcast down.
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
                            syncs += 1;
                            if rank == 0 {
                                for id in 0..p {
                                    history.push_staleness(syncs - 1, id, 0, gamma_now);
                                    staleness_obs.push(0);
                                }
                                if stream.completed_passes() > recorded_passes {
                                    recorded_passes = stream.completed_passes();
                                    if let Some(ev) = &evals {
                                        let rec = ev.record(
                                            &mut learner.model,
                                            (samples * p as u64) as f64 / n as f64, // lint:allow(float-cast)
                                            compute_s,
                                            comm_s,
                                            samples * p as u64,
                                        );
                                        history.records.push(rec);
                                    }
                                }
                            }
                            if steps_done * (cfg.batch_size as u64) * (p as u64) >= target_steps {
                                break;
                            }
                        }
                        if let Some(ev) = &evals {
                            if history.records.is_empty()
                                || history.records.last().expect("nonempty").samples
                                    < samples * p as u64
                            {
                                let rec = ev.record(
                                    &mut learner.model,
                                    (samples * p as u64) as f64 / n as f64, // lint:allow(float-cast)
                                    compute_s,
                                    comm_s,
                                    samples * p as u64,
                                );
                                history.records.push(rec);
                            }
                        }
                        history.staleness =
                            crate::history::StalenessStats::from_observations(&staleness_obs);
                        history.sync_rounds = syncs;
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
                        first_err = Some(EngineError::WireFailure {
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

/// SASGD (optionally compressed) with one OS thread per learner.
/// `TopK` payloads travel in the sparse wire format; `Uniform8Bit` leaf
/// contributions travel as packed 8-bit frames (exact, since every dense
/// reconstruction sits on the `q·scale` grid) with f32 internal partials;
/// [`Compression::Sparse`] rides the instrumented v2 sparse tree —
/// optionally quantized leaves and union-bounded merges. The per-rank
/// loop itself lives in [`super::rank`], generic over the transport —
/// this function supplies the in-process world and threads; the launcher
/// supplies socket endpoints and processes. Per-rank sparsity telemetry
/// (`sparsity_series`, `sparse_levels`) is merged from every learner's
/// history into the returned rank-0 history.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub(crate) fn run_sasgd(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
    compression: Option<Compression>,
) -> Result<History, EngineError> {
    assert!(p >= 1 && t >= 1);
    // Split intra-op workers across the p learner threads (no-op unless
    // the `parallel` feature is on and nothing was configured explicitly).
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let steps_per_epoch = shards
        .iter()
        .map(|s| s.len() / cfg.batch_size)
        .min()
        .expect("at least one shard");
    assert!(steps_per_epoch > 0, "shards too small for batch size");
    let label = match compression {
        Some(_) => format!("SASGD-compressed-threaded(p={p},T={t})"),
        None => format!("SASGD-threaded(p={p},T={t})"),
    };

    let mut world = CommWorld::new(p);
    let traffic = world.traffic();
    let comms = world.communicators();
    let mut rank0_history: Option<History> = None;
    let mut peer_series: Vec<crate::history::SparsitySample> = Vec::new();
    let mut peer_levels = sasgd_comm::sparse::SparseLevelProfile::default();
    let mut first_err: Option<EngineError> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut comm, shard) in comms.into_iter().zip(shards.iter().cloned()) {
            let label = label.clone();
            let handle = scope.spawn(move || {
                let rank = comm.rank();
                let spec = SasgdRankSpec {
                    train_set,
                    test_set,
                    cfg,
                    p,
                    t,
                    gamma_p,
                    compression,
                    label,
                    steps_per_epoch,
                };
                (rank, run_sasgd_rank(&mut comm, factory(), &shard, &spec))
            });
            handles.push(handle);
        }
        for (rank, result) in join_learners(handles) {
            match result {
                Ok(history) if rank == 0 => rank0_history = Some(history),
                // Non-zero ranks carry only their share of the sparsity
                // telemetry; fold it into what rank 0 will report.
                Ok(history) => {
                    peer_series.extend(history.sparsity_series);
                    peer_levels.merge(&history.sparse_levels);
                }
                // Lowest-rank failure wins (handles are in rank order);
                // peer ranks typically fail secondarily when the first
                // casualty's endpoint disappears mid-collective.
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    let mut history = rank0_history.expect("rank 0 history");
    history.sparsity_series.extend(peer_series);
    history.sparsity_series.sort_by_key(|s| (s.round, s.rank));
    history.sparsity_series.truncate(MAX_SPARSITY_SAMPLES);
    history.sparse_levels.merge(&peer_levels);
    history.wire = Some(WireStats {
        elements: traffic.elements_sent(),
        messages: traffic.messages_sent(),
    });
    Ok(history)
}

/// SASGD with one OS thread per learner and the fault-tolerant allreduce:
/// the run survives learner loss. Faults from `plan` fire only at step
/// boundaries (a crash retires the thread before its next minibatch, a
/// stall sleeps before it), so a given plan + seed is bitwise reproducible;
/// with [`FaultPlan::none`] the trajectory is bitwise identical to
/// [`run_sasgd`] — `ft_allreduce` reduces in the exact combine order of the
/// plain tree.
///
/// On confirmed loss the survivors rebuild the binomial tree over the new
/// membership, `γp` rescales to the survivor count via the strategy's
/// [`GammaP`] policy, and rank 0 records a
/// [`MembershipEvent`](crate::history::MembershipEvent) (the lost
/// learner's data shard is lost with it). Ranks that exit mid-run —
/// evicted, or cut off by a wire failure the run can survive — retire
/// with a [`RetirementEvent`](crate::history::RetirementEvent) instead of
/// panicking; the merged accounts land in `History::retirements`. Rank 0
/// is the recovery coordinator and must outlive the run (seeded plans
/// never kill it); a wire failure under rank 0 is the one unsurvivable
/// case and comes back as [`EngineError::WireFailure`].
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub(crate) fn try_run_sasgd_ft(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    gamma_p: GammaP,
    plan: &FaultPlan,
    deadline: Duration,
) -> Result<History, EngineError> {
    assert!(p >= 1 && t >= 1);
    assert!(
        !deadline.is_zero(),
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
    let label = format!("SASGD-ft-threaded(p={p},T={t})");

    let mut world = CommWorld::new(p);
    if let Some(schedule) = plan.wire_faults(p) {
        world.set_faults(std::sync::Arc::new(schedule));
    }
    let traffic = world.traffic();
    let comms = world.communicators();
    let mut rank0_history: Option<History> = None;
    let mut retirements = Vec::new();
    let mut first_err: Option<EngineError> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut comm, shard) in comms.into_iter().zip(shards.iter().cloned()) {
            let label = label.clone();
            let handle = scope.spawn(move || {
                let rank = comm.rank();
                let spec = SasgdRankSpec {
                    train_set,
                    test_set,
                    cfg,
                    p,
                    t,
                    gamma_p,
                    compression: None,
                    label,
                    steps_per_epoch,
                };
                (
                    rank,
                    run_sasgd_ft_rank(&mut comm, factory(), &shard, &spec, plan, deadline),
                )
            });
            handles.push(handle);
        }
        for (rank, result) in join_learners(handles) {
            match result {
                Ok(history) => {
                    if rank == 0 {
                        rank0_history = Some(history);
                    } else {
                        // Non-coordinator histories are discarded except for
                        // the retiree's own account of why it left.
                        retirements.extend(history.retirements);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    let mut history = rank0_history.expect("rank 0 history");
    retirements.sort_by_key(|r: &crate::history::RetirementEvent| (r.round, r.rank));
    history.retirements.extend(retirements);
    history.wire = Some(WireStats {
        elements: traffic.elements_sent(),
        messages: traffic.messages_sent(),
    });
    Ok(history)
}

/// Sequential SGD "on the threaded backend": one learner, no communication
/// — the degenerate corner that anchors both backends to the same
/// single-learner trajectory.
pub fn run_threaded_sequential(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let mut learner = Learner::new(0, factory(), cfg);
    let shard = train_set.shards(1).pop().expect("one shard");
    let evals = EvalSets::prepare(train_set, test_set, cfg.eval_cap);
    let mut history = History::new("SGD-threaded", 1, 1);
    let mut compute_s = 0.0f64;
    let mut samples = 0u64;
    for epoch in 1..=cfg.epochs {
        let batches: Vec<Vec<usize>> = shard.epoch_iter(cfg.batch_size, &mut learner.rng).collect();
        let steps = batches.len().max(1);
        for (step, idx) in batches.iter().enumerate() {
            let epoch_f = (epoch - 1) as f64 + step as f64 / steps as f64;
            let gamma_now = cfg.gamma_at(epoch_f);
            samples += idx.len() as u64;
            let t0 = Instant::now();
            learner.local_step(train_set, idx, gamma_now, 0.0, 1.0);
            compute_s += t0.elapsed().as_secs_f64();
            learner.gs.iter_mut().for_each(|g| *g = 0.0);
        }
        let rec = evals.record(&mut learner.model, epoch as f64, compute_s, 0.0, samples);
        history.records.push(rec);
    }
    history.wire = Some(WireStats::default());
    history.final_params = Some(learner.model.param_vector());
    history
}

/// EAMSGD with one OS thread per learner against a one-shard parameter
/// server holding the center variable. As with threaded Downpour, the
/// interleaving beyond `p = 1` is decided by the OS scheduler — genuinely
/// asynchronous, not reproducible across executions. With
/// `staleness_gamma` each elastic exchange scales its moving rate by
/// `1/(1+τ)` for the *measured* τ (see [`run_ps_rank`]).
///
/// # Panics
/// Panics on a wire failure; [`Executor::try_run`](super::Executor::try_run)
/// returns it as [`EngineError::WireFailure`].
#[allow(clippy::too_many_arguments)] // mirrors the Eamsgd variant's fields
pub fn run_threaded_eamsgd(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    moving_rate: Option<f32>,
    momentum: f32,
    staleness_gamma: bool,
) -> History {
    let exchange = PsExchange::eamsgd(p, moving_rate, momentum);
    run_async_ps(
        factory,
        train_set,
        test_set,
        cfg,
        p,
        t,
        1,
        exchange,
        staleness_gamma,
    )
    .unwrap_or_else(|e| panic!("threaded EAMSGD(p={p},T={t}): {e}"))
}

/// Downpour or EAMSGD on real threads: `p` learner threads running
/// [`run_ps_rank`] against `shards` parameter-server shard threads
/// ([`sasgd_comm::ps_transport::serve_shard`]) over one in-process world
/// of `p + shards` ranks. Returns rank 0's history, with
/// [`History::sync_rounds`] counting every learner's exchanges and
/// [`History::wire`] the world's traffic counters — every PS frame,
/// control words (frame kinds, pull sequence numbers) included.
#[allow(clippy::too_many_arguments)] // mirrors the algorithm's parameter set
pub(crate) fn run_async_ps(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
    t: usize,
    shards: usize,
    exchange: PsExchange,
    staleness_gamma: bool,
) -> Result<History, EngineError> {
    assert!(p >= 1 && t >= 1 && shards >= 1);
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
    // Lowest-rank failure wins, as in the collective runners.
    let mut learners = run.learners.into_iter();
    let mut history = learners.next().expect("rank 0 result")?;
    if let Some(e) = learners.find_map(Result::err) {
        return Err(e);
    }
    history.sync_rounds = exchanges.load(Ordering::SeqCst);
    history.wire = Some(WireStats {
        elements: run.traffic.elements_sent(),
        messages: run.traffic.messages_sent(),
    });
    Ok(history)
}

/// One-shot model averaging with one OS thread per learner: independent
/// training, parameters gathered to rank 0 (in rank order, matching the
/// simulated strategy's accumulation order) after each epoch to evaluate
/// the running average.
pub fn run_threaded_averaging(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
) -> History {
    try_run_threaded_averaging(factory, train_set, test_set, cfg, p)
        .unwrap_or_else(|e| panic!("threaded model averaging(p={p}): {e}"))
}

/// [`run_threaded_averaging`] with wire failures surfaced as typed
/// [`EngineError::WireFailure`] values instead of panics.
pub fn try_run_threaded_averaging(
    factory: &(dyn Fn() -> Model + Sync),
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    p: usize,
) -> Result<History, EngineError> {
    assert!(p >= 1);
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = make_shards(train_set, p, cfg.shard_strategy);
    let mut world = CommWorld::new(p);
    let traffic = world.traffic();
    let comms = world.communicators();
    let mut rank0_history: Option<History> = None;
    let mut first_err: Option<EngineError> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut comm, shard) in comms.into_iter().zip(shards.iter().cloned()) {
            let handle = scope.spawn(move || {
                let rank = comm.rank();
                // Gather round (1-based) for wire-failure context.
                let mut round = 0u64;
                let result = (|| -> Result<History, sasgd_comm::CommError> {
                    let mut learner = Learner::new(rank, factory(), cfg);
                    // Evaluation replica for the running average (rank 0 only;
                    // factory() replicas start identical, so no broadcast —
                    // mirroring the simulated strategy's zero init charge).
                    let mut avg_model = if rank == 0 { Some(factory()) } else { None };
                    let evals = if rank == 0 {
                        Some(EvalSets::prepare(train_set, test_set, cfg.eval_cap))
                    } else {
                        None
                    };
                    let mut history = History::new(format!("ModelAvg-threaded(p={p})"), p, 1);
                    let mut compute_s = 0.0f64;
                    let mut comm_s = 0.0f64;
                    let mut samples = 0u64;
                    for epoch in 1..=cfg.epochs {
                        // Independent learners use the epoch-start rate for the
                        // whole epoch, like the simulated strategy.
                        let gamma_now = cfg.gamma_at((epoch - 1) as f64);
                        let batches: Vec<Vec<usize>> =
                            shard.epoch_iter(cfg.batch_size, &mut learner.rng).collect();
                        let t0 = Instant::now();
                        for idx in &batches {
                            samples += idx.len() as u64;
                            learner.local_step(train_set, idx, gamma_now, 0.0, 1.0);
                            learner.gs.iter_mut().for_each(|g| *g = 0.0);
                        }
                        compute_s += t0.elapsed().as_secs_f64();
                        // Gather parameters to rank 0 in rank order.
                        round += 1;
                        let op = comm.next_op();
                        let gather_tag = (op << 4) | 2;
                        let t1 = Instant::now();
                        if rank == 0 {
                            let mut avg = vec![0.0f32; learner.model.param_len()];
                            let own = learner.model.param_vector();
                            for (a, &b) in avg.iter_mut().zip(&own) {
                                *a += b / p as f32;
                            }
                            for r in 1..p {
                                let v = comm.recv(r, gather_tag)?;
                                for (a, &b) in avg.iter_mut().zip(&v) {
                                    *a += b / p as f32;
                                }
                            }
                            let am = avg_model.as_mut().expect("rank 0 replica");
                            am.write_params(&avg);
                            comm_s += t1.elapsed().as_secs_f64();
                            if let Some(ev) = &evals {
                                let rec = ev.record(
                                    am,
                                    epoch as f64,
                                    compute_s,
                                    comm_s,
                                    samples * p as u64,
                                );
                                history.records.push(rec);
                            }
                        } else {
                            comm.send(0, gather_tag, learner.model.param_vector())?;
                            comm_s += t1.elapsed().as_secs_f64();
                        }
                    }
                    if rank == 0 {
                        history.final_params =
                            Some(avg_model.as_ref().expect("rank 0 replica").param_vector());
                    }
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
                        first_err = Some(EngineError::WireFailure {
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
    let mut history = rank0_history.expect("rank 0 history");
    history.wire = Some(WireStats {
        elements: traffic.elements_sent(),
        messages: traffic.messages_sent(),
    });
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    #[test]
    fn threaded_sequential_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(52, 16, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.05, 11);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let th = run_threaded_sequential(&factory, &train, &test, &cfg);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(5));
        let sim = crate::algorithms::sequential::run(&mut f, &train, &test, &cfg);
        assert_eq!(th.final_params, sim.final_params);
    }

    #[test]
    fn threaded_averaging_matches_simulated_bitwise() {
        let (train, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let mut cfg = TrainConfig::new(2, 8, 0.03, 7);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let th = run_threaded_averaging(&factory, &train, &test, &cfg, 3);
        let mut f = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let sim = crate::algorithms::averaging::run(&mut f, &train, &test, &cfg, 3);
        assert_eq!(th.final_params, sim.final_params);
        assert!(
            th.wire.expect("wire").elements > 0,
            "gather traffic counted"
        );
    }

    #[test]
    fn threaded_eamsgd_learns() {
        let (train, test) = generate(&CifarLikeConfig::tiny(100, 40, 3));
        let mut cfg = TrainConfig::new(6, 8, 0.02, 42);
        cfg.jitter = JitterModel::none();
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let h = run_threaded_eamsgd(&factory, &train, &test, &cfg, 2, 2, None, 0.9, false);
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
        let th = run_sasgd(
            &factory,
            &train,
            &test,
            &cfg,
            4,
            2,
            GammaP::OverP,
            Some(comp),
        )
        .expect("in-process run");
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let sim = crate::algorithms::sasgd::run(
            &mut f,
            &train,
            &test,
            &cfg,
            4,
            2,
            GammaP::OverP,
            Some(comp),
        );
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
        let dense = run_sasgd(&factory, &train, &test, &cfg, p, 2, GammaP::OverP, None)
            .expect("in-process run");
        let d = dense.wire.expect("wire");
        // Dense traffic is exactly modeled: reduce + broadcast move
        // 2(p−1)·m elements per round.
        assert_eq!(d.elements, bcast + syncs * 2 * (p as u64 - 1) * m);

        let topk = Compression::TopK { ratio: 0.1 };
        let sparse = run_sasgd(
            &factory,
            &train,
            &test,
            &cfg,
            p,
            2,
            GammaP::OverP,
            Some(topk),
        )
        .expect("in-process run");
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
        let quant = run_sasgd(&factory, &train, &test, &cfg, p, 2, GammaP::OverP, Some(q8))
            .expect("in-process run");
        let q = quant.wire.expect("wire");
        let (qlo, qhi) = q8.round_wire_bounds(m as usize, p);
        assert_eq!(qlo, qhi, "Uniform8Bit bracket is tight");
        assert_eq!(q.elements, bcast + syncs * qlo);

        // The composed sparse scheme stays inside its bracket too, and
        // under the plain sparse wire.
        let comp = Compression::Sparse {
            k: crate::compress::KSchedule::fixed(0.1),
            q8: true,
            union_bound: true,
        };
        let cm = run_sasgd(
            &factory,
            &train,
            &test,
            &cfg,
            p,
            2,
            GammaP::OverP,
            Some(comp),
        )
        .expect("in-process run");
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
                k: crate::compress::KSchedule::norm_adaptive(0.1),
                q8: false,
                union_bound: false,
            },
            Compression::Sparse {
                k: crate::compress::KSchedule::layer_wise(0.1),
                q8: false,
                union_bound: false,
            },
            Compression::Sparse {
                k: crate::compress::KSchedule::fixed(0.1),
                q8: true,
                union_bound: true,
            },
        ];
        for comp in schedules {
            let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
            let th = run_sasgd(
                &factory,
                &train,
                &test,
                &cfg,
                4,
                2,
                GammaP::OverP,
                Some(comp),
            )
            .expect("in-process run");
            let mut f = || models::tiny_cnn(3, &mut SeedRng::new(7));
            let sim = crate::algorithms::sasgd::run(
                &mut f,
                &train,
                &test,
                &cfg,
                4,
                2,
                GammaP::OverP,
                Some(comp),
            );
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
