//! The unified execution engine.
//!
//! Every distributed algorithm in this crate is the composition of the
//! *same* learner loop with a different sync-point exchange. This module
//! factors that observation into code:
//!
//! * `AggregationStrategy` — what the engine needs to know about an
//!   algorithm besides its exchange: label, learner count, T policy,
//!   sharding, imposed staleness, and the analytic staleness summary.
//!   The collective strategies are nothing more than that descriptor; the
//!   parameter-server strategies also keep the shared state of the
//!   simulated event loop.
//! * [`rank`] — the per-rank programs, generic over the transport and
//!   reading an injected [`RankClock`]: one collective
//!   loop for every collective strategy under either cadence, paced by a
//!   `StepClock`, with the exchange passed in as an
//!   [`EventOp`]; fault-tolerant SASGD; the
//!   parameter-server learner.
//! * `run_collective` — the one `(Algorithm, Cadence)` dispatch both
//!   backends share: it builds the replicas on the calling thread, the
//!   worlds (grouped for hierarchical SASGD), one exchange per rank, and
//!   runs [`rank::run_collective_rank`] on one thread per rank.
//! * [`simulated`] — the virtual-time backend: collective strategies run
//!   that dispatch over [`SimTransport`] endpoints, whose receives charge
//!   each message's modeled link time to virtual clocks; the
//!   parameter-server strategies run a `(completion time, rank)` event
//!   loop. Deterministic and bit-reproducible under a seed.
//! * [`threaded`] — the wall-clock backend: the same dispatch over
//!   in-process endpoints, the parameter-server learners against real
//!   shard threads, and fault-tolerant SASGD.
//! * [`Executor`] — the public entry point selecting a [`Backend`].
//!
//! Both backends run the same rank program over the same collectives, so
//! every collective strategy produces bitwise-identical parameters, and
//! the same counted wire traffic, on both.
//!
//! [`SimTransport`]: sasgd_comm::sim::SimTransport

use std::collections::VecDeque;
use std::sync::Arc;

use sasgd_comm::hierarchy::{grouped, GroupedComm};
use sasgd_comm::transport::Transport;
use sasgd_comm::world::{CommWorld, Communicator, Traffic};
use sasgd_data::{make_shards, Dataset, Shard};
use sasgd_nn::Model;

use crate::algorithms::Algorithm;
use crate::history::{History, StalenessStats};
use crate::schedule::SyncPolicy;
use crate::trainer::{Learner, TrainConfig};
use rank::{run_collective_rank, ClockSpec, CollectiveRankSpec, EventOp, RankClock};

pub mod rank;
pub mod simulated;
pub mod threaded;

/// How a strategy's learners advance relative to each other. Every
/// strategy declares a *default* cadence; [`TrainConfig::cadence`] can
/// override it per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cadence {
    /// Bulk-synchronous epochs: a round ends every `T` steps of aligned
    /// per-epoch batch orders — the execution the paper's Algorithm 1
    /// describes.
    Lockstep,
    /// Learners run free over endless reshuffled batch streams; the
    /// collective strategies meet every `T` steps at one γ per round, the
    /// parameter-server learners exchange whenever their blocks complete.
    EventDriven,
}

/// What the engine needs to know about a strategy besides its sync-point
/// exchange. Default implementations encode the most common behaviour
/// (sequential-SGD-like); each algorithm overrides only where it differs.
///
/// The collective strategies implement only the descriptor half (label
/// through [`staleness`](AggregationStrategy::staleness)); their exchange
/// is the [`EventOp`] [`run_collective`] picks for the [`Algorithm`]. The
/// parameter-server strategies also implement the hooks of the simulated
/// event loop, holding the server state (parameter vector or center
/// variable) themselves.
#[allow(unused_variables)] // default hook bodies ignore their arguments
pub(crate) trait AggregationStrategy {
    /// Display label matching the paper's plot legends.
    fn label(&self) -> String;

    /// Number of learners.
    fn p(&self) -> usize;

    /// Default execution cadence ([`TrainConfig::cadence`] overrides it).
    fn cadence(&self) -> Cadence {
        Cadence::Lockstep
    }

    /// Local steps between sync points (`0` = never sync).
    fn sync_interval(&self) -> usize {
        0
    }

    /// The T schedule driving this strategy's communication. The default
    /// is the fixed interval every paper algorithm uses; adaptive
    /// strategies return a policy built from a
    /// [`TSchedule`](crate::schedule::TSchedule) instead.
    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::fixed(self.sync_interval())
    }

    /// Staleness a collective strategy imposes by construction (DaSGD
    /// applies the round-`k` average one round late, so 1; plain
    /// collectives apply fresh state, so 0).
    fn collective_tau(&self) -> u64 {
        0
    }

    /// Aggregation interval reported in [`History`].
    fn history_interval(&self) -> usize {
        self.sync_interval().max(1)
    }

    /// Partition the training data across learners.
    fn shards(&self, train: &Dataset, cfg: &TrainConfig) -> Vec<Shard> {
        make_shards(train, self.p(), cfg.shard_strategy)
    }

    /// Whether lockstep epochs truncate to the smallest shard's
    /// whole-minibatch count (bulk-synchrony needs aligned step counts);
    /// `false` lets every learner walk its full shard, ragged tails
    /// included.
    fn lockstep_truncates(&self) -> bool {
        true
    }

    /// Staleness summary of a lockstep run given the number of sync
    /// points executed.
    fn staleness(&self, syncs: u64) -> Option<StalenessStats> {
        None
    }

    /// Parameter server: one-time initialization once all replicas share
    /// `x0`.
    fn setup(&mut self, x0: &[f32]) {}

    /// Parameter server: observe learner `id`'s measured staleness `tau`
    /// at a sync point and return the learning rate to apply. The default
    /// returns `gamma` unchanged; staleness-aware strategies scale it
    /// (γ/(1+τ)).
    fn observe_staleness(&mut self, id: usize, tau: u64, gamma: f32) -> f32 {
        gamma
    }

    /// Parameter server: one local minibatch (virtual time is the event
    /// loop's job). The default applies the gradient locally.
    fn on_local_step(
        &mut self,
        l: &mut Learner,
        id: usize,
        data: &Dataset,
        idx: &[usize],
        gamma: f32,
    ) {
        l.local_step(data, idx, gamma);
    }

    /// Parameter server: sync learner `id` against the server state.
    fn event_sync(&mut self, l: &mut Learner, id: usize, gamma: f32) {}
}

/// Squared L2 distance between two parameter vectors, folded sequentially
/// in f32 — the Local-SGD plateau signal, computed identically on both
/// backends so adaptive-T decisions replay exactly.
pub(crate) fn delta_sq_norm(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0f32, |acc, (x, y)| acc + (x - y) * (x - y))
}

/// Typed error from [`Executor::try_run`] — either a configuration
/// problem caught before any learner state exists, or a wire failure a
/// threaded run could not degrade around.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The strategy has no execution path at the requested cadence, on
    /// either backend: the parameter-server strategies are asynchronous by
    /// definition and the averaging lattice points (Local SGD, DaSGD) have
    /// no bulk-synchronous exchange, so an explicit
    /// [`TrainConfig::cadence`] override forcing any of those four to
    /// lockstep produces this.
    UnsupportedCadence {
        /// Label of the offending strategy.
        label: String,
    },
    /// A communication operation failed in a way the run cannot survive
    /// (e.g. the recovery coordinator's own collective failed). Ranks that
    /// *can* degrade — evicted or orphaned non-coordinators — retire into
    /// [`History::retirements`](crate::history::History) instead of
    /// raising this.
    WireFailure {
        /// The rank whose operation failed.
        rank: usize,
        /// Global sync round (1-based) of the failing collective; `0` for
        /// failures outside the sync loop (e.g. the `x0` broadcast).
        round: u64,
        /// The underlying error's rendering.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnsupportedCadence { label } => write!(
                f,
                "no execution path for strategy `{label}` at the requested cadence \
                 on the selected backend"
            ),
            EngineError::WireFailure {
                rank,
                round,
                detail,
            } => write!(
                f,
                "wire failure on rank {rank} at sync round {round}: {detail}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Build the strategy implementing `algo`.
pub(crate) fn strategy_for(algo: &Algorithm) -> Box<dyn AggregationStrategy> {
    use crate::algorithms::*;
    match *algo {
        Algorithm::Sequential => Box::new(sequential::SequentialStrategy),
        Algorithm::Sasgd {
            p, t, compression, ..
        } => Box::new(sasgd::SasgdStrategy::new(p, t, compression)),
        Algorithm::HierarchicalSasgd {
            groups,
            per_group,
            t_local,
            t_global,
            ..
        } => Box::new(hierarchical::HierarchicalStrategy::new(
            groups, per_group, t_local, t_global,
        )),
        Algorithm::Downpour {
            p,
            t,
            staleness_gamma,
        } => Box::new(downpour::DownpourStrategy::new(p, t, staleness_gamma)),
        Algorithm::Eamsgd {
            p,
            t,
            moving_rate,
            momentum,
            staleness_gamma,
        } => Box::new(eamsgd::EamsgdStrategy::new(
            p,
            t,
            moving_rate,
            momentum,
            staleness_gamma,
        )),
        Algorithm::LocalSgd { p, schedule } => {
            Box::new(local_sgd::LocalSgdStrategy::new(p, schedule))
        }
        Algorithm::DelayedAvg { p, t } => Box::new(dasgd::DaSgdStrategy::new(p, t)),
        Algorithm::ModelAverageOnce { p } => Box::new(averaging::AveragingStrategy::new(p)),
    }
}

/// The cadence `algo` runs at under `cfg` — its strategy's default unless
/// [`TrainConfig::cadence`] overrides it — or
/// [`EngineError::UnsupportedCadence`] when the strategy has no execution
/// path there. Both backends answer identically.
pub(crate) fn resolve_cadence(
    algo: &Algorithm,
    s: &dyn AggregationStrategy,
    cfg: &TrainConfig,
) -> Result<Cadence, EngineError> {
    let cadence = cfg.cadence.unwrap_or_else(|| s.cadence());
    match (algo, cadence) {
        (
            Algorithm::Downpour { .. }
            | Algorithm::Eamsgd { .. }
            | Algorithm::LocalSgd { .. }
            | Algorithm::DelayedAvg { .. },
            Cadence::Lockstep,
        ) => Err(EngineError::UnsupportedCadence { label: s.label() }),
        _ => Ok(cadence),
    }
}

/// What sets the two backends apart in a collective run: the endpoint a
/// rank's messages travel through and the clock its loop reads.
pub(crate) trait Substrate: Sync {
    /// A rank's endpoint.
    type Endpoint: Transport;

    /// The history label for a strategy labelled `label`.
    fn label(&self, label: String) -> String;

    /// Global rank `rank`'s endpoint from `comm`, an endpoint of a group
    /// world (learners sharing a device) when `group` is set.
    fn endpoint(&self, comm: Communicator, rank: usize, group: bool) -> Self::Endpoint;

    /// Global rank `rank`'s clock, read on the rank's own thread.
    fn clock(&self, rank: usize) -> RankClock;
}

/// Run a collective strategy — every [`Algorithm`] but Downpour and
/// EAMSGD — on `sub`: the replicas are built on the calling thread, then
/// one thread per rank runs [`run_collective_rank`] with the exchange of
/// `algo` over a flat world (hierarchical SASGD: the grouped global, group
/// and leader worlds). The round structure is resolved independently per
/// rank from rank-invariant state, so the collectives line up without a
/// coordinator. [`History::wire`] sums every world's traffic counters.
#[allow(clippy::too_many_arguments)] // the run's full context
pub(crate) fn run_collective<S: Substrate>(
    sub: &S,
    algo: &Algorithm,
    s: &dyn AggregationStrategy,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    cadence: Cadence,
) -> Result<History, EngineError> {
    let p = s.p();
    // Split intra-op workers across the p rank threads (no-op unless the
    // `parallel` feature is on and nothing was configured explicitly).
    sasgd_tensor::parallel::auto_configure_for_learners(p);
    let shards = s.shards(train_set, cfg);
    let min_steps = shards
        .iter()
        .map(|sh| sh.len() / cfg.batch_size)
        .min()
        .expect("at least one shard");
    let clock = match cadence {
        Cadence::Lockstep => {
            let truncate = s.lockstep_truncates();
            assert!(
                !truncate || min_steps > 0,
                "shards too small: {} samples over {p} learners at batch {}",
                train_set.len(),
                cfg.batch_size
            );
            ClockSpec::Lockstep {
                steps_per_epoch: truncate.then_some(min_steps),
            }
        }
        Cadence::EventDriven => ClockSpec::EventDriven {
            epoch_block: min_steps.max(1),
            shard_lens: shards.iter().map(Shard::len).collect(),
        },
    };
    let spec = CollectiveRankSpec {
        train_set,
        test_set,
        cfg,
        p,
        label: sub.label(s.label()),
        clock,
        policy: s.sync_policy(),
        collective_tau: s.collective_tau(),
        history_interval: s.history_interval(),
    };
    let models: Vec<Model> = (0..p).map(|_| factory()).collect();
    let rank = |(r, mut comm, model, op): (usize, S::Endpoint, Model, EventOp<S::Endpoint>)| {
        run_collective_rank(&mut comm, model, &shards[r], &spec, op, sub.clock(r))
    };
    let mut history = if let Algorithm::HierarchicalSasgd {
        groups,
        per_group,
        t_global,
        gamma_p,
        ..
    } = *algo
    {
        let bundles = grouped(groups, per_group);
        // Global, group and leader worlds each count their own traffic.
        let traffic: Vec<Arc<Traffic>> = std::iter::once(bundles[0].global.traffic())
            .chain(bundles.iter().step_by(per_group).map(|b| b.local.traffic()))
            .chain(bundles[0].leaders.as_ref().map(Communicator::traffic))
            .collect();
        let ranks = bundles
            .into_iter()
            .zip(models)
            .enumerate()
            .map(|(r, (bundle, model))| {
                let GroupedComm {
                    global,
                    local,
                    leaders,
                    ..
                } = bundle;
                let op = EventOp::Hierarchical {
                    t_global,
                    gamma_p,
                    local: sub.endpoint(local, r, true),
                    leaders: leaders.map(|l| sub.endpoint(l, r, false)),
                };
                (r, sub.endpoint(global, r, false), model, op)
            })
            .collect();
        threaded::run_ranks(ranks, &traffic, rank)?
    } else {
        let mut world = CommWorld::new(p);
        let traffic = [world.traffic()];
        // Rank 0 of one-shot averaging holds the spare replica that
        // evaluates the running average.
        let mut replica = matches!(algo, Algorithm::ModelAverageOnce { .. }).then(factory);
        let ranks = world
            .communicators()
            .into_iter()
            .zip(models)
            .enumerate()
            .map(|(r, (comm, model))| {
                let op = match *algo {
                    Algorithm::Sequential => EventOp::LocalOnly,
                    Algorithm::Sasgd {
                        gamma_p,
                        compression,
                        ..
                    } => EventOp::Gradient {
                        gamma_p,
                        compression,
                    },
                    Algorithm::ModelAverageOnce { .. } => EventOp::EpochAverage {
                        replica: replica.take(),
                    },
                    Algorithm::LocalSgd { .. } => EventOp::ParamAverage,
                    Algorithm::DelayedAvg { .. } => EventOp::DelayedAverage,
                    Algorithm::HierarchicalSasgd { .. }
                    | Algorithm::Downpour { .. }
                    | Algorithm::Eamsgd { .. } => unreachable!("not a flat collective strategy"),
                };
                (r, sub.endpoint(comm, r, false), model, op)
            })
            .collect();
        threaded::run_ranks(ranks, &traffic, rank)?
    };
    // The staleness summary: analytic under lockstep, the strategy's
    // by-construction τ for every rank of every round when event-driven.
    history.staleness = match cadence {
        Cadence::Lockstep => s.staleness(history.sync_rounds),
        Cadence::EventDriven => {
            let tau = s.collective_tau();
            let pushes = history.sync_rounds * p as u64;
            (pushes > 0).then_some(StalenessStats {
                mean: tau as f64,
                max: tau,
                pushes,
            })
        }
    };
    Ok(history)
}

/// Which substrate executes the learner loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One thread per learner over [`SimTransport`](sasgd_comm::sim::SimTransport) endpoints (the
    /// parameter-server strategies: a virtual-time event loop): modeled
    /// time from the `sasgd-simnet` cost model, counted wire traffic,
    /// deterministic and bit-reproducible under a seed.
    Simulated,
    /// One OS thread per learner over in-process `sasgd-comm` endpoints
    /// and parameter-server shards: wall-clock timing, counted wire
    /// traffic.
    Threaded,
}

/// Runs any [`Algorithm`] on a chosen [`Backend`]
/// through the unified engine.
///
/// ```
/// use sasgd_core::{Algorithm, Backend, Executor, TrainConfig};
/// use sasgd_data::cifar_like::{generate, CifarLikeConfig};
/// use sasgd_nn::models;
/// use sasgd_tensor::SeedRng;
///
/// let (train, test) = generate(&CifarLikeConfig::tiny(48, 16, 2));
/// let cfg = TrainConfig::new(1, 8, 0.05, 42);
/// let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
/// let algo = Algorithm::sasgd(2, 1, sasgd_core::GammaP::OverP);
/// let sim = Executor::new(Backend::Simulated).run(&factory, &train, &test, &algo, &cfg);
/// let thr = Executor::new(Backend::Threaded).run(&factory, &train, &test, &algo, &cfg);
/// assert_eq!(sim.final_params, thr.final_params);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    backend: Backend,
}

impl Executor {
    /// An executor for `backend`.
    pub fn new(backend: Backend) -> Self {
        Executor { backend }
    }

    /// The backend this executor drives.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Run `algo` on the executor's backend. The factory must produce
    /// identically initialized models on every call (close over a fixed
    /// seed); the collective strategies call it on this thread, the
    /// threaded parameter-server learners on their own.
    ///
    /// # Panics
    /// Panics on a misconfigured strategy or an unsurvivable wire failure,
    /// naming the backend, the algorithm, and — for wire failures — the
    /// failing rank and sync round; use [`Executor::try_run`] for the
    /// typed error.
    pub fn run(
        &self,
        factory: &(dyn Fn() -> Model + Sync),
        train_set: &Dataset,
        test_set: &Dataset,
        algo: &crate::algorithms::Algorithm,
        cfg: &TrainConfig,
    ) -> History {
        self.try_run(factory, train_set, test_set, algo, cfg)
            .unwrap_or_else(|e| panic!("{:?} backend running {algo:?}: {e}", self.backend))
    }

    /// [`Executor::run`] with the error typed: a strategy/cadence pair with
    /// no execution path is a typed [`EngineError`] before any thread or
    /// learner state exists, and wire failures surface instead of
    /// panicking.
    pub fn try_run(
        &self,
        factory: &(dyn Fn() -> Model + Sync),
        train_set: &Dataset,
        test_set: &Dataset,
        algo: &crate::algorithms::Algorithm,
        cfg: &TrainConfig,
    ) -> Result<History, EngineError> {
        match self.backend {
            Backend::Simulated => simulated::run(&mut || factory(), train_set, test_set, algo, cfg),
            Backend::Threaded => threaded::run(factory, train_set, test_set, algo, cfg),
        }
    }
}

/// A per-learner infinite minibatch stream over that learner's data shard
/// (reshuffled every pass). Shared by the event-driven step clock and the
/// parameter-server learners of both backends.
pub(crate) struct BatchStream {
    pending: VecDeque<Vec<usize>>,
    indices: Vec<usize>,
    batch: usize,
    /// Completed shard passes.
    pub(crate) passes: u64,
}

impl BatchStream {
    pub(crate) fn new(indices: Vec<usize>, batch: usize) -> Self {
        assert!(!indices.is_empty(), "learner shard is empty (p > n?)");
        BatchStream {
            pending: VecDeque::new(),
            indices,
            batch,
            passes: 0,
        }
    }

    /// Next minibatch of indices, reshuffling when a pass completes.
    pub(crate) fn next(&mut self, rng: &mut sasgd_tensor::SeedRng) -> Vec<usize> {
        if self.pending.is_empty() {
            let mut order = self.indices.clone();
            rng.shuffle(&mut order);
            self.pending = order.chunks(self.batch).map(<[usize]>::to_vec).collect();
            self.passes += 1;
        }
        self.pending.pop_front().expect("refilled stream")
    }

    /// Passes completed (a pass counts once its last batch is consumed).
    pub(crate) fn completed_passes(&self) -> u64 {
        if self.pending.is_empty() {
            self.passes
        } else {
            self.passes.saturating_sub(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn batch_stream_passes_count_on_consumption() {
        let mut rng = SeedRng::new(1);
        let mut s = BatchStream::new((0..10).collect(), 4);
        assert_eq!(s.completed_passes(), 0);
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.extend(s.next(&mut rng)); // 4 + 4 + 2 consumes one pass
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(s.completed_passes(), 1);
        let _ = s.next(&mut rng);
        assert_eq!(s.completed_passes(), 1, "mid-pass");
    }
}
