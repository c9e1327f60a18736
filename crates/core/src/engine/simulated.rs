//! The simulated backend: the threaded backend's rank programs on
//! virtual time.
//!
//! * **collective strategies** (sequential SGD, SASGD with or without
//!   compression, hierarchical SASGD, one-shot averaging, Local SGD,
//!   DaSGD, under either cadence) run the engine's shared collective
//!   dispatch — the same rank program, exchanges and worlds as the
//!   threaded backend — over [`SimTransport`] endpoints. Each rank's
//!   [`VirtualClock`] is charged its own work by the rank loop (modeled
//!   step compute × speed × jitter, the lockstep per-epoch overhead) and
//!   every message's link time by its receiver
//!   ([`Topology::gpu_link_time`](sasgd_simnet::Topology::gpu_link_time);
//!   divided by `LOCAL_FABRIC_SPEEDUP` inside a hierarchical group).
//!   Barrier waits, the `x0` broadcast and tree depth are therefore
//!   charged per message, not by a cost formula per strategy, and
//!   `History::wire` is the counted traffic of the run. No scheduler is
//!   needed: the collectives receive only from named sources, so virtual
//!   time is a pure function of the dataflow, whatever order the OS runs
//!   the rank threads in.
//! * **Downpour and EAMSGD** run an event loop: each learner's next
//!   `T`-minibatch block is an event ordered by `(completion time, rank)`;
//!   at each completion the loop applies the strategy's local math and a
//!   single-learner exchange with the server state the strategy holds,
//!   so gradient staleness emerges from the same speed variation a real
//!   cluster has while staying bit-reproducible under a seed. (Their
//!   arrival-order shards would need a `SimTransport` that receives in
//!   virtual arrival order.)
//!
//! Per-learner RNG streams make the interleavings composable: a learner's
//! batch order, dropout and jitter draws depend only on its own streams,
//! never on how learners interleave.

use std::sync::Arc;

use sasgd_comm::sim::{LinkTime, SimTransport, VirtualClock};
use sasgd_comm::world::Communicator;
use sasgd_data::Dataset;
use sasgd_nn::Model;
use sasgd_simnet::{RankQueue, VirtualTime};

use super::rank::RankClock;
use super::{
    resolve_cadence, run_collective, strategy_for, AggregationStrategy, BatchStream, EngineError,
    Substrate,
};
use crate::algorithms::hierarchical::LOCAL_FABRIC_SPEEDUP;
use crate::algorithms::Algorithm;
use crate::history::{History, StalenessStats};
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// Run `algo` on the simulated backend at its resolved cadence (see
/// [`resolve_cadence`](super::resolve_cadence)) — the entry point of both
/// [`crate::train`] and [`Executor`](super::Executor).
pub(crate) fn run(
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    algo: &Algorithm,
    cfg: &TrainConfig,
) -> Result<History, EngineError> {
    let mut s = strategy_for(algo);
    let cadence = resolve_cadence(algo, &*s, cfg)?;
    Ok(match algo {
        Algorithm::Downpour { .. } | Algorithm::Eamsgd { .. } => {
            run_event_individual(&mut *s, factory, train_set, test_set, cfg)
        }
        _ => {
            let sub = Virtual::new(s.p(), cfg);
            run_collective(&sub, algo, &*s, factory, train_set, test_set, cfg, cadence)?
        }
    })
}

/// The simulated substrate: one virtual clock per rank, shared by the
/// rank's endpoints, and the topology's GPU link for pricing messages.
struct Virtual {
    clocks: Vec<VirtualClock>,
    global: LinkTime,
    group: LinkTime,
}

impl Virtual {
    fn new(p: usize, cfg: &TrainConfig) -> Self {
        let topology = cfg.cost.topology.clone();
        let local = topology.clone();
        Virtual {
            clocks: (0..p).map(|_| VirtualClock::new()).collect(),
            global: Arc::new(move |bytes| topology.gpu_link_time(bytes)),
            group: Arc::new(move |bytes| local.gpu_link_time(bytes) / LOCAL_FABRIC_SPEEDUP),
        }
    }
}

impl Substrate for Virtual {
    type Endpoint = SimTransport;

    fn label(&self, label: String) -> String {
        label
    }

    fn endpoint(&self, comm: Communicator, rank: usize, group: bool) -> SimTransport {
        let link = if group { &self.group } else { &self.global };
        SimTransport::new(comm, self.clocks[rank].clone(), Arc::clone(link))
    }

    fn clock(&self, rank: usize) -> RankClock {
        RankClock::Virtual(self.clocks[rank].clone())
    }
}

/// Downpour or EAMSGD: `p` learners run `T`-step blocks on their own
/// virtual clocks; completions pop in `(time, rank)` order, and each one
/// exchanges with the server state the strategy holds, charged one
/// modeled parameter-server round trip.
fn run_event_individual(
    s: &mut dyn AggregationStrategy,
    factory: &mut dyn FnMut() -> Model,
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
) -> History {
    let p = s.p();
    let t = s.sync_interval();
    assert!(t >= 1, "parameter-server strategies must sync");
    let mut learners: Vec<Learner> = (0..p).map(|id| Learner::new(id, factory(), cfg)).collect();
    let m = learners[0].model.param_len();
    let macs = learners[0].model.macs_per_sample();
    let x0 = learners[0].model.param_vector();
    s.setup(&x0);
    for l in &mut learners {
        l.model.write_params(&x0);
    }

    let evals = EvalSets::prepare(train_set, test_set, cfg.eval_cap);
    let n = train_set.len();
    let step_s = cfg.cost.minibatch_compute(macs, cfg.batch_size, p);
    let comm_round = cfg.cost.ps_roundtrip(m, p).seconds;
    let target_samples = (cfg.epochs as u64) * (n as u64);

    let mut streams: Vec<BatchStream> = s
        .shards(train_set, cfg)
        .into_iter()
        .map(|sh| BatchStream::new(sh.indices().to_vec(), cfg.batch_size))
        .collect();
    // Events ordered by (completion time, rank): the pop sequence is a
    // pure function of the virtual clocks, never of scheduling history.
    let mut queue: RankQueue<f64> = RankQueue::new();
    for (id, l) in learners.iter_mut().enumerate() {
        let dur = block_duration(l, t, step_s, cfg);
        queue.push(VirtualTime(dur), id, 0.0);
    }

    let mut history = History::new(s.label(), p, s.history_interval());
    let mut samples = 0u64;
    let mut recorded_passes = 0u64;
    let mut rounds = 0u64;
    // Staleness bookkeeping: how many shared-state updates landed between
    // a learner's pull and its next push.
    let mut shared_version = 0u64;
    let mut pulled_version = vec![0u64; p];
    let mut staleness_obs: Vec<u64> = Vec::new();
    // Per learner: virtual clock, compute seconds, communication seconds.
    let mut clock = vec![0.0f64; p];
    let mut compute_s = vec![0.0f64; p];
    let mut comm_s = vec![0.0f64; p];

    while let Some((tv, id, start)) = queue.pop() {
        // The block's math: T local minibatches against the state pulled
        // at the previous sync.
        let gamma_now = cfg.gamma_at(samples as f64 / n as f64);
        for _ in 0..t {
            let idx = {
                let l = &mut learners[id];
                streams[id].next(&mut l.rng)
            };
            samples += idx.len() as u64;
            s.on_local_step(&mut learners[id], id, train_set, &idx, gamma_now);
        }
        compute_s[id] += tv.seconds() - start;
        let tau = shared_version - pulled_version[id];
        staleness_obs.push(tau);
        shared_version += 1;
        let gamma_eff = s.observe_staleness(id, tau, gamma_now);
        s.event_sync(&mut learners[id], id, gamma_eff);
        pulled_version[id] = shared_version;
        clock[id] = tv.seconds() + comm_round;
        comm_s[id] += comm_round;
        history.push_staleness(rounds, id, tau, gamma_eff);
        rounds += 1;
        // Record accuracy when learner 0 finishes a pass over its shard.
        if id == 0 && streams[0].completed_passes() > recorded_passes {
            recorded_passes = streams[0].completed_passes();
            let epoch = samples as f64 / n as f64;
            let rec = evals.record(
                &mut learners[0].model,
                epoch,
                compute_s[0],
                comm_s[0],
                samples,
            );
            history.records.push(rec);
        }
        if samples < target_samples {
            let start = clock[id];
            let dur = block_duration(&mut learners[id], t, step_s, cfg);
            queue.push(VirtualTime(start + dur), id, start);
        }
    }
    // Guarantee a final record even if learner 0 did not end on a pass
    // boundary.
    if history.records.is_empty() || history.records.last().expect("nonempty").samples < samples {
        let epoch = samples as f64 / n as f64;
        let rec = evals.record(
            &mut learners[0].model,
            epoch,
            compute_s[0],
            comm_s[0],
            samples,
        );
        history.records.push(rec);
    }
    history.staleness = StalenessStats::from_observations(&staleness_obs);
    history.sync_rounds = rounds;
    history.final_params = Some(learners[0].model.param_vector());
    history
}

/// Duration of the next `t`-minibatch compute block (jitter drawn now so
/// completion order is known to the event queue up front).
fn block_duration(l: &mut Learner, t: usize, step_s: f64, cfg: &TrainConfig) -> f64 {
    let mut dur = 0.0;
    for _ in 0..t {
        dur += step_s * l.speed * l.draw_jitter(&cfg.jitter);
    }
    dur
}

#[cfg(test)]
mod tests {
    use crate::{train, Algorithm, GammaP, TSchedule, TrainConfig};
    use sasgd_data::cifar_like::{generate, CifarLikeConfig};
    use sasgd_nn::models;
    use sasgd_simnet::JitterModel;
    use sasgd_tensor::SeedRng;

    fn quiet_cfg(epochs: usize, gamma: f32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs, 8, gamma, 42);
        cfg.jitter = JitterModel::none();
        cfg
    }

    #[test]
    fn larger_t_means_less_comm_time() {
        // With jitter disabled every learner's step costs the same, so the
        // only skew between ranks is the tree's: learner 0 never waits for
        // a broadcast it sends, but the next reduce waits out exactly that
        // skew (the x0 broadcast's included). Its communication time must
        // therefore equal one tree allreduce per aggregation — ⌊steps/T⌋
        // of them, where steps = epochs · ⌊(n/p)/M⌋. This pins the
        // T-amortization claim to the cost model instead of a magic ratio.
        let (train_set, test) = generate(&CifarLikeConfig::tiny(160, 20, 2));
        let cfg = quiet_cfg(2, 0.02);
        let p = 4;
        let m = models::tiny_cnn(2, &mut SeedRng::new(1)).param_len();
        let ar = cfg.cost.allreduce_tree(m, p).seconds;
        let steps = cfg.epochs * (train_set.len() / p / cfg.batch_size);
        let mut comm = Vec::new();
        for t in [1usize, 5] {
            let mut f = || models::tiny_cnn(2, &mut SeedRng::new(1));
            let algo = Algorithm::sasgd(p, t, GammaP::OverP);
            let h = train(&mut f, &train_set, &test, &algo, &cfg);
            let got = h.records.last().expect("r").comm_seconds;
            let expect = (steps / t) as f64 * ar;
            assert!(
                (got - expect).abs() <= 1e-9 * expect,
                "T={t}: comm {got} should equal {} allreduces = {expect}",
                steps / t
            );
            comm.push(got);
        }
        assert!(
            comm[1] < comm[0],
            "T=5 comm {} should be below T=1 comm {}",
            comm[1],
            comm[0]
        );
    }

    #[test]
    fn hierarchical_learns_and_spends_less_on_global_comm() {
        let (train_set, test) = generate(&CifarLikeConfig::tiny(160, 60, 3));
        let cfg = quiet_cfg(8, 0.05);
        // Flat SASGD at T=2 vs hierarchy: local sync every 2 steps, global
        // every 4 local rounds.
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::sasgd(4, 2, GammaP::OverP);
        let flat = train(&mut f1, &train_set, &test, &algo, &cfg);
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(7));
        let algo = Algorithm::HierarchicalSasgd {
            groups: 2,
            per_group: 2,
            t_local: 2,
            t_global: 4,
            gamma_p: GammaP::OverP,
        };
        let hier = train(&mut f2, &train_set, &test, &algo, &cfg);
        assert!(
            hier.final_test_acc() > 0.5,
            "acc {:.2}",
            hier.final_test_acc()
        );
        // Accuracy should be in the same league as flat SASGD...
        assert!(
            hier.final_test_acc() > flat.final_test_acc() - 0.2,
            "hier {:.2} vs flat {:.2}",
            hier.final_test_acc(),
            flat.final_test_acc()
        );
        // ...while the observed learner communicates less (cheap local
        // rounds replace most global ones).
        let flat_comm = flat.records.last().expect("r").comm_seconds;
        let hier_comm = hier.records.last().expect("r").comm_seconds;
        assert!(
            hier_comm < flat_comm,
            "hier comm {hier_comm} vs flat {flat_comm}"
        );
    }

    #[test]
    fn communication_happens_once() {
        // One-shot averaging: the per-epoch gathers only feed rank 0's
        // evaluation and cost no virtual time; the final one is charged.
        let (train_set, test) = generate(&CifarLikeConfig::tiny(64, 16, 2));
        let mut cfg = TrainConfig::new(3, 8, 0.02, 1);
        cfg.jitter = JitterModel::none();
        let mut factory = || models::tiny_cnn(2, &mut SeedRng::new(3));
        let algo = Algorithm::ModelAverageOnce { p: 4 };
        let h = train(&mut factory, &train_set, &test, &algo, &cfg);
        let comm_mid = h.records[1].comm_seconds;
        let comm_end = h.records.last().expect("r").comm_seconds;
        assert_eq!(comm_mid, 0.0, "no traffic during training");
        assert!(comm_end > 0.0, "one final reduction");
    }

    #[test]
    fn overlap_hides_communication_vs_local_sgd() {
        // With jitter off, every learner reaches the round barrier at the
        // same time, so Local SGD pays the full allreduce each round while
        // delayed averaging only waits for the *previous* allreduce —
        // already finished once T compute steps exceed its latency.
        let (train_set, test) = generate(&CifarLikeConfig::tiny(128, 32, 3));
        let cfg = quiet_cfg(3, 0.05);
        let t = 4;
        let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let algo = Algorithm::LocalSgd {
            p: 4,
            schedule: TSchedule::Fixed { t },
        };
        let local = train(&mut f1, &train_set, &test, &algo, &cfg);
        let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let algo = Algorithm::DelayedAvg { p: 4, t };
        let delayed = train(&mut f2, &train_set, &test, &algo, &cfg);
        let lc = local.records.last().expect("r").comm_seconds;
        let dc = delayed.records.last().expect("r").comm_seconds;
        assert!(
            dc < lc,
            "delayed averaging comm {dc} should undercut Local SGD {lc}"
        );
    }
}
