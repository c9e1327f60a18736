//! The three workloads: their generated inputs, their model (built both by
//! the `models::*` builder and, layer by layer from the public
//! constructors, under trace wrappers), and the drivers that train them.
//!
//! Load model: a closed loop of `P` rank threads in one process, each
//! issuing its next minibatch only after its previous sync completed.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sasgd_comm::socket::SocketTransport;
use sasgd_comm::transport::Transport;
use sasgd_comm::world::{CommWorld, Traffic};
use sasgd_core::engine::rank::{run_sasgd_rank, SasgdRankSpec};
use sasgd_core::history::History;
use sasgd_core::{
    Algorithm, Backend, Compression, EngineError, Executor, GammaP, KSchedule, TrainConfig,
};
use sasgd_data::cifar_like::{self, CifarLikeConfig};
use sasgd_data::nlc_like::{self, NlcLikeConfig};
use sasgd_data::{make_shards, Dataset, Shard};
use sasgd_nn::layers::{
    Conv2d, Dropout, Flatten, GlobalMaxOverTime, Linear, MaxPool2d, Relu, Tanh, TemporalConv1d,
    TemporalMaxPool,
};
use sasgd_nn::{models, Layer, Model};
use sasgd_tensor::SeedRng;

use crate::trace::{Recorder, TracedLayer, TracedTransport};

/// Rank threads per run.
pub const P: usize = 2;

/// Receive deadline on the benchmark's own endpoints: a rank whose peer
/// failed returns an error instead of blocking the run forever.
const RECV_DEADLINE: Duration = Duration::from_secs(60);

/// Learning rate of every workload.
const GAMMA: f32 = 0.05;

/// Bytes of the socket frame header (`sasgd_comm::protocol`).
pub const FRAME_HEADER_BYTES: u64 = sasgd_comm::protocol::HEADER_BYTES as u64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Table I CNN at width/8.
    CnnW8,
    /// Full Table II net, sequence length 20.
    Nlc20,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    pub batch: usize,
    /// Aggregation interval `T`.
    pub t: usize,
    pub compression: Option<Compression>,
    /// Ranks talk over loopback TCP instead of in-process channels.
    pub socket: bool,
    /// Minibatches each rank runs in one training call (a multiple of `t`).
    pub steps_per_rank: usize,
    /// Test-set size, also the evaluation cap on the training set.
    pub eval_n: usize,
}

/// The compression of `nlc-sparse`, also the codec the isolated leg times.
pub const SPARSE: Compression = Compression::Sparse {
    k: KSchedule::LayerWise { ratio: 0.01 },
    q8: true,
    union_bound: true,
};

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cnn-dense",
        net: Net::CnnW8,
        batch: 16,
        t: 5,
        compression: None,
        socket: false,
        steps_per_rank: 40,
        eval_n: 64,
    },
    Workload {
        name: "nlc-sparse",
        net: Net::Nlc20,
        batch: 1,
        t: 1,
        compression: Some(SPARSE),
        socket: false,
        steps_per_rank: 16,
        eval_n: 16,
    },
    Workload {
        name: "nlc-socket",
        net: Net::Nlc20,
        batch: 1,
        t: 1,
        compression: None,
        socket: true,
        steps_per_rank: 16,
        eval_n: 16,
    },
];

/// How a layer of the workload's net is built.
#[derive(Clone, Copy, Debug)]
pub enum LayerSpec {
    Conv {
        ci: usize,
        co: usize,
        k: usize,
        pad: usize,
    },
    Relu,
    MaxPool(usize),
    Dropout(f32),
    Flatten,
    Linear {
        din: usize,
        dout: usize,
    },
    Tanh,
    Temporal {
        din: usize,
        nkern: usize,
        window: usize,
    },
    TemporalMaxPool(usize),
    MaxOverTime,
}

impl LayerSpec {
    pub fn build(self, rng: &mut SeedRng) -> Box<dyn Layer> {
        match self {
            LayerSpec::Conv { ci, co, k, pad } => Box::new(Conv2d::new(ci, co, k, k, 1, pad, rng)),
            LayerSpec::Relu => Box::new(Relu::new()),
            LayerSpec::MaxPool(w) => Box::new(MaxPool2d::new(w)),
            LayerSpec::Dropout(p) => Box::new(Dropout::new(p)),
            LayerSpec::Flatten => Box::new(Flatten::new()),
            LayerSpec::Linear { din, dout } => Box::new(Linear::new(din, dout, rng)),
            LayerSpec::Tanh => Box::new(Tanh::new()),
            LayerSpec::Temporal { din, nkern, window } => {
                Box::new(TemporalConv1d::new(din, nkern, window, rng))
            }
            LayerSpec::TemporalMaxPool(w) => Box::new(TemporalMaxPool::new(w)),
            LayerSpec::MaxOverTime => Box::new(GlobalMaxOverTime::new()),
        }
    }
}

impl Net {
    /// The layer list, in the order (and with the rng draws) of the
    /// `models::*` builder.
    pub fn specs(self) -> Vec<LayerSpec> {
        use LayerSpec as L;
        match self {
            Net::CnnW8 => {
                let (c1, c2, c3, c4) = (8, 16, 32, 16);
                let mut v = Vec::new();
                for (ci, co, k, pad) in [
                    (3, c1, 5, 2),
                    (c1, c2, 3, 1),
                    (c2, c3, 3, 1),
                    (c3, c4, 2, 0),
                ] {
                    v.extend([
                        L::Conv { ci, co, k, pad },
                        L::Relu,
                        L::MaxPool(2),
                        L::Dropout(0.5),
                    ]);
                }
                v.extend([L::Flatten, L::Linear { din: c4, dout: 10 }]);
                v
            }
            Net::Nlc20 => vec![
                L::Linear {
                    din: 100,
                    dout: 200,
                },
                L::Tanh,
                L::Temporal {
                    din: 200,
                    nkern: 1000,
                    window: 2,
                },
                L::TemporalMaxPool(2),
                L::Tanh,
                L::MaxOverTime,
                L::Linear {
                    din: 1000,
                    dout: 1000,
                },
                L::Tanh,
                L::Linear {
                    din: 1000,
                    dout: 311,
                },
            ],
        }
    }

    pub fn input_dims(self) -> Vec<usize> {
        match self {
            Net::CnnW8 => vec![3, 32, 32],
            Net::Nlc20 => vec![20, 100],
        }
    }

    /// The repository's own builder.
    pub fn reference(self, seed: u64) -> Model {
        let mut rng = SeedRng::new(seed);
        match self {
            Net::CnnW8 => models::cifar_cnn_scaled(8, &mut rng),
            Net::Nlc20 => models::nlc_net(20, &mut rng),
        }
    }

    /// The same net rebuilt from the public layer constructors, every
    /// layer wrapped so its passes land in `rec`.
    pub fn traced(self, seed: u64, rec: &Arc<Recorder>) -> Model {
        let mut rng = SeedRng::new(seed);
        let layers: Vec<Box<dyn Layer>> = self
            .specs()
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                Box::new(TracedLayer::new(s.build(&mut rng), i, Arc::clone(rec))) as Box<dyn Layer>
            })
            .collect();
        Model::new(layers, &self.input_dims())
    }
}

/// SplitMix64 step: decorrelated sub-seeds from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload's training calls share.
pub struct Setup {
    pub wl: Workload,
    pub train: Dataset,
    pub test: Dataset,
    pub cfg: TrainConfig,
    pub model_seed: u64,
    /// Socket endpoints of ranks 0..P (socket workloads only).
    pub endpoints: Vec<SocketTransport>,
    pub generate_s: f64,
    pub param_len: usize,
}

/// What one training call produced.
pub struct CallOutcome {
    pub wall_s: f64,
    /// Rank 0's history (sparsity telemetry merged from every rank), or
    /// the first rank error.
    pub history: Result<History, EngineError>,
    pub wire_elements: u64,
    pub wire_messages: u64,
    /// Bytes on the wire: 4 per element, plus the frame header per
    /// message over sockets.
    pub wire_bytes: u64,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn train_n(&self) -> usize {
        self.steps_per_rank * self.batch * P
    }

    pub fn samples_per_call(&self) -> u64 {
        self.train_n() as u64
    }

    pub fn rounds_per_call(&self) -> u64 {
        (self.steps_per_rank / self.t) as u64
    }

    pub fn algorithm(&self) -> Algorithm {
        Algorithm::Sasgd {
            p: P,
            t: self.t,
            gamma_p: GammaP::OverP,
            compression: self.compression,
        }
    }

    fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        let data_seed = sub_seed(seed, 1);
        match self.net {
            Net::CnnW8 => cifar_like::generate(&CifarLikeConfig {
                seed: data_seed,
                ..CifarLikeConfig::scaled(self.train_n(), self.eval_n)
            }),
            Net::Nlc20 => nlc_like::generate(&NlcLikeConfig {
                seed: data_seed,
                ..NlcLikeConfig::scaled(self.train_n(), self.eval_n, 311)
            }),
        }
    }

    /// Set-up as a user pays it, and as `setup_s` times it: generate the
    /// data, build the model with the `models::*` builder and, for socket
    /// workloads, bring the TCP mesh up.
    pub fn setup(&self, seed: u64) -> Result<Setup, String> {
        let t0 = Instant::now();
        let (train, test) = self.generate(seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let model_seed = sub_seed(seed, 2);
        let param_len = self.net.reference(model_seed).param_len();
        let mut cfg = TrainConfig::new(1, self.batch, GAMMA, sub_seed(seed, 3));
        cfg.eval_cap = self.eval_n;
        let endpoints = if self.socket {
            loopback_mesh(P).map_err(|e| format!("socket rendezvous failed: {e}"))?
        } else {
            Vec::new()
        };
        Ok(Setup {
            wl: *self,
            train,
            test,
            cfg,
            model_seed,
            endpoints,
            generate_s,
            param_len,
        })
    }
}

pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A `p`-rank full mesh over loopback TCP, every listener bound on an
/// ephemeral port first so no port can race.
fn loopback_mesh(p: usize) -> std::io::Result<Vec<SocketTransport>> {
    let listeners = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<std::io::Result<Vec<SocketAddr>>>()?;
    let rendezvous = Duration::from_secs(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                let addrs = &addrs;
                s.spawn(move || {
                    let mut t = SocketTransport::with_listener(rank, l, addrs, rendezvous)?;
                    t.set_default_deadline(Some(RECV_DEADLINE));
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rendezvous thread panicked"))
            .collect()
    })
}

impl Setup {
    /// The model rebuilt from the public layer constructors under trace
    /// wrappers must start from the builder's parameters, bitwise.
    pub fn check_traced_model(&self) -> Result<(), String> {
        let reference = self.wl.net.reference(self.model_seed).param_vector();
        let rec = Recorder::new(0, Instant::now());
        let traced = self.wl.net.traced(self.model_seed, &rec).param_vector();
        if bitwise_eq(&reference, &traced) {
            Ok(())
        } else {
            Err("traced model's initial parameters differ from the builder's".into())
        }
    }

    pub fn factory(&self) -> impl Fn() -> Model + Sync {
        let (net, seed) = (self.wl.net, self.model_seed);
        move || net.reference(seed)
    }

    fn shards(&self) -> (Vec<Shard>, usize) {
        let shards = make_shards(&self.train, P, self.cfg.shard_strategy);
        let steps = shards
            .iter()
            .map(|s| s.len() / self.cfg.batch_size)
            .min()
            .expect("P >= 1 shards");
        (shards, steps)
    }

    fn spec(&self, steps_per_epoch: usize) -> SasgdRankSpec<'_> {
        SasgdRankSpec {
            train_set: &self.train,
            test_set: &self.test,
            cfg: &self.cfg,
            p: P,
            t: self.wl.t,
            gamma_p: GammaP::OverP,
            compression: self.wl.compression,
            label: self.wl.name.to_string(),
            steps_per_epoch,
        }
    }

    /// One untraced training call, the way a user runs the workload:
    /// through the `Executor` on in-process channels, or `run_sasgd_rank`
    /// per rank thread over the socket mesh.
    pub fn run_untraced(&mut self) -> CallOutcome {
        if self.wl.socket {
            return self.run_socket(None);
        }
        let factory = self.factory();
        let t0 = Instant::now();
        let history = Executor::new(Backend::Threaded).try_run(
            &factory,
            &self.train,
            &self.test,
            &self.wl.algorithm(),
            &self.cfg,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let (elements, messages) = history
            .as_ref()
            .ok()
            .and_then(|h| h.wire)
            .map_or((0, 0), |w| (w.elements, w.messages));
        CallOutcome {
            wall_s,
            history,
            wire_elements: elements,
            wire_messages: messages,
            wire_bytes: 4 * elements,
        }
    }

    /// One traced training call: `run_sasgd_rank` per rank thread, with
    /// traced layers and a traced transport. Returns the recorders.
    pub fn run_traced(&mut self) -> (CallOutcome, Vec<Arc<Recorder>>) {
        let origin = Instant::now();
        let recs: Vec<Arc<Recorder>> = (0..P).map(|r| Recorder::new(r, origin)).collect();
        if self.wl.socket {
            return (self.run_socket(Some(&recs)), recs);
        }
        let mut world = CommWorld::new(P);
        world
            .set_default_deadline(Some(RECV_DEADLINE))
            .expect("the world is not split yet");
        let traffic = world.traffic();
        let mut comms = world.communicators();
        let t0 = Instant::now();
        let history = self.run_ranks(&mut comms, Some(&recs));
        let wall_s = t0.elapsed().as_secs_f64();
        let out = CallOutcome {
            wall_s,
            history,
            wire_elements: traffic.elements_sent(),
            wire_messages: traffic.messages_sent(),
            wire_bytes: 4 * traffic.elements_sent(),
        };
        (out, recs)
    }

    fn run_socket(&mut self, recs: Option<&[Arc<Recorder>]>) -> CallOutcome {
        let mut endpoints = std::mem::take(&mut self.endpoints);
        let counters: Vec<Arc<Traffic>> = endpoints.iter().map(SocketTransport::traffic).collect();
        let before = sum_traffic(&counters);
        let t0 = Instant::now();
        let history = self.run_ranks(&mut endpoints, recs);
        let wall_s = t0.elapsed().as_secs_f64();
        let after = sum_traffic(&counters);
        self.endpoints = endpoints;
        let (elements, messages) = (after.0 - before.0, after.1 - before.1);
        CallOutcome {
            wall_s,
            history,
            wire_elements: elements,
            wire_messages: messages,
            wire_bytes: 4 * elements + FRAME_HEADER_BYTES * messages,
        }
    }

    /// `run_sasgd_rank` on one thread per endpoint, exactly as the
    /// threaded backend drives it (same shards, same steps per epoch).
    fn run_ranks<T: Transport>(
        &self,
        endpoints: &mut [T],
        recs: Option<&[Arc<Recorder>]>,
    ) -> Result<History, EngineError> {
        let (shards, steps_per_epoch) = self.shards();
        let (net, seed) = (self.wl.net, self.model_seed);
        let results: Vec<Result<History, EngineError>> = std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .iter_mut()
                .zip(&shards)
                .enumerate()
                .map(|(rank, (ep, shard))| {
                    let spec = self.spec(steps_per_epoch);
                    s.spawn(move || match recs {
                        Some(recs) => {
                            let rec = &recs[rank];
                            let mut traced = TracedTransport::new(ep, Arc::clone(rec));
                            let h =
                                run_sasgd_rank(&mut traced, net.traced(seed, rec), shard, &spec);
                            rec.finish();
                            h
                        }
                        None => run_sasgd_rank(ep, net.reference(seed), shard, &spec),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
        let mut merged: Option<History> = None;
        for r in results {
            let h = r?;
            match merged.as_mut() {
                None => merged = Some(h),
                Some(m) => {
                    m.sparsity_series.extend(h.sparsity_series);
                    m.sparse_levels.merge(&h.sparse_levels);
                }
            }
        }
        let mut h = merged.expect("P >= 1 ranks");
        h.sparsity_series.sort_by_key(|s| (s.round, s.rank));
        Ok(h)
    }

    /// Single-worker `Algorithm::Sequential` over the same task.
    pub fn run_sequential(&self) -> (f64, History) {
        let factory = self.factory();
        let t0 = Instant::now();
        let h = Executor::new(Backend::Threaded).run(
            &factory,
            &self.train,
            &self.test,
            &Algorithm::Sequential,
            &self.cfg,
        );
        (t0.elapsed().as_secs_f64(), h)
    }
}

fn sum_traffic(counters: &[Arc<Traffic>]) -> (u64, u64) {
    counters.iter().fold((0, 0), |(e, m), t| {
        (e + t.elements_sent(), m + t.messages_sent())
    })
}
