//! A sharded parameter server over any [`Transport`].
//!
//! Downpour and EAMSGD aggregate through a central server: learners *add*
//! deltas asynchronously and *pull* fresh parameters. The paper's testbed
//! runs the sharded server on host CPUs while learners live on GPUs; here
//! the protocol is expressed purely in transport sends and receives, so
//! server shards are ranks of *any* world — threads of an in-process
//! [`CommWorld`] (the threaded backend, via [`run_inproc`]), processes on
//! a socket mesh, or the model checker's controlled world.
//!
//! ## World layout and protocol
//!
//! A PS world of `p + s` ranks: learners are ranks `0..p`, shard servers
//! are ranks `p..p+s`. Shard `k` owns the parameter segment given by
//! [`chunk_bounds`]`(dim, s)[k]`.
//!
//! Every learner→shard frame travels under [`TAG_REQUEST`] and names its
//! kind in word 0 (a bit-cast `u32`), so a shard never has to guess the
//! message type from its length and one learner's frames are served in
//! exactly the order it sent them (per-`(src, tag)` FIFO):
//!
//! | kind | frame | shard action |
//! |------|-------|--------------|
//! | add  | `[KIND_ADD, delta…]` (segment length) | `x[segment] += delta` |
//! | pull | `[KIND_PULL, seq]` | reply with the segment under `TAG_REPLY_BASE + seq` |
//! | done | `[KIND_DONE]` | stop serving this learner |
//!
//! Adds apply in arrival order across learners — exactly Downpour's
//! asynchrony. Shards answer pulls independently, so under concurrent adds
//! an assembled pull may mix shard states (the *inconsistency of sharded
//! servers* the paper calls out in §I/§III). Replies are keyed by the
//! request sequence number, so a reply to a timed-out, retried pull can
//! never be mistaken for the answer to a later one.

use std::sync::Arc;
use std::time::Duration;

use crate::collectives::chunk_bounds;
use crate::transport::Transport;
use crate::world::{CommError, CommWorld, Communicator, Traffic};

/// Base of the PS tag space (collective tags stay far below 2³²).
const PS_TAG_BASE: u64 = 1 << 32;
/// Every learner→shard frame (its kind is word 0 of the payload).
pub const TAG_REQUEST: u64 = PS_TAG_BASE | 1;
/// Replies travel at `TAG_REPLY_BASE + seq` (a second disjoint range).
pub const TAG_REPLY_BASE: u64 = 2 << 32;

/// Frame kinds (word 0 of a request frame, bit-cast).
const KIND_ADD: u32 = 1;
const KIND_PULL: u32 = 2;
const KIND_DONE: u32 = 3;

fn kind_word(kind: u32) -> f32 {
    f32::from_bits(kind)
}

/// Typed failure of a PS operation, on either side of the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsTransportError {
    /// The shard's endpoint is gone — its process or thread died.
    ShardDown {
        /// World rank of the dead shard.
        shard: usize,
    },
    /// The shard did not answer a pull before the deadline, on every
    /// attempt of the retry ladder.
    Timeout {
        /// World rank of the silent shard.
        shard: usize,
    },
    /// A peer sent a frame that does not parse: unknown kind, or a body
    /// of the wrong length for its kind.
    Malformed {
        /// World rank of the sender.
        peer: usize,
        /// Frame length in words.
        words: usize,
    },
    /// Any other wire failure.
    Comm(CommError),
}

impl std::fmt::Display for PsTransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PsTransportError::ShardDown { shard } => write!(f, "PS shard rank {shard} is gone"),
            PsTransportError::Timeout { shard } => {
                write!(f, "PS shard rank {shard} missed the pull deadline")
            }
            PsTransportError::Malformed { peer, words } => {
                write!(f, "malformed PS frame ({words} words) from rank {peer}")
            }
            PsTransportError::Comm(e) => write!(f, "PS wire failure: {e}"),
        }
    }
}

impl std::error::Error for PsTransportError {}

impl From<CommError> for PsTransportError {
    /// A hangup names the dead peer as a shard: only learners see these,
    /// and a learner's peers are shards.
    fn from(e: CommError) -> Self {
        match e {
            CommError::PeerGone { peer } => PsTransportError::ShardDown { shard: peer },
            other => PsTransportError::Comm(other),
        }
    }
}

/// How a `p`-learner, `s`-shard PS world is laid out over `p + s` ranks.
#[derive(Clone, Copy, Debug)]
pub struct PsLayout {
    /// Learner count (learners are ranks `0..p`).
    pub p: usize,
    /// Shard count (shards are ranks `p..p+s`).
    pub shards: usize,
    /// Full parameter dimension.
    pub dim: usize,
}

impl PsLayout {
    /// World rank of shard `k`.
    pub fn shard_rank(&self, k: usize) -> usize {
        self.p + k
    }

    /// `(lo, hi)` segment bounds of shard `k` (the first `dim % shards`
    /// segments get one extra element).
    pub fn segment(&self, k: usize) -> (usize, usize) {
        chunk_bounds(self.dim, self.shards)[k]
    }
}

/// Run one PS shard to completion on this rank: serve adds and pulls
/// until every learner has sent its done frame (or hung up), then return
/// the final segment. `segment` is the shard's initial parameter slice.
///
/// A frame that does not parse is [`PsTransportError::Malformed`], never
/// a panic: the shard stops rather than apply a delta it cannot place.
pub fn serve_shard<T: Transport>(
    comm: &mut T,
    layout: &PsLayout,
    mut segment: Vec<f32>,
) -> Result<Vec<f32>, PsTransportError> {
    let mut live: Vec<(usize, u64)> = (0..layout.p).map(|l| (l, TAG_REQUEST)).collect();
    while !live.is_empty() {
        let (learner, frame) = comm.recv_any(&live).map_err(PsTransportError::Comm)?;
        let malformed = PsTransportError::Malformed {
            peer: learner,
            words: frame.len(),
        };
        let (kind, body) = frame.split_first().ok_or(malformed)?;
        match kind.to_bits() {
            KIND_ADD if body.len() == segment.len() => {
                for (a, b) in segment.iter_mut().zip(body) {
                    *a += b;
                }
            }
            KIND_PULL if body.len() == 1 => {
                let reply = TAG_REPLY_BASE + u64::from(body[0].to_bits());
                match comm.send(learner, reply, segment.clone()) {
                    Ok(()) => {}
                    // A dead learner stops pulling; stop serving it.
                    Err(CommError::PeerGone { .. }) => live.retain(|&(l, _)| l != learner),
                    Err(e) => return Err(PsTransportError::Comm(e)),
                }
            }
            KIND_DONE if body.is_empty() => live.retain(|&(l, _)| l != learner),
            _ => return Err(malformed),
        }
    }
    Ok(segment)
}

/// How a learner's pull waits for the shards: each attempt bounds every
/// shard's reply by `deadline`; a timed-out pull is retried whole up to
/// `retries` times, sleeping `backoff`, `2·backoff`, … between attempts.
#[derive(Clone, Copy, Debug)]
pub struct PullPolicy {
    /// Per-attempt reply deadline.
    pub deadline: Duration,
    /// Retries after the first timed-out attempt.
    pub retries: usize,
    /// Sleep before the first retry (doubling per retry).
    pub backoff: Duration,
}

impl Default for PullPolicy {
    /// Generous: a healthy in-process shard answers in microseconds; the
    /// deadline only turns a dead or wedged shard from an eternal hang
    /// into a typed failure.
    fn default() -> Self {
        PullPolicy {
            deadline: Duration::from_secs(5),
            retries: 3,
            backoff: Duration::from_millis(20),
        }
    }
}

/// The learner-side client: splits adds across shards, assembles pulls.
///
/// Dropping a client that was never [`finish`](PsTransportClient::finish)ed
/// still tells every shard this learner is done (best-effort), so a
/// learner that fails or panics cannot leave the shards serving forever.
pub struct PsTransportClient<T: Transport> {
    comm: T,
    layout: PsLayout,
    policy: PullPolicy,
    pull_seq: u32,
    finished: bool,
}

impl<T: Transport> PsTransportClient<T> {
    /// Wrap a learner endpoint (`comm.rank() < layout.p`) with the
    /// default [`PullPolicy`].
    pub fn new(comm: T, layout: PsLayout) -> Self {
        assert!(comm.rank() < layout.p, "client must be a learner rank");
        PsTransportClient {
            comm,
            layout,
            policy: PullPolicy::default(),
            pull_seq: 0,
            finished: false,
        }
    }

    /// Replace the pull policy.
    pub fn with_pull_policy(mut self, policy: PullPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// This learner's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Add `delta` (full-dimension) across the shards.
    ///
    /// # Panics
    /// Panics if `delta` is not `layout.dim` long (a caller bug, not a
    /// wire condition).
    pub fn add(&mut self, delta: &[f32]) -> Result<(), PsTransportError> {
        assert_eq!(delta.len(), self.layout.dim, "delta dimension mismatch");
        for k in 0..self.layout.shards {
            let (lo, hi) = self.layout.segment(k);
            let mut frame = Vec::with_capacity(1 + hi - lo);
            frame.push(kind_word(KIND_ADD));
            frame.extend_from_slice(&delta[lo..hi]);
            self.comm
                .send(self.layout.shard_rank(k), TAG_REQUEST, frame)?;
        }
        Ok(())
    }

    /// Fetch the assembled full parameter vector under the client's
    /// [`PullPolicy`]. A dead shard fails fast with
    /// [`PsTransportError::ShardDown`] (retrying cannot resurrect it); a
    /// silent one is retried and ends in [`PsTransportError::Timeout`].
    /// The deadline changes *when* a failure surfaces, never *what* a
    /// successful pull carries.
    pub fn pull(&mut self) -> Result<Vec<f32>, PsTransportError> {
        let mut wait = self.policy.backoff;
        for _ in 0..self.policy.retries {
            match self.pull_once() {
                Err(PsTransportError::Timeout { .. }) => {}
                other => return other,
            }
            if !wait.is_zero() {
                std::thread::sleep(wait);
                wait *= 2;
            }
        }
        self.pull_once()
    }

    /// One deadline-bounded pull attempt. The request fans out to every
    /// shard first, then collects — one round-trip latency regardless of
    /// shard count.
    fn pull_once(&mut self) -> Result<Vec<f32>, PsTransportError> {
        let seq = self.pull_seq;
        self.pull_seq = self.pull_seq.wrapping_add(1);
        for k in 0..self.layout.shards {
            let request = vec![kind_word(KIND_PULL), f32::from_bits(seq)];
            self.comm
                .send(self.layout.shard_rank(k), TAG_REQUEST, request)?;
        }
        let mut out = vec![0.0f32; self.layout.dim];
        for k in 0..self.layout.shards {
            let shard = self.layout.shard_rank(k);
            let seg = self
                .comm
                .recv_deadline(shard, TAG_REPLY_BASE + u64::from(seq), self.policy.deadline)
                .map_err(|e| match e {
                    CommError::Timeout { .. } => PsTransportError::Timeout { shard },
                    other => PsTransportError::Comm(other),
                })?;
            let (lo, hi) = self.layout.segment(k);
            if seg.len() != hi - lo {
                return Err(PsTransportError::Malformed {
                    peer: shard,
                    words: seg.len(),
                });
            }
            out[lo..hi].copy_from_slice(&seg);
        }
        Ok(out)
    }

    /// Tell every shard this learner is finished (shards exit once all
    /// learners have).
    pub fn finish(mut self) -> Result<(), PsTransportError> {
        self.send_done()
    }

    fn send_done(&mut self) -> Result<(), PsTransportError> {
        self.finished = true;
        for k in 0..self.layout.shards {
            self.comm.send(
                self.layout.shard_rank(k),
                TAG_REQUEST,
                vec![kind_word(KIND_DONE)],
            )?;
        }
        Ok(())
    }
}

impl<T: Transport> Drop for PsTransportClient<T> {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort: a shard that is already gone needs no goodbye.
            let _ = self.send_done();
        }
    }
}

/// What [`run_inproc`] returns.
pub struct InprocRun<R> {
    /// Each learner's result, in rank order.
    pub learners: Vec<R>,
    /// The shards' final segments, assembled into the full vector.
    pub params: Vec<f32>,
    /// The world's traffic counters: every frame, control words included.
    pub traffic: Arc<Traffic>,
}

/// Run a whole `layout` PS world on threads of one in-process
/// [`CommWorld`]: shard `k` serves `initial[segment(k)]` while learner `r`
/// runs `learner(client)`. Returns once every learner has returned (its
/// client finished or dropped) and every shard has drained; a shard that
/// failed is reported with its world rank.
///
/// # Panics
/// Re-raises a learner's panic after the shards have wound down.
pub fn run_inproc<R: Send>(
    layout: PsLayout,
    initial: &[f32],
    learner: impl Fn(PsTransportClient<Communicator>) -> R + Sync,
) -> Result<InprocRun<R>, (usize, PsTransportError)> {
    assert_eq!(initial.len(), layout.dim, "initial parameter dimension");
    let mut world = CommWorld::new(layout.p + layout.shards);
    let traffic = world.traffic();
    let mut comms = world.communicators();
    let shard_comms = comms.split_off(layout.p);
    let learner = &learner;
    std::thread::scope(|scope| {
        let shards: Vec<_> = shard_comms
            .into_iter()
            .enumerate()
            .map(|(k, mut comm)| {
                let (lo, hi) = layout.segment(k);
                let segment = initial[lo..hi].to_vec();
                scope.spawn(move || serve_shard(&mut comm, &layout, segment))
            })
            .collect();
        let learners: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(move || learner(PsTransportClient::new(comm, layout))))
            .collect();
        let learners: Vec<R> = learners
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        let mut params = Vec::with_capacity(layout.dim);
        for (k, h) in shards.into_iter().enumerate() {
            let segment = h
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                .map_err(|e| (layout.shard_rank(k), e))?;
            params.extend(segment);
        }
        Ok(InprocRun {
            learners,
            params,
            traffic,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::mock_world;

    /// Serve `layout` on shard threads while `learner` runs every learner
    /// rank, over the in-process world.
    fn assembled(
        layout: PsLayout,
        learner: impl Fn(usize, &mut PsTransportClient<Communicator>) + Sync,
    ) -> Vec<f32> {
        run_inproc(layout, &vec![0.0; layout.dim], |mut client| {
            learner(client.rank(), &mut client);
            client.finish().expect("finish");
        })
        .expect("serve")
        .params
    }

    /// 2 learners × 2 shards: concurrent adds and pulls; the final server
    /// state is the sum of every delta.
    #[test]
    fn adds_and_pulls_over_inproc_world() {
        let layout = PsLayout {
            p: 2,
            shards: 2,
            dim: 7,
        };
        let finals = assembled(layout, |rank, client| {
            // The other learner may already have added: only the shape
            // of the first pull is fixed.
            assert_eq!(client.pull().expect("initial pull").len(), 7);
            for step in 0..3 {
                let delta: Vec<f32> = (0..7)
                    .map(|j| (rank * 100 + step * 10 + j) as f32)
                    .collect();
                client.add(&delta).expect("add");
                let _ = client.pull().expect("pull");
            }
        });
        let expect: Vec<f32> = (0..7)
            .map(|j| {
                (0..2usize)
                    .flat_map(|r| (0..3usize).map(move |st| (r * 100 + st * 10 + j) as f32))
                    .sum()
            })
            .collect();
        assert_eq!(finals, expect);
    }

    /// Regression: a one-element segment used to make every add look like
    /// a pull request (the shard guessed the kind from the payload
    /// length), so the add was answered instead of applied.
    #[test]
    fn one_element_segment_applies_adds() {
        let layout = PsLayout {
            p: 1,
            shards: 2,
            dim: 3,
        };
        assert_eq!(layout.segment(1), (2, 3));
        let finals = assembled(layout, |_, client| {
            client.add(&[1.0, 1.0, 1.0]).expect("add");
            client.add(&[0.0, 0.0, 0.0]).expect("add");
            assert_eq!(client.pull().expect("pull"), vec![1.0, 1.0, 1.0]);
        });
        assert_eq!(finals, vec![1.0, 1.0, 1.0]);
    }

    /// A learner that drops its client without finishing still releases
    /// the shards.
    #[test]
    fn dropped_client_releases_shards() {
        let layout = PsLayout {
            p: 2,
            shards: 1,
            dim: 2,
        };
        let run = run_inproc(layout, &[1.0, 2.0], |mut client| {
            client.add(&[1.0, 1.0]).expect("add");
        })
        .expect("serve");
        assert_eq!(run.params, vec![3.0, 4.0]);
    }

    /// The same protocol runs unchanged over the mock transport, and a
    /// shard endpoint dropped before it serves surfaces as a typed
    /// ShardDown on the next add and pull — never a panic or a hang.
    #[test]
    fn dead_shard_is_typed_over_mock_world() {
        let layout = PsLayout {
            p: 1,
            shards: 1,
            dim: 3,
        };
        let mut world = mock_world(2);
        drop(world.pop().expect("shard endpoint"));
        let learner = world.pop().expect("learner endpoint");
        let mut client = PsTransportClient::new(learner, layout);
        assert_eq!(
            client.add(&[1.0, 2.0, 3.0]),
            Err(PsTransportError::ShardDown { shard: 1 })
        );
        assert_eq!(client.pull(), Err(PsTransportError::ShardDown { shard: 1 }));
    }

    /// A silent shard exhausts the retry ladder into a typed Timeout.
    #[test]
    fn silent_shard_times_out_after_retries() {
        let layout = PsLayout {
            p: 1,
            shards: 1,
            dim: 1,
        };
        let mut world = mock_world(2);
        let _silent = world.pop().expect("shard endpoint");
        let learner = world.pop().expect("learner endpoint");
        let mut client = PsTransportClient::new(learner, layout).with_pull_policy(PullPolicy {
            deadline: Duration::from_millis(5),
            retries: 2,
            backoff: Duration::from_millis(1),
        });
        assert_eq!(client.pull(), Err(PsTransportError::Timeout { shard: 1 }));
    }

    /// Frames a shard cannot parse are typed errors naming the sender.
    #[test]
    fn malformed_frames_are_typed() {
        let layout = PsLayout {
            p: 1,
            shards: 1,
            dim: 2,
        };
        for (frame, words) in [
            (vec![], 0usize),
            (vec![kind_word(KIND_ADD), 1.0], 2),
            (vec![kind_word(KIND_PULL)], 1),
            (vec![kind_word(KIND_DONE), 0.0], 2),
            (vec![kind_word(99), 0.0, 0.0], 3),
        ] {
            let mut world = mock_world(2);
            let mut shard = world.pop().expect("shard endpoint");
            let mut learner = world.pop().expect("learner endpoint");
            learner.send(1, TAG_REQUEST, frame).expect("send");
            assert_eq!(
                serve_shard(&mut shard, &layout, vec![0.0; 2]),
                Err(PsTransportError::Malformed { peer: 0, words }),
                "{words}-word frame"
            );
        }
    }
}
