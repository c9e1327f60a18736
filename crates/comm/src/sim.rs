//! The virtual-time transport: the in-process world plus a virtual clock
//! per rank.
//!
//! A [`SimTransport`] endpoint is an [`InProcTransport`] endpoint that
//! stamps every message with its sender's [`VirtualClock`]. Sending costs
//! the sender nothing; a receive moves the receiver's clock to
//! `max(own clock, send time + link(bytes))`, where `link` prices one
//! message of `4·len` bytes. The payloads, the tag matching and the
//! traffic counters are the in-process world's, so a run over
//! `SimTransport` moves exactly the bytes a threaded run moves and only
//! adds a modeled time to each of them.
//!
//! No scheduler is involved: a receive from a named source sees one
//! message, whatever the thread schedule, so every clock value is a pure
//! function of the dataflow. The fixed-order collectives only receive
//! from named sources. [`Transport::recv_any`] takes arrivals in wall
//! order and so would make virtual time schedule-dependent; it is
//! implemented for the conformance contract, and no simulated run calls
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::transport::{InProcTransport, Transport};
use crate::world::{CommError, CommWorld, Traffic};

/// One rank's virtual clock in seconds, shared by every endpoint the rank
/// holds (a hierarchical rank holds three). Clones share the clock.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current time.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Move to `t` (backwards too: an overlapped operation's cost lands
    /// later than the operation itself).
    pub fn set(&self, t: f64) {
        self.0.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Let `dt` seconds pass.
    pub fn advance(&self, dt: f64) {
        self.set(self.now() + dt);
    }

    /// Wait until `t`: move forward to it unless already past it.
    pub fn wait_until(&self, t: f64) {
        if t > self.now() {
            self.set(t);
        }
    }
}

/// Seconds one message of the given byte count spends on a link.
pub type LinkTime = Arc<dyn Fn(f64) -> f64 + Send + Sync>;

/// An in-process endpoint whose receives advance a virtual clock.
pub struct SimTransport {
    inner: InProcTransport,
    clock: VirtualClock,
    link: LinkTime,
}

impl SimTransport {
    /// Wrap `inner`, reading and advancing `clock`, with every message
    /// priced by `link`.
    pub fn new(inner: InProcTransport, clock: VirtualClock, link: LinkTime) -> Self {
        SimTransport { inner, clock, link }
    }

    /// A `p`-rank world, each rank on its own clock at `0.0`.
    pub fn world(p: usize, link: LinkTime) -> Vec<SimTransport> {
        CommWorld::new(p)
            .communicators()
            .into_iter()
            .map(|c| SimTransport::new(c, VirtualClock::new(), Arc::clone(&link)))
            .collect()
    }

    /// This endpoint's clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Shared traffic counters of this endpoint's world.
    pub fn traffic(&self) -> Arc<Traffic> {
        self.inner.traffic()
    }

    /// A message sent at `sent_at` has arrived: wait for its last byte.
    fn arrive(&self, (sent_at, payload): (f64, Vec<f32>)) -> Vec<f32> {
        let bytes = (4 * payload.len()) as f64;
        self.clock.wait_until(sent_at + (self.link)(bytes));
        payload
    }
}

impl Transport for SimTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        self.inner.send_at(dst, tag, payload, self.clock.now())
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let deadline = self.inner.default_deadline();
        let msg = self.inner.recv_stamped(src, tag, deadline)?;
        Ok(self.arrive(msg))
    }

    fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f32>, CommError> {
        let msg = self.inner.recv_stamped(src, tag, Some(timeout))?;
        Ok(self.arrive(msg))
    }

    fn recv_any(&mut self, candidates: &[(usize, u64)]) -> Result<(usize, Vec<f32>), CommError> {
        let deadline = self.inner.default_deadline();
        let (src, msg) = self.inner.recv_any_stamped(candidates, deadline)?;
        Ok((src, self.arrive(msg)))
    }

    fn recv_any_deadline(
        &mut self,
        candidates: &[(usize, u64)],
        timeout: Duration,
    ) -> Result<(usize, Vec<f32>), CommError> {
        let (src, msg) = self.inner.recv_any_stamped(candidates, Some(timeout))?;
        Ok((src, self.arrive(msg)))
    }

    fn next_op(&mut self) -> u64 {
        self.inner.next_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_tree;
    use std::thread;

    /// Run one dense `allreduce_tree` of `m` elements over `p` ranks whose
    /// clocks all start at `0.0`, every message priced at `l` seconds;
    /// return each rank's completion time in units of `l`.
    fn completion(p: usize, m: usize, l: f64) -> Vec<f64> {
        let link: LinkTime = Arc::new(move |_| l);
        let world = SimTransport::world(p, link);
        thread::scope(|s| {
            let handles: Vec<_> = world
                .into_iter()
                .map(|mut ep| {
                    s.spawn(move || {
                        let mut buf = vec![1.0f32; m];
                        allreduce_tree(&mut ep, &mut buf).expect("allreduce");
                        assert_eq!(buf, vec![p as f32; m]);
                        ep.clock().now() / l
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        })
    }

    #[test]
    fn allreduce_completion_times_follow_the_message_schedule() {
        // Binomial reduce to rank 0, then binomial broadcast; sends are
        // free, each hop costs one link time L. Worked out by hand:
        //
        // p=2: 1→0 lands at L; 0 sends back at L → rank 1 at 2L.
        // p=3: 1→0 and 2→0 both sent at 0 land at L; rank 0 broadcasts
        //      to 1 and 2 at L → both at 2L.
        // p=4: 1→0 at L; 3→2 at L, 2→0 at 2L; broadcast 0→1, 0→2 at 2L
        //      land at 3L; 1→3 lands at 4L.
        // p=8: the reduce chain 7→6→4→0 ends at 3L; broadcast 0→{1,2,4}
        //      lands at 4L, {1→3, 1→5, 2→6} at 5L, 3→7 at 6L.
        //
        // Rank 0 finishes when its last reduce message lands, the deepest
        // broadcast leaf one tree depth later. For p a power of two that
        // leaf finishes at 2·log₂p·L, CostModel::allreduce_tree's charge
        // per round; p = 3 finishes at 2L, under the model's 2⌈log₂3⌉L.
        let l = 0.25;
        let m = 1000;
        assert_eq!(completion(2, m, l), vec![1.0, 2.0]);
        assert_eq!(completion(3, m, l), vec![1.0, 2.0, 2.0]);
        assert_eq!(completion(4, m, l), vec![2.0, 3.0, 3.0, 4.0]);
        assert_eq!(
            completion(8, m, l),
            vec![3.0, 4.0, 4.0, 5.0, 4.0, 5.0, 5.0, 6.0]
        );
    }

    #[test]
    fn receive_waits_for_the_payload_and_counts_real_traffic() {
        // An affine link: 1 s latency plus 1 s per 400 bytes.
        let link: LinkTime = Arc::new(|bytes| 1.0 + bytes / 400.0);
        let mut world = SimTransport::world(2, link);
        let mut r1 = world.pop().expect("rank 1");
        let mut r0 = world.pop().expect("rank 0");
        let traffic = r0.traffic();
        r0.clock().set(5.0);
        r0.send(1, 3, vec![0.0; 100]).expect("send");
        assert_eq!(r0.clock().now(), 5.0, "sending is free");
        r1.clock().set(2.0);
        assert_eq!(r1.recv(0, 3).expect("recv").len(), 100);
        assert_eq!(r1.clock().now(), 7.0, "sent at 5 + 1 s + 400 B");
        // A receiver already past the arrival time does not move.
        r0.send(1, 3, vec![0.0]).expect("send");
        r1.clock().set(100.0);
        r1.recv(0, 3).expect("recv");
        assert_eq!(r1.clock().now(), 100.0);
        assert_eq!(traffic.elements_sent(), 101, "no stamp on the wire");
        assert_eq!(traffic.messages_sent(), 2);
    }
}
