//! A simulated distributed-memory runtime (the MPI stand-in).
//!
//! The paper's multi-node experiments run MPI ranks across cluster nodes;
//! this repo has one machine, so `mpirt` gives each *rank* its own thread and
//! private state, with explicit message passing between them — the same
//! programming model, minus the wire. A [`NetModel`] attaches an analytic
//! latency + bandwidth cost to every message so compositing experiments can
//! report network-inclusive times; DESIGN.md documents this substitution.
//!
//! Three layers:
//! * [`World::run`] — spawn N ranks as threads, each receiving a [`Comm`]
//!   with `send`/`recv`/`barrier`/collectives (for in situ integrations and
//!   correctness tests at realistic rank counts).
//! * [`lockstep`] — a deterministic round-based executor for algorithms at
//!   rank counts where a thread per rank is not sensible (1024-rank
//!   compositing): ranks advance in synchronized supersteps and simulated
//!   time is `max` over ranks per round.
//! * [`event`] — a per-rank-clock executor for message-driven exchanges with
//!   no global barrier (the Distributed FrameBuffer): elapsed time is the
//!   slowest rank's clock, so compute/communication overlap is captured.

pub mod event;
pub mod lockstep;
pub mod net;

pub use event::EventWorld;
pub use lockstep::{LockstepWorld, RoundCost};
pub use net::NetModel;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// A tagged message between ranks.
#[derive(Debug)]
struct Message {
    src: usize,
    tag: u32,
    payload: Vec<u8>,
}

/// Per-rank communicator handle, `Send` across the rank thread boundary.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Out-of-order messages parked until a matching recv.
    parked: Mutex<Vec<Message>>,
    barrier: Arc<Barrier>,
    net: NetModel,
    /// Accumulated simulated network nanoseconds for this rank.
    net_ns: AtomicU64,
    /// Total payload bytes sent by this rank.
    bytes_sent: AtomicU64,
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `payload` to `dest` with `tag`. Accounts simulated wire time on
    /// the sender.
    pub fn send(&self, dest: usize, tag: u32, payload: Vec<u8>) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        let t = self.net.transfer_seconds(payload.len());
        // ORDERING: Relaxed — per-rank accounting counters, only combined
        // after World::run joins every rank thread.
        self.net_ns.fetch_add((t * 1e9) as u64, Ordering::Relaxed);
        // ORDERING: Relaxed — same per-rank counter discipline as net_ns.
        self.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.senders[dest]
            .send(Message { src: self.rank, tag, payload })
            .expect("rank channel closed");
    }

    /// Blocking receive of the next message matching `(src, tag)`.
    pub fn recv(&self, src: usize, tag: u32) -> Vec<u8> {
        // Check parked messages first.
        {
            let mut parked = self.parked.lock();
            if let Some(i) = parked.iter().position(|m| m.src == src && m.tag == tag) {
                return parked.swap_remove(i).payload;
            }
        }
        loop {
            let m = self.receiver.recv().expect("world shut down mid-recv");
            if m.src == src && m.tag == tag {
                return m.payload;
            }
            self.parked.lock().push(m);
        }
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Send a f32 slice (little-endian).
    pub fn send_f32s(&self, dest: usize, tag: u32, data: &[f32]) {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.send(dest, tag, bytes);
    }

    /// Receive a f32 vector.
    pub fn recv_f32s(&self, src: usize, tag: u32) -> Vec<f32> {
        let bytes = self.recv(src, tag);
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
    }

    /// All-reduce a value with an associative, commutative combiner
    /// (tree reduction to rank 0, then broadcast).
    pub fn allreduce_f32(&self, value: f32, op: impl Fn(f32, f32) -> f32) -> f32 {
        let reduced = self.reduce_to_root_f32(value, op);
        self.broadcast_f32(reduced)
    }

    /// Binomial-tree reduction to rank 0; only rank 0's return value is the
    /// full reduction (other ranks return their partial).
    pub fn reduce_to_root_f32(&self, value: f32, op: impl Fn(f32, f32) -> f32) -> f32 {
        let mut acc = value;
        let mut step = 1usize;
        while step < self.size {
            if self.rank.is_multiple_of(2 * step) {
                let partner = self.rank + step;
                if partner < self.size {
                    let v = self.recv_f32s(partner, TAG_REDUCE + step as u32);
                    acc = op(acc, v[0]);
                }
            } else if self.rank % (2 * step) == step {
                let partner = self.rank - step;
                self.send_f32s(partner, TAG_REDUCE + step as u32, &[acc]);
                // This rank is done contributing, but must keep participating
                // in subsequent broadcast.
                break;
            }
            step *= 2;
        }
        acc
    }

    /// Broadcast rank 0's value (binomial tree).
    pub fn broadcast_f32(&self, mut value: f32) -> f32 {
        // Highest power of two >= size.
        let mut step = 1usize;
        while step < self.size {
            step *= 2;
        }
        step /= 2;
        while step >= 1 {
            if self.rank.is_multiple_of(2 * step) {
                let partner = self.rank + step;
                if partner < self.size {
                    self.send_f32s(partner, TAG_BCAST + step as u32, &[value]);
                }
            } else if self.rank % (2 * step) == step {
                let partner = self.rank - step;
                value = self.recv_f32s(partner, TAG_BCAST + step as u32)[0];
            }
            step /= 2;
        }
        value
    }

    /// Gather byte payloads to rank 0; returns `Some(map src -> payload)` on
    /// rank 0, `None` elsewhere.
    pub fn gather_to_root(&self, payload: Vec<u8>) -> Option<HashMap<usize, Vec<u8>>> {
        if self.rank == 0 {
            let mut all = HashMap::with_capacity(self.size);
            all.insert(0, payload);
            for src in 1..self.size {
                all.insert(src, self.recv(src, TAG_GATHER));
            }
            Some(all)
        } else {
            self.send(0, TAG_GATHER, payload);
            None
        }
    }

    /// Simulated network seconds accumulated by this rank.
    pub fn network_seconds(&self) -> f64 {
        // ORDERING: Relaxed — rank-local counter read on the owning rank.
        self.net_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Payload bytes sent by this rank.
    pub fn bytes_sent(&self) -> u64 {
        // ORDERING: Relaxed — rank-local counter read on the owning rank.
        self.bytes_sent.load(Ordering::Relaxed)
    }
}

const TAG_REDUCE: u32 = 0xF000_0000;
const TAG_BCAST: u32 = 0xE000_0000;
const TAG_GATHER: u32 = 0xD000_0000;

/// A world of communicating ranks.
pub struct World;

impl World {
    /// Run `f` on `size` ranks (one thread each) and collect the per-rank
    /// results in rank order.
    pub fn run<R, F>(size: usize, net: NetModel, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        assert!(size > 0);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..size).map(|_| unbounded()).unzip();
        let barrier = Arc::new(Barrier::new(size));
        let comms: Vec<Comm> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Comm {
                rank,
                size,
                senders: senders.clone(),
                receiver,
                parked: Mutex::new(Vec::new()),
                barrier: barrier.clone(),
                net,
                net_ns: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
            })
            .collect();
        let f = &f;
        // Rank threads go through the crossbeam shim (not raw std::thread) so
        // all of the repo's concurrency flows through the audited shim layer;
        // the shim's `scope` reports child panics as `Err` instead of
        // re-panicking, which we convert back into a rank-attributed panic.
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = comms.iter().map(|comm| scope.spawn(move |_| f(comm))).collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
        .expect("rank scope panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let msgs = World::run(4, NetModel::cluster(), |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 1, vec![c.rank() as u8]);
            c.recv(prev, 1)
        });
        assert_eq!(msgs, vec![vec![3], vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn allreduce_max() {
        for size in [1, 2, 3, 5, 8] {
            let out = World::run(size, NetModel::zero(), |c| {
                c.allreduce_f32(c.rank() as f32 * 10.0, f32::max)
            });
            for v in out {
                assert_eq!(v, (size - 1) as f32 * 10.0, "size {size}");
            }
        }
    }

    #[test]
    fn gather_collects_everything() {
        let out = World::run(5, NetModel::zero(), |c| {
            c.gather_to_root(vec![c.rank() as u8; c.rank() + 1])
        });
        let root = out[0].as_ref().unwrap();
        assert_eq!(root.len(), 5);
        assert_eq!(root[&3], vec![3u8; 4]);
        assert!(out[1..].iter().all(|o| o.is_none()));
    }

    #[test]
    fn out_of_order_recv_parks_messages() {
        let out = World::run(2, NetModel::zero(), |c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![7]);
                c.send(1, 8, vec![8]);
                0
            } else {
                // Receive in the opposite order.
                let b = c.recv(0, 8);
                let a = c.recv(0, 7);
                (a[0] as i32) * 10 + b[0] as i32
            }
        });
        assert_eq!(out[1], 78);
    }

    #[test]
    fn f32_round_trip_and_accounting() {
        let out = World::run(2, NetModel { latency_s: 1e-3, bandwidth_bps: 1e6 }, |c| {
            if c.rank() == 0 {
                c.send_f32s(1, 2, &[1.5, -2.25, 3.0]);
                (c.network_seconds(), c.bytes_sent())
            } else {
                let v = c.recv_f32s(0, 2);
                assert_eq!(v, vec![1.5, -2.25, 3.0]);
                (0.0, 0)
            }
        });
        let (net_s, bytes) = out[0];
        assert_eq!(bytes, 12);
        // latency + 12 bytes over 1e6 B/s.
        assert!((net_s - (1e-3 + 12.0 / 1e6)).abs() < 1e-6);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::run(4, NetModel::zero(), |c| {
            // ORDERING: SeqCst — the test asserts all increments are
            // visible right after the barrier; keep the strongest order.
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            // ORDERING: SeqCst — paired with the fetch_add above.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }
}
