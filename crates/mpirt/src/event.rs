//! The simulated-time engine: one clock per rank, messages, and a barrier.
//!
//! Every simulated rank carries its own clock. Local compute advances the
//! owning rank's clock only; a send charges the sender an injection overhead
//! of one message latency (MPI-style eager send — the NIC drains the buffer,
//! the CPU moves on) and yields the message's arrival time
//! `inject_time + latency + bytes/bandwidth`; a receive blocks the receiver
//! until `max(own clock, arrival)`. Elapsed time is the slowest rank's clock,
//! so overlap between one rank's compute and another's communication is
//! captured for free — the shape of a message-driven exchange with no global
//! barrier (the Distributed FrameBuffer).
//!
//! A barriered superstep is the same schedule with every rank waiting for the
//! slowest: [`EventWorld::finish_round`] charges each rank its [`RoundCost`]
//! (measured compute + modeled transfer) from its own clock and then sets all
//! clocks to the maximum, matching how a real bulk-synchronous exchange
//! completes. Round-structured algorithms (direct send, binary swap,
//! radix-k, up to the paper's 1024-rank Titan runs) are sequences of such
//! rounds, and their total simulated time is the sum of the round maxima —
//! bit for bit: with every clock at the barrier time `T`, `max_r(T + s_r)`
//! is `T + max_r(s_r)` exactly, because floating-point addition is monotone.
//!
//! Byte accounting is the same on both paths: `total_bytes` is
//! post-compression wire traffic, `dense_bytes` what the same sends would
//! have cost uncompressed, and the clock always advances on wire bytes. The
//! world also keeps the one per-round record, [`RoundBytes`]: a barriered
//! round records its own costs' bytes, and a message-driven exchange closes
//! its phases with [`EventWorld::close_round`].

use crate::net::NetModel;

/// Cost tally of one rank in one barriered round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCost {
    /// Measured compute seconds (blending, packing).
    pub compute_s: f64,
    /// Bytes this rank actually sent this round (post-compression wire
    /// bytes; these drive the simulated transfer time).
    pub bytes_sent: usize,
    /// Bytes the same sends would have cost uncompressed. Accounting only —
    /// the clock always advances on `bytes_sent`. Equal to `bytes_sent` for
    /// uncompressed exchanges.
    pub bytes_dense: usize,
    /// Number of messages this rank sent this round.
    pub messages: usize,
}

impl RoundCost {
    /// Simulated wall seconds for this rank's round.
    pub fn seconds(&self, net: &NetModel) -> f64 {
        self.compute_s
            + net.latency_s * self.messages as f64
            + self.bytes_sent as f64 / net.bandwidth_bps
    }
}

/// Wire vs. would-have-been-dense bytes of one communication round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundBytes {
    /// Bytes actually moved (compressed when compression is on).
    pub wire_bytes: u64,
    /// Bytes a dense exchange of the same data would have moved.
    pub dense_bytes: u64,
}

/// Per-rank-clock executor for message-driven and barriered exchanges.
#[derive(Debug, Clone)]
pub struct EventWorld {
    net: NetModel,
    /// One simulated clock per rank, in seconds.
    clock: Vec<f64>,
    /// Simulated elapsed seconds so far: the slowest rank's clock, kept
    /// current by every clock operation.
    pub elapsed_s: f64,
    /// Total wire bytes sent across all ranks.
    pub total_bytes: u64,
    /// Bytes the same sends would have moved uncompressed.
    pub dense_bytes: u64,
    /// The bytes of each round closed so far, barriered or not, in
    /// execution order.
    pub round_bytes: Vec<RoundBytes>,
}

impl EventWorld {
    /// A world of `size` ranks with all clocks at zero.
    pub fn new(size: usize, net: NetModel) -> EventWorld {
        EventWorld::with_starts(&vec![0.0; size], net)
    }

    /// A world whose rank clocks start at `starts` — e.g. per-rank render
    /// completion times, so the exchange overlaps a staggered producer.
    pub fn with_starts(starts: &[f64], net: NetModel) -> EventWorld {
        EventWorld {
            net,
            clock: starts.to_vec(),
            elapsed_s: starts.iter().copied().fold(0.0, f64::max),
            total_bytes: 0,
            dense_bytes: 0,
            round_bytes: Vec::new(),
        }
    }

    /// Number of simulated ranks.
    pub fn size(&self) -> usize {
        self.clock.len()
    }

    /// Rank `rank`'s current clock.
    pub fn now(&self, rank: usize) -> f64 {
        self.clock[rank]
    }

    /// Move `rank`'s clock forward to `t`.
    fn advance(&mut self, rank: usize, t: f64) {
        self.clock[rank] = t;
        if t > self.elapsed_s {
            self.elapsed_s = t;
        }
    }

    /// Advance `rank`'s clock by `seconds` of local compute.
    pub fn compute(&mut self, rank: usize, seconds: f64) {
        self.advance(rank, self.clock[rank] + seconds);
    }

    /// Inject a message of `wire_bytes` from `from`: the sender pays one
    /// message latency (eager-send injection), the wire carries the payload
    /// behind it. Returns the arrival time at the destination; pair with
    /// [`EventWorld::recv`] on the receiving rank.
    pub fn send(&mut self, from: usize, wire_bytes: usize, bytes_dense: usize) -> f64 {
        self.compute(from, self.net.latency_s);
        self.total_bytes += wire_bytes as u64;
        self.dense_bytes += bytes_dense as u64;
        self.clock[from] + wire_bytes as f64 / self.net.bandwidth_bps
    }

    /// Block `rank` until a message that arrives at `arrival` is available.
    pub fn recv(&mut self, rank: usize, arrival: f64) {
        if arrival > self.clock[rank] {
            self.advance(rank, arrival);
        }
    }

    /// Complete one barriered superstep: rank `r` pays `costs[r]` from its
    /// own clock (ranks past `costs.len()` sit the round out), then every
    /// rank waits for the slowest.
    pub fn finish_round(&mut self, costs: &[RoundCost]) {
        let (mut wire, mut dense) = (0u64, 0u64);
        for (rank, cost) in costs.iter().enumerate() {
            self.compute(rank, cost.seconds(&self.net));
            wire += cost.bytes_sent as u64;
            dense += cost.bytes_dense as u64;
        }
        self.clock.fill(self.elapsed_s);
        self.total_bytes += wire;
        self.dense_bytes += dense;
        self.round_bytes.push(RoundBytes { wire_bytes: wire, dense_bytes: dense });
    }

    /// Close a round of message-driven traffic: record, as one
    /// [`RoundBytes`], what [`EventWorld::send`] moved that no round closed
    /// so far holds.
    pub fn close_round(&mut self) {
        let (wire, dense) =
            self.round_bytes.iter().fold((0, 0), |(w, d), r| (w + r.wire_bytes, d + r.dense_bytes));
        self.round_bytes.push(RoundBytes {
            wire_bytes: self.total_bytes - wire,
            dense_bytes: self.dense_bytes - dense,
        });
    }

    /// Simulated elapsed seconds: the slowest rank's clock.
    pub fn elapsed(&self) -> f64 {
        self.elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_are_independent_until_messages_couple_them() {
        let mut w = EventWorld::new(3, NetModel::zero());
        w.compute(0, 0.5);
        w.compute(1, 0.1);
        assert_eq!(w.now(0), 0.5);
        assert_eq!(w.now(1), 0.1);
        assert_eq!(w.now(2), 0.0);
        assert_eq!(w.elapsed(), 0.5);
        // A message from the slow rank drags the receiver forward.
        let arrival = w.send(0, 100, 100);
        w.recv(2, arrival);
        assert_eq!(w.now(2), 0.5);
    }

    #[test]
    fn send_charges_latency_to_sender_and_transfer_to_arrival() {
        let net = NetModel { latency_s: 1e-3, bandwidth_bps: 1e6 };
        let mut w = EventWorld::new(2, net);
        let arrival = w.send(0, 1000, 1000);
        // Sender paid injection latency only; the 1 ms transfer rides the wire.
        assert!((w.now(0) - 1e-3).abs() < 1e-12);
        assert!((arrival - 2e-3).abs() < 1e-12);
        w.recv(1, arrival);
        assert!((w.now(1) - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn recv_is_free_when_data_already_arrived() {
        let mut w = EventWorld::new(2, NetModel::zero());
        w.compute(1, 1.0);
        let arrival = w.send(0, 64, 64);
        w.recv(1, arrival); // arrived long ago; no wait
        assert_eq!(w.now(1), 1.0);
    }

    #[test]
    fn wire_and_dense_bytes_tallied_separately() {
        let mut w = EventWorld::new(2, NetModel::cluster());
        w.send(0, 250, 1000);
        w.send(1, 100, 100);
        assert_eq!(w.total_bytes, 350);
        assert_eq!(w.dense_bytes, 1100);
    }

    #[test]
    fn a_closed_round_holds_the_sends_no_earlier_round_holds() {
        let mut w = EventWorld::new(3, NetModel::cluster());
        w.send(0, 100, 400);
        w.send(1, 20, 20);
        w.close_round();
        w.send(2, 50, 60);
        w.close_round();
        let round = |wire_bytes, dense_bytes| RoundBytes { wire_bytes, dense_bytes };
        assert_eq!(w.round_bytes, vec![round(120, 420), round(50, 60)]);
    }

    #[test]
    fn staggered_starts_overlap_the_exchange() {
        // Rank 1 finishes rendering late; rank 0's send overlaps that work,
        // so the exchange adds nothing beyond rank 1's own receive.
        let net = NetModel { latency_s: 0.0, bandwidth_bps: 1e6 };
        let mut w = EventWorld::with_starts(&[0.0, 2.0], net);
        let arrival = w.send(0, 1_000_000, 1_000_000); // 1 s transfer, arrives at t=1
        w.recv(1, arrival);
        assert_eq!(w.now(1), 2.0); // already past the arrival: fully hidden
        assert_eq!(w.elapsed(), 2.0);
    }

    #[test]
    fn clock_advances_by_round_maximum() {
        let mut w = EventWorld::new(3, NetModel::zero());
        w.finish_round(&[
            RoundCost { compute_s: 0.1, ..Default::default() },
            RoundCost { compute_s: 0.5, ..Default::default() },
            RoundCost { compute_s: 0.2, ..Default::default() },
        ]);
        assert!((w.elapsed_s - 0.5).abs() < 1e-12);
        w.finish_round(&[
            RoundCost { compute_s: 0.3, ..Default::default() },
            RoundCost::default(),
            RoundCost::default(),
        ]);
        assert!((w.elapsed_s - 0.8).abs() < 1e-12);
        assert_eq!(w.round_bytes.len(), 2);
    }

    #[test]
    fn network_cost_included() {
        let net = NetModel { latency_s: 1e-3, bandwidth_bps: 1e6 };
        let mut w = EventWorld::new(1, net);
        w.finish_round(&[RoundCost {
            compute_s: 0.0,
            bytes_sent: 1000,
            bytes_dense: 1000,
            messages: 2,
        }]);
        // 2 ms latency + 1 ms transfer.
        assert!((w.elapsed_s - 3e-3).abs() < 1e-9);
        assert_eq!(w.total_bytes, 1000);
        assert_eq!(w.dense_bytes, 1000);
    }

    #[test]
    fn clock_charges_wire_bytes_not_dense_bytes() {
        // Compression changes what the clock sees (wire bytes) while the
        // dense tally records what was avoided.
        let net = NetModel { latency_s: 0.0, bandwidth_bps: 1e6 };
        let mut w = EventWorld::new(1, net);
        w.finish_round(&[RoundCost {
            compute_s: 0.0,
            bytes_sent: 250,
            bytes_dense: 1000,
            messages: 0,
        }]);
        assert!((w.elapsed_s - 250e-6).abs() < 1e-12);
        assert_eq!(w.total_bytes, 250);
        assert_eq!(w.dense_bytes, 1000);
        assert_eq!(w.round_bytes, vec![RoundBytes { wire_bytes: 250, dense_bytes: 1000 }]);
    }

    #[test]
    fn barrier_after_event_traffic_releases_every_rank_at_the_slowest_finish() {
        let net = NetModel { latency_s: 1e-3, bandwidth_bps: 1e6 };
        let mut w = EventWorld::new(4, net);
        w.compute(0, 0.5);
        w.compute(1, 0.1);
        let arrival = w.send(0, 1000, 4000); // injected at 0.501, arrives 1 ms later
        w.recv(2, arrival);
        assert_eq!([w.now(0), w.now(1), w.now(2), w.now(3)], [0.5 + 1e-3, 0.1, arrival, 0.0]);
        // Each rank pays its round cost from its own clock; rank 1's 0.45 s
        // of compute finishes last (0.55), and rank 3 sits the round out.
        w.finish_round(&[
            RoundCost { compute_s: 0.01, ..Default::default() },
            RoundCost { compute_s: 0.45, ..Default::default() },
            RoundCost { bytes_sent: 2000, bytes_dense: 2000, messages: 1, ..Default::default() },
        ]);
        let finish = 0.1 + 0.45;
        for r in 0..4 {
            assert_eq!(w.now(r), finish, "rank {r}");
        }
        assert_eq!(w.elapsed_s, finish);
        assert_eq!(w.elapsed(), w.elapsed_s);
        // Event sends and round sends land in the same byte tallies.
        assert_eq!(w.total_bytes, 3000);
        assert_eq!(w.dense_bytes, 6000);
        assert_eq!(w.round_bytes, vec![RoundBytes { wire_bytes: 2000, dense_bytes: 2000 }]);
    }
}
