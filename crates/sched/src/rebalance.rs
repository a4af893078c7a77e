//! Measured-time dynamic rebalancing of object-space partitions.
//!
//! The paper's multi-node total `T_total = max_tasks(T_LR) + T_COMP`
//! (Equation 5.4) is dominated by its max term whenever work is skewed —
//! and a static object-space partition of a simulation like LULESH *is*
//! skewed, because per-cell render cost tracks the physics (dense isosurface
//! crossings near the blast front, nothing elsewhere). This module closes
//! the loop the way Equalizer-style load balancing does: per-rank render
//! times come back from the `mpirt` clock each cycle, are attributed to
//! the cells each rank owns (EWMA-smoothed so one noisy frame cannot thrash
//! the layout), and on *sustained* imbalance the partition's split planes
//! are recomputed from the measured per-cell costs via
//! [`Partition::weighted_bisect`]. The migration that reconciles old and new
//! layouts is charged to the same clock — `observe` → `charge_migration` —
//! so the rebalanced `T_total` honestly pays for the cells it moved.
//!
//! The trigger is hysteretic: imbalance = `max(T_LR) / mean(T_LR)` must
//! exceed [`RebalanceConfig::threshold`] for
//! [`RebalanceConfig::sustain_cycles`] *consecutive* cycles before a
//! rebalance fires, and the streak resets after each one. A one-cycle spike
//! (a page fault, a cache-cold frame) never moves data.

use mesh::partition::{Migration, Partition};
use mpirt::EventWorld;
use perfmodel::regression::LinearRegression;
use vecmath::Vec3;

/// Trigger and accounting knobs for [`Rebalancer`].
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Imbalance ratio `max(T_LR)/mean(T_LR)` above which a cycle counts
    /// toward the trigger streak.
    pub threshold: f64,
    /// Consecutive over-threshold cycles required before rebalancing.
    pub sustain_cycles: u32,
    /// Payload bytes per migrated cell (geometry + fields) charged to the
    /// simulated network.
    pub bytes_per_cell: u64,
}

/// EWMA weight of the newest per-cell cost observation in `[0, 1]`.
const SMOOTHING: f64 = 0.5;

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        RebalanceConfig { threshold: 1.2, sustain_cycles: 3, bytes_per_cell: 256 }
    }
}

/// Imbalance ratio `max / mean` of per-rank seconds (1.0 = perfectly flat;
/// 0 when the cycle did no work).
pub fn imbalance(per_rank_seconds: &[f64]) -> f64 {
    if per_rank_seconds.is_empty() {
        return 0.0;
    }
    let max = per_rank_seconds.iter().copied().fold(0.0f64, f64::max);
    let mean = per_rank_seconds.iter().sum::<f64>() / per_rank_seconds.len() as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// The rebalancing controller: owns the live [`Partition`] and the measured
/// per-cell cost field it is recomputed from.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    cfg: RebalanceConfig,
    centroids: Vec<Vec3>,
    part: Partition,
    /// EWMA-smoothed measured cost per cell, the weights of the next
    /// weighted bisection.
    cost: Vec<f64>,
    streak: u32,
    /// Last observed cycle: per-rank cell counts and seconds, the samples
    /// behind [`Rebalancer::predict_max_seconds`].
    last_obs: Option<(Vec<usize>, Vec<f64>)>,
}

impl Rebalancer {
    /// Start from the unweighted bisection of `centroids` over `ranks`.
    pub fn new(centroids: Vec<Vec3>, ranks: usize, cfg: RebalanceConfig) -> Rebalancer {
        let part = Partition::bisect(&centroids, ranks);
        Rebalancer::with_partition(centroids, part, cfg)
    }

    /// Start from an existing partition (e.g. a deliberately skewed layout
    /// in an experiment); `centroids` must cover the same cells.
    pub fn with_partition(
        centroids: Vec<Vec3>,
        part: Partition,
        cfg: RebalanceConfig,
    ) -> Rebalancer {
        assert_eq!(centroids.len(), part.num_cells(), "one centroid per cell");
        let cost = vec![1.0; centroids.len()];
        Rebalancer { cfg, centroids, part, cost, streak: 0, last_obs: None }
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Feed one cycle's measured per-rank render seconds. Each rank's time
    /// is attributed uniformly to the cells it owns (EWMA against previous
    /// cycles); on the [`RebalanceConfig::sustain_cycles`]-th consecutive
    /// over-threshold cycle the split planes are recomputed from the
    /// smoothed costs and the reconciling [`Migration`] is returned. The
    /// caller must charge that migration to its simulated network
    /// ([`charge_migration`]) — the win is only honest if the moved bytes are
    /// paid for.
    pub fn observe_cycle(&mut self, per_rank_seconds: &[f64]) -> Option<Migration> {
        assert_eq!(per_rank_seconds.len(), self.part.ranks(), "one time per rank");
        let counts = self.part.counts();
        // The first observation seeds the cost field outright — the initial
        // placeholder weights carry no timing information to average against.
        let a = if self.last_obs.is_none() { 1.0 } else { SMOOTHING };
        for (rank, &t) in per_rank_seconds.iter().enumerate() {
            if counts[rank] == 0 {
                continue;
            }
            let per_cell = t / counts[rank] as f64;
            for cell in self.part.cells_of(rank) {
                self.cost[cell] = a * per_cell + (1.0 - a) * self.cost[cell];
            }
        }
        self.last_obs = Some((counts, per_rank_seconds.to_vec()));
        if imbalance(per_rank_seconds) > self.cfg.threshold {
            self.streak += 1;
        } else {
            self.streak = 0;
            return None;
        }
        if self.streak < self.cfg.sustain_cycles {
            return None;
        }
        self.streak = 0;
        let next = Partition::weighted_bisect(&self.centroids, &self.cost, self.part.ranks());
        let mig = self.part.migration(&next);
        self.part = next;
        if mig.moved_cells() == 0 {
            None
        } else {
            Some(mig)
        }
    }

    /// Fit `T_LR = c0*cells + c1` to the last observed cycle and predict the
    /// max term the *current* partition's cell counts imply — the fitted
    /// model's claim about the post-rebalance `max(T_LR)`, checkable against
    /// the next measured cycle. `None` before the first observation.
    pub fn predict_max_seconds(&self) -> Option<f64> {
        let (counts, seconds) = self.last_obs.as_ref()?;
        let xs: Vec<Vec<f64>> = counts.iter().map(|&c| vec![c as f64, 1.0]).collect();
        let fit = LinearRegression::fit(&xs, seconds);
        Some(
            self.part
                .counts()
                .iter()
                .map(|&c| fit.predict(&[c as f64, 1.0]).max(0.0))
                .fold(0.0f64, f64::max),
        )
    }
}

/// Charge a migration's traffic to the event clock: one message per
/// `(from, to)` link, `cells * bytes_per_cell` on the wire (cell payloads
/// are raw floats — no compression), receiver blocked until arrival.
/// Returns the total bytes charged.
pub fn charge_migration(world: &mut EventWorld, mig: &Migration, bytes_per_cell: u64) -> u64 {
    let mut total = 0u64;
    for (&(from, to), &cells) in &mig.per_link {
        let bytes = cells as u64 * bytes_per_cell;
        let arrival = world.send(from as usize, bytes as usize, bytes as usize);
        world.recv(to as usize, arrival);
        total += bytes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpirt::NetModel;

    /// A 1-D cell line whose right half costs `skew`× the left half.
    fn line(n: usize) -> Vec<Vec3> {
        (0..n).map(|i| Vec3::new(i as f32, 0.0, 0.0)).collect()
    }

    fn skewed_seconds(part: &Partition, per_cell: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..part.ranks()).map(|r| part.cells_of(r).iter().map(|&c| per_cell(c)).sum()).collect()
    }

    #[test]
    fn imbalance_ratio() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
        assert!((imbalance(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sustained_skew_triggers_rebalance_and_flattens_it() {
        let n = 256;
        let cfg = RebalanceConfig { sustain_cycles: 3, ..Default::default() };
        let mut rb = Rebalancer::new(line(n), 4, cfg);
        // Right-half cells cost 9x: the uniform split is badly imbalanced.
        let per_cell = |c: usize| if c >= n / 2 { 9e-4 } else { 1e-4 };
        let mut migrated = None;
        let mut cycles = 0;
        for _ in 0..10 {
            cycles += 1;
            let t = skewed_seconds(rb.partition(), per_cell);
            if let Some(m) = rb.observe_cycle(&t) {
                migrated = Some(m);
                break;
            }
        }
        // Fires on exactly the sustain_cycles-th consecutive bad cycle.
        assert_eq!(cycles, 3);
        let mig = migrated.expect("sustained imbalance must trigger");
        assert!(mig.moved_cells() > 0);
        // The recomputed partition flattens the measured imbalance.
        let before = imbalance(&skewed_seconds(&Partition::bisect(&line(n), 4), per_cell));
        let after = imbalance(&skewed_seconds(rb.partition(), per_cell));
        assert!(after < before, "{after} !< {before}");
        assert!(after < 1.2, "rebalanced imbalance still {after}");
        // No cell lost or duplicated.
        assert_eq!(rb.partition().num_cells(), n);
        assert_eq!(rb.partition().counts().iter().sum::<usize>(), n);
    }

    #[test]
    fn single_spike_does_not_move_data() {
        let n = 64;
        let cfg = RebalanceConfig { sustain_cycles: 3, ..Default::default() };
        let mut rb = Rebalancer::new(line(n), 4, cfg);
        let flat = skewed_seconds(rb.partition(), |_| 1e-4);
        let spiky = skewed_seconds(rb.partition(), |c| if c < 8 { 1e-3 } else { 1e-4 });
        assert!(rb.observe_cycle(&spiky).is_none());
        assert!(rb.observe_cycle(&spiky).is_none());
        // The streak resets on a healthy cycle: two more bad cycles are not
        // enough to fire.
        assert!(rb.observe_cycle(&flat).is_none());
        assert!(rb.observe_cycle(&spiky).is_none());
        assert!(rb.observe_cycle(&spiky).is_none());
    }

    #[test]
    fn migration_charges_the_event_clock() {
        let n = 128;
        let cfg = RebalanceConfig { sustain_cycles: 1, bytes_per_cell: 512, ..Default::default() };
        let mut rb = Rebalancer::new(line(n), 4, cfg);
        let per_cell = |c: usize| if c >= n / 2 { 9e-4 } else { 1e-4 };
        let t = skewed_seconds(rb.partition(), per_cell);
        let mig = rb.observe_cycle(&t).expect("sustain=1 fires immediately");
        let mut world = EventWorld::new(4, NetModel::cluster());
        let bytes = charge_migration(&mut world, &mig, 512);
        assert_eq!(bytes, mig.moved_cells() as u64 * 512);
        assert_eq!(world.total_bytes, bytes);
        assert!(world.elapsed() > 0.0, "migration must cost simulated time");
    }

    #[test]
    fn fitted_model_predicts_post_rebalance_max() {
        let n = 256;
        // Uniform per-cell cost: T_LR is exactly linear in cells, so the
        // fitted model's post-rebalance max must match the measured next
        // cycle almost exactly.
        let cfg = RebalanceConfig { sustain_cycles: 1, threshold: 1.05, ..Default::default() };
        let mut rb = Rebalancer::with_partition(
            line(n),
            // A skewed-but-legal starting point: weight the left end so the
            // uniform-cost render is imbalanced.
            Partition::weighted_bisect(
                &line(n),
                &(0..n).map(|i| if i < 32 { 20.0 } else { 1.0 }).collect::<Vec<_>>(),
                4,
            ),
            cfg,
        );
        let t = skewed_seconds(rb.partition(), |_| 1e-4);
        assert!(imbalance(&t) > 1.05, "starting layout must be skewed: {}", imbalance(&t));
        let _ = rb.observe_cycle(&t).expect("fires");
        let predicted = rb.predict_max_seconds().expect("observed at least one cycle");
        let measured =
            skewed_seconds(rb.partition(), |_| 1e-4).iter().copied().fold(0.0f64, f64::max);
        assert!(
            (predicted - measured).abs() / measured < 0.05,
            "predicted {predicted} vs measured {measured}"
        );
    }
}
