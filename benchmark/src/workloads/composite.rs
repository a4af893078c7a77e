//! Sort-last compositing with no rendering in the cycle.
//!
//! Set-up renders the fragments once: a tangle isosurface bisected to 32
//! ranks and ray traced per rank (z-buffer fragments), plus 32 synthetic
//! translucent bands (ordered-alpha fragments, placed by the seed). One cycle
//! is four `Strawman::composite` calls — {radix-k, DFB} x {z-buffer, ordered
//! alpha} — so the compositing layer is used four different ways (lockstep
//! rounds against the event engine, opaque against blended merges) and a
//! gain for one that costs another shows.

use super::{frames_identical, probes, Env, Outcome, Workload};
use crate::trace::Tracer;
use compositing::algorithms::default_factors;
use compositing::{
    binary_swap_opts, dfb_compose_opts, direct_send_opts, radix_k_opts, reference, rle,
    CompositeMode, CompositeStats, ExchangeOptions, RankImage, SpanImage,
};
use mesh::datasets::{field_grid, FieldKind};
use mesh::isosurface::isosurface;
use mesh::partition::{partitioned_tris, tri_centroids, Partition};
use mpirt::{EventWorld, LockstepWorld, NetModel, RoundCost};
use render::raytrace::RtConfig;
use render::Framebuffer;
use std::hint::black_box;
use std::rc::Rc;
use strawman::api::{from_rank_image, to_rank_image};
use strawman::{render_rank_frames, Options, Strawman};
use vecmath::{Camera, TransferFunction};

const RANKS: usize = 32;
const SIDE: u32 = 320;
const GRID_CELLS: usize = 32;

/// Ordered-alpha results may differ from the serial fold by float
/// re-association in the exchange tree; z-buffer results may not differ.
const ALPHA_TOLERANCE: f32 = 2e-5;

struct FragmentSet {
    mode: CompositeMode,
    frames: Vec<Framebuffer>,
    /// What `Strawman::composite` hands the exchange.
    images: Vec<RankImage>,
    /// `compositing::reference` over `images`, and the frame the API makes
    /// of it.
    expected: RankImage,
    expected_frame: Framebuffer,
}

impl FragmentSet {
    fn new(mode: CompositeMode, images: Vec<RankImage>) -> FragmentSet {
        // Through a framebuffer and back, as the fragments reach the
        // exchange in the API.
        let frames: Vec<Framebuffer> = images.iter().map(from_rank_image).collect();
        let images: Vec<RankImage> = frames.iter().map(to_rank_image).collect();
        let expected = reference(&images, mode);
        let expected_frame = from_rank_image(&expected);
        FragmentSet { mode, frames, images, expected, expected_frame }
    }

    fn matches(&self, frame: &Framebuffer) -> bool {
        match self.mode {
            CompositeMode::ZBuffer => frames_identical(frame, &self.expected_frame),
            CompositeMode::AlphaOrdered => {
                frame.width == self.expected.width
                    && to_rank_image(frame).max_color_diff(&self.expected) <= ALPHA_TOLERANCE
            }
        }
    }
}

pub struct SortLast {
    tracer: Rc<Tracer>,
    z: FragmentSet,
    a: FragmentSet,
    radix_k: Strawman,
    dfb: Strawman,
    /// The four frames of the cycle that just ran, in call order.
    last: Vec<Framebuffer>,
}

impl SortLast {
    pub fn new(env: &Env) -> SortLast {
        let tr = &env.tracer;
        let grid = field_grid(FieldKind::Tangle, [GRID_CELLS; 3]);
        let surface = isosurface(&grid, "scalar", 0.0, Some("elevation"));
        let part = tr.measure("mesh.partition_bisect_s", || {
            Partition::bisect(&tri_centroids(&surface), RANKS)
        });
        let parts = tr.measure("mesh.partitioned_tris_s", || partitioned_tris(&surface, &part));
        let rank_frames = render_rank_frames(
            &env.device,
            &parts,
            &Camera::close_view(&surface.bounds()),
            SIDE,
            SIDE,
            &RtConfig::workload2(),
            &TransferFunction::rainbow(surface.scalar_range()),
        );
        let z_images = rank_frames.into_iter().map(|f| f.image).collect();
        let a_images = perfmodel::study::synth_rank_images(RANKS, SIDE, env.seed);
        let open = |dfb_compositing| {
            Strawman::open(Options {
                device: env.device.clone(),
                output_dir: env.out_dir.to_path_buf(),
                dfb_compositing,
                ..Options::default()
            })
        };
        SortLast {
            tracer: Rc::clone(tr),
            z: FragmentSet::new(CompositeMode::ZBuffer, z_images),
            a: FragmentSet::new(CompositeMode::AlphaOrdered, a_images),
            radix_k: open(false),
            dfb: open(true),
            last: Vec::new(),
        }
    }

    /// The exchanges called directly, on the same fragment sets.
    fn probe_exchanges(&self) {
        let tr = &self.tracer;
        let net = NetModel::cluster();
        let opts = ExchangeOptions::default();
        let factors = default_factors(RANKS);
        type Exchange<'a> = Box<dyn Fn(&FragmentSet) -> (RankImage, CompositeStats) + 'a>;
        let exchanges: [(&str, &str, &str, Exchange); 4] = [
            (
                "compositing.radix_k",
                "compositing.radix_k_z_s",
                "compositing.radix_k_a_s",
                Box::new(|s| radix_k_opts(&s.images, s.mode, net, &factors, opts)),
            ),
            (
                "compositing.binary_swap",
                "compositing.binary_swap_z_s",
                "compositing.binary_swap_a_s",
                Box::new(|s| binary_swap_opts(&s.images, s.mode, net, opts)),
            ),
            (
                "compositing.direct_send",
                "compositing.direct_send_z_s",
                "compositing.direct_send_a_s",
                Box::new(|s| direct_send_opts(&s.images, s.mode, net, opts)),
            ),
            (
                "compositing.dfb",
                "compositing.dfb_z_s",
                "compositing.dfb_a_s",
                Box::new(|s| dfb_compose_opts(&s.images, s.mode, net, opts)),
            ),
        ];
        for (span, metric_z, metric_a, run) in &exchanges {
            tr.value(metric_z, probes::repeat(tr, span, || run(&self.z)));
            tr.value(metric_a, probes::repeat(tr, span, || run(&self.a)));
        }
        tr.value(
            "compositing.radix_k_dense_z_s",
            probes::repeat(tr, "compositing.radix_k_dense", || {
                radix_k_opts(&self.z.images, self.z.mode, net, &factors, ExchangeOptions::dense())
            }),
        );

        // Exact counts, both fragment sets of one cycle together.
        let sum = |run: &Exchange| {
            let (z, a) = (run(&self.z).1, run(&self.a).1);
            (
                z.total_bytes + a.total_bytes,
                z.dense_bytes + a.dense_bytes,
                z.rounds,
                z.simulated_seconds + a.simulated_seconds,
            )
        };
        let (rk_wire, rk_dense, rk_rounds, rk_sim) = sum(&exchanges[0].3);
        let (dfb_wire, _, _, dfb_sim) = sum(&exchanges[3].3);
        tr.value("compositing.wire_bytes_rk", rk_wire as f64);
        tr.value("compositing.wire_bytes_dfb", dfb_wire as f64);
        tr.value("compositing.compression_ratio", rk_dense as f64 / rk_wire.max(1) as f64);
        tr.value("compositing.rounds", rk_rounds as f64);
        // Simulated T_COMP: measured blend compute plus modelled wire time,
        // so informational only.
        tr.value("compositing.sim_seconds_rk", rk_sim);
        tr.value("compositing.sim_seconds_dfb", dfb_sim);

        tr.value(
            "compositing.rle_encode_s",
            probes::repeat(tr, "compositing.rle_encode", || {
                self.z.images.iter().map(SpanImage::encode).collect::<Vec<_>>()
            }),
        );
        let spans: Vec<SpanImage> = self.z.images.iter().map(SpanImage::encode).collect();
        tr.value(
            "compositing.rle_merge_s",
            probes::repeat(tr, "compositing.rle_merge", || {
                // Back to front, as `reference` folds the dense images.
                let mut acc = spans[RANKS - 1].clone();
                for front in spans[..RANKS - 1].iter().rev() {
                    acc = rle::composite(front, &acc, self.z.mode);
                }
                acc
            }),
        );
    }

    fn probe_mpirt(&self) {
        let tr = &self.tracer;
        const MESSAGES: usize = 1_000_000;
        let per_message = probes::repeat(tr, "mpirt.event_msg", || {
            let mut world = EventWorld::new(RANKS, NetModel::cluster());
            for i in 0..MESSAGES {
                let arrival = world.send(i % RANKS, 4096, 16384);
                world.recv((i + 1) % RANKS, arrival);
            }
            world.elapsed()
        }) / MESSAGES as f64;
        tr.value("mpirt.event_msg_ns", per_message * 1e9);

        const ROUNDS: usize = 10_000;
        let costs: Vec<RoundCost> = (0..RANKS)
            .map(|r| RoundCost {
                compute_s: 1e-4 * r as f64,
                bytes_sent: 4096 + r,
                bytes_dense: 16384,
                messages: 2,
            })
            .collect();
        let per_round = probes::repeat(tr, "mpirt.lockstep_round", || {
            let mut world = LockstepWorld::new(RANKS, NetModel::cluster());
            for _ in 0..ROUNDS {
                world.finish_round(black_box(&costs));
            }
            world.elapsed_s
        }) / ROUNDS as f64;
        tr.value("mpirt.lockstep_round_us", per_round * 1e6);
    }
}

impl Workload for SortLast {
    fn cycle(&mut self) -> Outcome {
        let tr = Rc::clone(&self.tracer);
        let (z, a) = (&self.z, &self.a);
        let (radix_k, dfb) = (&mut self.radix_k, &mut self.dfb);
        self.last = vec![
            tr.measure("strawman.composite_rk_z_s", || radix_k.composite(&z.frames, z.mode).0),
            tr.measure("strawman.composite_rk_a_s", || radix_k.composite(&a.frames, a.mode).0),
            tr.measure("strawman.composite_dfb_z_s", || dfb.composite(&z.frames, z.mode).0),
            tr.measure("strawman.composite_dfb_a_s", || dfb.composite(&a.frames, a.mode).0),
        ];
        Outcome { delivered: self.last.len() as u64, ..Outcome::default() }
    }

    fn check(&mut self) -> Outcome {
        let mut o = Outcome::default();
        for (frame, set) in self.last.iter().zip([&self.z, &self.a, &self.z, &self.a]) {
            o.check(set.matches(frame));
        }
        o
    }

    fn replay(&mut self) {
        self.tracer.measure("strawman.rank_image_convert_s", || {
            let images: Vec<RankImage> = self.z.frames.iter().map(to_rank_image).collect();
            black_box(images.iter().map(from_rank_image).collect::<Vec<_>>())
        });
    }

    fn probes(&mut self) {
        self.probe_exchanges();
        self.probe_mpirt();
    }

    fn verify(&mut self) -> Outcome {
        let mut o = Outcome::default();
        // Every exchange of the run was accounted to the compositing phase.
        o.check(self.radix_k.phases.bytes_of("compositing") > 0);
        o.check(self.dfb.phases.bytes_of("compositing") > 0);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rank_images() {
        let bits = |seed| -> Vec<u32> {
            perfmodel::study::synth_rank_images(RANKS, 48, seed)
                .iter()
                .flat_map(|img| img.color.iter().zip(&img.depth))
                .flat_map(|(c, d)| [c.r.to_bits(), c.a.to_bits(), d.to_bits()])
                .collect()
        };
        assert_eq!(bits(7), bits(7));
        assert_ne!(bits(7), bits(8));
    }
}
