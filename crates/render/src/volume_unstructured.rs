//! Unstructured (tetrahedral) volume rendering — the Chapter III algorithm,
//! composed entirely of data-parallel primitives.
//!
//! The renderer populates a `W x H x S` sample buffer in one or more passes
//! over depth; each pass runs four phases (Algorithm 2):
//!
//! 1. **Pass selection** — map (threshold against the pass depth range) +
//!    reduce + exclusive scan + reverse-index + gather = stream compaction of
//!    the tetrahedra that can contribute samples this pass.
//! 2. **Screen-space transformation** — map the active tets into screen
//!    space, precomputing the inverse barycentric matrix (the "interpolation
//!    constants" the paper re-uses across samples of the same cell).
//! 3. **Sampling** — map over active tets; every sample position inside the
//!    tet's screen AABB and depth range gets an inside-outside barycentric
//!    test and, if inside, writes the interpolated scalar into the sample
//!    buffer. Tets partition space, so at most one writer reaches a sample —
//!    except at shared faces, where the epsilon'd inside test lets two
//!    adjacent tets claim the same sample. Those boundary ties are resolved
//!    with an atomic `fetch_max` keyed on the global tet index, which is both
//!    scheduling-order independent and exactly the serial last-writer-wins
//!    outcome (the serial pass visits tets in ascending index order).
//! 4. **Compositing** — map over pixels, folding this pass's samples
//!    front-to-back through the transfer function with early termination.
//!
//! Splitting the buffer into passes trades memory for repeated screen-space
//! work — exactly the trade-off Figures 4 and 5 of the dissertation sweep.

use crate::counters::PhaseTimer;
use crate::framebuffer::Framebuffer;
use crate::graph::{render_unstructured_graph, GraphError};
use dpp::{compact_indices, map, Device};
use mesh::TetMesh;
use std::sync::atomic::{AtomicU64, Ordering};
use vecmath::{over, Camera, Color, TransferFunction, Vec3};

/// Sentinel for "no sample written". Occupied slots pack
/// `(tet_index + 1) << 32 | scalar_bits`, so every real write is non-zero and
/// `fetch_max` deterministically keeps the highest-index tet on boundary ties.
const EMPTY: u64 = 0;

/// Configuration for the unstructured volume renderer.
#[derive(Debug, Clone)]
pub struct UvrConfig {
    /// Total samples in depth (the paper uses 1000 for 1024^2 images).
    pub depth_samples: u32,
    /// Number of passes the sample buffer is split into.
    pub num_passes: u32,
    /// Early termination opacity.
    pub early_termination: f32,
    /// Optional memory cap for the sample buffer, mimicking the GPU's 6 GB
    /// limit that made the paper's Enzo-80M runs fail (Figure 5).
    pub memory_limit_bytes: Option<usize>,
}

impl Default for UvrConfig {
    fn default() -> Self {
        UvrConfig {
            depth_samples: 400,
            num_passes: 1,
            early_termination: 0.98,
            memory_limit_bytes: None,
        }
    }
}

/// Failure modes (the memory cap reproduces the paper's OOM behaviour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UvrError {
    OutOfMemory {
        required_bytes: usize,
        limit_bytes: usize,
    },
    MissingField(String),
    /// The renderer's pass graph was rejected — a bug in this crate.
    Graph(GraphError),
}

impl std::fmt::Display for UvrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UvrError::OutOfMemory { required_bytes, limit_bytes } => write!(
                f,
                "sample buffer needs {required_bytes} B but the device limit is {limit_bytes} B"
            ),
            UvrError::MissingField(n) => write!(f, "no point field named {n}"),
            UvrError::Graph(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for UvrError {}

impl From<GraphError> for UvrError {
    fn from(e: GraphError) -> UvrError {
        UvrError::Graph(e)
    }
}

/// Measured model inputs.
#[derive(Debug, Clone)]
pub struct UvrStats {
    /// O: number of tetrahedra.
    pub objects: usize,
    /// AP: pixels that received at least one sample.
    pub active_pixels: usize,
    /// SPR: average composited samples per active pixel.
    pub samples_per_ray: f64,
    /// CS proxy: cell-location operations per active pixel (tet-pixel-column
    /// tests, the `AP*CS` cell-frequency work of the model).
    pub cells_per_pixel: f64,
    /// Peak sample-buffer bytes.
    pub buffer_bytes: usize,
    /// Seconds summed over the frame's executed passes.
    pub render_seconds: f64,
}

#[derive(Debug)]
pub struct UvrOutput {
    pub frame: Framebuffer,
    pub stats: UvrStats,
    pub phases: PhaseTimer,
}

/// Screen-space tetrahedron with precomputed barycentric inverse.
#[derive(Clone, Copy)]
pub(crate) struct ScreenTet {
    /// Fourth screen vertex (the barycentric reference point).
    d: Vec3,
    /// Inverse of the 3x3 matrix [v0-d | v1-d | v2-d].
    inv: [[f32; 3]; 3],
    /// Vertex scalars (v0, v1, v2, d).
    s: [f32; 4],
    /// Screen AABB: x0, x1, y0, y1 (pixels), z0, z1 (view depth).
    bbox: [f32; 6],
}

/// Bytes required for the sample buffer at the given configuration.
pub fn sample_buffer_bytes(width: u32, height: u32, cfg: &UvrConfig) -> usize {
    let slab = cfg.depth_samples.div_ceil(cfg.num_passes.max(1)) as usize;
    width as usize * height as usize * slab * 4
}

/// Initialization stage: per-tet view-depth ranges (map).
pub(crate) fn init_ranges_stage(
    device: &Device,
    tets: &TetMesh,
    camera: &Camera,
) -> Vec<(f32, f32)> {
    let n_tets = tets.num_tets();
    let fwd = (camera.look_at - camera.position).normalized();
    map(device, n_tets, |t| {
        let pts = tets.tet_points(t);
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for p in pts {
            let d = (p - camera.position).dot(fwd);
            lo = lo.min(d);
            hi = hi.max(d);
        }
        (lo, hi)
    })
}

/// Pass-selection stage: stream-compact the tets whose depth range overlaps
/// `[pass_z0, pass_z1]` in front of the camera.
pub(crate) fn select_stage(
    device: &Device,
    ranges: &[(f32, f32)],
    near: f32,
    pass_z0: f32,
    pass_z1: f32,
) -> Vec<u32> {
    compact_indices(device, ranges.len(), |t| {
        let (lo, hi) = ranges[t];
        hi >= pass_z0 && lo <= pass_z1 && hi >= near
    })
}

/// Screen-space transformation stage: project active tets and precompute the
/// inverse barycentric matrices.
pub(crate) fn screen_space_stage(
    device: &Device,
    tets: &TetMesh,
    field: &[f32],
    camera: &Camera,
    width: u32,
    height: u32,
    active: &[u32],
) -> Vec<Option<ScreenTet>> {
    let fwd = (camera.look_at - camera.position).normalized();
    let st = camera.screen_transform(width, height);
    map(device, active.len(), |a| {
        let t = active[a] as usize;
        let pts = tets.tet_points(t);
        let mut sv = [Vec3::ZERO; 4];
        for (i, p) in pts.iter().enumerate() {
            let d = (*p - camera.position).dot(fwd);
            if d < camera.near * 0.5 {
                return None; // straddles the camera plane
            }
            let s = st.to_screen(*p);
            if !s.is_finite() {
                return None;
            }
            sv[i] = Vec3::new(s.x, s.y, d);
        }
        let ix = tets.tets[t];
        let s = [
            field[ix[0] as usize],
            field[ix[1] as usize],
            field[ix[2] as usize],
            field[ix[3] as usize],
        ];
        let d = sv[3];
        let m0 = sv[0] - d;
        let m1 = sv[1] - d;
        let m2 = sv[2] - d;
        // Inverse of column matrix [m0 m1 m2].
        let det = m0.x * (m1.y * m2.z - m2.y * m1.z) - m1.x * (m0.y * m2.z - m2.y * m0.z)
            + m2.x * (m0.y * m1.z - m1.y * m0.z);
        if det.abs() < 1e-12 {
            return None;
        }
        let id = 1.0 / det;
        let inv = [
            [
                (m1.y * m2.z - m2.y * m1.z) * id,
                (m2.x * m1.z - m1.x * m2.z) * id,
                (m1.x * m2.y - m2.x * m1.y) * id,
            ],
            [
                (m2.y * m0.z - m0.y * m2.z) * id,
                (m0.x * m2.z - m2.x * m0.z) * id,
                (m2.x * m0.y - m0.x * m2.y) * id,
            ],
            [
                (m0.y * m1.z - m1.y * m0.z) * id,
                (m1.x * m0.z - m0.x * m1.z) * id,
                (m0.x * m1.y - m1.x * m0.y) * id,
            ],
        ];
        let bx0 = sv.iter().map(|v| v.x).fold(f32::INFINITY, f32::min);
        let bx1 = sv.iter().map(|v| v.x).fold(f32::NEG_INFINITY, f32::max);
        let by0 = sv.iter().map(|v| v.y).fold(f32::INFINITY, f32::min);
        let by1 = sv.iter().map(|v| v.y).fold(f32::NEG_INFINITY, f32::max);
        let bz0 = sv.iter().map(|v| v.z).fold(f32::INFINITY, f32::min);
        let bz1 = sv.iter().map(|v| v.z).fold(f32::NEG_INFINITY, f32::max);
        Some(ScreenTet { d, inv, s, bbox: [bx0, bx1, by0, by1, bz0, bz1] })
    })
}

/// Sampling stage: fill this pass's sample slab with `fetch_max`-merged
/// tagged scalars. Returns the loaded slab and the tet-pixel-column tests
/// performed (the CS model input).
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub(crate) fn sampling_stage(
    device: &Device,
    active: &[u32],
    screen: &[Option<ScreenTet>],
    opacity: &[f32],
    term: f32,
    width: u32,
    height: u32,
    z0: f32,
    dz: f32,
    slab: usize,
    s_begin: u32,
    s_end: u32,
) -> (Vec<u64>, u64) {
    let n_px = (width * height) as usize;
    let samples: Vec<AtomicU64> = (0..n_px * slab).map(|_| AtomicU64::new(EMPTY)).collect();
    let cells_tested = AtomicU64::new(0);
    dpp::for_each(device, active.len(), |a| {
        let Some(tet) = &screen[a] else { return };
        let tag = (active[a] as u64 + 1) << 32;
        let [bx0, bx1, by0, by1, bz0, bz1] = tet.bbox;
        let px0 = bx0.floor().max(0.0) as u32;
        let px1 = (bx1.ceil() as i64).min(width as i64 - 1).max(0) as u32;
        let py0 = by0.floor().max(0.0) as u32;
        let py1 = (by1.ceil() as i64).min(height as i64 - 1).max(0) as u32;
        if bx1 < 0.0 || by1 < 0.0 {
            return;
        }
        // Depth slice range of this tet clipped to the pass.
        let s_lo = (((bz0 - z0) / dz).floor().max(s_begin as f32)) as u32;
        let s_hi = ((((bz1 - z0) / dz).ceil()) as i64).min(s_end as i64 - 1).max(0) as u32;
        if s_lo > s_hi {
            return;
        }
        let mut tested = 0u64;
        for py in py0..=py1 {
            for px in px0..=px1 {
                let pix = (py * width + px) as usize;
                tested += 1;
                if opacity[pix] >= term {
                    continue; // early-termination in the sampler
                }
                for sl in s_lo..=s_hi {
                    let zc = z0 + (sl as f32 + 0.5) * dz;
                    let p = Vec3::new(px as f32 + 0.5, py as f32 + 0.5, zc);
                    let r = p - tet.d;
                    let l0 = tet.inv[0][0] * r.x + tet.inv[0][1] * r.y + tet.inv[0][2] * r.z;
                    let l1 = tet.inv[1][0] * r.x + tet.inv[1][1] * r.y + tet.inv[1][2] * r.z;
                    let l2 = tet.inv[2][0] * r.x + tet.inv[2][1] * r.y + tet.inv[2][2] * r.z;
                    let l3 = 1.0 - l0 - l1 - l2;
                    const EPS: f32 = -1e-5;
                    if l0 >= EPS && l1 >= EPS && l2 >= EPS && l3 >= EPS {
                        let value = tet.s[0] * l0 + tet.s[1] * l1 + tet.s[2] * l2 + tet.s[3] * l3;
                        let slot = pix * slab + (sl - s_begin) as usize;
                        let tagged = tag | value.to_bits() as u64;
                        // ORDERING: Relaxed — fetch_max is a
                        // monotonic merge of (tet, value) tags; the
                        // winner is scheduling-independent and is
                        // read only after the region joins.
                        samples[slot].fetch_max(tagged, Ordering::Relaxed);
                    }
                }
            }
        }
        // ORDERING: Relaxed — commutative statistics counter.
        cells_tested.fetch_add(tested, Ordering::Relaxed);
    });
    // ORDERING: Relaxed — reads after the for_each joined.
    let loaded = samples.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    // ORDERING: Relaxed — read after the for_each joined.
    let tested = cells_tested.load(Ordering::Relaxed);
    (loaded, tested)
}

/// Compositing stage: fold this pass's samples front-to-back into the
/// accumulation buffer with early termination. Returns the new accumulation
/// state and the number of samples composited.
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub(crate) fn composite_stage(
    device: &Device,
    acc: &[Color],
    samples: &[u64],
    slab: usize,
    slab_this: usize,
    term: f32,
    tf: &TransferFunction,
) -> (Vec<Color>, u64) {
    let composited = AtomicU64::new(0);
    let new_acc = map(device, acc.len(), |pix| {
        let mut c = acc[pix];
        if c.a >= term {
            return c;
        }
        let mut n_comp = 0u64;
        for sl in 0..slab_this {
            let packed = samples[pix * slab + sl];
            if packed == EMPTY {
                continue;
            }
            let v = f32::from_bits(packed as u32);
            let col = tf.sample(v);
            n_comp += 1;
            if col.a > 0.0 {
                c = over(c, col.premultiplied());
                if c.a >= term {
                    break;
                }
            }
        }
        if n_comp > 0 {
            // ORDERING: Relaxed — commutative statistics counter.
            composited.fetch_add(n_comp, Ordering::Relaxed);
        }
        c
    });
    // ORDERING: Relaxed — read after the region joined.
    (new_acc, composited.load(Ordering::Relaxed))
}

/// Assemble the accumulation buffer into a framebuffer; returns the frame
/// and the active-pixel count.
pub(crate) fn assemble_uvr_stage(acc: &[Color], width: u32, height: u32) -> (Framebuffer, usize) {
    let mut frame = Framebuffer::new(width, height);
    let mut active_px = 0usize;
    for (i, c) in acc.iter().enumerate() {
        if c.a > 0.0 {
            frame.color[i] = c.unpremultiplied();
            frame.depth[i] = 0.0;
            active_px += 1;
        }
    }
    (frame, active_px)
}

/// Render the tetrahedral mesh's point field through the camera: the frame
/// graph of [`render_unstructured_graph`] with no skips and no cache.
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub fn render_unstructured(
    device: &Device,
    tets: &TetMesh,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &UvrConfig,
) -> Result<UvrOutput, UvrError> {
    render_unstructured_graph(device, tets, field_name, camera, width, height, tf, cfg, &[], None)
        .map(|(out, _)| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::FieldKind;
    use mesh::datasets::TetDatasetSpec;

    fn small_tets() -> TetMesh {
        TetDatasetSpec { name: "t", cells: [10, 10, 10], kind: FieldKind::ShockShell }.build(1.0)
    }

    fn tfn(t: &TetMesh) -> TransferFunction {
        let range = t.field("scalar").unwrap().range().unwrap();
        TransferFunction::sparse_features(range)
    }

    #[test]
    fn renders_with_single_pass() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let out = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            40,
            40,
            &tfn(&t),
            &UvrConfig { depth_samples: 64, ..Default::default() },
        )
        .unwrap();
        assert!(out.stats.active_pixels > 300, "{}", out.stats.active_pixels);
        assert!(out.stats.samples_per_ray > 1.0);
        assert!(out.stats.cells_per_pixel > 1.0);
    }

    #[test]
    fn multi_pass_matches_single_pass() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let one = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            32,
            32,
            &tf,
            &UvrConfig {
                depth_samples: 60,
                num_passes: 1,
                early_termination: 1.1,
                ..Default::default()
            },
        )
        .unwrap();
        let four = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            32,
            32,
            &tf,
            &UvrConfig {
                depth_samples: 60,
                num_passes: 4,
                early_termination: 1.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            one.frame.mean_abs_diff(&four.frame) < 1e-4,
            "diff {}",
            one.frame.mean_abs_diff(&four.frame)
        );
        // Multi-pass uses a quarter of the buffer.
        assert!(four.stats.buffer_bytes * 3 < one.stats.buffer_bytes * 4);
    }

    #[test]
    fn devices_agree() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let cfg = UvrConfig { depth_samples: 48, ..Default::default() };
        let a =
            render_unstructured(&Device::Serial, &t, "scalar", &cam, 32, 32, &tf, &cfg).unwrap();
        let b = render_unstructured(&Device::parallel(), &t, "scalar", &cam, 32, 32, &tf, &cfg)
            .unwrap();
        assert!(a.frame.mean_abs_diff(&b.frame) < 1e-4);
    }

    #[test]
    fn memory_cap_fails_like_the_gpu() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let cfg = UvrConfig {
            depth_samples: 1000,
            num_passes: 1,
            memory_limit_bytes: Some(1024),
            ..Default::default()
        };
        let err =
            render_unstructured(&Device::Serial, &t, "scalar", &cam, 256, 256, &tfn(&t), &cfg)
                .unwrap_err();
        // The typed error, not a stringified graph failure, reaches the caller.
        let required_bytes = sample_buffer_bytes(256, 256, &cfg);
        assert_eq!(err, UvrError::OutOfMemory { required_bytes, limit_bytes: 1024 });
        // More passes shrink the buffer under the cap.
        let ok_cfg = UvrConfig {
            depth_samples: 1000,
            num_passes: 1000,
            memory_limit_bytes: Some(300 * 1024),
            ..Default::default()
        };
        assert!(sample_buffer_bytes(256, 256, &ok_cfg) <= 300 * 1024);
    }

    #[test]
    fn missing_field_errors() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let err = render_unstructured(
            &Device::Serial,
            &t,
            "nope",
            &cam,
            8,
            8,
            &tfn(&t),
            &UvrConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, UvrError::MissingField("nope".into()));
    }

    #[test]
    fn phase_names_match_the_paper() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let out = render_unstructured(
            &Device::Serial,
            &t,
            "scalar",
            &cam,
            24,
            24,
            &tfn(&t),
            &UvrConfig { depth_samples: 32, num_passes: 2, ..Default::default() },
        )
        .unwrap();
        for phase in ["initialization", "pass_selection", "screen_space", "sampling", "compositing"]
        {
            assert!(out.phases.seconds_of(phase) >= 0.0);
            assert!(out.phases.phases.iter().any(|p| p.name == phase), "missing {phase}");
        }
        // Two passes => two pass_selection records.
        assert_eq!(out.phases.phases.iter().filter(|p| p.name == "pass_selection").count(), 2);
    }
}
