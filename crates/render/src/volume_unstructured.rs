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
//!    space as [`ScreenTet`]s, precomputing the inverse barycentric matrix
//!    (the "interpolation constants" the paper re-uses across samples of the
//!    same cell).
//! 3. **Sampling** — map over active tets; each row of the tet's screen
//!    AABB is cut to the span of columns its silhouette covers
//!    ([`ScreenTet::row_span`]), each such pixel column is narrowed to the
//!    run of depth slices that can lie inside
//!    the tet ([`column_run`]: along a column the barycentric coordinates are
//!    affine in depth, so each of the four half-spaces bounds the run from one
//!    side), and every sample of that run gets an inside-outside barycentric
//!    test and, if inside, writes the interpolated scalar into the sample
//!    buffer. The run is a superset of what the test accepts, not a
//!    replacement for it — solved in `f64` against thresholds lowered past
//!    the `f32` test's rounding, then widened a slice either side — so the
//!    test decides every sample and the solve only moves the loop bounds.
//!    The image is cut into bands of eight rows, each owned by one task:
//!    the active tets are counting-sorted into every band their clipped
//!    screen box reaches, and a band's task walks its tets and writes its
//!    own slab, through a select rather than a branch per sample. Tets
//!    partition space, so at most one tet
//!    reaches a sample — except at shared faces, where the epsilon'd inside
//!    test lets two adjacent tets claim the same sample. A band walks its
//!    tets in ascending global index, so the last writer, the highest index,
//!    wins: the serial pass's outcome, whatever the scheduling.
//! 4. **Compositing** — per band, fold each pixel's samples front-to-back
//!    through the transfer function with early termination.
//!
//! Splitting the buffer into passes trades memory for repeated screen-space
//! work — exactly the trade-off Figures 4 and 5 of the dissertation sweep.
//! The buffer is never resident whole: a band's task fills a dense slab of
//! its own rows, compacts it to each pixel's written samples in slice order
//! before it ends, and frees it, so a pass holds the pool's in-flight band
//! slabs plus the compacted samples (4 bytes each) that compositing folds.

use crate::counters::{PhaseTimer, RenderOutput, RenderStats};
use crate::framebuffer::Framebuffer;
use dpp::{compact_indices, map, Device};
use mesh::{Assoc, TetMesh};
use vecmath::{over, Camera, Color, ScreenTransform, TransferFunction, Vec3};

/// Image rows per band, the sampler's and the compositor's unit of work.
const BAND: u32 = 8;

/// Scalar bits of a slot no tet sampled: a signalling NaN, which no `f32`
/// arithmetic result can be (IEEE 754 §6.2: an operation that returns a NaN
/// returns a quiet one), so no interpolated scalar is taken for a gap.
const EMPTY: u32 = 0x7F80_0001;

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
    /// `depth_samples` is 0, which leaves no sample spacing.
    NoSamples,
}

impl std::fmt::Display for UvrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UvrError::OutOfMemory { required_bytes, limit_bytes } => write!(
                f,
                "sample buffer needs {required_bytes} B but the device limit is {limit_bytes} B"
            ),
            UvrError::MissingField(n) => write!(f, "no point field named {n}"),
            UvrError::NoSamples => write!(f, "depth_samples must be at least 1"),
        }
    }
}

impl std::error::Error for UvrError {}

/// A tetrahedron in screen space: the per-tet "interpolation constants" the
/// screen-space phase computes once and every sample of the tet reuses. The
/// renderer and the VisIt-like and HAVS comparators all project, clip and
/// sample tets through this one type.
#[derive(Debug, Clone, Copy)]
pub struct ScreenTet {
    /// Fourth screen vertex (the barycentric reference point).
    pub d: Vec3,
    /// Inverse of the 3x3 matrix [v0-d | v1-d | v2-d].
    pub inv: [[f32; 3]; 3],
    /// Vertex scalars (v0, v1, v2, d).
    pub s: [f32; 4],
    /// Screen AABB: x0, x1, y0, y1 (pixels), z0, z1 (view depth).
    pub bbox: [f32; 6],
    /// Screen `(x, y)` of the vertices (v0, v1, v2, d): the corners of the
    /// silhouette [`ScreenTet::row_span`] walks.
    pub xy: [[f32; 2]; 4],
}

impl ScreenTet {
    /// Project tet `t` of `tets` to pixels and view depth along `fwd` (the
    /// camera's unit view direction), with its vertices' `field` scalars, or
    /// `None` when a vertex lies behind half the near distance (the tet
    /// straddles the camera plane), projects off any finite screen position,
    /// or the tet is degenerate.
    pub fn project(
        tets: &TetMesh,
        field: &[f32],
        t: usize,
        camera: &Camera,
        fwd: Vec3,
        st: &ScreenTransform,
    ) -> Option<ScreenTet> {
        let mut sv = [Vec3::ZERO; 4];
        for (v, p) in sv.iter_mut().zip(tets.tet_points(t)) {
            let d = (p - camera.position).dot(fwd);
            if d < camera.near * 0.5 {
                return None;
            }
            let s = st.to_screen(p);
            if !s.is_finite() {
                return None;
            }
            *v = Vec3::new(s.x, s.y, d);
        }
        Self::from_screen(sv, tets.tets[t].map(|i| field[i as usize]))
    }

    /// The tet with screen vertices `sv` (pixels, view depth) and vertex
    /// scalars `s`: the inverse barycentric matrix and the screen box, or
    /// `None` when `|det| < 1e-12`.
    pub fn from_screen(sv: [Vec3; 4], s: [f32; 4]) -> Option<ScreenTet> {
        let d = sv[3];
        let (m0, m1, m2) = (sv[0] - d, sv[1] - d, sv[2] - d);
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
        let span = |f: fn(&Vec3) -> f32| {
            let c = sv.iter().map(f);
            (c.clone().fold(f32::INFINITY, f32::min), c.fold(f32::NEG_INFINITY, f32::max))
        };
        let ((bx0, bx1), (by0, by1), (bz0, bz1)) = (span(|v| v.x), span(|v| v.y), span(|v| v.z));
        // `det` against the terms it is rounded from, times the screen extent
        // in pixels: below 2^-12 the f32 inverse may describe a tet other
        // than the vertices' one, so its silhouette is not trusted and its
        // screen box stands in for it.
        let terms = m0.x.abs() * ((m1.y * m2.z).abs() + (m2.y * m1.z).abs())
            + m1.x.abs() * ((m0.y * m2.z).abs() + (m2.y * m0.z).abs())
            + m2.x.abs() * ((m0.y * m1.z).abs() + (m1.y * m0.z).abs());
        let extent = (bx1 - bx0).max(by1 - by0);
        let bbox = [bx0, bx1, by0, by1, bz0, bz1];
        let xy = if det.abs() * 4096.0 < terms * extent {
            box_hull(&bbox)
        } else {
            sv.map(|v| [v.x, v.y])
        };
        Some(ScreenTet { d, inv, s, bbox, xy })
    }

    /// The pixel columns `x.0..=x.1` and rows `y.0..=y.1` of the screen box
    /// clipped to a `width x height` image, or `None` when it leaves none.
    pub fn pixels(&self, width: u32, height: u32) -> Option<((u32, u32), (u32, u32))> {
        let [bx0, bx1, by0, by1, ..] = self.bbox;
        let px0 = bx0.floor().max(0.0) as u32;
        let px1 = (bx1.ceil() as i64).min(width as i64 - 1).max(0) as u32;
        let py0 = by0.floor().max(0.0) as u32;
        let py1 = (by1.ceil() as i64).min(height as i64 - 1).max(0) as u32;
        (px0 <= px1 && py0 <= py1).then_some(((px0, px1), (py0, py1)))
    }

    /// The x-extent, on the row of pixel centres `y + 0.5`, of the silhouette
    /// (the convex hull of [`ScreenTet::xy`]) dilated by a quarter pixel
    /// (`SPAN_MARGIN`) in every direction, or `None` when the row misses it.
    /// Every pixel column whose samples the inside test can accept has its
    /// centre in this span.
    pub fn row_span(&self, y: u32) -> Option<(f32, f32)> {
        // The hull's extent over the rows within the margin of `y + 0.5`: its
        // corners in that reach and where its edges cross the reach's bounds.
        // Every edge of the hull joins two vertices, and every segment that
        // joins two lies inside the hull, so all six pairs are taken.
        let (ya, yb) = (y as f32 + 0.5 - SPAN_MARGIN, y as f32 + 0.5 + SPAN_MARGIN);
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for (i, &[px, py]) in self.xy.iter().enumerate() {
            if py >= ya && py <= yb {
                (lo, hi) = (lo.min(px), hi.max(px));
            }
            for &[qx, qy] in &self.xy[i + 1..] {
                for yl in [ya, yb] {
                    if (py - yl) * (qy - yl) < 0.0 {
                        let x = px + (yl - py) / (qy - py) * (qx - px);
                        (lo, hi) = (lo.min(x), hi.max(x));
                    }
                }
            }
        }
        (lo <= hi).then_some((lo - SPAN_MARGIN, hi + SPAN_MARGIN))
    }

    /// The share of each barycentric coordinate the pixel column through
    /// `centre` fixes: `inv[i][0]·rx + inv[i][1]·ry`, `r` taken from `d`.
    #[inline]
    pub fn column(&self, centre: (f32, f32)) -> [f32; 3] {
        let (rx, ry) = (centre.0 - self.d.x, centre.1 - self.d.y);
        self.inv.map(|row| row[0] * rx + row[1] * ry)
    }

    /// The interpolated scalar at view depth `z` on the column `c` (from
    /// [`ScreenTet::column`]), or `None` when the inside test (every
    /// coordinate `>= -1e-5`) rejects the point. Each coordinate is
    /// `c[i] + inv[i][2]·rz`: Rust adds left to right and never fuses, so
    /// that is `inv[i][0]·rx + inv[i][1]·ry + inv[i][2]·rz` to the bit.
    #[inline]
    pub fn value_at(&self, c: &[f32; 3], z: f32) -> Option<f32> {
        let rz = z - self.d.z;
        let l0 = c[0] + self.inv[0][2] * rz;
        let l1 = c[1] + self.inv[1][2] * rz;
        let l2 = c[2] + self.inv[2][2] * rz;
        let l3 = 1.0 - l0 - l1 - l2;
        (l0 >= EPS && l1 >= EPS && l2 >= EPS && l3 >= EPS)
            .then(|| self.s[0] * l0 + self.s[1] * l1 + self.s[2] * l2 + self.s[3] * l3)
    }
}

/// Corners of a silhouette that holds every pixel centre of the screen box
/// `bbox` (see [`ScreenTet::pixels`]).
fn box_hull(bbox: &[f32; 6]) -> [[f32; 2]; 4] {
    let [bx0, bx1, by0, by1, ..] = *bbox;
    let (x0, x1, y0, y1) = (bx0.floor(), bx1.ceil() + 1.0, by0.floor(), by1.ceil() + 1.0);
    [[x0, y0], [x1, y0], [x0, y1], [x1, y1]]
}

/// Bytes required for the sample buffer at the given configuration: the
/// paper's 4-byte float per sample over one pass's `W x H x slab`, the
/// quantity Figure 5's OOM gaps are defined on. The renderer keeps less
/// resident (see the module doc): only the bands in flight are dense.
pub fn sample_buffer_bytes(width: u32, height: u32, cfg: &UvrConfig) -> usize {
    let slab = cfg.depth_samples.div_ceil(cfg.num_passes.max(1)) as usize;
    width as usize * height as usize * slab * 4
}

/// Initialization stage: per-tet view-depth ranges (map).
fn init_ranges_stage(device: &Device, tets: &TetMesh, camera: &Camera) -> Vec<(f32, f32)> {
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
fn select_stage(
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
fn screen_space_stage(
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
        ScreenTet::project(tets, field, active[a] as usize, camera, fwd, &st)
    })
}

/// The inside-outside test's slack: inside is all four coordinates `>= EPS`.
const EPS: f32 = -1e-5;

/// Pixels [`ScreenTet::row_span`] reaches past a tet's silhouette. The slack
/// `EPS` grows a tet by `4·10⁻⁵` of its size about its centroid (0.04 px for
/// a 1000-pixel tet), and a tet whose inverse rounding could move it further
/// takes its screen box as silhouette. None of the oracle's accepted awkward
/// columns lies outside the silhouette itself; a one-pixel margin walked
/// 1.7x the columns of this one on the benchmark frame, and each costs a
/// [`column_run`] solve.
const SPAN_MARGIN: f32 = 0.25;

/// The run `(lo, hi)` of depth slices within `slices` that can lie inside a
/// tet along the pixel column through `centre`, or `None` when none can (the
/// module doc's solve). `inv` is the inverse of `[v0-d | v1-d | v2-d]`, `d` the
/// reference vertex; slice `sl` sits at depth `z0 + (sl + 0.5) dz`. Holds every
/// slice the `f32` test `l_i >= -1e-5` accepts and more: the test still runs.
#[inline]
pub fn column_run(
    inv: &[[f32; 3]; 3],
    d: Vec3,
    centre: (f32, f32),
    z0: f32,
    dz: f32,
    slices: (u32, u32),
) -> Option<(u32, u32)> {
    // Up to eight slices the solve costs more than the tests it would save.
    if slices.1.saturating_sub(slices.0) < 8 {
        return (slices.0 <= slices.1).then_some(slices);
    }
    const U: f64 = 1.0 / (1u64 << 24) as f64; // unit roundoff of f32
    let (rx, ry) = ((centre.0 - d.x) as f64, (centre.1 - d.y) as f64);
    let (z0, dz, dz_ref) = (z0 as f64, dz as f64, d.z as f64);
    // Slice 0's depth relative to `d`, and a bound on every depth the test rounds at.
    let rz0 = z0 + 0.5 * dz - dz_ref;
    let z_mag = z0.abs() + (slices.1 as f64 + 1.0) * dz.abs() + dz_ref.abs();
    // `l_i(sl) = a + b sl`, `mag` the summed magnitudes of its terms; `l_3 = 1 - Σ`.
    let mut l = [(0.0, 0.0, 0.0); 4];
    l[3] = (1.0, 0.0, 1.0);
    for (i, row) in inv.iter().enumerate() {
        let (tx, ty, c) = (row[0] as f64 * rx, row[1] as f64 * ry, row[2] as f64);
        let (a, b, mag) = (tx + ty + c * rz0, c * dz, tx.abs() + ty.abs() + c.abs() * z_mag);
        l[i] = (a, b, mag);
        l[3] = (l[3].0 - a, l[3].1 - b, l[3].2 + mag);
    }
    let (mut lo, mut hi) = (slices.0 as f64, slices.1 as f64);
    for (a, b, mag) in l {
        // Lowered by several times what the f32 test's rounding can reach.
        let thr = EPS as f64 - 32.0 * U * mag;
        if b > 0.0 {
            lo = lo.max((thr - a) / b);
        } else if b < 0.0 {
            hi = hi.min((thr - a) / b);
        } else if a < thr {
            return None;
        }
    }
    // `max`/`min` skip a NaN bound (a non-finite solve keeps the full range),
    // the casts saturate, and a slice either side absorbs the solve's own rounding.
    let lo = (lo.floor() - 1.0).max(slices.0 as f64) as u32;
    let hi = (hi.ceil() + 1.0).min(slices.1 as f64) as u32;
    (lo <= hi).then_some((lo, hi))
}

/// A tet's footprint in one span of depth slices: pixel columns
/// `x.0..=x.1`, rows `y.0..=y.1` and depth slices `s.0..=s.1`. The renderer's
/// sampler and the VisIt-like comparator clip every tet through it.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    pub x: (u32, u32),
    pub y: (u32, u32),
    pub s: (u32, u32),
}

impl Footprint {
    /// The tet's screen box clipped to the image and to the slices
    /// `span.0..span.1` (slice `sl` at depth `z0 + (sl + 0.5) dz`), or `None`
    /// when that leaves no column to test.
    pub fn of(
        tet: &ScreenTet,
        width: u32,
        height: u32,
        z0: f32,
        dz: f32,
        span: (u32, u32),
    ) -> Option<Self> {
        let [_, bx1, _, by1, bz0, bz1] = tet.bbox;
        if bx1 < 0.0 || by1 < 0.0 {
            return None;
        }
        let (x, y) = tet.pixels(width, height)?;
        let s_lo = (((bz0 - z0) / dz).floor().max(span.0 as f32)) as u32;
        let s_hi = ((((bz1 - z0) / dz).ceil()) as i64).min(span.1 as i64 - 1).max(0) as u32;
        (s_lo <= s_hi).then_some(Footprint { x, y, s: (s_lo, s_hi) })
    }

    /// The columns of row `py` within `x` whose pixel centres lie in the
    /// tet's [`ScreenTet::row_span`]: the only ones the inside test can
    /// accept a sample of.
    pub fn row(&self, tet: &ScreenTet, py: u32) -> std::ops::Range<u32> {
        let Some((xa, xb)) = tet.row_span(py) else { return 0..0 };
        // `as` saturates, and `end >= lo`: a span off either side leaves none.
        let lo = ((xa - 0.5).ceil() as i64).max(self.x.0 as i64);
        let end = ((xb - 0.5).floor() as i64 + 1).min(self.x.1 as i64 + 1).max(lo);
        lo as u32..end as u32
    }

    /// The bands of [`BAND`] rows the footprint reaches.
    fn bands(&self) -> std::ops::RangeInclusive<usize> {
        (self.y.0 / BAND) as usize..=(self.y.1 / BAND) as usize
    }
}

/// Counting sort of the active tets into every band their footprint
/// reaches: band `b`'s tets are `members[start[b]..start[b + 1]]`, in
/// ascending `active` order — the order the band's plain stores rely on.
fn bin_by_band(feet: &[Option<Footprint>], n_bands: usize) -> (Vec<usize>, Vec<u32>) {
    let mut start = vec![0usize; n_bands + 1];
    for b in feet.iter().flatten().flat_map(Footprint::bands) {
        start[b + 1] += 1;
    }
    for b in 0..n_bands {
        start[b + 1] += start[b];
    }
    let mut cursor = start.clone();
    let mut members = vec![0u32; start[n_bands]];
    for (a, f) in feet.iter().enumerate() {
        for b in f.iter().flat_map(Footprint::bands) {
            members[cursor[b]] = a as u32;
            cursor[b] += 1;
        }
    }
    (start, members)
}

/// One band's samples, compacted: pixel `i` of the band (row-major) holds
/// `bits[ends[i - 1]..ends[i]]` (from 0 for the first pixel), the scalar bits
/// of its sampled slices in slice order.
struct BandSamples {
    ends: Vec<u32>,
    bits: Vec<u32>,
}

impl BandSamples {
    /// The non-[`EMPTY`] slots of a dense slab of `span` slots per pixel,
    /// reading pixel `i` only over `reach[i]`: every slot outside it is empty.
    fn compact(dense: &[u32], span: usize, reach: &[(u32, u32)]) -> Self {
        let reached = |&(lo, hi): &(u32, u32)| (hi + 1).saturating_sub(lo) as usize;
        let mut bits = vec![0u32; reach.iter().map(reached).sum()];
        // Every reached slot is stored; only a sample advances the cursor.
        let mut n = 0;
        let ends = dense
            .chunks_exact(span)
            .zip(reach)
            .map(|(slots, &(lo, hi))| {
                for &b in slots.get(lo as usize..=hi as usize).unwrap_or(&[]) {
                    bits[n] = b;
                    n += (b != EMPTY) as usize;
                }
                n as u32
            })
            .collect();
        bits.truncate(n);
        bits.shrink_to_fit();
        BandSamples { ends, bits }
    }

    /// Each pixel's samples, in band order.
    fn pixels(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.bits[a as usize..b as usize])
    }
}

/// Store the tet's scalar bits in every slot of `slots` (slices `lo..`)
/// whose depth on the column `c` the inside test accepts. The arithmetic is
/// [`ScreenTet::value_at`]'s, in its order, so the bits are its; the select
/// replaces its branch, so the loop carries no data-dependent jump.
#[inline]
fn sample_run(tet: &ScreenTet, c: &[f32; 3], z0: f32, dz: f32, lo: u32, slots: &mut [u32]) {
    let k = tet.inv.map(|row| row[2]);
    let (s, dz_ref) = (tet.s, tet.d.z);
    for (sl, slot) in (lo..).zip(slots) {
        let rz = z0 + (sl as f32 + 0.5) * dz - dz_ref;
        let (l0, l1, l2) = (c[0] + k[0] * rz, c[1] + k[1] * rz, c[2] + k[2] * rz);
        let l3 = 1.0 - l0 - l1 - l2;
        let inside = (l0 >= EPS) & (l1 >= EPS) & (l2 >= EPS) & (l3 >= EPS);
        let value = s[0] * l0 + s[1] * l1 + s[2] * l2 + s[3] * l3;
        // Ascending tets: the highest index stores last.
        *slot = if inside { value.to_bits() } else { *slot };
    }
}

/// Sampling stage: one task per band of [`BAND`] rows fills a dense slab —
/// one slot per pixel and slice of `s_begin..s_end`, row-major, [`EMPTY`]
/// where no tet samples — from the tets binned to it, over each row's span
/// of columns and each column's run, then compacts it before the task ends.
/// Returns the bands, top band first, and the bounding-box tet-pixel-column
/// tests performed (the CS model input).
#[allow(clippy::too_many_arguments, reason = "mirrors the paper's kernel signature")]
fn sampling_stage(
    device: &Device,
    active: &[u32],
    screen: &[Option<ScreenTet>],
    opacity: &[f32],
    term: f32,
    width: u32,
    height: u32,
    z0: f32,
    dz: f32,
    s_begin: u32,
    s_end: u32,
) -> (Vec<BandSamples>, u64) {
    #[cfg(test)] // the oracle's switch, never compiled into the library
    if tests::REFERENCE_SAMPLER.with(|on| on.get()) {
        return tests::reference_bands(
            device, active, screen, opacity, term, width, height, z0, dz, s_begin, s_end,
        );
    }
    // Ascending tet indices, so a band's last writer is the highest index.
    debug_assert!(active.is_sorted());
    let feet = map(device, active.len(), |a| {
        let tet = screen[a].as_ref()?;
        Footprint::of(tet, width, height, z0, dz, (s_begin, s_end))
    });
    let n_bands = height.div_ceil(BAND) as usize;
    let (start, members) = bin_by_band(&feet, n_bands);
    let (w, span) = (width as usize, (s_end - s_begin) as usize);
    let bands = dpp::tasks(device, n_bands, |b| {
        let y0 = b as u32 * BAND;
        let y1 = (y0 + BAND).min(height) - 1;
        // Allocated, filled and freed by this task: only the compacted
        // samples outlive it.
        let n_px = (y1 - y0 + 1) as usize * w;
        let mut dense = vec![EMPTY; n_px * span];
        // Per pixel, the first and last slot any run covered.
        let mut reach = vec![(u32::MAX, 0u32); n_px];
        let mut tested = 0u64;
        for &a in &members[start[b]..start[b + 1]] {
            // By value: the tet's constants stay in registers across its columns.
            let (Some(tet), Some(f)) = (screen[a as usize], feet[a as usize]) else { continue };
            for py in f.y.0.max(y0)..=f.y.1.min(y1) {
                // CS counts every bounding-box column, sampled or not.
                tested += (f.x.1 - f.x.0 + 1) as u64;
                for px in f.row(&tet, py) {
                    if opacity[py as usize * w + px as usize] >= term {
                        continue; // early-termination in the sampler
                    }
                    let centre = (px as f32 + 0.5, py as f32 + 0.5);
                    let run = column_run(&tet.inv, tet.d, centre, z0, dz, f.s);
                    let Some((lo, hi)) = run else { continue };
                    let local = (py - y0) as usize * w + px as usize;
                    let (a, b) = (lo - s_begin, hi - s_begin);
                    reach[local] = (reach[local].0.min(a), reach[local].1.max(b));
                    let slots = &mut dense[local * span..][a as usize..=b as usize];
                    sample_run(&tet, &tet.column(centre), z0, dz, lo, slots);
                }
            }
        }
        (BandSamples::compact(&dense, span, &reach), tested)
    });
    let (bands, tested): (Vec<BandSamples>, Vec<u64>) = bands.into_iter().unzip();
    (bands, tested.iter().sum())
}

/// Compositing stage: one task per band folds each of its pixels' samples
/// front-to-back into the accumulation buffer with early termination.
/// Returns the new accumulation state and the number of samples composited.
fn composite_stage(
    device: &Device,
    acc: &[Color],
    bands: &[BandSamples],
    width: u32,
    term: f32,
    tf: &TransferFunction,
) -> (Vec<Color>, u64) {
    let folded = dpp::tasks(device, bands.len(), |b| {
        let mut composited = 0u64;
        let first_px = b * BAND as usize * width as usize;
        let pixels = bands[b].pixels().zip(&acc[first_px..]);
        let colors: Vec<Color> = pixels
            .map(|(samples, &c)| {
                let mut c = c;
                if c.a >= term {
                    return c;
                }
                for &bits in samples {
                    let col = tf.sample(f32::from_bits(bits));
                    composited += 1;
                    if col.a > 0.0 {
                        c = over(c, col.premultiplied());
                        if c.a >= term {
                            break;
                        }
                    }
                }
                c
            })
            .collect();
        (colors, composited)
    });
    let (colors, composited): (Vec<Vec<Color>>, Vec<u64>) = folded.into_iter().unzip();
    (colors.concat(), composited.iter().sum())
}

/// Assemble the accumulation buffer into a framebuffer; returns the frame
/// and the active-pixel count.
fn assemble_uvr_stage(acc: &[Color], width: u32, height: u32) -> (Framebuffer, usize) {
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

/// Render the tetrahedral mesh's point field through the camera: the
/// unstructured volume renderer's one driver. One `initialization` phase,
/// then per depth span the four phases of Algorithm 2, then `assemble`. Each
/// span's compacted samples are dropped as soon as they have been composited,
/// and the per-tet depth ranges as soon as the last span has selected its tets.
#[allow(clippy::too_many_arguments, reason = "mirrors the paper's kernel signature")]
pub fn render_unstructured(
    device: &Device,
    tets: &TetMesh,
    field_name: &str,
    camera: &Camera,
    width: u32,
    height: u32,
    tf: &TransferFunction,
    cfg: &UvrConfig,
) -> Result<RenderOutput, UvrError> {
    let field: &[f32] = &tets
        .field(field_name)
        .filter(|f| f.assoc == Assoc::Point)
        .ok_or_else(|| UvrError::MissingField(field_name.to_string()))?
        .values;
    if cfg.depth_samples == 0 {
        return Err(UvrError::NoSamples);
    }

    let buffer_bytes = sample_buffer_bytes(width, height, cfg);
    if let Some(limit) = cfg.memory_limit_bytes {
        if buffer_bytes > limit {
            return Err(UvrError::OutOfMemory { required_bytes: buffer_bytes, limit_bytes: limit });
        }
    }

    let n_tets = tets.num_tets();
    let n_px = (width * height) as usize;
    let s_total = cfg.depth_samples;
    let passes = cfg.num_passes.max(1).min(s_total);
    let slab = s_total.div_ceil(passes) as usize;
    let term = cfg.early_termination;
    let near = camera.near;

    let mut phases = PhaseTimer::new();
    // `any` is false when nothing lies in front of the camera: every span
    // then selects no tets.
    let (mut ranges, z0, dz, any) = phases.run("initialization", n_tets as u64, || {
        let r = init_ranges_stage(device, tets, camera);
        let (z0, z1) = dpp::reduce(device, &r, (f32::INFINITY, f32::NEG_INFINITY), |a, b| {
            (a.0.min(b.0), a.1.max(b.1))
        });
        let z0 = z0.max(near);
        (r, z0, (z1 - z0) / s_total as f32, z0 < z1)
    });

    // The accumulation buffer and the (cells tested, samples composited)
    // totals thread span to span, front to back.
    let mut acc = vec![Color::TRANSPARENT; n_px];
    let (mut cells_tested, mut composited) = (0u64, 0u64);
    for pass in 0..passes {
        let s_begin = pass * slab as u32;
        let s_end = ((pass + 1) * slab as u32).min(s_total);
        if s_begin >= s_end {
            break;
        }
        let active = phases.run("pass_selection", n_tets as u64, || {
            let (pass_z0, pass_z1) = (z0 + s_begin as f32 * dz, z0 + s_end as f32 * dz);
            if any {
                select_stage(device, &ranges, near, pass_z0, pass_z1)
            } else {
                Vec::new()
            }
        });
        if s_end == s_total {
            // The last span has selected: nothing reads the depth ranges again.
            ranges = Vec::new();
        }
        let screen = phases.run("screen_space", active.len() as u64, || {
            screen_space_stage(device, tets, field, camera, width, height, &active)
        });
        let (samples, tested) = phases.run("sampling", active.len() as u64, || {
            let opacity: Vec<f32> = acc.iter().map(|c| c.a).collect();
            sampling_stage(
                device, &active, &screen, &opacity, term, width, height, z0, dz, s_begin, s_end,
            )
        });
        drop((active, screen));
        let (next, n) = phases.run("compositing", n_px as u64, || {
            composite_stage(device, &acc, &samples, width, term, tf)
        });
        drop(samples);
        acc = next;
        cells_tested += tested;
        composited += n;
    }
    let (frame, active_px) =
        phases.run("assemble", n_px as u64, || assemble_uvr_stage(&acc, width, height));

    let per_active = |total: u64| if active_px > 0 { total as f64 / active_px as f64 } else { 0.0 };
    Ok(RenderOutput {
        stats: RenderStats {
            objects: n_tets as f64,
            active_pixels: active_px as f64,
            samples_per_ray: per_active(composited),
            cells_spanned: per_active(cells_tested),
            render_seconds: phases.total_seconds(),
            ..RenderStats::default()
        },
        frame,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::datasets::FieldKind;
    use mesh::datasets::TetDatasetSpec;
    use proptest::TestRng;
    use sims::{Lulesh, ProxySim};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// While set, this thread's `sampling_stage` calls run the
        /// brute-force oracle below instead.
        pub(super) static REFERENCE_SAMPLER: Cell<bool> = const { Cell::new(false) };
    }

    /// Run `f` with this thread's sampler switched to the oracle or not.
    fn with_sampler<T>(reference: bool, f: impl FnOnce() -> T) -> T {
        REFERENCE_SAMPLER.with(|on| on.set(reference));
        let out = f();
        REFERENCE_SAMPLER.with(|on| on.set(false));
        out
    }

    /// [`sampling_stage_reference`]'s slab cut into `sampling_stage`'s
    /// bands and compacted: each pixel's winning scalar bits in slice order.
    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle keeps the signature of the code it replaced"
    )]
    pub(super) fn reference_bands(
        device: &Device,
        active: &[u32],
        screen: &[Option<ScreenTet>],
        opacity: &[f32],
        term: f32,
        width: u32,
        height: u32,
        z0: f32,
        dz: f32,
        s_begin: u32,
        s_end: u32,
    ) -> (Vec<BandSamples>, u64) {
        let (samples, tested) = sampling_stage_reference(
            device, active, screen, opacity, term, width, height, z0, dz, s_begin, s_end,
        );
        let slots: Vec<u32> = samples
            .into_iter()
            .map(|s| match s.into_inner() {
                0 => EMPTY,
                packed => packed as u32,
            })
            .collect();
        let span = (s_end - s_begin) as usize;
        let whole = vec![(0, span as u32 - 1); BAND as usize * width as usize];
        let bands = slots.chunks(BAND as usize * width as usize * span);
        (bands.map(|dense| BandSamples::compact(dense, span, &whole)).collect(), tested)
    }

    /// The sampler as it was before `column_run`: every slice of every pixel
    /// column of each tet's bounding box takes the inside test, and boundary
    /// ties go to the highest tet index through a `fetch_max` on
    /// `(tet + 1) << 32 | scalar bits` (0: no sample). The oracle
    /// `sampling_stage` must match slot for slot.
    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle keeps the signature of the code it replaced"
    )]
    pub(super) fn sampling_stage_reference(
        device: &Device,
        active: &[u32],
        screen: &[Option<ScreenTet>],
        opacity: &[f32],
        term: f32,
        width: u32,
        height: u32,
        z0: f32,
        dz: f32,
        s_begin: u32,
        s_end: u32,
    ) -> (Vec<AtomicU64>, u64) {
        let n_px = (width * height) as usize;
        let slab = (s_end - s_begin) as usize;
        let samples: Vec<AtomicU64> = (0..n_px * slab).map(|_| AtomicU64::new(0)).collect();
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
                        continue;
                    }
                    for sl in s_lo..=s_hi {
                        let zc = z0 + (sl as f32 + 0.5) * dz;
                        let p = Vec3::new(px as f32 + 0.5, py as f32 + 0.5, zc);
                        let r = p - tet.d;
                        let l0 = tet.inv[0][0] * r.x + tet.inv[0][1] * r.y + tet.inv[0][2] * r.z;
                        let l1 = tet.inv[1][0] * r.x + tet.inv[1][1] * r.y + tet.inv[1][2] * r.z;
                        let l2 = tet.inv[2][0] * r.x + tet.inv[2][1] * r.y + tet.inv[2][2] * r.z;
                        let l3 = 1.0 - l0 - l1 - l2;
                        if l0 >= EPS && l1 >= EPS && l2 >= EPS && l3 >= EPS {
                            let value =
                                tet.s[0] * l0 + tet.s[1] * l1 + tet.s[2] * l2 + tet.s[3] * l3;
                            let slot = pix * slab + (sl - s_begin) as usize;
                            let tagged = tag | value.to_bits() as u64;
                            // ORDERING: Relaxed — monotonic merge, read after the join.
                            samples[slot].fetch_max(tagged, Ordering::Relaxed);
                        }
                    }
                }
            }
            // ORDERING: Relaxed — commutative statistics counter.
            cells_tested.fetch_add(tested, Ordering::Relaxed);
        });
        // ORDERING: Relaxed — read after the for_each joined.
        let tested = cells_tested.load(Ordering::Relaxed);
        (samples, tested)
    }

    fn unit(rng: &mut TestRng) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn between(rng: &mut TestRng, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * unit(rng)
    }

    fn det(sv: &[Vec3; 4]) -> f32 {
        let (m0, m1, m2) = (sv[0] - sv[3], sv[1] - sv[3], sv[2] - sv[3]);
        m0.x * (m1.y * m2.z - m2.y * m1.z) - m1.x * (m0.y * m2.z - m2.y * m0.z)
            + m2.x * (m0.y * m1.z - m1.y * m0.z)
    }

    /// One pass's worth of seeded tets of every awkward kind the sampler can
    /// meet, on a `w x h` image whose slices sit at `z0 + (sl + 0.5) dz`.
    fn awkward_tets(
        rng: &mut TestRng,
        n: usize,
        (w, h): (u32, u32),
        (z0, dz): (f32, f32),
        (s_begin, s_end, s_total): (u32, u32, u32),
    ) -> Vec<Option<ScreenTet>> {
        (0..n)
            .map(|t| {
                let kind = t % 10;
                // Centre: on screen, or (kind 5) hanging over / beyond one of
                // the four image edges; in depth anywhere from before the
                // first slice to past the last, or (kind 4) on a pass edge.
                let (mut cx, mut cy) = (between(rng, 0.0, w as f32), between(rng, 0.0, h as f32));
                if kind == 5 {
                    let off = between(rng, -6.0, 3.0);
                    match rng.next_u64() % 4 {
                        0 => cx = off,
                        1 => cx = w as f32 - off,
                        2 => cy = off,
                        _ => cy = h as f32 - off,
                    }
                }
                let mut cs = between(rng, -4.0, s_total as f32 + 4.0);
                if kind == 4 {
                    cs = if rng.next_u64().is_multiple_of(2) { s_begin } else { s_end } as f32
                        + between(rng, -1.0, 1.0);
                }
                let (ex, es) = (between(rng, 0.3, 5.0), between(rng, 0.3, 25.0));
                let mut sv = [Vec3::ZERO; 4];
                for v in &mut sv {
                    *v = Vec3::new(
                        cx + between(rng, -ex, ex),
                        cy + between(rng, -ex, ex),
                        z0 + (cs + between(rng, -es, es)) * dz,
                    );
                }
                if kind == 1 {
                    // Sliver: pull the reference vertex into the plane of the
                    // other three until |det| is anywhere down to the cut-off.
                    let det = det(&sv);
                    let target = 1.05e-12 * 10f32.powf(between(rng, 0.0, 9.0));
                    let c = (sv[0] + sv[1] + sv[2]) * (1.0 / 3.0);
                    if det.abs() > target {
                        sv[3] = c + (sv[3] - c) * (target / det.abs());
                    }
                }
                if kind == 2 {
                    // An edge along the view ray: the two faces on it are
                    // edge-on, so two rows of `inv` get an exact 0 in z.
                    sv[1].x = sv[0].x;
                    sv[1].y = sv[0].y;
                }
                if kind == 8 || kind == 9 {
                    // Vertices on one line of the screen, on a 1/8-pixel grid
                    // so every difference is exact: the face v0-v1-d is
                    // edge-on and `inv[2][2]` is exactly 0 (kind 8), or
                    // (kind 9) all four lie within a hair of one plane along
                    // the view ray — an edge-on sliver, a silhouette of
                    // almost no width.
                    let grid = |v: f32| (v * 8.0).round() / 8.0;
                    let (ax, ay) =
                        ((rng.next_u64() % 9) as f32 - 4.0, (rng.next_u64() % 9) as f32 - 4.0);
                    let (ax, ay) =
                        if ax == 0.0 && ay == 0.0 { (1.0, 0.0) } else { (ax / 8.0, ay / 8.0) };
                    let (ox, oy) = (grid(cx), grid(cy));
                    let hair = if kind == 9 { 10f32.powf(between(rng, -6.0, -2.0)) } else { 0.0 };
                    for (v, k) in sv.iter_mut().zip([-3.0, 5.0, 2.0, 0.0]) {
                        let off = if kind == 9 { between(rng, -hair, hair) } else { 0.0 };
                        (v.x, v.y) = (ox + k * ax - off * ay, oy + k * ay + off * ax);
                    }
                    if kind == 8 {
                        (sv[2].x, sv[2].y) =
                            (cx + between(rng, -ex, ex), cy + between(rng, -ex, ex));
                    }
                }
                let mut s = [unit(rng), unit(rng), unit(rng), unit(rng)];
                // Scalars whose samples an empty-slot marker could pass
                // for: all four one special value, or a mix of them.
                const SPECIAL: [f32; 8] = [
                    0.0,
                    -0.0,
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    1e-40,
                    -1e-45,
                    f32::MIN_POSITIVE,
                ];
                match t % 16 {
                    0 => s = [SPECIAL[(t / 16) % SPECIAL.len()]; 4],
                    8 => s = s.map(|_| SPECIAL[rng.next_u64() as usize % SPECIAL.len()]),
                    _ => {}
                }
                let mut tet = ScreenTet::from_screen(sv, s)?;
                // Kinds 3, 7 and one in eight of kind 6 set `inv` by hand, so
                // it describes no tet of these vertices: the screen box stands
                // in for the silhouette, as it does for a tet whose inverse is
                // too ill-conditioned to trust.
                if kind == 3 {
                    let row = (rng.next_u64() % 3) as usize;
                    tet.inv[row][2] = [0.0, 1e-30, -1e-30, 1e-38, -1e-42][(t / 10) % 5];
                    tet.xy = box_hull(&tet.bbox);
                }
                if kind == 7 {
                    // A face edge-on and, along the pixel column nearest the
                    // centre, its coordinate within a few ulps of the
                    // threshold: only rounding decides, in every slice.
                    let row = (rng.next_u64() % 3) as usize;
                    tet.inv[row][2] = [0.0, 1e-30, -1e-30][(t / 10) % 3];
                    let (rx, ry) = (cx.floor() + 0.5 - tet.d.x, cy.floor() + 0.5 - tet.d.y);
                    if rx.abs() > 0.05 {
                        let ulps = (rng.next_u64() % 9) as f32 - 4.0;
                        tet.inv[row][0] =
                            (EPS * (1.0 + ulps * f32::EPSILON) - tet.inv[row][1] * ry) / rx;
                    }
                    tet.xy = box_hull(&tet.bbox);
                }
                if kind == 6 && (t / 10).is_multiple_of(8) {
                    let row = (rng.next_u64() % 3) as usize;
                    let col = (rng.next_u64() % 3) as usize;
                    tet.inv[row][col] =
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38][(t / 80) % 4];
                    tet.xy = box_hull(&tet.bbox);
                }
                Some(tet)
            })
            .collect()
    }

    #[test]
    fn column_runs_lose_no_sample_the_inside_test_accepts() {
        let devices = [Device::Serial, Device::parallel_with_threads(3)];
        let mut rng = TestRng::new(23);
        let mut written = 0usize;
        let mut culled = false;
        let mut straddlers = 0usize;
        // Winning samples of +0.0, -0.0, NaN and subnormal scalar bits.
        let (mut zeros, mut neg_zeros, mut nans, mut subnormals) = (0, 0, 0, 0);
        for case in 0..12 {
            let w = 9 + (rng.next_u64() % 20) as u32;
            // One to three bands; every fourth case fills its last band,
            // the rest leave it short.
            let mut h = BAND + 1 + (rng.next_u64() % (2 * BAND as u64)) as u32;
            if case % 4 == 0 {
                h -= h % BAND;
            } else if h.is_multiple_of(BAND) {
                h += 1;
            }
            // dz from 1e-4 to 10, near and far from the camera.
            let dz = 10f32.powf(between(&mut rng, -4.0, 1.0));
            let z0 = between(&mut rng, 0.05, 40.0);
            let s_total = 48 + (rng.next_u64() % 64) as u32;
            // Whole range, or a pass that begins and ends mid-volume.
            let (s_begin, s_end) = if case % 3 == 0 {
                (0, s_total)
            } else {
                let b = (rng.next_u64() % (s_total as u64 / 2)) as u32;
                (b, b + 16 + (rng.next_u64() % (s_total - b - 15) as u64) as u32)
            };
            let span = (s_end - s_begin) as usize;
            let term = 0.98;
            let opacity: Vec<f32> = (0..w * h)
                .map(|_| if rng.next_u64().is_multiple_of(5) { 0.99 } else { 0.3 })
                .collect();
            // More than dpp's serial cut-off, so the pool really forks.
            let n = 4600;
            let screen = awkward_tets(&mut rng, n, (w, h), (z0, dz), (s_begin, s_end, s_total));
            let active: Vec<u32> = (0..n as u32).map(|t| t * 3 + 1).collect();
            // A sample as compositing reads it: its scalar bits — NaNs as one
            // class, since Rust pins neither the sign nor the payload of a NaN
            // an operation returns (the optimiser may commute the operands of
            // `+`), and every NaN samples the transfer function alike.
            let read = |bits: u32| if f32::from_bits(bits).is_nan() { u32::MAX } else { bits };
            for device in &devices {
                let (want, want_tested) = sampling_stage_reference(
                    device, &active, &screen, &opacity, term, w, h, z0, dz, s_begin, s_end,
                );
                // Each pixel's written slots of the brute-force slab, in slice order.
                let want: Vec<Vec<u32>> = want
                    .into_iter()
                    .map(AtomicU64::into_inner)
                    .collect::<Vec<u64>>()
                    .chunks(span)
                    .map(|slots| {
                        slots.iter().filter(|&&p| p != 0).map(|&p| read(p as u32)).collect()
                    })
                    .collect();
                let (bands, got_tested) = sampling_stage(
                    device, &active, &screen, &opacity, term, w, h, z0, dz, s_begin, s_end,
                );
                assert_eq!(got_tested, want_tested, "case {case} on {device:?}");
                let rows: Vec<usize> = bands.iter().map(|b| b.ends.len() / w as usize).collect();
                let want_rows: Vec<usize> =
                    (0..h).step_by(BAND as usize).map(|y0| (h - y0).min(BAND) as usize).collect();
                assert_eq!(rows, want_rows, "case {case} on {device:?}: band heights");
                let got: Vec<Vec<u32>> = bands
                    .iter()
                    .flat_map(|b| b.pixels().map(|px| px.iter().map(|&bits| read(bits)).collect()))
                    .collect();
                assert_eq!(got.len(), want.len());
                if let Some(pixel) = (0..want.len()).find(|&i| got[i] != want[i]) {
                    panic!(
                        "case {case} on {device:?}: pixel {pixel} holds {:x?}, the oracle {:x?} \
                         ({w}x{h}, z0 {z0}, dz {dz}, slices {s_begin}..{s_end})",
                        got[pixel], want[pixel]
                    );
                }
                for &bits in want.iter().flatten() {
                    let v = f32::from_bits(bits);
                    written += 1;
                    zeros += (bits == 0) as usize;
                    neg_zeros += (bits == 0x8000_0000) as usize;
                    nans += v.is_nan() as usize;
                    subnormals += v.is_subnormal() as usize;
                }
            }
            straddlers += screen
                .iter()
                .flatten()
                .filter_map(|tet| Footprint::of(tet, w, h, z0, dz, (s_begin, s_end)))
                .filter(|f| f.bands().count() > 1)
                .count();
            // The solve is not vacuous: some column of some well-shaped tet
            // is narrower than its bounding box, or empty.
            culled |= screen.iter().flatten().any(|tet| {
                let [bx0, _, by0, _, bz0, bz1] = tet.bbox;
                let s_lo = ((bz0 - z0) / dz).floor().max(0.0) as u32;
                let s_hi = ((bz1 - z0) / dz).ceil().max(0.0) as u32;
                let centre = (bx0.floor() + 0.5, by0.floor() + 0.5);
                column_run(&tet.inv, tet.d, centre, z0, dz, (s_lo, s_hi)) != Some((s_lo, s_hi))
            });
        }
        assert!(written > 50_000, "only {written} samples written: the cases are too thin");
        assert!(culled, "column_run never narrowed a column");
        assert!(straddlers > 1000, "only {straddlers} tets straddle a band edge");
        let specials = [zeros, neg_zeros, nans, subnormals];
        assert!(specials.iter().all(|&n| n > 100), "+0, -0, NaN, subnormal winners: {specials:?}");
    }

    #[test]
    fn row_spans_hold_every_column_the_inside_test_accepts() {
        // Every pixel column of each awkward tet's screen box, on and off the
        // image: if `column_run` and the inside test accept a sample of it,
        // its centre lies in the row's span, margin included.
        let mut rng = TestRng::new(41);
        let (mut accepted, mut on_vertices, mut skipped) = (0usize, 0usize, 0usize);
        for _ in 0..12 {
            let dz = 10f32.powf(between(&mut rng, -4.0, 1.0));
            let z0 = between(&mut rng, 0.05, 40.0);
            let screen = awkward_tets(&mut rng, 2000, (24, 24), (z0, dz), (0, 64, 64));
            for tet in screen.iter().flatten() {
                let [bx0, bx1, by0, by1, bz0, bz1] = tet.bbox;
                let s = (
                    ((bz0 - z0) / dz).floor().max(0.0) as u32,
                    ((bz1 - z0) / dz).ceil().clamp(0.0, 63.0) as u32,
                );
                let boxed = tet.xy == box_hull(&tet.bbox);
                for py in (by0.floor().max(0.0) as u32)..=(by1.ceil().max(0.0) as u32) {
                    let span = tet.row_span(py);
                    for px in bx0.floor() as i32..=bx1.ceil() as i32 {
                        let centre = (px as f32 + 0.5, py as f32 + 0.5);
                        let inside = span.is_some_and(|(a, b)| a <= centre.0 && centre.0 <= b);
                        skipped += !inside as usize;
                        let Some((lo, hi)) = column_run(&tet.inv, tet.d, centre, z0, dz, s) else {
                            continue;
                        };
                        let c = tet.column(centre);
                        let z = |sl: u32| z0 + (sl as f32 + 0.5) * dz;
                        if (lo..=hi).all(|sl| tet.value_at(&c, z(sl)).is_none()) {
                            continue;
                        }
                        accepted += 1;
                        on_vertices += !boxed as usize;
                        assert!(
                            inside,
                            "column ({px}, {py}) has samples but lies outside the row span \
                             {span:?} of {tet:?} (z0 {z0}, dz {dz})"
                        );
                    }
                }
            }
        }
        assert!(
            on_vertices > 20_000,
            "only {on_vertices} of {accepted} accepted columns had vertex silhouettes"
        );
        assert!(skipped > 20_000, "row spans skipped only {skipped} box columns");
    }

    #[test]
    fn stats_equal_the_reference_samplers() {
        let mut sim = Lulesh::new(6);
        for _ in 0..5 {
            sim.step();
        }
        let hexes = sim.hex_mesh();
        let tets = hexes.to_tets();
        let tf = TransferFunction::sparse_features(tets.field("e_p").unwrap().range().unwrap());
        let bounds = hexes.bounds();
        for camera in [Camera::close_view(&bounds), Camera::far_view(&bounds)] {
            for num_passes in [1, 3] {
                let cfg = UvrConfig { depth_samples: 96, num_passes, ..Default::default() };
                let render = |reference: bool| {
                    with_sampler(reference, || {
                        render_unstructured(
                            &Device::Serial,
                            &tets,
                            "e_p",
                            &camera,
                            56,
                            56,
                            &tf,
                            &cfg,
                        )
                    })
                    .unwrap()
                };
                let (want, got) = (render(true), render(false));
                assert!(want.stats.active_pixels > 100.0, "{:?}", want.stats);
                assert_eq!(got.stats.active_pixels, want.stats.active_pixels);
                assert_eq!(
                    got.stats.samples_per_ray.to_bits(),
                    want.stats.samples_per_ray.to_bits()
                );
                assert_eq!(got.stats.cells_spanned.to_bits(), want.stats.cells_spanned.to_bits());
                assert_eq!(got.frame.color, want.frame.color);
            }
        }
    }

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
        assert!(out.stats.active_pixels > 300.0, "{}", out.stats.active_pixels);
        assert!(out.stats.samples_per_ray > 1.0);
        assert!(out.stats.cells_spanned > 1.0);
    }

    #[test]
    fn multi_pass_matches_single_pass() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let tf = tfn(&t);
        let cfg = |num_passes| UvrConfig {
            depth_samples: 60,
            num_passes,
            early_termination: 1.1,
            ..Default::default()
        };
        let render = |cfg: &UvrConfig| {
            render_unstructured(&Device::Serial, &t, "scalar", &cam, 32, 32, &tf, cfg).unwrap()
        };
        let (one, four) = (render(&cfg(1)), render(&cfg(4)));
        assert!(
            one.frame.mean_abs_diff(&four.frame) < 1e-4,
            "diff {}",
            one.frame.mean_abs_diff(&four.frame)
        );
        // Multi-pass uses a quarter of the buffer.
        assert!(
            sample_buffer_bytes(32, 32, &cfg(4)) * 3 < sample_buffer_bytes(32, 32, &cfg(1)) * 4
        );
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
    fn zero_depth_samples_is_an_error() {
        let t = small_tets();
        let cam = Camera::close_view(&t.bounds());
        let cfg = UvrConfig { depth_samples: 0, ..Default::default() };
        let err = render_unstructured(&Device::Serial, &t, "scalar", &cam, 16, 16, &tfn(&t), &cfg)
            .unwrap_err();
        assert_eq!(err, UvrError::NoSamples);
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
