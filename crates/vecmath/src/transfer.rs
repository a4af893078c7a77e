//! Scalar transfer functions: the color/opacity maps that volume rendering
//! applies to every sample (Chapter III) and the pseudocolor maps used by
//! surface renderers.

use crate::color::Color;

/// A piecewise-linear transfer function over a scalar range.
///
/// Control points map a normalized scalar in `[0,1]` to an RGBA color; the
/// lookup is pre-sampled into a table (like EAVL's texture-memory color
/// lookups) so per-sample evaluation is one index + lerp.
#[derive(Debug, Clone)]
pub struct TransferFunction {
    /// Scalar range mapped onto `[0,1]`.
    pub range: (f32, f32),
    table: Vec<Color>,
    /// Forward differences of `table`, kept in step with it (see
    /// [`forward_differences`]).
    delta: Vec<Color>,
}

impl TransferFunction {
    pub const TABLE_SIZE: usize = 256;

    /// Build from control points `(position in [0,1], color)`. Points are
    /// sorted internally; at least one point is required.
    ///
    /// # Panics
    /// If `points` is empty or a position is NaN.
    #[expect(clippy::unwrap_used, reason = "control point positions are never NaN")]
    pub fn from_points(range: (f32, f32), mut points: Vec<(f32, Color)>) -> TransferFunction {
        assert!(!points.is_empty(), "transfer function needs control points");
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut table = Vec::with_capacity(Self::TABLE_SIZE);
        for i in 0..Self::TABLE_SIZE {
            let t = i as f32 / (Self::TABLE_SIZE - 1) as f32;
            table.push(sample_points(&points, t));
        }
        let delta = forward_differences(&table);
        TransferFunction { range, table, delta }
    }

    /// The "cool to warm" pseudocolor map common in VisIt/ParaView, with a
    /// linearly increasing opacity ramp — the paper's default look.
    pub fn cool_warm(range: (f32, f32)) -> TransferFunction {
        TransferFunction::from_points(
            range,
            vec![
                (0.0, Color::new(0.23, 0.30, 0.75, 0.0)),
                (0.5, Color::new(0.87, 0.87, 0.87, 0.2)),
                (1.0, Color::new(0.70, 0.02, 0.15, 0.7)),
            ],
        )
    }

    /// A sparse transfer function (mostly transparent with opaque features),
    /// typical for volume rendering density/temperature fields.
    pub fn sparse_features(range: (f32, f32)) -> TransferFunction {
        TransferFunction::from_points(
            range,
            vec![
                (0.00, Color::new(0.0, 0.0, 0.2, 0.0)),
                (0.30, Color::new(0.0, 0.4, 0.8, 0.02)),
                (0.55, Color::new(0.1, 0.9, 0.3, 0.0)),
                (0.70, Color::new(1.0, 0.9, 0.1, 0.35)),
                (1.00, Color::new(1.0, 0.2, 0.0, 0.9)),
            ],
        )
    }

    /// Opaque rainbow map for pseudocolor surface plots.
    pub fn rainbow(range: (f32, f32)) -> TransferFunction {
        TransferFunction::from_points(
            range,
            vec![
                (0.00, Color::rgb(0.0, 0.0, 1.0)),
                (0.25, Color::rgb(0.0, 1.0, 1.0)),
                (0.50, Color::rgb(0.0, 1.0, 0.0)),
                (0.75, Color::rgb(1.0, 1.0, 0.0)),
                (1.00, Color::rgb(1.0, 0.0, 0.0)),
            ],
        )
    }

    /// Look up the color for a raw scalar value: [`Self::entry`] at
    /// [`Self::locate`].
    #[inline]
    pub fn sample(&self, scalar: f32) -> Color {
        self.entry(self.locate(scalar))
    }

    /// Where a raw scalar falls in the table: the entry index and the
    /// fraction toward the next entry. A degenerate or inverted range maps
    /// every scalar to the middle of the table.
    #[inline]
    pub fn locate(&self, scalar: f32) -> (u32, f32) {
        let (lo, hi) = self.range;
        let t = if hi > lo { (scalar - lo) / (hi - lo) } else { 0.5 };
        Self::locate_normalized(t)
    }

    /// The table position of a normalized scalar, clamped to `[0,1]`: the
    /// whole and fractional parts of `f = t·255`.
    ///
    /// The whole part is `f as u32`, taken without the cast, which SSE2 can
    /// only do one value at a time: adding 2²³ to an `f` in `[0, 255]` rounds
    /// it to the nearest integer and leaves that integer in the low mantissa
    /// bits, and one compare takes a round-up back down. A NaN lands on entry
    /// 0 with a NaN fraction, as the cast put it. The same bits as the cast
    /// for every `t`, so the lanes of a batch take it in packed registers.
    #[inline]
    fn locate_normalized(t: f32) -> (u32, f32) {
        let t = t.clamp(0.0, 1.0);
        let f = t * (Self::TABLE_SIZE - 1) as f32;
        let nearest = (f + 8_388_608.0).to_bits() & 0x007f_ffff;
        let i = nearest - ((nearest as i32 as f32) > f) as u32;
        let i = if f.is_nan() { 0 } else { i };
        (i, f - i as i32 as f32)
    }

    /// The color at a table position from [`Self::locate`].
    ///
    /// `table[i] + delta[i]·frac` is `table[i].lerp(table[i + 1], frac)`
    /// bit for bit, with no branch for the last entry: `i` reaches 255 only
    /// at `t = 1`, where `frac` is 0.
    ///
    /// # Panics
    /// If `i` is not below [`Self::TABLE_SIZE`], which `locate` never returns.
    #[inline]
    pub fn entry(&self, (i, frac): (u32, f32)) -> Color {
        let i = i as usize;
        self.table[i].add(self.delta[i].scale(frac))
    }

    /// Scale every opacity by `s`, used to correct opacity for sample
    /// distance (`alpha' = 1 - (1 - alpha)^(dt/dt_ref)` is approximated
    /// linearly for small alphas, as EAVL does).
    pub fn with_opacity_scale(mut self, s: f32) -> TransferFunction {
        for c in &mut self.table {
            c.a = (c.a * s).min(1.0);
        }
        self.delta = forward_differences(&self.table);
        self
    }
}

/// `delta[i] = table[i + 1] + table[i]·(−1)`, the difference `Color::lerp`
/// takes, so adding `delta[i]·frac` to `table[i]` repeats its arithmetic.
/// The last entry is −0.0 in every channel: `x + (−0.0)·0` is `x` for every
/// `x`, signed zeros included, where +0.0 would turn a −0.0 into +0.0.
fn forward_differences(table: &[Color]) -> Vec<Color> {
    let mut delta: Vec<Color> = table.windows(2).map(|w| w[1].add(w[0].scale(-1.0))).collect();
    delta.push(Color::new(-0.0, -0.0, -0.0, -0.0));
    delta
}

fn sample_points(points: &[(f32, Color)], t: f32) -> Color {
    if t <= points[0].0 {
        return points[0].1;
    }
    if t >= points[points.len() - 1].0 {
        return points[points.len() - 1].1;
    }
    for w in points.windows(2) {
        let (p0, c0) = w[0];
        let (p1, c1) = w[1];
        if t >= p0 && t <= p1 {
            let f = if p1 > p0 { (t - p0) / (p1 - p0) } else { 0.0 };
            return c0.lerp(c1, f);
        }
    }
    points[points.len() - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_control_points() {
        let tf = TransferFunction::from_points(
            (0.0, 10.0),
            vec![(0.0, Color::rgb(0.0, 0.0, 1.0)), (1.0, Color::rgb(1.0, 0.0, 0.0))],
        );
        let lo = tf.sample(0.0);
        let hi = tf.sample(10.0);
        assert!((lo.b - 1.0).abs() < 1e-2 && lo.r < 1e-2);
        assert!((hi.r - 1.0).abs() < 1e-2 && hi.b < 1e-2);
    }

    #[test]
    fn midpoint_is_blend() {
        let tf = TransferFunction::from_points(
            (0.0, 1.0),
            vec![(0.0, Color::new(0.0, 0.0, 0.0, 0.0)), (1.0, Color::new(1.0, 1.0, 1.0, 1.0))],
        );
        let mid = tf.sample(0.5);
        assert!((mid.r - 0.5).abs() < 1e-2);
        assert!((mid.a - 0.5).abs() < 1e-2);
    }

    #[test]
    fn out_of_range_clamps() {
        let tf = TransferFunction::rainbow((0.0, 1.0));
        assert_eq!(tf.sample(-5.0).to_rgba8(), tf.sample(0.0).to_rgba8());
        assert_eq!(tf.sample(50.0).to_rgba8(), tf.sample(1.0).to_rgba8());
    }

    #[test]
    fn degenerate_range_is_safe() {
        let tf = TransferFunction::rainbow((3.0, 3.0));
        let c = tf.sample(3.0);
        assert!(c.r.is_finite() && c.g.is_finite() && c.b.is_finite());
    }

    #[test]
    fn opacity_scale_scales_alpha_only() {
        let tf = TransferFunction::from_points(
            (0.0, 1.0),
            vec![(0.0, Color::new(0.5, 0.5, 0.5, 0.8)), (1.0, Color::new(0.5, 0.5, 0.5, 0.8))],
        )
        .with_opacity_scale(0.5);
        let c = tf.sample(0.5);
        assert!((c.a - 0.4).abs() < 1e-3);
        assert!((c.r - 0.5).abs() < 1e-3);
    }

    /// The lookup before the forward-difference table: a branch for the last
    /// entry, `Color::lerp` between neighbours everywhere else.
    fn sample_lerp(tf: &TransferFunction, scalar: f32) -> Color {
        let (lo, hi) = tf.range;
        let t = if hi > lo { (scalar - lo) / (hi - lo) } else { 0.5 };
        let t = t.clamp(0.0, 1.0);
        let f = t * (TransferFunction::TABLE_SIZE - 1) as f32;
        let i = f as usize;
        let frac = f - i as f32;
        if i + 1 < TransferFunction::TABLE_SIZE {
            tf.table[i].lerp(tf.table[i + 1], frac)
        } else {
            tf.table[TransferFunction::TABLE_SIZE - 1]
        }
    }

    /// `locate_normalized` takes the whole part the way `f as u32` does, on
    /// either side of every table entry and every half-way point (where the
    /// rounding add ties), on a sweep of the whole `[0, 1]` input range, and
    /// on NaN, ±0 and the values the clamp catches.
    #[test]
    fn whole_part_is_the_cast() {
        let cast = |t: f32| {
            let f = t.clamp(0.0, 1.0) * (TransferFunction::TABLE_SIZE - 1) as f32;
            let i = f as u32;
            (i, (f - i as f32).to_bits())
        };
        let near_entries = (0..=2 * (TransferFunction::TABLE_SIZE - 1) as u32).flat_map(|h| {
            let bits = (h as f32 / 2.0 / (TransferFunction::TABLE_SIZE - 1) as f32).to_bits();
            bits.saturating_sub(64)..bits + 64
        });
        let sweep = (0..=1.0f32.to_bits()).step_by(4099);
        let special = [f32::NAN, -f32::NAN, 0.0, -0.0, -1.0, 2.0, f32::INFINITY, f32::NEG_INFINITY]
            .map(f32::to_bits);
        for bits in near_entries.chain(sweep).chain(special) {
            let t = f32::from_bits(bits);
            let (i, frac) = TransferFunction::locate_normalized(t);
            assert_eq!((i, frac.to_bits()), cast(t), "t = {t:?} ({bits:#010x})");
        }
    }

    fn color_bits(c: Color) -> [u32; 4] {
        [c.r.to_bits(), c.g.to_bits(), c.b.to_bits(), c.a.to_bits()]
    }

    /// An `f32` of the given kind: any bit pattern (NaN and ±inf included), a
    /// special value, a subnormal, or a value in or just outside `lo..hi`.
    fn scalar_of(kind: u8, bits: u32, u: f32, (lo, hi): (f32, f32)) -> f32 {
        const SPECIAL: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        match kind {
            0 => f32::from_bits(bits),
            1 => SPECIAL[bits as usize % SPECIAL.len()],
            2 => f32::from_bits(bits & 0x807f_ffff),
            _ => lo + u * (hi - lo),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `sample` through the forward-difference table equals the `lerp`
        /// formula bit for bit: for any scalar, over ordinary, degenerate,
        /// inverted and arbitrary-bit ranges, on tables built from random
        /// control points (some channels exactly 0) and then opacity-scaled by
        /// any factor (negative and non-finite ones included, which put −0.0
        /// and clamped alphas in the table). The split lookup the volume
        /// ray caster takes in two loops — `locate`, then `entry` — gives
        /// the same bits, from an index inside the table.
        #[test]
        fn forward_difference_lookup_is_the_lerp(
            points in collection::vec(
                (0.0f32..1.0, 0u8..16, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
                1..7,
            ),
            scale in (0u8..5, -2.0f32..8.0),
            range in (0u8..4, any::<u64>(), -100.0f32..100.0, 0.0f32..50.0),
            scalars in collection::vec((0u8..6, any::<u32>(), -0.25f32..1.25), 64..65),
        ) {
            let points = points
                .into_iter()
                .map(|(p, zeros, r, g, b, a)| {
                    // Channel `k` is exactly 0 where bit `k` of `zeros` is set.
                    let ch = |k: u8, v: f32| if zeros & (1 << k) != 0 { 0.0 } else { v };
                    (p, Color::new(ch(0, r), ch(1, g), ch(2, b), ch(3, a)))
                })
                .collect();
            let (kind, bits, x, w) = range;
            let range = match kind {
                0 => (x, x + w),
                1 => (x, x),
                2 => (x + w, x),
                _ => (f32::from_bits(bits as u32), f32::from_bits((bits >> 32) as u32)),
            };
            let mut tf = TransferFunction::from_points(range, points);
            tf = match scale {
                (0, _) => tf,
                (1, _) => tf.with_opacity_scale(4.0),
                (2, s) => tf.with_opacity_scale(s),
                (3, s) => tf.with_opacity_scale(-s.abs()),
                (_, s) => tf.with_opacity_scale([f32::NAN, f32::INFINITY, 0.0][s.to_bits() as usize % 3]),
            };
            for (kind, bits, u) in scalars {
                let v = scalar_of(kind, bits, u, range);
                let (got, want) = (color_bits(tf.sample(v)), color_bits(sample_lerp(&tf, v)));
                prop_assert_eq!(got, want, "scalar {v:?}, range {range:?}");
                let at = tf.locate(v);
                prop_assert!((at.0 as usize) < TransferFunction::TABLE_SIZE, "{at:?}");
                prop_assert_eq!(color_bits(tf.entry(at)), got, "scalar {v:?}, range {range:?}");
            }
        }
    }
}
