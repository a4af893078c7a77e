//! Experiment records: one row per rendering test (the corpus the models
//! are fitted on).

/// Which rendering technique a sample measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RendererKind {
    /// Ray tracing (BVH build + per-pixel traversal).
    RayTracing,
    /// Tile-binned rasterization.
    Rasterization,
    /// Ray-cast volume rendering.
    VolumeRendering,
}

impl RendererKind {
    /// Stable lowercase name used in CSV rows and report tables.
    pub fn name(&self) -> &'static str {
        match self {
            RendererKind::RayTracing => "ray_tracing",
            RendererKind::Rasterization => "rasterization",
            RendererKind::VolumeRendering => "volume_rendering",
        }
    }

    /// Inverse of [`RendererKind::name`].
    pub fn parse(s: &str) -> Option<RendererKind> {
        match s {
            "ray_tracing" => Some(RendererKind::RayTracing),
            "rasterization" => Some(RendererKind::Rasterization),
            "volume_rendering" => Some(RendererKind::VolumeRendering),
            _ => None,
        }
    }
}

/// One single-node rendering measurement with its observed model inputs.
#[derive(Debug, Clone)]
pub struct RenderSample {
    /// Renderer that produced the measurement.
    pub renderer: RendererKind,
    /// Device name ("serial" / "parallel").
    pub device: String,
    /// Simulation-code label the data came from.
    pub source: String,
    /// O: objects (triangles or cells).
    pub objects: f64,
    /// AP: active pixels.
    pub active_pixels: f64,
    /// VO: visible objects (rasterization).
    pub visible_objects: f64,
    /// PPT: pixels per triangle (rasterization).
    pub pixels_per_triangle: f64,
    /// SPR: samples per ray (volume rendering).
    pub samples_per_ray: f64,
    /// CS: cells spanned (volume rendering).
    pub cells_spanned: f64,
    /// Full image pixel count.
    pub pixels: f64,
    /// MPI tasks of the configuration the sample belongs to.
    pub tasks: usize,
    /// Acceleration-structure build seconds (ray tracing; 0 otherwise).
    pub build_seconds: f64,
    /// Render seconds (excluding build).
    pub render_seconds: f64,
}

/// Which exchange the wire bytes of a compositing measurement traveled as:
/// dense full-image fragments, run-length-compressed active-pixel spans
/// (the default wire path since the RLE compositing change), or the
/// asynchronous per-tile Distributed FrameBuffer exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompositeWire {
    /// Full-image fragments, uncompressed.
    Dense,
    #[default]
    /// Run-length-encoded active-pixel spans.
    Compressed,
    /// Message-driven per-tile exchange (compressed fragments, no barrier).
    Dfb,
}

impl CompositeWire {
    /// Stable lowercase name used in CSV rows.
    pub fn name(&self) -> &'static str {
        match self {
            CompositeWire::Dense => "dense",
            CompositeWire::Compressed => "compressed",
            CompositeWire::Dfb => "dfb",
        }
    }
}

/// One image-compositing measurement.
#[derive(Debug, Clone)]
pub struct CompositeSample {
    /// Ranks participating in the exchange.
    pub tasks: usize,
    /// Full image pixel count.
    pub pixels: f64,
    /// Average active pixels per rank.
    pub avg_active_pixels: f64,
    /// Simulated compositing seconds (compute measured + wire modeled).
    pub seconds: f64,
    /// Exchange the measurement used on the wire.
    pub wire: CompositeWire,
}

/// One per-pass timing measurement: a ray-tracer phase record's name, the
/// work units it reported (occlusion probes cast, shadow rays, live pixels
/// shaded), and its measured seconds. These are the refit features behind
/// pass-granular pricing — `sched::ladder` predicts what shedding an
/// individual pass would save (`repro graph` prices it).
#[derive(Debug, Clone)]
pub struct PassSample {
    /// Phase name (e.g. "ambient_occlusion", "shadows").
    pub pass: String,
    /// Work units the phase recorded.
    pub work_units: f64,
    /// Measured pass seconds.
    pub seconds: f64,
}

/// A borrowed measurement of any kind: what a model family's feature row
/// reads (see [`crate::models::Family::features`]).
#[derive(Debug, Clone, Copy)]
pub enum Obs<'a> {
    /// A single-node render measurement.
    Render(&'a RenderSample),
    /// An image-compositing measurement.
    Composite(&'a CompositeSample),
    /// A ray-tracer phase timing.
    Pass(&'a PassSample),
}

/// An owned measurement of any kind: what the online refit windows hold.
#[derive(Debug, Clone)]
pub enum Sample {
    /// A single-node render measurement.
    Render(RenderSample),
    /// An image-compositing measurement.
    Composite(CompositeSample),
    /// A ray-tracer phase timing.
    Pass(PassSample),
}

impl<'a> From<&'a Sample> for Obs<'a> {
    fn from(s: &'a Sample) -> Obs<'a> {
        match s {
            Sample::Render(s) => Obs::Render(s),
            Sample::Composite(s) => Obs::Composite(s),
            Sample::Pass(s) => Obs::Pass(s),
        }
    }
}

impl<'a> From<&'a RenderSample> for Obs<'a> {
    fn from(s: &'a RenderSample) -> Obs<'a> {
        Obs::Render(s)
    }
}

impl<'a> From<&'a CompositeSample> for Obs<'a> {
    fn from(s: &'a CompositeSample) -> Obs<'a> {
        Obs::Composite(s)
    }
}

impl<'a> From<&'a PassSample> for Obs<'a> {
    fn from(s: &'a PassSample) -> Obs<'a> {
        Obs::Pass(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderer_names_round_trip() {
        for k in
            [RendererKind::RayTracing, RendererKind::Rasterization, RendererKind::VolumeRendering]
        {
            assert_eq!(RendererKind::parse(k.name()), Some(k));
        }
        assert_eq!(RendererKind::parse("quantum"), None);
    }
}
