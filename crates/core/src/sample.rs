//! Experiment records: one row per rendering test (the corpus the models
//! are fitted on).

use render::RenderStats;

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
#[derive(Debug, Clone, Copy)]
pub struct RenderSample {
    /// Renderer that produced the measurement.
    pub renderer: RendererKind,
    /// Device name ("serial" / "parallel").
    pub device: &'static str,
    /// Simulation-code label the data came from.
    pub source: &'static str,
    /// The model inputs (O, AP, VO, PPT, SPR, CS) and the build and render
    /// seconds: what the render reported, or what
    /// [`crate::mapping::map_inputs`] predicts (zero seconds).
    pub stats: RenderStats,
    /// Full image pixel count.
    pub pixels: f64,
    /// MPI tasks of the configuration the sample belongs to.
    pub tasks: usize,
}

/// Which exchange a compositing measurement ran; defined by the exchange
/// layer, which dispatches on it.
pub use compositing::CompositeWire;

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

/// A borrowed measurement of any kind: what a model family's feature row
/// reads (see [`crate::models::Family::features`]).
#[derive(Debug, Clone, Copy)]
pub enum Obs<'a> {
    /// A single-node render measurement.
    Render(&'a RenderSample),
    /// An image-compositing measurement.
    Composite(&'a CompositeSample),
}

/// An owned measurement of any kind: what the online refit windows hold.
#[derive(Debug, Clone)]
pub enum Sample {
    /// A single-node render measurement.
    Render(RenderSample),
    /// An image-compositing measurement.
    Composite(CompositeSample),
}

impl<'a> From<&'a Sample> for Obs<'a> {
    fn from(s: &'a Sample) -> Obs<'a> {
        match s {
            Sample::Render(s) => Obs::Render(s),
            Sample::Composite(s) => Obs::Composite(s),
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
