//! Experiment records: one row per rendering test (the corpus the models
//! are fitted on), with CSV serialization for offline analysis.

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

impl RenderSample {
    /// Column header matching [`RenderSample::to_csv_row`].
    pub const CSV_HEADER: &'static str = "renderer,device,source,objects,active_pixels,visible_objects,pixels_per_triangle,samples_per_ray,cells_spanned,pixels,tasks,build_seconds,render_seconds";

    /// Serialize as one CSV row in `CSV_HEADER` column order.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.renderer.name(),
            self.device,
            self.source,
            self.objects,
            self.active_pixels,
            self.visible_objects,
            self.pixels_per_triangle,
            self.samples_per_ray,
            self.cells_spanned,
            self.pixels,
            self.tasks,
            self.build_seconds,
            self.render_seconds
        )
    }

    /// Parse a row written by [`RenderSample::to_csv_row`].
    pub fn from_csv_row(row: &str) -> Option<RenderSample> {
        let f: Vec<&str> = row.split(',').collect();
        if f.len() != 13 {
            return None;
        }
        Some(RenderSample {
            renderer: RendererKind::parse(f[0])?,
            device: f[1].to_string(),
            source: f[2].to_string(),
            objects: f[3].parse().ok()?,
            active_pixels: f[4].parse().ok()?,
            visible_objects: f[5].parse().ok()?,
            pixels_per_triangle: f[6].parse().ok()?,
            samples_per_ray: f[7].parse().ok()?,
            cells_spanned: f[8].parse().ok()?,
            pixels: f[9].parse().ok()?,
            tasks: f[10].parse().ok()?,
            build_seconds: f[11].parse().ok()?,
            render_seconds: f[12].parse().ok()?,
        })
    }
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

    /// Inverse of [`CompositeWire::name`].
    pub fn parse(s: &str) -> Option<CompositeWire> {
        match s {
            "dense" => Some(CompositeWire::Dense),
            "compressed" => Some(CompositeWire::Compressed),
            "dfb" => Some(CompositeWire::Dfb),
            _ => None,
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

impl CompositeSample {
    /// Column header matching [`CompositeSample::to_csv_row`].
    pub const CSV_HEADER: &'static str = "tasks,pixels,avg_active_pixels,seconds,wire";

    /// Serialize as one CSV row in `CSV_HEADER` column order.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.tasks,
            self.pixels,
            self.avg_active_pixels,
            self.seconds,
            self.wire.name()
        )
    }

    /// Parse a row. Legacy 4-column rows (no `wire` field) predate the tag
    /// and were produced by the compressed-by-default radix-k study, so they
    /// parse as [`CompositeWire::Compressed`].
    pub fn from_csv_row(row: &str) -> Option<CompositeSample> {
        let f: Vec<&str> = row.split(',').collect();
        if f.len() != 4 && f.len() != 5 {
            return None;
        }
        Some(CompositeSample {
            tasks: f[0].parse().ok()?,
            pixels: f[1].parse().ok()?,
            avg_active_pixels: f[2].parse().ok()?,
            seconds: f[3].parse().ok()?,
            wire: match f.get(4) {
                Some(w) => CompositeWire::parse(w)?,
                None => CompositeWire::Compressed,
            },
        })
    }
}

/// One per-pass timing measurement from the render-graph executor: a pass
/// name, the work units the pass reported (occlusion probes cast, shadow
/// rays, live pixels shaded), and the measured seconds. These are the refit
/// features behind pass-granular admission — the scheduler predicts what an
/// individual pass would cost before deciding to run or shed it.
#[derive(Debug, Clone)]
pub struct PassSample {
    /// Graph pass name (e.g. "ambient_occlusion", "shadows").
    pub pass: String,
    /// Work units the pass reported to the executor.
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
    /// A render-graph pass timing.
    Pass(&'a PassSample),
}

/// An owned measurement of any kind: what the online refit windows hold.
#[derive(Debug, Clone)]
pub enum Sample {
    /// A single-node render measurement.
    Render(RenderSample),
    /// An image-compositing measurement.
    Composite(CompositeSample),
    /// A render-graph pass timing.
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

/// Write samples to CSV text.
pub fn to_csv(samples: &[RenderSample]) -> String {
    let mut out = String::from(RenderSample::CSV_HEADER);
    out.push('\n');
    for s in samples {
        out.push_str(&s.to_csv_row());
        out.push('\n');
    }
    out
}

/// Parse CSV text (header optional).
pub fn from_csv(text: &str) -> Vec<RenderSample> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with("renderer,"))
        .filter_map(RenderSample::from_csv_row)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RenderSample {
        RenderSample {
            renderer: RendererKind::RayTracing,
            device: "parallel".into(),
            source: "kripke".into(),
            objects: 12000.0,
            active_pixels: 3000.5,
            visible_objects: 100.0,
            pixels_per_triangle: 4.0,
            samples_per_ray: 0.0,
            cells_spanned: 0.0,
            pixels: 65536.0,
            tasks: 8,
            build_seconds: 0.01,
            render_seconds: 0.05,
        }
    }

    #[test]
    fn csv_round_trip() {
        let s = sample();
        let row = s.to_csv_row();
        let back = RenderSample::from_csv_row(&row).unwrap();
        assert_eq!(back.renderer, s.renderer);
        assert_eq!(back.device, s.device);
        assert_eq!(back.objects, s.objects);
        assert_eq!(back.tasks, s.tasks);
        assert_eq!(back.render_seconds, s.render_seconds);
    }

    #[test]
    fn csv_text_round_trip_with_header() {
        let text = to_csv(&[sample(), sample()]);
        let parsed = from_csv(&text);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn malformed_rows_skipped() {
        assert!(RenderSample::from_csv_row("nope").is_none());
        assert!(RenderSample::from_csv_row("bad,kind,x,1,2,3,4,5,6,7,8,9,10").is_none());
    }

    #[test]
    fn composite_round_trip() {
        let c = CompositeSample {
            tasks: 16,
            pixels: 1e6,
            avg_active_pixels: 4e4,
            seconds: 0.02,
            wire: CompositeWire::Dense,
        };
        let back = CompositeSample::from_csv_row(&c.to_csv_row()).unwrap();
        assert_eq!(back.tasks, 16);
        assert_eq!(back.seconds, 0.02);
        assert_eq!(back.wire, CompositeWire::Dense);
    }

    #[test]
    fn legacy_composite_rows_parse_as_compressed() {
        // Pre-tag corpora came from the compressed-by-default radix-k study.
        let back = CompositeSample::from_csv_row("16,1000000,40000,0.02").unwrap();
        assert_eq!(back.wire, CompositeWire::Compressed);
        assert_eq!(back.tasks, 16);
        assert!(CompositeSample::from_csv_row("16,1e6,4e4,0.02,teleported").is_none());
        assert!(CompositeSample::from_csv_row("16,1e6,4e4").is_none());
    }

    #[test]
    fn dfb_wire_rows_round_trip() {
        let c = CompositeSample {
            tasks: 64,
            pixels: 65536.0,
            avg_active_pixels: 9000.0,
            seconds: 0.001,
            wire: CompositeWire::Dfb,
        };
        let back = CompositeSample::from_csv_row(&c.to_csv_row()).unwrap();
        assert_eq!(back.wire, CompositeWire::Dfb);
        assert_eq!(CompositeWire::parse("dfb"), Some(CompositeWire::Dfb));
    }

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
