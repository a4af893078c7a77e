//! X012 fixture for signatures that carry a `;`: `stamp` takes and returns
//! array types, so an item scan that gives up at the first `;` takes it for
//! a body-less trait method, never adds it to the call graph, and `frame`
//! looks clock-free. The extractor skips `;` nested in `[...]` / `(...)`.

use std::time::Instant as Tick;

pub fn stamp(dims: [usize; 3]) -> [f64; 2] {
    let t = Tick::now();
    [dims[0] as f64, t.elapsed().as_secs_f64()]
}

pub fn frame() -> f64 {
    stamp([4, 4, 4])[1]
}
