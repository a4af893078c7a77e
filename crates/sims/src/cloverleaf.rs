//! CloverLeaf3D stand-in: compressible Euler equations on a rectilinear grid,
//! integrated with a (diffusive but unconditionally simple) Lax-Friedrichs
//! finite-volume scheme. The canonical Clover problem is a box of hot dense
//! gas expanding into a quiescent background.

use crate::ProxySim;
use mesh::field::structured_cell_to_point;
use mesh::{Field, RectilinearGrid};
use rayon::prelude::*;
use vecmath::{Aabb, Vec3};

const GAMMA: f32 = 1.4;

/// Conserved state per cell: density, momentum, total energy density.
#[derive(Debug, Clone, Copy, Default)]
struct State {
    rho: f32,
    mx: f32,
    my: f32,
    mz: f32,
    e: f32,
}

impl State {
    fn pressure(&self) -> f32 {
        let ke =
            0.5 * (self.mx * self.mx + self.my * self.my + self.mz * self.mz) / self.rho.max(1e-12);
        ((GAMMA - 1.0) * (self.e - ke)).max(1e-8)
    }

    fn sound_speed(&self) -> f32 {
        (GAMMA * self.pressure() / self.rho.max(1e-12)).sqrt()
    }
}

/// The CloverLeaf3D proxy.
pub struct Cloverleaf {
    cells: [usize; 3],
    dx: f32,
    state: Vec<State>,
    cycle: u64,
    time: f64,
}

impl Cloverleaf {
    /// Clover problem on an `n^3` grid over the unit cube: a dense energetic
    /// box in one corner.
    pub fn new(n: usize) -> Cloverleaf {
        Self::with_dims([n, n, n])
    }

    pub fn with_dims(cells: [usize; 3]) -> Cloverleaf {
        let n = cells[0] * cells[1] * cells[2];
        let dx = 1.0 / cells[0] as f32;
        let mut state = vec![State { rho: 0.2, mx: 0.0, my: 0.0, mz: 0.0, e: 0.5 }; n];
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    let x = (i as f32 + 0.5) / cells[0] as f32;
                    let y = (j as f32 + 0.5) / cells[1] as f32;
                    let z = (k as f32 + 0.5) / cells[2] as f32;
                    if x < 0.3 && y < 0.3 && z < 0.3 {
                        let c = (k * cells[1] + j) * cells[0] + i;
                        state[c] = State { rho: 1.0, mx: 0.0, my: 0.0, mz: 0.0, e: 2.5 };
                    }
                }
            }
        }
        Cloverleaf { cells, dx, state, cycle: 0, time: 0.0 }
    }

    /// CFL-limited time step.
    fn dt(&self) -> f32 {
        let max_speed = self
            .state
            .iter()
            .map(|s| {
                let u = (s.mx.abs() + s.my.abs() + s.mz.abs()) / s.rho.max(1e-12);
                u + s.sound_speed()
            })
            .fold(1e-6f32, f32::max);
        0.3 * self.dx / max_speed
    }

    /// Density field, cell-centered.
    pub fn density(&self) -> Vec<f32> {
        self.state.iter().map(|s| s.rho).collect()
    }

    /// Specific internal energy field, cell-centered.
    pub fn energy(&self) -> Vec<f32> {
        self.state
            .iter()
            .map(|s| {
                let ke = 0.5 * (s.mx * s.mx + s.my * s.my + s.mz * s.mz) / s.rho.max(1e-12);
                (s.e - ke) / s.rho.max(1e-12)
            })
            .collect()
    }

    /// Pressure field, cell-centered.
    pub fn pressure(&self) -> Vec<f32> {
        self.state.iter().map(|s| s.pressure()).collect()
    }

    /// The mesh with current fields attached (cell-centered density,
    /// energy, pressure; point-averaged copies for point-based renderers).
    pub fn grid(&self) -> RectilinearGrid {
        let mut g = RectilinearGrid::uniform(self.cells, Aabb::from_corners(Vec3::ZERO, Vec3::ONE));
        g.fields.push(Field::cell("density", self.density()));
        g.fields.push(Field::cell("energy", self.energy()));
        g.fields.push(Field::cell("pressure", self.pressure()));
        let pd = self.cells.map(|n| n + 1);
        g.fields.push(Field::point("density_p", structured_cell_to_point(pd, &self.density())));
        g.fields.push(Field::point("energy_p", structured_cell_to_point(pd, &self.energy())));
        g
    }

    /// Total mass (conserved by the scheme up to boundary flux).
    pub fn total_mass(&self) -> f64 {
        let vol = (self.dx as f64).powi(3);
        self.state.iter().map(|s| s.rho as f64 * vol).sum()
    }
}

impl ProxySim for Cloverleaf {
    fn name(&self) -> &'static str {
        "CloverLeaf3D"
    }

    fn step(&mut self) {
        let dt = self.dt();
        let [nx, ny, nz] = self.cells;
        let dtdx = dt / self.dx;
        let old = &self.state;

        // Lax-Friedrichs: U' = avg(neighbors) - dt/dx * (F_{i+1} - F_{i-1})/2
        // per axis, with reflecting boundaries.
        let new: Vec<State> = (0..old.len())
            .into_par_iter()
            .map(|c| {
                let i = c % nx;
                let j = (c / nx) % ny;
                let k = c / (nx * ny);
                let at = |ii: isize, jj: isize, kk: isize| -> &State {
                    let ii = ii.clamp(0, nx as isize - 1) as usize;
                    let jj = jj.clamp(0, ny as isize - 1) as usize;
                    let kk = kk.clamp(0, nz as isize - 1) as usize;
                    &old[(kk * ny + jj) * nx + ii]
                };
                let (i, j, k) = (i as isize, j as isize, k as isize);
                let xp = at(i + 1, j, k);
                let xm = at(i - 1, j, k);
                let yp = at(i, j + 1, k);
                let ym = at(i, j - 1, k);
                let zp = at(i, j, k + 1);
                let zm = at(i, j, k - 1);

                let avg =
                    |f: fn(&State) -> f32| (f(xp) + f(xm) + f(yp) + f(ym) + f(zp) + f(zm)) / 6.0;

                // Fluxes per axis of the conserved variables.
                let flux_x = |s: &State| {
                    let u = s.mx / s.rho.max(1e-12);
                    let p = s.pressure();
                    [s.mx, s.mx * u + p, s.my * u, s.mz * u, (s.e + p) * u]
                };
                let flux_y = |s: &State| {
                    let v = s.my / s.rho.max(1e-12);
                    let p = s.pressure();
                    [s.my, s.mx * v, s.my * v + p, s.mz * v, (s.e + p) * v]
                };
                let flux_z = |s: &State| {
                    let w = s.mz / s.rho.max(1e-12);
                    let p = s.pressure();
                    [s.mz, s.mx * w, s.my * w, s.mz * w + p, (s.e + p) * w]
                };

                let fx_p = flux_x(xp);
                let fx_m = flux_x(xm);
                let fy_p = flux_y(yp);
                let fy_m = flux_y(ym);
                let fz_p = flux_z(zp);
                let fz_m = flux_z(zm);

                let mut u =
                    [avg(|s| s.rho), avg(|s| s.mx), avg(|s| s.my), avg(|s| s.mz), avg(|s| s.e)];
                for q in 0..5 {
                    u[q] -= 0.5
                        * dtdx
                        * ((fx_p[q] - fx_m[q]) + (fy_p[q] - fy_m[q]) + (fz_p[q] - fz_m[q]));
                }
                State { rho: u[0].max(1e-6), mx: u[1], my: u[2], mz: u[3], e: u[4].max(1e-8) }
            })
            .collect();
        self.state = new;
        self.cycle += 1;
        self.time += dt as f64;
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn num_cells(&self) -> usize {
        self.state.len()
    }

    fn vis_renderers(&self) -> &'static [&'static str] {
        // The paper's CloverLeaf3D runs render volume rendered.
        &["volume_rendering"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cloverleaf {
        fn idx(&self, i: usize, j: usize, k: usize) -> usize {
            (k * self.cells[1] + j) * self.cells[0] + i
        }
    }

    #[test]
    fn initial_condition_has_dense_corner() {
        let sim = Cloverleaf::new(16);
        let rho = sim.density();
        assert!(rho[sim.idx(1, 1, 1)] > rho[sim.idx(14, 14, 14)]);
    }

    #[test]
    fn steps_advance_time_and_diffuse_shock() {
        let mut sim = Cloverleaf::new(12);
        let rho0 = sim.density();
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.cycle(), 5);
        assert!(sim.time() > 0.0);
        let rho1 = sim.density();
        // Shock front moved: some background cells changed.
        let changed = rho0.iter().zip(rho1.iter()).filter(|(a, b)| (*a - *b).abs() > 1e-5).count();
        assert!(changed > 10, "only {changed} cells changed");
        // All densities remain positive and finite.
        assert!(rho1.iter().all(|r| r.is_finite() && *r > 0.0));
    }

    #[test]
    fn mass_approximately_conserved() {
        let mut sim = Cloverleaf::new(12);
        let m0 = sim.total_mass();
        for _ in 0..10 {
            sim.step();
        }
        let m1 = sim.total_mass();
        // Clamped boundaries leak a little; stay within a few percent.
        assert!((m1 - m0).abs() / m0 < 0.05, "mass {m0} -> {m1}");
    }

    #[test]
    fn grid_publishes_fields() {
        let sim = Cloverleaf::new(8);
        let g = sim.grid();
        assert_eq!(g.num_cells(), 512);
        assert!(g.field("density").is_some());
        assert!(g.field("energy_p").is_some());
        assert_eq!(g.field("density_p").unwrap().values.len(), 9 * 9 * 9);
    }
}
