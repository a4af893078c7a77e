//! Kripke stand-in: deterministic discrete-ordinates (Sn) neutral-particle
//! transport on a uniform grid. One energy group, 8 ordinates (one per
//! octant), diamond-difference-style upwind corner sweeps, and a source
//! iteration with isotropic scattering — the dependency structure (wavefront
//! sweeps from 8 corners) is the defining workload of the real Kripke.

use crate::ProxySim;
use mesh::{Field, UniformGrid};
use rayon::prelude::*;
use vecmath::{Aabb, Vec3};

/// The Kripke proxy.
pub struct Kripke {
    cells: [usize; 3],
    dx: f32,
    /// Total cross-section per cell.
    sigma_t: Vec<f32>,
    /// Scattering cross-section per cell.
    sigma_s: Vec<f32>,
    /// External source per cell.
    source: Vec<f32>,
    /// Scalar flux per cell (the visualized quantity).
    phi: Vec<f32>,
    cycle: u64,
}

/// The 8 octant direction cosines (normalized diagonal ordinates).
const OCTANTS: [[f32; 3]; 8] = {
    const C: f32 = 0.577_350_3; // 1/sqrt(3)
    [
        [C, C, C],
        [-C, C, C],
        [C, -C, C],
        [-C, -C, C],
        [C, C, -C],
        [-C, C, -C],
        [C, -C, -C],
        [-C, -C, -C],
    ]
};

impl Kripke {
    /// Problem on an `n^3` grid: central source region inside an absorbing
    /// background with a scattering shell.
    pub fn new(n: usize) -> Kripke {
        Self::with_dims([n, n, n])
    }

    pub fn with_dims(cells: [usize; 3]) -> Kripke {
        let total = cells[0] * cells[1] * cells[2];
        let mut sigma_t = vec![0.5f32; total];
        let mut sigma_s = vec![0.2f32; total];
        let mut source = vec![0.0f32; total];
        for k in 0..cells[2] {
            for j in 0..cells[1] {
                for i in 0..cells[0] {
                    let c = (k * cells[1] + j) * cells[0] + i;
                    let x = (i as f32 + 0.5) / cells[0] as f32 - 0.5;
                    let y = (j as f32 + 0.5) / cells[1] as f32 - 0.5;
                    let z = (k as f32 + 0.5) / cells[2] as f32 - 0.5;
                    let r = (x * x + y * y + z * z).sqrt();
                    if r < 0.15 {
                        source[c] = 1.0;
                        sigma_t[c] = 1.0;
                    } else if r < 0.35 {
                        sigma_s[c] = 0.45;
                        sigma_t[c] = 0.6;
                    }
                }
            }
        }
        Kripke {
            cells,
            dx: 1.0 / cells[0] as f32,
            sigma_t,
            sigma_s,
            source,
            phi: vec![0.0; total],
            cycle: 0,
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.cells[1] + j) * self.cells[0] + i
    }

    /// Scalar flux (the field visualized in the paper's Kripke images).
    pub fn phi(&self) -> &[f32] {
        &self.phi
    }

    /// The mesh with the scalar-flux field (point-sampled copy included).
    pub fn grid(&self) -> UniformGrid {
        let mut g = UniformGrid::new(self.cells, Aabb::from_corners(Vec3::ZERO, Vec3::ONE));
        g.fields.push(Field::cell("phi", self.phi.clone()));
        // Point-sampled version (nearest-cell at points) for point renderers.
        let pd = g.dims;
        let mut pvals = vec![0.0f32; g.num_points()];
        for k in 0..pd[2] {
            for j in 0..pd[1] {
                for i in 0..pd[0] {
                    let ci = i.min(self.cells[0] - 1);
                    let cj = j.min(self.cells[1] - 1);
                    let ck = k.min(self.cells[2] - 1);
                    pvals[(k * pd[1] + j) * pd[0] + i] = self.phi[self.idx(ci, cj, ck)];
                }
            }
        }
        g.fields.push(Field::point("phi_p", pvals));
        g
    }

    /// One upwind sweep for one ordinate; returns per-cell angular flux.
    fn sweep(&self, dir: [f32; 3], psi_prev_phi: &[f32]) -> Vec<f32> {
        let [nx, ny, nz] = self.cells;
        let mut psi = vec![0.0f32; nx * ny * nz];
        // Iterate in upwind order per axis sign.
        let xs: Vec<usize> = if dir[0] > 0.0 { (0..nx).collect() } else { (0..nx).rev().collect() };
        let ys: Vec<usize> = if dir[1] > 0.0 { (0..ny).collect() } else { (0..ny).rev().collect() };
        let zs: Vec<usize> = if dir[2] > 0.0 { (0..nz).collect() } else { (0..nz).rev().collect() };
        let cx = 2.0 * dir[0].abs() / self.dx;
        let cy = 2.0 * dir[1].abs() / self.dx;
        let cz = 2.0 * dir[2].abs() / self.dx;
        for &k in &zs {
            for &j in &ys {
                for &i in &xs {
                    let c = self.idx(i, j, k);
                    // Upwind incoming fluxes (vacuum boundary = 0).
                    let in_x = if dir[0] > 0.0 {
                        if i > 0 {
                            psi[self.idx(i - 1, j, k)]
                        } else {
                            0.0
                        }
                    } else if i + 1 < nx {
                        psi[self.idx(i + 1, j, k)]
                    } else {
                        0.0
                    };
                    let in_y = if dir[1] > 0.0 {
                        if j > 0 {
                            psi[self.idx(i, j - 1, k)]
                        } else {
                            0.0
                        }
                    } else if j + 1 < ny {
                        psi[self.idx(i, j + 1, k)]
                    } else {
                        0.0
                    };
                    let in_z = if dir[2] > 0.0 {
                        if k > 0 {
                            psi[self.idx(i, j, k - 1)]
                        } else {
                            0.0
                        }
                    } else if k + 1 < nz {
                        psi[self.idx(i, j, k + 1)]
                    } else {
                        0.0
                    };
                    // Isotropic total source: external + scattering off the
                    // previous iteration's scalar flux.
                    let q = self.source[c]
                        + self.sigma_s[c] * psi_prev_phi[c] / (4.0 * std::f32::consts::PI);
                    let num = q + cx * in_x + cy * in_y + cz * in_z;
                    let den = self.sigma_t[c] + cx + cy + cz;
                    psi[c] = (num / den).max(0.0);
                }
            }
        }
        psi
    }
}

impl ProxySim for Kripke {
    fn name(&self) -> &'static str {
        "Kripke"
    }

    /// One source iteration: sweep all 8 octants against the current scalar
    /// flux, then recompute the scalar flux (equal-weight quadrature).
    fn step(&mut self) {
        let prev = self.phi.clone();
        let mut phi = vec![0.0f32; prev.len()];
        let weight = 4.0 * std::f32::consts::PI / OCTANTS.len() as f32;
        // Octant sweeps are independent given the previous iterate; sweep
        // them on the rayon pool, one task per octant. `collect` keeps octant
        // order, so the += accumulation below stays deterministic.
        let sweeps: Vec<Vec<f32>> =
            OCTANTS.par_iter().with_max_len(1).map(|dir| self.sweep(*dir, &prev)).collect();
        for psi in sweeps {
            for (p, v) in phi.iter_mut().zip(psi) {
                *p += weight * v;
            }
        }
        self.phi = phi;
        self.cycle += 1;
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn time(&self) -> f64 {
        self.cycle as f64
    }

    fn num_cells(&self) -> usize {
        self.phi.len()
    }

    fn vis_renderers(&self) -> &'static [&'static str] {
        // The paper's Kripke runs render ray traced; two views per cycle so
        // the BVH build amortizes across frames.
        &["ray_tracing", "ray_tracing"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kripke on the pool folds the same octant sweeps in the same order as
    /// a serial loop, so its flux is the serial fold's bit for bit at any
    /// worker count.
    #[test]
    fn pooled_sweeps_equal_the_serial_fold_bit_for_bit() {
        let mut serial = Kripke::new(12);
        for _ in 0..8 {
            let prev = serial.phi.clone();
            let weight = 4.0 * std::f32::consts::PI / OCTANTS.len() as f32;
            let mut phi = vec![0.0f32; prev.len()];
            for dir in OCTANTS {
                for (p, v) in phi.iter_mut().zip(serial.sweep(dir, &prev)) {
                    *p += weight * v;
                }
            }
            serial.phi = phi;
        }
        let bits = |phi: &[f32]| phi.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for workers in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            let mut sim = Kripke::new(12);
            pool.install(|| (0..8).for_each(|_| sim.step()));
            assert_eq!(bits(sim.phi()), bits(serial.phi()), "{workers} workers");
        }
    }

    #[test]
    fn flux_appears_after_first_iteration() {
        let mut sim = Kripke::new(12);
        assert!(sim.phi().iter().all(|&v| v == 0.0));
        sim.step();
        let total: f32 = sim.phi().iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn flux_peaks_at_the_source() {
        let mut sim = Kripke::new(16);
        for _ in 0..3 {
            sim.step();
        }
        let center = sim.phi()[sim.idx(8, 8, 8)];
        let corner = sim.phi()[sim.idx(0, 0, 0)];
        assert!(center > corner * 2.0, "center {center} corner {corner}");
    }

    #[test]
    fn source_iteration_converges() {
        let mut sim = Kripke::new(10);
        sim.step();
        let a: f32 = sim.phi().iter().sum();
        for _ in 0..6 {
            sim.step();
        }
        let b: f32 = sim.phi().iter().sum();
        sim.step();
        let c: f32 = sim.phi().iter().sum();
        // Scattering adds flux, but the increment shrinks.
        assert!(b > a);
        assert!((c - b) < (b - a), "not converging: {a} {b} {c}");
    }

    #[test]
    fn grid_has_phi_fields() {
        let mut sim = Kripke::new(8);
        sim.step();
        let g = sim.grid();
        assert!(g.field("phi").is_some());
        assert_eq!(g.field("phi_p").unwrap().values.len(), 9 * 9 * 9);
        assert_eq!(sim.num_cells(), 512);
    }

    #[test]
    fn flux_is_nonnegative_and_finite() {
        let mut sim = Kripke::new(10);
        for _ in 0..4 {
            sim.step();
        }
        assert!(sim.phi().iter().all(|v| v.is_finite() && *v >= 0.0));
    }
}
