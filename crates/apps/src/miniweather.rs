//! MiniWeather: simplified atmospheric dynamics (Norman's miniWeather
//! mini-app), the paper's Observation 4 benchmark.
//!
//! Solves the 2-D compressible Euler equations with a hydrostatic background
//! state on an x–z plane: flux-form finite volume, 4th-order interface
//! interpolation with hyperviscosity, dimensional splitting with a
//! three-stage Runge–Kutta per direction, periodic x boundaries and rigid
//! lids in z. The initial condition is the rising thermal bubble.
//!
//! State variables (perturbations from the hydrostatic background where
//! applicable): density, x-momentum, z-momentum, potential-temperature
//! density. QoI: the state at every gridpoint. Metric: RMSE (paper Table I).
//!
//! The surrogate is an auto-regressive CNN mapping the interior state at
//! step `t` to step `t+1`; the `inout` clause (3 directives total, matching
//! Table II) wires it up. Fig. 9's interleaving experiments mix surrogate
//! and accurate timesteps through the `predicated` machinery.

use crate::common::*;
use crate::metrics;
use hpacml_core::{Region, Session};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{LayerSpec, ModelSpec};
use hpacml_nn::TrainConfig;
use hpacml_tensor::Tensor;
use std::path::Path;
use std::time::Instant;

/// Number of prognostic variables.
pub(crate) const NUM_VARS: usize = 4;
/// Variable indices.
pub(crate) const ID_DENS: usize = 0;
pub(crate) const ID_UMOM: usize = 1;
pub(crate) const ID_WMOM: usize = 2;
pub const ID_RHOT: usize = 3;
/// Halo width (the 4th-order stencil needs 2).
pub const HS: usize = 2;

// Physical constants (miniWeather's values).
const GRAV: f64 = 9.8;
const CP: f64 = 1004.5;
const RD: f64 = 287.0;
const P0: f64 = 1.0e5;
const C0: f64 = 27.5629410929725921310572974482;
const GAMMA: f64 = 1.40027894002789400278940027894;
const XLEN: f64 = 2.0e4;
const ZLEN: f64 = 1.0e4;
const HV_BETA: f64 = 0.25;
const MAX_SPEED: f64 = 450.0;
const CFL: f64 = 1.5;

/// The miniWeather simulation: state plus precomputed hydrostatic profiles.
#[derive(Debug, Clone)]
pub struct Sim {
    pub nx: usize,
    pub nz: usize,
    pub dx: f64,
    pub dz: f64,
    pub dt: f64,
    /// `[NUM_VARS][nz + 2*HS][nx + 2*HS]`, flattened.
    pub state: Vec<f32>,
    hy_dens_cell: Vec<f64>,
    hy_dens_theta_cell: Vec<f64>,
    hy_dens_int: Vec<f64>,
    hy_dens_theta_int: Vec<f64>,
    hy_pressure_int: Vec<f64>,
    /// Alternate x/z sweep order each step (miniWeather's direction switch).
    step_parity: bool,
    /// Steps taken so far.
    pub steps_taken: usize,
}

/// Hydrostatic profile for constant potential temperature θ₀ = 300 K.
fn hydro_const_theta(z: f64) -> (f64, f64) {
    let theta0 = 300.0;
    let exner = 1.0 - GRAV * z / (CP * theta0);
    let p = P0 * exner.powf(CP / RD);
    let rt = (p / C0).powf(1.0 / GAMMA);
    let r = rt / theta0;
    (r, rt) // density, density*theta
}

/// Cosine-tapered ellipse perturbation (miniWeather's `sample_ellipse_cosine`).
fn ellipse_cosine(x: f64, z: f64, amp: f64, x0: f64, z0: f64, xrad: f64, zrad: f64) -> f64 {
    let dist =
        (((x - x0) / xrad).powi(2) + ((z - z0) / zrad).powi(2)).sqrt() * std::f64::consts::PI / 2.0;
    if dist <= std::f64::consts::PI / 2.0 {
        amp * dist.cos().powi(2)
    } else {
        0.0
    }
}

impl Sim {
    /// Set up the thermal-bubble test case on an `nx × nz` grid.
    pub fn new(nx: usize, nz: usize) -> Sim {
        let dx = XLEN / nx as f64;
        let dz = ZLEN / nz as f64;
        let dt = dx.min(dz) / MAX_SPEED * CFL;
        let mut sim = Sim {
            nx,
            nz,
            dx,
            dz,
            dt,
            state: vec![0.0; NUM_VARS * (nz + 2 * HS) * (nx + 2 * HS)],
            hy_dens_cell: vec![0.0; nz + 2 * HS],
            hy_dens_theta_cell: vec![0.0; nz + 2 * HS],
            hy_dens_int: vec![0.0; nz + 1],
            hy_dens_theta_int: vec![0.0; nz + 1],
            hy_pressure_int: vec![0.0; nz + 1],
            step_parity: false,
            steps_taken: 0,
        };
        // Hydrostatic background at cell centers (including halo levels) and
        // interfaces, via Gauss-Legendre-free midpoint sampling (adequate at
        // these resolutions).
        for k in 0..nz + 2 * HS {
            let z = (k as f64 - HS as f64 + 0.5) * dz;
            let (r, rt) = hydro_const_theta(z.clamp(0.0, ZLEN));
            sim.hy_dens_cell[k] = r;
            sim.hy_dens_theta_cell[k] = rt;
        }
        for k in 0..=nz {
            let z = k as f64 * dz;
            let (r, rt) = hydro_const_theta(z);
            sim.hy_dens_int[k] = r;
            sim.hy_dens_theta_int[k] = rt;
            sim.hy_pressure_int[k] = C0 * rt.powf(GAMMA);
        }
        // Thermal bubble: potential-temperature perturbation.
        for k in 0..nz {
            for i in 0..nx {
                let x = (i as f64 + 0.5) * dx;
                let z = (k as f64 + 0.5) * dz;
                let theta_pert = ellipse_cosine(x, z, 3.0, XLEN / 2.0, 2000.0, 2000.0, 2000.0);
                let (r, _) = hydro_const_theta(z);
                let idx = sim.idx(ID_RHOT, k + HS, i + HS);
                sim.state[idx] = (r * theta_pert) as f32;
            }
        }
        sim
    }

    #[inline]
    fn idx(&self, var: usize, k: usize, i: usize) -> usize {
        (var * (self.nz + 2 * HS) + k) * (self.nx + 2 * HS) + i
    }

    /// Copy of the interior state `[NUM_VARS * nz * nx]` (no halos) — the
    /// array the HPAC-ML region maps.
    pub fn interior(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(NUM_VARS * self.nz * self.nx);
        for v in 0..NUM_VARS {
            for k in 0..self.nz {
                for i in 0..self.nx {
                    out.push(self.state[self.idx(v, k + HS, i + HS)]);
                }
            }
        }
        out
    }

    /// Overwrite the interior state from a `[NUM_VARS * nz * nx]` buffer.
    pub(crate) fn set_interior(&mut self, interior: &[f32]) {
        assert_eq!(interior.len(), NUM_VARS * self.nz * self.nx);
        let mut it = interior.iter();
        for v in 0..NUM_VARS {
            for k in 0..self.nz {
                for i in 0..self.nx {
                    let idx = self.idx(v, k + HS, i + HS);
                    self.state[idx] = *it.next().expect("sized above");
                }
            }
        }
    }

    fn exchange_halos_x(&mut self) {
        let nx = self.nx;
        for v in 0..NUM_VARS {
            for k in 0..self.nz + 2 * HS {
                for h in 0..HS {
                    let left = self.idx(v, k, h);
                    let right_src = self.idx(v, k, nx + h);
                    self.state[left] = self.state[right_src];
                    let right = self.idx(v, k, nx + HS + h);
                    let left_src = self.idx(v, k, HS + h);
                    self.state[right] = self.state[left_src];
                }
            }
        }
    }

    fn exchange_halos_z(&mut self) {
        let nz = self.nz;
        for v in 0..NUM_VARS {
            for i in 0..self.nx + 2 * HS {
                for h in 0..HS {
                    let bottom = self.idx(v, h, i);
                    let top = self.idx(v, nz + HS + h, i);
                    if v == ID_WMOM {
                        // Rigid lids: no vertical momentum through boundaries.
                        self.state[bottom] = 0.0;
                        self.state[top] = 0.0;
                    } else {
                        let bsrc = self.idx(v, HS, i);
                        let tsrc = self.idx(v, nz + HS - 1, i);
                        self.state[bottom] = self.state[bsrc];
                        self.state[top] = self.state[tsrc];
                    }
                }
            }
        }
    }

    /// x-direction tendencies of `src` into `tend` (`[NUM_VARS * nz * nx]`).
    fn tendencies_x(&self, src: &[f32], tend: &mut [f64], dt: f64) {
        let (nx, nz) = (self.nx, self.nz);
        let row = nx + 2 * HS;
        let plane = (nz + 2 * HS) * row;
        let hv_coef = -HV_BETA * self.dx / (16.0 * dt);
        // Fluxes at nx+1 interfaces per row.
        let mut flux = vec![0.0f64; NUM_VARS * nz * (nx + 1)];
        for k in 0..nz {
            for i in 0..=nx {
                let mut vals = [0.0f64; NUM_VARS];
                let mut d3 = [0.0f64; NUM_VARS];
                for (v, val) in vals.iter_mut().enumerate() {
                    let base = v * plane + (k + HS) * row + i;
                    let s0 = src[base] as f64;
                    let s1 = src[base + 1] as f64;
                    let s2 = src[base + 2] as f64;
                    let s3 = src[base + 3] as f64;
                    *val = -s0 / 12.0 + 7.0 * s1 / 12.0 + 7.0 * s2 / 12.0 - s3 / 12.0;
                    d3[v] = -s0 + 3.0 * s1 - 3.0 * s2 + s3;
                }
                let r = vals[ID_DENS] + self.hy_dens_cell[k + HS];
                let u = vals[ID_UMOM] / r;
                let w = vals[ID_WMOM] / r;
                let t = (vals[ID_RHOT] + self.hy_dens_theta_cell[k + HS]) / r;
                let p = C0 * (r * t).powf(GAMMA);
                let f = |v: usize| (v * nz + k) * (nx + 1) + i;
                flux[f(ID_DENS)] = r * u - hv_coef * d3[ID_DENS];
                flux[f(ID_UMOM)] = r * u * u + p - hv_coef * d3[ID_UMOM];
                flux[f(ID_WMOM)] = r * u * w - hv_coef * d3[ID_WMOM];
                flux[f(ID_RHOT)] = r * u * t - hv_coef * d3[ID_RHOT];
            }
        }
        for v in 0..NUM_VARS {
            for k in 0..nz {
                for i in 0..nx {
                    let fl = flux[(v * nz + k) * (nx + 1) + i];
                    let fr = flux[(v * nz + k) * (nx + 1) + i + 1];
                    tend[(v * nz + k) * nx + i] = -(fr - fl) / self.dx;
                }
            }
        }
    }

    /// z-direction tendencies with rigid-lid boundaries and buoyancy source.
    fn tendencies_z(&self, src: &[f32], tend: &mut [f64], dt: f64) {
        let (nx, nz) = (self.nx, self.nz);
        let row = nx + 2 * HS;
        let plane = (nz + 2 * HS) * row;
        let hv_coef = -HV_BETA * self.dz / (16.0 * dt);
        let mut flux = vec![0.0f64; NUM_VARS * (nz + 1) * nx];
        for k in 0..=nz {
            for i in 0..nx {
                let mut vals = [0.0f64; NUM_VARS];
                let mut d3 = [0.0f64; NUM_VARS];
                for (v, val) in vals.iter_mut().enumerate() {
                    let col = i + HS;
                    let base = v * plane + k * row + col;
                    let s0 = src[base] as f64;
                    let s1 = src[base + row] as f64;
                    let s2 = src[base + 2 * row] as f64;
                    let s3 = src[base + 3 * row] as f64;
                    *val = -s0 / 12.0 + 7.0 * s1 / 12.0 + 7.0 * s2 / 12.0 - s3 / 12.0;
                    d3[v] = -s0 + 3.0 * s1 - 3.0 * s2 + s3;
                }
                let r = vals[ID_DENS] + self.hy_dens_int[k];
                let mut w = vals[ID_WMOM] / r;
                if k == 0 || k == nz {
                    // No flow through the rigid lids.
                    w = 0.0;
                    d3[ID_DENS] = 0.0;
                }
                let u = vals[ID_UMOM] / r;
                let t = (vals[ID_RHOT] + self.hy_dens_theta_int[k]) / r;
                let p = C0 * (r * t).powf(GAMMA) - self.hy_pressure_int[k];
                let f = |v: usize| (v * (nz + 1) + k) * nx + i;
                flux[f(ID_DENS)] = r * w - hv_coef * d3[ID_DENS];
                flux[f(ID_UMOM)] = r * w * u - hv_coef * d3[ID_UMOM];
                flux[f(ID_WMOM)] = r * w * w + p - hv_coef * d3[ID_WMOM];
                flux[f(ID_RHOT)] = r * w * t - hv_coef * d3[ID_RHOT];
            }
        }
        for v in 0..NUM_VARS {
            for k in 0..nz {
                for i in 0..nx {
                    let fl = flux[(v * (nz + 1) + k) * nx + i];
                    let fu = flux[(v * (nz + 1) + k + 1) * nx + i];
                    let mut t = -(fu - fl) / self.dz;
                    if v == ID_WMOM {
                        // Buoyancy: the perturbation density feels gravity.
                        t -= self.state[self.idx(ID_DENS, k + HS, i + HS)] as f64 * GRAV;
                    }
                    tend[(v * nz + k) * nx + i] = t;
                }
            }
        }
    }

    /// One semi-discrete update `out = base + dt·tend(src)` in one direction.
    fn semi_step(&mut self, dir_x: bool, base: &[f32], src: &[f32], dt: f64, out: &mut [f32]) {
        let (nx, nz) = (self.nx, self.nz);
        let mut tend = vec![0.0f64; NUM_VARS * nz * nx];
        // Halos belong to the *source* state: install, exchange, compute.
        self.state.copy_from_slice(src);
        if dir_x {
            self.exchange_halos_x();
        } else {
            self.exchange_halos_z();
        }
        let src_haloed = self.state.clone();
        if dir_x {
            self.tendencies_x(&src_haloed, &mut tend, dt);
        } else {
            self.tendencies_z(&src_haloed, &mut tend, dt);
        }
        out.copy_from_slice(base);
        for v in 0..NUM_VARS {
            for k in 0..nz {
                for i in 0..nx {
                    let idx = self.idx(v, k + HS, i + HS);
                    out[idx] = (base[idx] as f64 + dt * tend[(v * nz + k) * nx + i]) as f32;
                }
            }
        }
    }

    /// Three-stage Runge–Kutta in one direction (miniWeather's
    /// `semi_discrete_step` cascade: dt/3, dt/2, dt).
    fn direction_sweep(&mut self, dir_x: bool) {
        let dt = self.dt;
        let state0 = self.state.clone();
        let mut tmp1 = state0.clone();
        let mut tmp2 = state0.clone();
        self.semi_step(dir_x, &state0, &state0, dt / 3.0, &mut tmp1);
        self.semi_step(dir_x, &state0, &tmp1, dt / 2.0, &mut tmp2);
        let mut fin = state0.clone();
        self.semi_step(dir_x, &state0, &tmp2, dt, &mut fin);
        self.state = fin;
    }

    /// Advance one full timestep (dimensional splitting, alternating order).
    pub fn step(&mut self) {
        if self.step_parity {
            self.direction_sweep(true);
            self.direction_sweep(false);
        } else {
            self.direction_sweep(false);
            self.direction_sweep(true);
        }
        self.step_parity = !self.step_parity;
        self.steps_taken += 1;
    }

    /// RMSE between the interiors of two simulations.
    pub fn rmse_vs(&self, other: &Sim) -> f64 {
        metrics::rmse(&self.interior(), &other.interior())
    }

    /// Total perturbation mass (density integrated over the interior) — a
    /// conserved quantity of the flux-form scheme used by tests.
    #[cfg(test)]
    fn total_mass(&self) -> f64 {
        let mut mass = 0.0f64;
        for k in 0..self.nz {
            for i in 0..self.nx {
                mass += self.state[self.idx(ID_DENS, k + HS, i + HS)] as f64;
            }
        }
        mass * self.dx * self.dz
    }
}

/// Sizes per scale.
#[derive(Debug, Clone, Copy)]
pub struct WeatherConfig {
    pub nx: usize,
    pub nz: usize,
    /// Steps used for training-data collection.
    pub collect_steps: usize,
    /// Warmup steps before evaluation (the paper uses the first 1000 steps
    /// for training and evaluates 1000→1200).
    pub eval_warmup: usize,
    /// Evaluation horizon after warmup.
    pub eval_steps: usize,
}

impl WeatherConfig {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => WeatherConfig {
                nx: 64,
                nz: 32,
                collect_steps: 240,
                eval_warmup: 240,
                eval_steps: 40,
            },
            Scale::Full => WeatherConfig {
                nx: 128,
                nz: 64,
                collect_steps: 1000,
                eval_warmup: 1000,
                eval_steps: 200,
            },
        }
    }
}

/// MiniWeather needs only 3 directives (paper Table II): the state functor,
/// one map, and an `inout` ml clause — the reverse map is derived.
const DIRECTIVES: [&str; 3] = [
    "#pragma approx tensor functor(st: [c, k, i, 0:1] = ([c, k, i]))",
    "#pragma approx tensor map(to: st(state[0:4, 0:NZ, 0:NX]))",
    "#pragma approx ml(predicated:use_model) inout(state)",
];

fn build_region(db: Option<&Path>, model: Option<&Path>) -> AppResult<Region> {
    let mut builder = Region::builder("miniweather");
    for d in DIRECTIVES {
        builder = builder.directive(d);
    }
    if let Some(db) = db {
        builder = builder.database(db);
    }
    if let Some(m) = model {
        builder = builder.model(m);
    }
    Ok(builder.build()?)
}

/// Compile the region into a reusable [`Session`] for this simulation's
/// grid shape — the compile-once step of the hot auto-regressive loop.
pub fn weather_session<'r>(region: &'r Region, sim: &Sim) -> AppResult<Session<'r>> {
    let binds = Bindings::new()
        .with("NZ", sim.nz as i64)
        .with("NX", sim.nx as i64);
    // The auto-regressive timestep loop is inherently sequential (each step
    // feeds the next), so one sample per invocation: max_batch = 1.
    Ok(region.session(&binds, &[("state", &[NUM_VARS, sim.nz, sim.nx])], 1)?)
}

/// Advance `sim` one step through a compiled session: accurate + collected
/// when `use_model` is false, surrogate when true.
pub fn session_step(session: &Session<'_>, sim: &mut Sim, use_model: bool) -> AppResult<()> {
    let mut interior = sim.interior();
    // `inout`: gather the pre-state, run (or skip) the accurate step, then
    // scatter/gather the post-state from the same array.
    let pre = interior.clone();
    let mut outcome = session
        .invoke()
        .use_surrogate(use_model)
        .input("state", &pre)?
        .run(|| {
            sim.step();
            interior = sim.interior();
        })?;
    outcome.output("state", &mut interior)?;
    outcome.finish()?;
    if use_model {
        sim.set_interior(&interior);
        sim.steps_taken += 1;
    }
    Ok(())
}

/// The MiniWeather benchmark.
pub struct MiniWeather;

impl MiniWeather {
    /// CNN spec used by Fig. 9 style runs: spatial-preserving convolutions.
    pub fn cnn_spec(nz: usize, nx: usize, hidden_ch: usize, kernel: usize) -> ModelSpec {
        let pad = kernel / 2;
        ModelSpec::new(
            vec![NUM_VARS, nz, nx],
            vec![
                LayerSpec::Conv2d {
                    in_ch: NUM_VARS,
                    out_ch: hidden_ch,
                    kernel,
                    stride: 1,
                    pad,
                },
                LayerSpec::Tanh,
                LayerSpec::Conv2d {
                    in_ch: hidden_ch,
                    out_ch: NUM_VARS,
                    kernel,
                    stride: 1,
                    pad,
                },
            ],
        )
    }
}

impl Benchmark for MiniWeather {
    fn name(&self) -> &'static str {
        "miniweather"
    }

    fn description(&self) -> &'static str {
        "Simulates atmospheric dynamics through essential weather and climate \
         modeling equations, emphasizing buoyant force impacts."
    }

    fn qoi_metric(&self) -> &'static str {
        "RMSE"
    }

    fn total_loc(&self) -> usize {
        source_loc(include_str!("miniweather.rs"))
    }

    fn directives(&self) -> Vec<String> {
        DIRECTIVES.iter().map(|s| s.to_string()).collect()
    }

    fn collect(&self, cfg: &BenchConfig) -> AppResult<CollectStats> {
        cfg.ensure_workdir()?;
        let wc = WeatherConfig::for_scale(cfg.scale);

        // Original runtime: one plain timestep (amortized over several).
        let mut plain = Sim::new(wc.nx, wc.nz);
        let probe = 8.min(wc.collect_steps);
        let t0 = Instant::now();
        for _ in 0..probe {
            plain.step();
        }
        let plain_runtime = t0.elapsed() / probe as u32 * wc.collect_steps as u32;

        let db = cfg.db_path(self.name());
        let _ = std::fs::remove_file(&db);
        let region = build_region(Some(&db), None)?;
        let mut sim = Sim::new(wc.nx, wc.nz);
        let session = weather_session(&region, &sim)?;
        let t0 = Instant::now();
        for _ in 0..wc.collect_steps {
            session_step(&session, &mut sim, false)?;
        }
        let collect_runtime = t0.elapsed();
        region.flush_db()?;

        Ok(CollectStats {
            plain_runtime,
            collect_runtime,
            db_bytes: region.db_size_bytes(),
            rows: wc.collect_steps,
        })
    }

    fn default_spec(&self, cfg: &BenchConfig) -> ModelSpec {
        let wc = WeatherConfig::for_scale(cfg.scale);
        Self::cnn_spec(wc.nz, wc.nx, 4, 3)
    }

    fn train_spec(
        &self,
        cfg: &BenchConfig,
        spec: &ModelSpec,
        tc: &TrainConfig,
        model_path: &Path,
    ) -> AppResult<TrainStats> {
        let wc = WeatherConfig::for_scale(cfg.scale);
        let file = hpacml_store::H5File::open(cfg.db_path(self.name()))?;
        let group = file.root().group("miniweather")?;
        let xs = group.group("inputs")?.dataset("state")?;
        let ys = group.group("outputs")?.dataset("state")?;
        let samples = xs.rows();
        let x = Tensor::from_vec(xs.read_f32()?, [samples, NUM_VARS, wc.nz, wc.nx])?;
        let y = Tensor::from_vec(ys.read_f32()?, [samples, NUM_VARS, wc.nz, wc.nx])?;
        let t = train_surrogate(
            x,
            y,
            hpacml_nn::data::NormAxis::PerChannel,
            hpacml_nn::data::NormAxis::PerChannel,
            spec,
            tc,
            model_path,
            4,
        )?;
        Ok(TrainStats {
            val_loss: t.val_loss,
            params: t.params,
            train_time: t.train_time,
            model_path: model_path.to_path_buf(),
            inference_latency: t.inference_latency,
        })
    }

    fn evaluate(&self, cfg: &BenchConfig, model_path: &Path) -> AppResult<EvalStats> {
        let wc = WeatherConfig::for_scale(cfg.scale);

        // Shared warmup trajectory (the paper's "original solution until
        // timestep 1000").
        let mut base = Sim::new(wc.nx, wc.nz);
        for _ in 0..wc.eval_warmup {
            base.step();
        }

        // Reference: accurate for the whole horizon.
        let mut reference = base.clone();
        let t0 = Instant::now();
        for _ in 0..wc.eval_steps {
            reference.step();
        }
        let accurate_time = t0.elapsed();

        // Surrogate: auto-regressive CNN for the whole horizon, through a
        // session compiled once outside the timestep loop.
        let region = build_region(None, Some(model_path))?;
        let mut surrogate = base.clone();
        let session = weather_session(&region, &surrogate)?;
        let t0 = Instant::now();
        for _ in 0..wc.eval_steps {
            session_step(&session, &mut surrogate, true)?;
        }
        let surrogate_time = t0.elapsed();

        Ok(EvalStats {
            accurate_time,
            surrogate_time,
            speedup: accurate_time.as_secs_f64() / surrogate_time.as_secs_f64().max(1e-12),
            qoi_error: reference.rmse_vs(&surrogate),
            region: region.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydrostatic_profile_decreases_with_height() {
        let (r0, rt0) = hydro_const_theta(0.0);
        let (r1, rt1) = hydro_const_theta(5000.0);
        assert!(r0 > r1, "density must fall with height");
        assert!(rt0 > rt1);
        assert!((rt0 / r0 - 300.0).abs() < 1e-9, "theta is 300 K everywhere");
        assert!((rt1 / r1 - 300.0).abs() < 1e-9);
    }

    #[test]
    fn bubble_initializes_warm_anomaly() {
        let sim = Sim::new(32, 16);
        // The bubble lives near x = XLEN/2, z = 2000.
        let k = (2000.0 / sim.dz) as usize;
        let i = sim.nx / 2;
        let center = sim.state[sim.idx(ID_RHOT, k + HS, i + HS)];
        assert!(center > 0.0, "bubble must be a positive theta anomaly");
        let corner = sim.state[sim.idx(ID_RHOT, HS, HS)];
        assert!(corner.abs() < center.abs());
    }

    #[test]
    fn simulation_stays_finite_and_bubble_rises() {
        let mut sim = Sim::new(32, 16);
        for _ in 0..60 {
            sim.step();
        }
        assert!(sim.state.iter().all(|v| v.is_finite()), "state blew up");
        // Vertical momentum somewhere in the bubble column must be upward.
        let i = sim.nx / 2;
        let mut max_w = f32::NEG_INFINITY;
        for k in 0..sim.nz {
            max_w = max_w.max(sim.state[sim.idx(ID_WMOM, k + HS, i + HS)]);
        }
        assert!(max_w > 0.0, "thermal bubble should rise (max w = {max_w})");
    }

    #[test]
    fn mass_is_conserved_by_flux_form() {
        let mut sim = Sim::new(24, 12);
        let m0 = sim.total_mass();
        for _ in 0..30 {
            sim.step();
        }
        let m1 = sim.total_mass();
        // Flux-form + periodic x + rigid lids: density perturbation mass is
        // conserved up to f32 roundoff.
        assert!(
            (m1 - m0).abs() < 2e-2 * sim.dx * sim.dz,
            "mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn interior_roundtrip() {
        let mut sim = Sim::new(16, 8);
        let snapshot = sim.interior();
        assert_eq!(snapshot.len(), NUM_VARS * 8 * 16);
        let mut changed = snapshot.clone();
        changed[5] += 1.5;
        sim.set_interior(&changed);
        assert_eq!(sim.interior(), changed);
    }

    #[test]
    fn halo_exchange_is_periodic_in_x() {
        let mut sim = Sim::new(16, 8);
        // Tag a distinctive value near the right edge.
        let idx = sim.idx(ID_DENS, HS + 3, sim.nx + HS - 1);
        sim.state[idx] = 7.25;
        sim.exchange_halos_x();
        // The left halo must now carry it.
        let halo = sim.idx(ID_DENS, HS + 3, HS - 1);
        assert_eq!(sim.state[halo], 7.25);
    }

    #[test]
    fn wmom_halos_are_rigid_lids() {
        let mut sim = Sim::new(16, 8);
        for v in sim.state.iter_mut() {
            *v = 1.0;
        }
        sim.exchange_halos_z();
        let bottom = sim.idx(ID_WMOM, 0, 5);
        let top = sim.idx(ID_WMOM, sim.nz + 2 * HS - 1, 5);
        assert_eq!(sim.state[bottom], 0.0);
        assert_eq!(sim.state[top], 0.0);
    }

    #[test]
    fn deterministic_trajectories() {
        let mut a = Sim::new(24, 12);
        let mut b = Sim::new(24, 12);
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(a.state, b.state);
        assert!(a.rmse_vs(&b) == 0.0);
    }

    #[test]
    fn table_metadata_three_directives() {
        let b = MiniWeather;
        assert_eq!(
            b.directives().len(),
            3,
            "MiniWeather uses the inout shortcut"
        );
        assert_eq!(b.qoi_metric(), "RMSE");
    }
}
