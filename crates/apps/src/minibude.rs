//! MiniBUDE: virtual screening in molecular docking (Bristol BUDE mini-app).
//!
//! The kernel evaluates an empirical free-energy forcefield between a ligand
//! and a protein for a batch of ligand *poses* (rigid-body transforms).
//! Each pose is 6 numbers — three Euler angles and a translation — and the
//! energy sums steric, electrostatic and desolvation terms over every
//! ligand×protein atom pair, following the structure of the BUDE kernel.
//!
//! The paper's Observation 2 is about this benchmark: the kernel is
//! compute-bound with scattered access, while an MLP surrogate (pose 6-DOF →
//! energy) is dense linear algebra.
//!
//! QoI: the ligand–protein binding energy of each pose. Metric: MAPE.

use crate::common::*;
use crate::metrics;
use hpacml_core::Region;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::TrainConfig;
use hpacml_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

/// Degrees of freedom per pose (3 rotations + 3 translations).
pub(crate) const POSE_DOF: usize = 6;

/// Forcefield parameters per atom type (modeled on BUDE's `FFParams`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FfParams {
    pub radius: f32,
    pub hardness: f32,
    pub charge: f32,
    /// Hydrophobic/polar blend used in the desolvation term.
    pub hphb: f32,
}

/// One atom: position plus a type index into the forcefield table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Atom {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub ty: u32,
}

/// The docking deck: protein, ligand and forcefield.
#[derive(Debug, Clone)]
pub struct Deck {
    pub(crate) protein: Vec<Atom>,
    pub(crate) ligand: Vec<Atom>,
    pub(crate) forcefield: Vec<FfParams>,
}

impl Deck {
    /// Synthetic deck with the bm1 shape (938 protein atoms, 26 ligand
    /// atoms) — or a reduced one for quick runs.
    pub fn generate(protein_atoms: usize, ligand_atoms: usize, seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let n_types = 8usize;
        let forcefield = (0..n_types)
            .map(|_| FfParams {
                radius: rng.range(1.2, 2.4),
                hardness: rng.range(10.0, 60.0),
                charge: rng.range(-0.8, 0.8),
                hphb: rng.range(-1.0, 1.0),
            })
            .collect();
        // Protein atoms in a ball of radius ~12 Å; ligand near the origin.
        let ball = |r: f32, rng: &mut GenRng| loop {
            let x = rng.range(-r, r);
            let y = rng.range(-r, r);
            let z = rng.range(-r, r);
            if x * x + y * y + z * z <= r * r {
                return (x, y, z);
            }
        };
        let protein = (0..protein_atoms)
            .map(|_| {
                let (x, y, z) = ball(12.0, &mut rng);
                Atom {
                    x,
                    y,
                    z,
                    ty: (rng.next_u64() % n_types as u64) as u32,
                }
            })
            .collect();
        let ligand = (0..ligand_atoms)
            .map(|_| {
                let (x, y, z) = ball(3.0, &mut rng);
                Atom {
                    x,
                    y,
                    z,
                    ty: (rng.next_u64() % n_types as u64) as u32,
                }
            })
            .collect();
        Deck {
            protein,
            ligand,
            forcefield,
        }
    }
}

/// A batch of poses, stored DOF-flat (`[n * POSE_DOF]`).
#[derive(Debug, Clone)]
pub struct PoseBatch {
    pub data: Vec<f32>,
    pub n: usize,
}

impl PoseBatch {
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let mut data = Vec::with_capacity(n * POSE_DOF);
        for _ in 0..n {
            // Euler angles and a small translation around the pocket.
            data.push(rng.range(-std::f32::consts::PI, std::f32::consts::PI));
            data.push(rng.range(-std::f32::consts::PI, std::f32::consts::PI));
            data.push(rng.range(-std::f32::consts::PI, std::f32::consts::PI));
            data.push(rng.range(-2.0, 2.0));
            data.push(rng.range(-2.0, 2.0));
            data.push(rng.range(-2.0, 2.0));
        }
        PoseBatch { data, n }
    }
}

/// Energy of one pose: transform the ligand rigidly, then sum pair terms.
pub(crate) fn pose_energy(deck: &Deck, pose: &[f32]) -> f32 {
    let (sx, cx) = pose[0].sin_cos();
    let (sy, cy) = pose[1].sin_cos();
    let (sz, cz) = pose[2].sin_cos();
    // Z-Y-X Euler rotation matrix.
    let rot = [
        [cy * cz, sx * sy * cz - cx * sz, cx * sy * cz + sx * sz],
        [cy * sz, sx * sy * sz + cx * cz, cx * sy * sz - sx * cz],
        [-sy, sx * cy, cx * cy],
    ];
    let (tx, ty, tz) = (pose[3], pose[4], pose[5]);

    let mut etot = 0.0f32;
    for l in &deck.ligand {
        let lx = rot[0][0] * l.x + rot[0][1] * l.y + rot[0][2] * l.z + tx;
        let ly = rot[1][0] * l.x + rot[1][1] * l.y + rot[1][2] * l.z + ty;
        let lz = rot[2][0] * l.x + rot[2][1] * l.y + rot[2][2] * l.z + tz;
        let lp = deck.forcefield[l.ty as usize];
        for p in &deck.protein {
            let pp = deck.forcefield[p.ty as usize];
            let dx = lx - p.x;
            let dy = ly - p.y;
            let dz = lz - p.z;
            let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-3);
            let radij = lp.radius + pp.radius;
            // Steric clash: linear repulsion inside the contact radius.
            if r < radij {
                etot += (1.0 - r / radij) * (lp.hardness + pp.hardness) * 0.5;
            }
            // Electrostatics with a hard cutoff (BUDE's elcdst).
            const ELC_CUTOFF: f32 = 8.0;
            if r < ELC_CUTOFF {
                etot += lp.charge * pp.charge * (1.0 - r / ELC_CUTOFF) * 45.0;
            }
            // Desolvation: hydrophobic contact inside a wider cutoff.
            const HPHB_CUTOFF: f32 = 5.0;
            if r < HPHB_CUTOFF {
                etot -= lp.hphb * pp.hphb * (1.0 - r / HPHB_CUTOFF) * 0.8;
            }
        }
    }
    etot * 0.5
}

/// The accurate kernel: energies for every pose, in parallel.
pub fn energies(deck: &Deck, poses: &PoseBatch, out: &mut [f32]) {
    assert_eq!(out.len(), poses.n);
    let data = &poses.data;
    hpacml_par::par_chunks_mut(out, 16, |start, chunk| {
        for (k, e) in chunk.iter_mut().enumerate() {
            let i = start + k;
            *e = pose_energy(deck, &data[i * POSE_DOF..(i + 1) * POSE_DOF]);
        }
    });
}

/// Sizes per scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BudeConfig {
    pub n_poses: usize,
    pub protein_atoms: usize,
    pub ligand_atoms: usize,
    pub collect_batch: usize,
    pub eval_reps: u32,
}

impl BudeConfig {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => BudeConfig {
                n_poses: 1024,
                protein_atoms: 938,
                ligand_atoms: 26,
                collect_batch: 128,
                eval_reps: 3,
            },
            Scale::Full => BudeConfig {
                n_poses: 65536,
                protein_atoms: 938,
                ligand_atoms: 26,
                collect_batch: 4096,
                eval_reps: 20,
            },
        }
    }
}

// The Table II shape for MiniBUDE: input/output functor declarations, one
// tensor map for the input, and the approx-ml directive (the output map is
// the `fa-expr` embedded in `out(...)`).
const DIRECTIVES: [&str; 4] = [
    "#pragma approx tensor functor(ipose: [i, 0:6] = ([6*i : 6*i+6]))",
    "#pragma approx tensor functor(oenergy: [i, 0:1] = ([i]))",
    "#pragma approx tensor map(to: ipose(poses[0:N]))",
    "#pragma approx ml(predicated:use_model) in(poses) out(oenergy(energies[0:N]))",
];

/// The benchmark's canonical annotated region (the Table II directives),
/// with optional database and model overrides. Public so the golden
/// end-to-end tests drive the exact production annotation.
pub fn build_region(db: Option<&Path>, model: Option<&Path>) -> AppResult<Region> {
    let mut builder = Region::builder("minibude");
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

pub fn run_annotated(
    region: &Region,
    deck: &Deck,
    poses: &PoseBatch,
    chunk: usize,
    use_model: bool,
) -> AppResult<Vec<f32>> {
    let mut out = vec![0.0f32; poses.n];
    // One compiled session; each chunk (tail included) is one *batched*
    // region invocation through the runtime batch dimension.
    let sweep = SweepSession::new(region, "poses", POSE_DOF, "energies", chunk)?;
    sweep.run(&poses.data, &mut out, use_model, |start, end, out_chunk| {
        let sub = PoseBatch {
            data: poses.data[start * POSE_DOF..end * POSE_DOF].to_vec(),
            n: end - start,
        };
        energies(deck, &sub, out_chunk);
    })?;
    Ok(out)
}

/// The MiniBUDE benchmark.
pub struct MiniBude;

impl Benchmark for MiniBude {
    fn name(&self) -> &'static str {
        "minibude"
    }

    fn description(&self) -> &'static str {
        "Executes virtual screening in molecular docking, assessing poses to \
         predict ligand-protein binding energy using an empirical forcefield."
    }

    fn qoi_metric(&self) -> &'static str {
        "MAPE"
    }

    fn total_loc(&self) -> usize {
        source_loc(include_str!("minibude.rs"))
    }

    fn directives(&self) -> Vec<String> {
        DIRECTIVES.iter().map(|s| s.to_string()).collect()
    }

    fn collect(&self, cfg: &BenchConfig) -> AppResult<CollectStats> {
        cfg.ensure_workdir()?;
        let bc = BudeConfig::for_scale(cfg.scale);
        let deck = Deck::generate(bc.protein_atoms, bc.ligand_atoms, cfg.seed);
        let poses = PoseBatch::generate(bc.n_poses, cfg.seed.wrapping_add(1));

        let mut plain = vec![0.0f32; poses.n];
        let t0 = Instant::now();
        energies(&deck, &poses, &mut plain);
        let plain_runtime = t0.elapsed();

        let db = cfg.db_path(self.name());
        let _ = std::fs::remove_file(&db);
        let region = build_region(Some(&db), None)?;
        let t0 = Instant::now();
        let collected = run_annotated(&region, &deck, &poses, bc.collect_batch, false)?;
        let collect_runtime = t0.elapsed();
        region.flush_db()?;
        debug_assert_eq!(plain, collected);

        Ok(CollectStats {
            plain_runtime,
            collect_runtime,
            db_bytes: region.db_size_bytes(),
            // One collection row per sweep element (batched invocations record
            // per-sample rows).
            rows: poses.n,
        })
    }

    fn default_spec(&self, _cfg: &BenchConfig) -> ModelSpec {
        // Table IV (MiniBUDE space): deep MLP with a feature multiplier; the
        // default is a small member of that family (the kernel does ~600k
        // flops per pose; the surrogate should do orders of magnitude less).
        ModelSpec::mlp(POSE_DOF, &[128, 64], 1, Activation::ReLU, 0.0)
    }

    fn train_spec(
        &self,
        cfg: &BenchConfig,
        spec: &ModelSpec,
        tc: &TrainConfig,
        model_path: &Path,
    ) -> AppResult<TrainStats> {
        let file = hpacml_store::H5File::open(cfg.db_path(self.name()))?;
        let group = file.root().group("minibude")?;
        let x_flat = group.group("inputs")?.dataset("poses")?.read_f32()?;
        let y_flat = group.group("outputs")?.dataset("energies")?.read_f32()?;
        let samples = x_flat.len() / POSE_DOF;
        let x = Tensor::from_vec(x_flat, [samples, POSE_DOF])?;
        let y = Tensor::from_vec(y_flat, [samples, 1])?;
        let t = train_surrogate(
            x,
            y,
            hpacml_nn::data::NormAxis::PerFeature,
            hpacml_nn::data::NormAxis::PerFeature,
            spec,
            tc,
            model_path,
            1024,
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
        let bc = BudeConfig::for_scale(cfg.scale);
        let deck = Deck::generate(bc.protein_atoms, bc.ligand_atoms, cfg.seed);
        let poses = PoseBatch::generate(bc.n_poses, cfg.seed.wrapping_add(0xBEEF));

        let mut reference = vec![0.0f32; poses.n];
        let mut accurate_total = Duration::ZERO;
        for _ in 0..bc.eval_reps {
            let t0 = Instant::now();
            energies(&deck, &poses, &mut reference);
            accurate_total += t0.elapsed();
        }
        let accurate_time = accurate_total / bc.eval_reps;

        let region = build_region(None, Some(model_path))?;
        let mut approx = Vec::new();
        let mut surrogate_total = Duration::ZERO;
        for _ in 0..bc.eval_reps {
            region.reset_stats();
            let t0 = Instant::now();
            approx = run_annotated(&region, &deck, &poses, poses.n, true)?;
            surrogate_total += t0.elapsed();
        }
        let surrogate_time = surrogate_total / bc.eval_reps;

        Ok(EvalStats {
            accurate_time,
            surrogate_time,
            speedup: accurate_time.as_secs_f64() / surrogate_time.as_secs_f64().max(1e-12),
            qoi_error: metrics::mape(&reference, &approx),
            region: region.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_deck() -> Deck {
        Deck::generate(32, 8, 1)
    }

    #[test]
    fn identity_pose_keeps_ligand_fixed() {
        let deck = small_deck();
        // Zero rotation + zero translation: energy equals the untransformed sum.
        let e = pose_energy(&deck, &[0.0; 6]);
        let mut manual = 0.0f32;
        for l in &deck.ligand {
            let lp = deck.forcefield[l.ty as usize];
            for p in &deck.protein {
                let pp = deck.forcefield[p.ty as usize];
                let r = ((l.x - p.x).powi(2) + (l.y - p.y).powi(2) + (l.z - p.z).powi(2))
                    .sqrt()
                    .max(1e-3);
                let radij = lp.radius + pp.radius;
                if r < radij {
                    manual += (1.0 - r / radij) * (lp.hardness + pp.hardness) * 0.5;
                }
                if r < 8.0 {
                    manual += lp.charge * pp.charge * (1.0 - r / 8.0) * 45.0;
                }
                if r < 5.0 {
                    manual -= lp.hphb * pp.hphb * (1.0 - r / 5.0) * 0.8;
                }
            }
        }
        assert!((e - manual * 0.5).abs() < 1e-3);
    }

    #[test]
    fn rotation_preserves_ligand_shape_energy_far_away() {
        // Translate the ligand far from the protein: energy must vanish
        // regardless of rotation (every term has a cutoff).
        let deck = small_deck();
        for rot in [0.3f32, 1.2, 2.5] {
            let e = pose_energy(&deck, &[rot, rot * 0.5, -rot, 100.0, 100.0, 100.0]);
            assert_eq!(e, 0.0);
        }
    }

    #[test]
    fn energies_kernel_matches_scalar() {
        let deck = small_deck();
        let poses = PoseBatch::generate(40, 2);
        let mut out = vec![0.0f32; 40];
        energies(&deck, &poses, &mut out);
        for i in (0..40).step_by(7) {
            let e = pose_energy(&deck, &poses.data[i * 6..(i + 1) * 6]);
            assert_eq!(out[i], e);
        }
    }

    #[test]
    fn energy_varies_with_pose() {
        let deck = small_deck();
        let poses = PoseBatch::generate(100, 3);
        let mut out = vec![0.0f32; 100];
        energies(&deck, &poses, &mut out);
        let min = out.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = out.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(max > min, "poses must differentiate energies");
    }

    #[test]
    fn table_metadata() {
        let b = MiniBude;
        assert_eq!(b.qoi_metric(), "MAPE");
        assert_eq!(b.directives().len(), 4);
        assert!(b.total_loc() > 150);
    }
}
