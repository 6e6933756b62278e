//! ParticleFilter: statistical tracking of an object through noisy video
//! frames (the Rodinia benchmark).
//!
//! The application synthesizes a video of a dark disk moving over a bright
//! noisy background, then tracks it with a bootstrap particle filter:
//! propagate particles with the motion model, weight them by a pixel
//! likelihood over the disk footprint, normalize, estimate, and resample
//! systematically.
//!
//! The particle filter is itself an *algorithmic approximation* of the
//! object's location — which is what makes this the paper's Observation 1
//! benchmark: a CNN surrogate (frame → location) can beat the original
//! approximation on both runtime and accuracy. In collect mode the region
//! captures the ground-truth locations the generator knows (exactly as the
//! paper describes building the PF training set).
//!
//! QoI: the tracked object location per frame. Metric: RMSE vs ground truth.

use crate::common::*;
use hpacml_core::Region;
use hpacml_core::Session;
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{LayerSpec, ModelSpec};
use hpacml_nn::TrainConfig;
use hpacml_tensor::Tensor;
use std::path::Path;
use std::time::{Duration, Instant};

/// Frames coalesced into one batched region invocation wherever frames are
/// independent (collection and surrogate evaluation). A runtime batch — any
/// tail length reuses the same compiled session.
pub(crate) const FRAME_BATCH: usize = 32;

/// Foreground (object) pixel intensity, per Rodinia.
pub(crate) const FG: f32 = 100.0;
/// Background pixel intensity, per Rodinia.
pub(crate) const BG: f32 = 228.0;
/// Object disk radius in pixels.
pub(crate) const RADIUS: i32 = 4;

/// A synthetic video with known ground truth.
#[derive(Debug, Clone)]
pub struct Video {
    /// `frames * h * w`, row-major per frame.
    pub pixels: Vec<f32>,
    /// Ground-truth object center per frame.
    pub truth: Vec<(f32, f32)>,
    pub frames: usize,
    pub h: usize,
    pub w: usize,
}

impl Video {
    /// Generate a video: the object starts near a corner and moves with a
    /// per-video velocity plus jitter, reflecting off the walls; every pixel
    /// carries heavy Gaussian sensor noise (Rodinia-style).
    pub fn generate(frames: usize, h: usize, w: usize, seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let mut pixels = vec![0.0f32; frames * h * w];
        let mut truth = Vec::with_capacity(frames);
        let margin = RADIUS as f32 + 2.0;
        let mut x = rng.range(margin, w as f32 * 0.4);
        let mut y = rng.range(margin, h as f32 * 0.4);
        // True motion follows Rodinia's (+1, +2) direction but at a per-video
        // speed the particle filter's fixed motion prior does not know — the
        // model-mismatch that makes the PF an *approximation* (Observation 1).
        let speed = rng.range(0.3, 2.2);
        let mut vx = speed;
        let mut vy = 2.0 * speed;
        for f in 0..frames {
            x += vx + 0.3 * rng.normal();
            y += vy + 0.3 * rng.normal();
            if x < margin || x > w as f32 - margin {
                vx = -vx;
                x = x.clamp(margin, w as f32 - margin);
            }
            if y < margin || y > h as f32 - margin {
                vy = -vy;
                y = y.clamp(margin, h as f32 - margin);
            }
            truth.push((x, y));
            let base = f * h * w;
            for iy in 0..h {
                for ix in 0..w {
                    let dx = ix as f32 - x;
                    let dy = iy as f32 - y;
                    let inside = dx * dx + dy * dy <= (RADIUS * RADIUS) as f32;
                    let mean = if inside { FG } else { BG };
                    pixels[base + iy * w + ix] = mean + 35.0 * rng.normal();
                }
            }
        }
        Video {
            pixels,
            truth,
            frames,
            h,
            w,
        }
    }

    pub fn frame(&self, f: usize) -> &[f32] {
        &self.pixels[f * self.h * self.w..(f + 1) * self.h * self.w]
    }
}

/// Pixel offsets of the disk footprint (Rodinia's `disk` / `getneighbors`).
pub(crate) fn disk_offsets() -> Vec<(i32, i32)> {
    let mut out = Vec::new();
    for dy in -RADIUS..=RADIUS {
        for dx in -RADIUS..=RADIUS {
            if dx * dx + dy * dy <= RADIUS * RADIUS {
                out.push((dx, dy));
            }
        }
    }
    out
}

/// Rodinia's pixel log-likelihood: prefers pixels near FG over BG.
#[inline]
fn pixel_loglik(p: f32) -> f32 {
    (((p - BG) * (p - BG)) - ((p - FG) * (p - FG))) / 50.0
}

/// The original algorithmic approximation: a bootstrap particle filter.
/// Returns the estimated location per frame.
pub fn particle_filter(video: &Video, n_particles: usize, seed: u64) -> Vec<(f32, f32)> {
    let mut rng = GenRng::new(seed ^ 0x50F1);
    let offsets = disk_offsets();
    let (h, w) = (video.h as i32, video.w as i32);
    let (x0, y0) = video.truth[0];

    // Particles start at the (known) initial location, as in Rodinia.
    let mut px: Vec<f32> = vec![x0; n_particles];
    let mut py: Vec<f32> = vec![y0; n_particles];
    let mut weights = vec![1.0f32 / n_particles as f32; n_particles];
    let mut estimates = Vec::with_capacity(video.frames);

    for f in 0..video.frames {
        let frame = video.frame(f);
        // Propagate with the motion model + process noise.
        for i in 0..n_particles {
            px[i] += 1.0 + 2.0 * rng.normal();
            py[i] += 2.0 + 2.0 * rng.normal();
        }
        // Likelihood over the disk footprint.
        let mut max_ll = f32::NEG_INFINITY;
        let mut loglik = vec![0.0f32; n_particles];
        for i in 0..n_particles {
            let cx = px[i].round() as i32;
            let cy = py[i].round() as i32;
            let mut ll = 0.0f32;
            for (dx, dy) in &offsets {
                let ix = (cx + dx).clamp(0, w - 1);
                let iy = (cy + dy).clamp(0, h - 1);
                ll += pixel_loglik(frame[(iy * w + ix) as usize]);
            }
            loglik[i] = ll / offsets.len() as f32;
            max_ll = max_ll.max(loglik[i]);
        }
        // Weights (log-sum-exp stabilized) and normalization.
        let mut sum = 0.0f32;
        for i in 0..n_particles {
            weights[i] = (loglik[i] - max_ll).exp();
            sum += weights[i];
        }
        for wgt in weights.iter_mut() {
            *wgt /= sum.max(1e-30);
        }
        // Estimate.
        let ex: f32 = px.iter().zip(&weights).map(|(x, w)| x * w).sum();
        let ey: f32 = py.iter().zip(&weights).map(|(y, w)| y * w).sum();
        estimates.push((ex, ey));
        // Systematic resampling.
        let mut cdf = vec![0.0f32; n_particles];
        let mut acc = 0.0f32;
        for i in 0..n_particles {
            acc += weights[i];
            cdf[i] = acc;
        }
        let u0 = rng.unit() / n_particles as f32;
        let mut new_px = vec![0.0f32; n_particles];
        let mut new_py = vec![0.0f32; n_particles];
        let mut j = 0usize;
        for i in 0..n_particles {
            let u = u0 + i as f32 / n_particles as f32;
            while j < n_particles - 1 && cdf[j] < u {
                j += 1;
            }
            new_px[i] = px[j];
            new_py[i] = py[j];
        }
        px = new_px;
        py = new_py;
        for wgt in weights.iter_mut() {
            *wgt = 1.0 / n_particles as f32;
        }
    }
    estimates
}

/// RMSE of a 2-D track against ground truth (Euclidean, per frame).
pub(crate) fn track_rmse(estimates: &[(f32, f32)], truth: &[(f32, f32)]) -> f64 {
    assert_eq!(estimates.len(), truth.len());
    let sum: f64 = estimates
        .iter()
        .zip(truth)
        .map(|(e, t)| ((e.0 - t.0) as f64).powi(2) + ((e.1 - t.1) as f64).powi(2))
        .sum();
    (sum / (2.0 * estimates.len().max(1) as f64)).sqrt()
}

/// Sizes per scale.
#[derive(Debug, Clone, Copy)]
pub struct PfConfig {
    pub h: usize,
    pub w: usize,
    pub frames: usize,
    pub particles: usize,
    /// Videos used for training-data collection.
    pub train_videos: usize,
    pub eval_reps: u32,
}

impl PfConfig {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => PfConfig {
                h: 48,
                w: 48,
                frames: 10,
                particles: 4096,
                train_videos: 150,
                eval_reps: 3,
            },
            Scale::Full => PfConfig {
                h: 128,
                w: 128,
                frames: 24,
                particles: 16384,
                train_videos: 120,
                eval_reps: 20,
            },
        }
    }
}

// The Table II shape: two functor declarations, one input map, one ml
// directive with the output map embedded as an `fa-expr`.
const DIRECTIVES: [&str; 4] = [
    "#pragma approx tensor functor(ifrm: [i, j, 0:1] = ([i, j]))",
    "#pragma approx tensor functor(oloc: [i, 0:1] = ([i]))",
    "#pragma approx tensor map(to: ifrm(frame[0:H, 0:W]))",
    "#pragma approx ml(predicated:use_model) in(frame) out(oloc(loc[0:2]))",
];

/// The benchmark's canonical annotated region (the Table II directives),
/// with optional database and model overrides. Public so the golden
/// end-to-end tests and the fig10 harness drive the exact production
/// annotation.
pub fn build_region(db: Option<&Path>, model: Option<&Path>) -> AppResult<Region> {
    let mut builder = Region::builder("particlefilter");
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

/// The ParticleFilter benchmark.
pub struct ParticleFilter;

impl ParticleFilter {
    /// RMSE of the original particle-filter approximation on the evaluation
    /// video — the black vertical line in the paper's Fig. 7.
    pub fn original_approximation_rmse(&self, cfg: &BenchConfig) -> f64 {
        let pc = PfConfig::for_scale(cfg.scale);
        let video = Video::generate(pc.frames, pc.h, pc.w, cfg.seed.wrapping_add(0xF117));
        let est = particle_filter(&video, pc.particles, cfg.seed);
        track_rmse(&est, &video.truth)
    }

    /// End-to-end evaluation with online validation and adaptive fallback
    /// active (one point of the fig10 error-budget sweep), over a small set
    /// of independent evaluation videos so the controller sees multiple
    /// region invocations to act across. The accurate closure runs the real
    /// particle filter — computed once per video and cached across that
    /// video's frame chunks, so shadow validations and fallback-served
    /// chunks pay the genuine host cost exactly once per video. At a serving
    /// `precision` below f32, the region's model is quantized to `precision`
    /// before the sweep, and the validation controller demotes through the
    /// precision ladder (int8 → bf16 → f32) before any host fallback — the
    /// fig10 precision axis.
    pub fn evaluate_with_policy_at(
        &self,
        cfg: &BenchConfig,
        model_path: &Path,
        policy: hpacml_core::ValidationPolicy,
        precision: hpacml_core::Precision,
    ) -> AppResult<PolicyEval> {
        let pc = PfConfig::for_scale(cfg.scale);
        const EVAL_VIDEOS: usize = 6;
        let videos: Vec<Video> = (0..EVAL_VIDEOS)
            .map(|v| {
                Video::generate(
                    pc.frames,
                    pc.h,
                    pc.w,
                    cfg.seed.wrapping_add(0xF117 + v as u64),
                )
            })
            .collect();
        let binds = Bindings::new()
            .with("H", pc.h as i64)
            .with("W", pc.w as i64);

        let t0 = Instant::now();
        for (v, video) in videos.iter().enumerate() {
            std::hint::black_box(particle_filter(
                video,
                pc.particles,
                cfg.seed.wrapping_add(v as u64),
            ));
        }
        let accurate_time = t0.elapsed();

        let region = build_region(None, Some(model_path))?;
        if precision != hpacml_core::Precision::F32 {
            // Before the validation policy, so the fresh controller picks up
            // the precision ladder.
            region.set_precision_policy(&hpacml_core::PrecisionPolicy::at(precision))?;
        }
        region.set_validation_policy(policy)?;
        // Small frame chunks: several region invocations per video, so one
        // sweep exercises the sample-rate and hysteresis knobs.
        let chunk_frames = FRAME_BATCH.min(pc.frames.div_ceil(2)).max(1);
        let session = region.session(
            &binds,
            &[("frame", &[pc.h, pc.w]), ("loc", &[2])],
            chunk_frames,
        )?;
        let frame_len = pc.h * pc.w;
        let mut rmse_acc = 0.0f64;
        let mut locs = vec![0.0f32; chunk_frames * 2];
        let t0 = Instant::now();
        for (v, video) in videos.iter().enumerate() {
            let mut estimates: Vec<(f32, f32)> = Vec::new();
            // The PF tracks a whole video in one sequential pass; shadow and
            // fallback chunks share a single cached run of it.
            let mut pf_shadow: Option<Vec<(f32, f32)>> = None;
            let pf_seed = cfg.seed.wrapping_add(v as u64);
            let mut f0 = 0usize;
            while f0 < video.frames {
                let f1 = (f0 + chunk_frames).min(video.frames);
                let n = f1 - f0;
                let chunk = &mut locs[..n * 2];
                let mut outcome = session
                    .invoke_batch(n)?
                    .use_surrogate(true)
                    .input("frame", &video.pixels[f0 * frame_len..f1 * frame_len])?
                    .run(|| {
                        let est = pf_shadow
                            .get_or_insert_with(|| particle_filter(video, pc.particles, pf_seed));
                        for (k, &(x, y)) in est[f0..f1].iter().enumerate() {
                            chunk[2 * k] = x;
                            chunk[2 * k + 1] = y;
                        }
                    })?;
                outcome.output("loc", chunk)?;
                outcome.finish()?;
                estimates.extend(chunk.chunks_exact(2).map(|l| (l[0], l[1])));
                f0 = f1;
            }
            rmse_acc += track_rmse(&estimates, &video.truth);
        }
        let validated_time = t0.elapsed();

        let s = region.stats();
        Ok(PolicyEval {
            speedup: accurate_time.as_secs_f64() / validated_time.as_secs_f64().max(1e-12),
            qoi_error: rmse_acc / videos.len() as f64,
            fallback_fraction: s.fallback_fraction(),
            validated: s.validated_invocations,
            region: s,
        })
    }
}

impl Benchmark for ParticleFilter {
    fn name(&self) -> &'static str {
        "particlefilter"
    }

    fn default_train_config(&self, cfg: &BenchConfig) -> TrainConfig {
        let epochs = match cfg.scale {
            Scale::Quick => 40,
            Scale::Full => 150,
        };
        TrainConfig {
            epochs,
            batch_size: 64,
            optimizer: hpacml_nn::optim::Optimizer::adam(2e-3, 1e-5),
            seed: cfg.seed,
            early_stop_patience: 12,
            ..Default::default()
        }
    }

    fn description(&self) -> &'static str {
        "Statistical estimation of a target object's location given noisy \
         measurements (Rodinia particle filter)."
    }

    fn qoi_metric(&self) -> &'static str {
        "RMSE"
    }

    fn total_loc(&self) -> usize {
        source_loc(include_str!("particlefilter.rs"))
    }

    fn directives(&self) -> Vec<String> {
        DIRECTIVES.iter().map(|s| s.to_string()).collect()
    }

    fn collect(&self, cfg: &BenchConfig) -> AppResult<CollectStats> {
        cfg.ensure_workdir()?;
        let pc = PfConfig::for_scale(cfg.scale);

        // Original runtime: the particle filter over the same video set the
        // collection run processes (generation excluded from both timings).
        let videos: Vec<Video> = (0..pc.train_videos)
            .map(|v| Video::generate(pc.frames, pc.h, pc.w, cfg.seed.wrapping_add(v as u64)))
            .collect();
        let t0 = Instant::now();
        for (v, video) in videos.iter().enumerate() {
            std::hint::black_box(particle_filter(
                video,
                pc.particles,
                cfg.seed.wrapping_add(v as u64),
            ));
        }
        let plain_runtime = t0.elapsed();

        // Collection: per frame, store the frame and the ground-truth
        // location (the paper: "captures the ground-truth values to create
        // the training dataset"). Frames are independent, so chunks of up to
        // `FRAME_BATCH` go through one *batched* region invocation each; the
        // database still gets one row per frame.
        let db = cfg.db_path(self.name());
        let _ = std::fs::remove_file(&db);
        let region = build_region(Some(&db), None)?;
        let binds = Bindings::new()
            .with("H", pc.h as i64)
            .with("W", pc.w as i64);
        // One compiled session serves every frame chunk of every video.
        let session = region.session(
            &binds,
            &[("frame", &[pc.h, pc.w]), ("loc", &[2])],
            FRAME_BATCH,
        )?;
        let frame_len = pc.h * pc.w;
        let t0 = Instant::now();
        let mut rows = 0usize;
        for (v, video) in videos.iter().enumerate() {
            // The PF itself runs once per video (the accurate path), and each
            // frame is one logical region invocation, batched per chunk.
            let estimates = particle_filter(video, pc.particles, cfg.seed.wrapping_add(v as u64));
            let mut f0 = 0usize;
            while f0 < video.frames {
                let f1 = (f0 + FRAME_BATCH).min(video.frames);
                let n = f1 - f0;
                let mut locs: Vec<f32> = video.truth[f0..f1]
                    .iter()
                    .flat_map(|&(x, y)| [x, y])
                    .collect();
                let mut outcome = session
                    .invoke_batch(n)?
                    .use_surrogate(false)
                    .input("frame", &video.pixels[f0 * frame_len..f1 * frame_len])?
                    .run(|| {
                        // Accurate path: the app's own estimates (kept for
                        // the QoI); ground truth is what gets collected.
                        std::hint::black_box(&estimates[f0..f1]);
                    })?;
                outcome.output("loc", &mut locs)?;
                outcome.finish()?;
                rows += n;
                f0 = f1;
            }
        }
        let collect_runtime = t0.elapsed();
        region.flush_db()?;

        Ok(CollectStats {
            plain_runtime,
            collect_runtime,
            db_bytes: region.db_size_bytes(),
            rows,
        })
    }

    fn default_spec(&self, cfg: &BenchConfig) -> ModelSpec {
        let pc = PfConfig::for_scale(cfg.scale);
        // Table IV (ParticleFilter space): conv + maxpool + FC head.
        let (k, s) = (6usize, 3usize);
        let oh = (pc.h - k) / s + 1;
        let ow = (pc.w - k) / s + 1;
        let (pk, ps) = (2usize, 2usize);
        let ph = (oh - pk) / ps + 1;
        let pw = (ow - pk) / ps + 1;
        ModelSpec::new(
            vec![1, pc.h, pc.w],
            vec![
                LayerSpec::Conv2d {
                    in_ch: 1,
                    out_ch: 6,
                    kernel: k,
                    stride: s,
                    pad: 0,
                },
                LayerSpec::ReLU,
                LayerSpec::MaxPool2d {
                    kernel: pk,
                    stride: ps,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    in_features: 6 * ph * pw,
                    out_features: 64,
                },
                LayerSpec::ReLU,
                LayerSpec::Linear {
                    in_features: 64,
                    out_features: 2,
                },
            ],
        )
    }

    fn train_spec(
        &self,
        cfg: &BenchConfig,
        spec: &ModelSpec,
        tc: &TrainConfig,
        model_path: &Path,
    ) -> AppResult<TrainStats> {
        let pc = PfConfig::for_scale(cfg.scale);
        let file = hpacml_store::H5File::open(cfg.db_path(self.name()))?;
        let group = file.root().group("particlefilter")?;
        let xs = group.group("inputs")?.dataset("frame")?;
        let ys = group.group("outputs")?.dataset("loc")?;
        let samples = xs.rows();
        // Frames were gathered as [H, W, 1] rows; the CNN wants [N, 1, H, W].
        let x = Tensor::from_vec(xs.read_f32()?, [samples, 1, pc.h, pc.w])?;
        let y = Tensor::from_vec(ys.read_f32()?, [samples, 2])?;
        let t = train_surrogate(
            x,
            y,
            hpacml_nn::data::NormAxis::PerChannel,
            hpacml_nn::data::NormAxis::PerFeature,
            spec,
            tc,
            model_path,
            8,
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
        let pc = PfConfig::for_scale(cfg.scale);
        let video = Video::generate(pc.frames, pc.h, pc.w, cfg.seed.wrapping_add(0xF117));
        let binds = Bindings::new()
            .with("H", pc.h as i64)
            .with("W", pc.w as i64);

        // Accurate path: the original particle filter.
        let mut pf_estimates = Vec::new();
        let mut accurate_total = Duration::ZERO;
        for _ in 0..pc.eval_reps {
            let t0 = Instant::now();
            pf_estimates = particle_filter(&video, pc.particles, cfg.seed);
            accurate_total += t0.elapsed();
        }
        let accurate_time = accurate_total / pc.eval_reps;
        std::hint::black_box(&pf_estimates);

        // Surrogate path: frames are independent here, so chunks of up to
        // FRAME_BATCH frames share one CNN forward pass each, through a
        // session compiled once outside the loop.
        let region = build_region(None, Some(model_path))?;
        let session: Session<'_> = region.session(
            &binds,
            &[("frame", &[pc.h, pc.w]), ("loc", &[2])],
            FRAME_BATCH,
        )?;
        let frame_len = pc.h * pc.w;
        let mut cnn_estimates: Vec<(f32, f32)> = Vec::new();
        let mut locs = vec![0.0f32; FRAME_BATCH * 2];
        let mut surrogate_total = Duration::ZERO;
        for _ in 0..pc.eval_reps {
            region.reset_stats();
            cnn_estimates.clear();
            let t0 = Instant::now();
            let mut f0 = 0usize;
            while f0 < video.frames {
                let f1 = (f0 + FRAME_BATCH).min(video.frames);
                let n = f1 - f0;
                let mut outcome = session
                    .invoke_batch(n)?
                    .use_surrogate(true)
                    .input("frame", &video.pixels[f0 * frame_len..f1 * frame_len])?
                    .run(|| unreachable!("surrogate path"))?;
                outcome.output("loc", &mut locs[..n * 2])?;
                outcome.finish()?;
                cnn_estimates.extend(locs[..n * 2].chunks_exact(2).map(|l| (l[0], l[1])));
                f0 = f1;
            }
            surrogate_total += t0.elapsed();
        }
        let surrogate_time = surrogate_total / pc.eval_reps;

        Ok(EvalStats {
            accurate_time,
            surrogate_time,
            speedup: accurate_time.as_secs_f64() / surrogate_time.as_secs_f64().max(1e-12),
            qoi_error: track_rmse(&cnn_estimates, &video.truth),
            region: region.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_object_is_dark_on_bright_background() {
        // Heavy per-pixel noise: average small patches to test the means.
        let v = Video::generate(4, 32, 32, 1);
        let (x, y) = v.truth[2];
        let frame = v.frame(2);
        let patch_mean = |cx: usize, cy: usize| -> f32 {
            let mut sum = 0.0;
            let mut n = 0;
            for dy in 0..2 {
                for dx in 0..2 {
                    sum += frame[(cy + dy) * 32 + cx + dx];
                    n += 1;
                }
            }
            sum / n as f32
        };
        let center = patch_mean(x.round() as usize - 1, y.round() as usize - 1);
        assert!((center - FG).abs() < 60.0, "object patch {center}");
        let corner = patch_mean(0, 0);
        assert!((corner - BG).abs() < 60.0, "background patch {corner}");
        assert!(corner > center, "object must be darker than background");
    }

    #[test]
    fn truth_stays_in_bounds() {
        let v = Video::generate(50, 40, 60, 3);
        for (x, y) in &v.truth {
            assert!(*x >= 0.0 && *x < 60.0);
            assert!(*y >= 0.0 && *y < 40.0);
        }
    }

    #[test]
    fn disk_footprint_is_symmetric() {
        let offs = disk_offsets();
        assert!(offs.contains(&(0, 0)));
        for (dx, dy) in &offs {
            assert!(offs.contains(&(-dx, -dy)));
        }
        // π r² within ±20%.
        let area = std::f32::consts::PI * (RADIUS * RADIUS) as f32;
        assert!((offs.len() as f32 - area).abs() < 0.2 * area + 5.0);
    }

    #[test]
    fn pixel_likelihood_prefers_foreground() {
        assert!(pixel_loglik(FG) > pixel_loglik(BG));
        assert!(pixel_loglik(FG) > 0.0);
        assert!(pixel_loglik(BG) < 0.0);
    }

    #[test]
    fn particle_filter_tracks_the_object() {
        let v = Video::generate(12, 48, 48, 7);
        let est = particle_filter(&v, 2048, 11);
        let rmse = track_rmse(&est, &v.truth);
        assert!(rmse < 2.0, "particle filter lost the object: RMSE {rmse}");
        // And it is an *approximation*: not exact.
        assert!(rmse > 0.01);
    }

    #[test]
    fn more_particles_do_not_hurt() {
        let v = Video::generate(10, 48, 48, 13);
        let coarse = track_rmse(&particle_filter(&v, 256, 1), &v.truth);
        let fine = track_rmse(&particle_filter(&v, 8192, 1), &v.truth);
        assert!(fine <= coarse * 1.5 + 0.5, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn track_rmse_basics() {
        let a = vec![(0.0f32, 0.0f32), (1.0, 1.0)];
        assert_eq!(track_rmse(&a, &a), 0.0);
        let b = vec![(3.0f32, 4.0f32), (1.0, 1.0)];
        // First point distance 5 → squared 25 over 4 coords = 2.5.
        assert!((track_rmse(&a, &b) - (25.0f64 / 4.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn table_metadata() {
        let b = ParticleFilter;
        assert_eq!(b.qoi_metric(), "RMSE");
        assert_eq!(b.directives().len(), 4);
    }
}
