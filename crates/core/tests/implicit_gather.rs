//! The implicit gather: a session whose single input's features are
//! contiguous along the innermost walk axis, and whose model starts with a
//! narrow chain, runs its forward straight from the application array in
//! `SessionRun::input` — no gathered tensor — whenever the invocation is
//! certain to serve the surrogate. The served bits must be those of the
//! gather + `ForwardWorkspace::forward_at` path, computed here directly
//! from the bridge and the model, at every rung, batch and pool width; the
//! in-place path must run exactly when the invocation qualifies; and its
//! stats must read as a gathered run's, with the array read counted as
//! inference (`to_tensor_ns == 0`).
//!
//! `in_place_against_gather_same_process` is the A/B: one binary, one
//! thread, p50 of 300 alternating calls of each path on the benchmark's
//! `stencil_step` shape (258² grid, 5→8→1). Run it in the release build
//! with `--nocapture --test-threads=1` to read the two times; it asserts
//! the bits, not the times.

use hpacml_bridge::CompiledMap;
use hpacml_core::{
    ErrorMetric, PathTaken, Precision, PrecisionPolicy, Region, RegionStats, Session,
    ValidationPolicy,
};
use hpacml_directive::sema::{analyze, Bindings};
use hpacml_directive::{parse_directives, Direction, Directive};
use hpacml_nn::data::{NormAxis, Normalizer};
use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::{ForwardWorkspace, InferWorkspace};
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PRECS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::Int8];

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hpacml-implicit-gather")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// SplitMix64: the cases and the data from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    }

    fn values(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.unit()).collect()
    }
}

/// A stencil-like input functor over a `rows × cols` grid with a one-cell
/// halo: its slices (a point `[i+di, j+dj]`, or a run along `j`) and how
/// many features they give.
fn random_functor(rng: &mut Rng) -> (String, usize) {
    let mut slices = Vec::new();
    let mut features = 0;
    for _ in 0..1 + rng.below(4) {
        let di = ["i-1", "i", "i+1"][rng.below(3)];
        match rng.below(3) {
            0 => {
                let dj = ["j-1", "j", "j+1"][rng.below(3)];
                slices.push(format!("[{di}, {dj}]"));
                features += 1;
            }
            1 => {
                slices.push(format!("[{di}, j-1:j+2]"));
                features += 3;
            }
            _ => {
                slices.push(format!("[{di}, j:j+2]"));
                features += 2;
            }
        }
    }
    (
        format!("[i, j, 0:{features}] = (({}))", slices.join(", ")),
        features,
    )
}

/// An infer-mode region `t → tnew` through `functor` over the grid's
/// interior (`halo` cells kept out), served by the model at `model`.
fn stencil_source(functor: &str, halo: usize, model: &Path) -> String {
    format!(
        "#pragma approx tensor functor(ifnctr: {functor})\n\
         #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))\n\
         #pragma approx tensor map(to: ifnctr(t[{halo}:N-{halo}, {halo}:M-{halo}]))\n\
         #pragma approx tensor map(from: ofnctr(tnew[{halo}:N-{halo}, {halo}:M-{halo}]))\n\
         #pragma approx ml(infer) in(t) out(tnew) model(\"{}\")",
        model.display()
    )
}

fn binds(rows: usize, cols: usize) -> Bindings {
    Bindings::new()
        .with("N", rows as i64)
        .with("M", cols as i64)
}

/// The region's two plans, compiled straight from its directives.
fn plans(source: &str, grid: &[usize], binds: &Bindings) -> (CompiledMap, CompiledMap) {
    let directives = parse_directives(source).unwrap();
    let compile = |direction: Direction| {
        let map = directives
            .iter()
            .find_map(|d| match d {
                Directive::Map(m) if m.direction == direction => Some(m),
                _ => None,
            })
            .unwrap();
        let decl = directives
            .iter()
            .find_map(|d| match d {
                Directive::Functor(f) if f.name == map.functor => Some(f),
                _ => None,
            })
            .unwrap();
        hpacml_bridge::compile(&analyze(decl).unwrap(), map, grid, binds).unwrap()
    };
    (compile(Direction::To), compile(Direction::From))
}

/// The gathered path, computed directly: the bridge gathers `t` through
/// the region's plans, the model (loaded, quantized for `prec`) runs
/// `infer_with_at` — `forward_at` plus the output normalizer — and the
/// bridge scatters into a copy of `tnew`.
fn gathered_reference(
    (to, from): &(CompiledMap, CompiledMap),
    model: &Path,
    prec: Precision,
    n: usize,
    t: &[f32],
    tnew: &[f32],
) -> Vec<f32> {
    let mut saved = load_model(model).unwrap();
    saved.quantize(prec);
    let mut x = Tensor::default();
    to.gather_batch_into(t, n, &mut x).unwrap();
    let k = *to.lhs_shape.last().unwrap();
    let rows = x.numel() / k;
    x.reshape_in_place(&[rows, k]).unwrap();
    let mut ws = InferWorkspace::new();
    let y = saved.infer_with_at(&mut ws, &x, prec).unwrap();
    let mut out = tnew.to_vec();
    from.scatter_batch(y.data(), from.numel(), 0, n, &mut out)
        .unwrap();
    out
}

/// One invocation of `n` samples through the session (the host closure
/// must not run); returns the served grid and the stats it added.
fn serve(
    region: &Region,
    session: &Session<'_>,
    n: usize,
    t: &[f32],
    tnew: &[f32],
) -> (Vec<f32>, RegionStats) {
    let mut out = tnew.to_vec();
    region.reset_stats();
    let mut outcome = session
        .invoke_batch(n)
        .unwrap()
        .input("t", t)
        .unwrap()
        .run(|| panic!("the host code ran on an infer-mode region"))
        .unwrap();
    outcome.output("tnew", &mut out).unwrap();
    assert_eq!(outcome.finish().unwrap(), PathTaken::Surrogate);
    (out, region.stats())
}

fn save_mlp(path: &Path, features: usize, hidden: &[usize], seed: u64, out_norm: bool) {
    let spec = ModelSpec::mlp(features, hidden, 1, Activation::Tanh, 0.0);
    let model = spec.build(seed).unwrap();
    let norm = out_norm.then(|| Normalizer {
        axis: NormAxis::Global,
        mean: vec![0.25],
        std: vec![1.5],
    });
    save_model(path, &spec, &model, None, norm.as_ref()).unwrap();
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Random stencil functors over grids whose inner extent is and is not a
/// multiple of 16, chains followed by wide layers or not, an output
/// normalizer or not: at every rung, batch of 1 and 3 and pool width 1–3,
/// the in-place forward serves the gathered path's bits.
#[test]
fn in_place_forward_serves_the_gathered_bits() {
    const HIDDEN: [&[usize]; 4] = [&[8], &[5, 3], &[8, 4, 16], &[2, 7, 1]];
    const GRIDS: [(usize, usize); 4] = [(12, 18), (9, 37), (40, 9), (21, 35)];
    let dir = tmpdir("bits");
    let mut rng = Rng(0x1A7E);
    let mut served = 0;
    for case in 0..8 {
        let (functor, features) = random_functor(&mut rng);
        let hidden = HIDDEN[case % HIDDEN.len()];
        let (rows, cols) = GRIDS[rng.below(GRIDS.len())];
        let model = dir.join(format!("m{case}.hml"));
        save_mlp(&model, features, hidden, case as u64, case % 3 == 1);
        let source = stencil_source(&functor, 1, &model);
        let b = binds(rows, cols);
        let grid = [rows, cols];
        let maps = plans(&source, &grid, &b);
        for prec in PRECS {
            let region = Region::from_source("implicit", &source).unwrap();
            if prec != Precision::F32 {
                region
                    .set_precision_policy(&PrecisionPolicy::at(prec))
                    .unwrap();
            }
            let session = region
                .session(&b, &[("t", &grid), ("tnew", &grid)], 3)
                .unwrap();
            for n in [1, 3] {
                let t = rng.values(n * rows * cols);
                let tnew = rng.values(n * rows * cols);
                let want = gathered_reference(&maps, &model, prec, n, &t, &tnew);
                // The first run resolves the model through the gather path.
                serve(&region, &session, n, &t, &tnew);
                for width in 1..=3 {
                    let (got, stats) = with_pool(&Pool::new(width - 1), || {
                        serve(&region, &session, n, &t, &tnew)
                    });
                    let what = format!(
                        "{functor} over {rows}x{cols}, hidden {hidden:?}, {prec:?}, n {n}, \
                         width {width}"
                    );
                    assert!(same_bits(&got, &want), "{what}: bits differ");
                    assert_eq!(stats.to_tensor_ns, 0, "{what}: not read in place");
                    served += 1;
                }
            }
        }
    }
    assert_eq!(served, 8 * 3 * 2 * 3);
}

/// A single-feature functor over the whole array: its two walk axes merge
/// into one run per sample, so every block but the ragged last is read in
/// place.
#[test]
fn a_merged_walk_is_one_run() {
    let dir = tmpdir("merged");
    let model = dir.join("m.hml");
    save_mlp(&model, 1, &[6, 8], 5, false);
    let source = stencil_source("[i, j, 0:1] = ([i, j])", 0, &model);
    let (rows, cols) = (13, 29);
    let (b, grid) = (binds(rows, cols), [rows, cols]);
    let maps = plans(&source, &grid, &b);
    let region = Region::from_source("merged", &source).unwrap();
    let session = region
        .session(&b, &[("t", &grid), ("tnew", &grid)], 3)
        .unwrap();
    let mut rng = Rng(7);
    for n in [1, 3] {
        let t = rng.values(n * rows * cols);
        let tnew = vec![0.0; n * rows * cols];
        let want = gathered_reference(&maps, &model, Precision::F32, n, &t, &tnew);
        serve(&region, &session, n, &t, &tnew);
        let (got, stats) = serve(&region, &session, n, &t, &tnew);
        assert!(same_bits(&got, &want), "n {n}");
        assert_eq!(stats.to_tensor_ns, 0, "n {n}");
    }
}

/// The 5-point stencil of the paper's Fig. 2, 5→8→1.
struct Stencil {
    dir: PathBuf,
    grid: [usize; 2],
    binds: Bindings,
    t: Vec<f32>,
    tnew: Vec<f32>,
}

const FIG2: &str = "[i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2]))";

impl Stencil {
    fn new(name: &str) -> Stencil {
        let (rows, cols) = (34, 34);
        let mut rng = Rng(11);
        Stencil {
            dir: tmpdir(name),
            grid: [rows, cols],
            binds: binds(rows, cols),
            t: rng.values(rows * cols),
            tnew: rng.values(rows * cols),
        }
    }

    fn model(&self, name: &str, in_norm: bool) -> PathBuf {
        let path = self.dir.join(name);
        let spec = ModelSpec::mlp(5, &[8], 1, Activation::ReLU, 0.0);
        let model = spec.build(3).unwrap();
        let norm = in_norm.then(|| Normalizer {
            axis: NormAxis::PerFeature,
            mean: vec![0.1, -0.2, 0.0, 0.3, 0.05],
            std: vec![1.0, 2.0, 0.5, 1.5, 1.0],
        });
        save_model(&path, &spec, &model, norm.as_ref(), None).unwrap();
        path
    }

    fn region(&self, model: &Path) -> Region {
        Region::from_source("fig2", &stencil_source(FIG2, 1, model)).unwrap()
    }

    fn session<'r>(&self, region: &'r Region) -> Session<'r> {
        region
            .session(&self.binds, &[("t", &self.grid), ("tnew", &self.grid)], 1)
            .unwrap()
    }

    /// Whether a warm surrogate invocation read its input in place, and
    /// what it served.
    fn in_place(&self, region: &Region) -> (bool, Vec<f32>) {
        let session = self.session(region);
        serve(region, &session, 1, &self.t, &self.tnew);
        let (out, stats) = serve(region, &session, 1, &self.t, &self.tnew);
        assert!(stats.inference_ns > 0);
        (stats.to_tensor_ns == 0, out)
    }
}

/// The path is chosen from the region, plan and model alone: a plain
/// infer-mode stencil reads in place; an input normalizer, a validation
/// policy, a database or a second input array each keep the gather, and
/// serve the same bits either way.
#[test]
fn only_a_region_certain_to_serve_reads_in_place() {
    let st = Stencil::new("select");
    let plain = st.model("plain.hml", false);
    let (read, want) = st.in_place(&st.region(&plain));
    assert!(read, "a plain infer-mode stencil reads in place");

    let normalized = st.region(&st.model("normalized.hml", true));
    assert!(!st.in_place(&normalized).0, "an input normalizer gathers");

    let validated = st.region(&plain);
    validated
        .set_validation_policy(
            ValidationPolicy::new(ErrorMetric::MaxAbs, 1e9).with_sample_rate(1_000_000),
        )
        .unwrap();
    let (read, got) = st.in_place(&validated);
    assert!(!read, "a validated region gathers");
    assert!(same_bits(&got, &want));

    let collecting = st.region(&plain);
    collecting.set_db_path(st.dir.join("db.h5"));
    let (read, got) = st.in_place(&collecting);
    assert!(!read, "a region with a database gathers");
    assert!(same_bits(&got, &want));

    // Two inputs, each of whose features is contiguous along the walk.
    let model = st.dir.join("two.hml");
    save_mlp(&model, 2, &[8], 4, false);
    let region = Region::from_source(
        "two",
        &format!(
            "#pragma approx tensor functor(one: [i, 0:1] = ([i]))\n\
             #pragma approx tensor map(to: one(a[0:N]))\n\
             #pragma approx tensor map(to: one(b[0:N]))\n\
             #pragma approx ml(infer) in(a, b) out(one(y[0:N])) model(\"{}\")",
            model.display()
        ),
    )
    .unwrap();
    let session = region
        .session(
            &Bindings::new().with("N", 64),
            &[("a", &[64]), ("b", &[64]), ("y", &[64])],
            1,
        )
        .unwrap();
    let (a, b) = (Rng(1).values(64), Rng(2).values(64));
    for _ in 0..2 {
        region.reset_stats();
        let mut y = vec![0.0; 64];
        let mut out = session
            .invoke()
            .input("a", &a)
            .unwrap()
            .input("b", &b)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y).unwrap();
        out.finish().unwrap();
    }
    assert!(region.stats().to_tensor_ns > 0, "two inputs gather");
}

/// A decision that flips after `input` read in place — `use_surrogate(false)`,
/// or a forced fallback — discards the forward: the host code serves, and
/// its bits stand.
#[test]
fn a_flipped_decision_serves_the_host_bits() {
    let st = Stencil::new("flip");
    let region = st.region(&st.model("m.hml", false));
    let session = st.session(&region);
    serve(&region, &session, 1, &st.t, &st.tnew);
    let host: Vec<f32> = (0..st.t.len()).map(|k| k as f32 * 0.5).collect();
    for force in [false, true] {
        let mut out = st.tnew.clone();
        region.reset_stats();
        let run = session.invoke().input("t", &st.t).unwrap();
        let run = if force {
            region.force_fallback(true);
            run
        } else {
            run.use_surrogate(false)
        };
        let mut outcome = run.run(|| out.copy_from_slice(&host)).unwrap();
        assert_eq!(outcome.path(), PathTaken::Accurate);
        outcome.output("tnew", &mut out).unwrap();
        outcome.finish().unwrap();
        region.force_fallback(false);
        assert!(same_bits(&out, &host), "force {force}: the host's bits");
        let stats = region.stats();
        assert_eq!(stats.to_tensor_ns, 0, "force {force}: read in place");
        assert_eq!(
            (
                stats.surrogate_invocations,
                stats.inference_ns,
                stats.from_tensor_ns
            ),
            (0, 0, 0),
            "force {force}: nothing of the forward is counted"
        );
    }
}

/// An in-place invocation counts as a gathered one does — invocations,
/// surrogate invocations, batch fill, model cache hits and the rest — with
/// `to_tensor_ns` 0: its read of the array is part of `inference_ns`.
#[test]
fn in_place_stats_read_as_a_gathered_run() {
    let st = Stencil::new("stats");
    let plain = st.region(&st.model("plain.hml", false));
    let session = st.session(&plain);
    serve(&plain, &session, 1, &st.t, &st.tnew);
    let (_, implicit) = serve(&plain, &session, 1, &st.t, &st.tnew);

    // The same model behind a database the region never writes (an
    // infer-mode invocation that serves the surrogate collects nothing)
    // keeps the gather.
    let gathering = st.region(&st.model("plain.hml", false));
    gathering.set_db_path(st.dir.join("unused.h5"));
    let session = st.session(&gathering);
    serve(&gathering, &session, 1, &st.t, &st.tnew);
    let (_, gathered) = serve(&gathering, &session, 1, &st.t, &st.tnew);

    assert_eq!(implicit.to_tensor_ns, 0);
    assert!(gathered.to_tensor_ns > 0);
    assert!(implicit.inference_ns > 0 && implicit.from_tensor_ns > 0);
    let counters = |s: RegionStats| RegionStats {
        to_tensor_ns: 0,
        inference_ns: 0,
        from_tensor_ns: 0,
        ..s
    };
    assert_eq!(counters(implicit), counters(gathered));
    assert_eq!(
        (
            implicit.invocations,
            implicit.surrogate_invocations,
            implicit.model_cache_hits
        ),
        (1, 1, 1)
    );
}

/// Bridge gather + chain on the gathered rows against the chain reading
/// the grid's columns, alternating in one process on one thread: the bits
/// must match on every call; the two p50s are printed.
#[test]
fn in_place_against_gather_same_process() {
    const GRID: usize = 258;
    let calls = if cfg!(debug_assertions) { 3 } else { 300 };
    let dir = tmpdir("ab");
    let model = dir.join("m.hml");
    let spec = ModelSpec::mlp(5, &[8], 1, Activation::ReLU, 0.0);
    save_model(&model, &spec, &spec.build(12).unwrap(), None, None).unwrap();
    let source = stencil_source(FIG2, 1, &model);
    let (to, _) = plans(&source, &[GRID, GRID], &binds(GRID, GRID));
    let saved = load_model(&model).unwrap();
    let t = Rng(12).values(GRID * GRID);
    let (mut gathered, mut fw_a, mut fw_b) = (
        Tensor::default(),
        ForwardWorkspace::new(),
        ForwardWorkspace::new(),
    );
    let (mut a_ns, mut b_ns) = (Vec::new(), Vec::new());
    with_pool(&Pool::new(0), || {
        for _ in 0..calls {
            let start = Instant::now();
            to.gather_batch_into(&t, 1, &mut gathered).unwrap();
            let rows = gathered.numel() / 5;
            gathered.reshape_in_place(&[rows, 5]).unwrap();
            let a = fw_a
                .forward_at(&saved.model, &gathered, Precision::F32)
                .unwrap();
            a_ns.push(start.elapsed().as_nanos());

            let start = Instant::now();
            let columns = to.columns(&t, 1).unwrap().unwrap();
            let b = fw_b
                .forward_columns_at(&saved.model, &columns, Precision::F32)
                .unwrap()
                .unwrap();
            b_ns.push(start.elapsed().as_nanos());
            assert!(same_bits(a.data(), b.data()));
        }
    });
    let p50 = |v: &mut Vec<u128>| {
        v.sort_unstable();
        v[v.len() / 2] as f64 / 1e3
    };
    println!(
        "stencil 258² · 5-8-1, 1 thread, p50 of {calls}: gather + chain {:.1} us, \
         chain on the grid's columns {:.1} us",
        p50(&mut a_ns),
        p50(&mut b_ns)
    );
}

/// The stencil surrogate's arithmetic written out by hand for the 258²
/// grid: each 16-point block of a grid row loads its five input slices
/// where they lie, runs `5→8` + ReLU and `8→1` in registers — the same
/// per-element chains as the model (`acc = 0`, `acc + a*w` in ascending
/// `k`, then bias, then activation) — and stores straight into `tnew`.
/// `w0` is the first layer's `[8, 5]` weights, `w1` the second's `[1, 8]`.
fn straight_line_stencil(
    grid: usize,
    (w0, b0, w1, b1): (&[f32], &[f32], &[f32], f32),
    t: &[f32],
    tnew: &mut [f32],
) {
    const L: usize = 16;
    let w0: [[f32; 5]; 8] = std::array::from_fn(|f| w0[f * 5..][..5].try_into().unwrap());
    let b0: [f32; 8] = b0.try_into().unwrap();
    let w1: [f32; 8] = w1.try_into().unwrap();
    for i in 1..grid - 1 {
        let row = |di: usize, dj: usize| &t[(i + di - 1) * grid + dj..][..grid - 2];
        let xs = [row(0, 1), row(2, 1), row(1, 0), row(1, 1), row(1, 2)];
        let out = &mut tnew[i * grid + 1..][..grid - 2];
        for (b, ob) in out.chunks_exact_mut(L).enumerate() {
            let x: [&[f32; L]; 5] =
                std::array::from_fn(|kk| xs[kk][b * L..][..L].try_into().unwrap());
            let mut y = [0.0f32; L];
            for f in 0..8 {
                let mut acc = [0.0f32; L];
                for kk in 0..5 {
                    for r in 0..L {
                        acc[r] += x[kk][r] * w0[f][kk];
                    }
                }
                for r in 0..L {
                    y[r] += (acc[r] + b0[f]).max(0.0) * w1[f];
                }
            }
            for r in 0..L {
                ob[r] = y[r] + b1;
            }
        }
    }
}

/// The session's in-place stencil op (input read in place, chain, scatter
/// into `tnew`) against [`straight_line_stencil`], alternating in one
/// process on one thread: the bits must match on every call; each of six
/// runs prints the op's p50, the chain's alone (`inference_ns`), the
/// kernel's, and the op's ratio to the kernel.
#[test]
fn chain_against_straight_line_same_process() {
    const GRID: usize = 258;
    let (runs, calls) = if cfg!(debug_assertions) {
        (1, 2)
    } else {
        (6, 300)
    };
    let dir = tmpdir("straight");
    let model = dir.join("m.hml");
    let spec = ModelSpec::mlp(5, &[8], 1, Activation::ReLU, 0.0);
    let built = spec.build(12).unwrap();
    save_model(&model, &spec, &built, None, None).unwrap();
    let weights = built.export_weights();
    let (w0, b0, w1, b1) = (&weights[0], &weights[1], &weights[2], weights[3][0]);
    let region = Region::from_source("straight", &stencil_source(FIG2, 1, &model)).unwrap();
    let grid = [GRID, GRID];
    let session = region
        .session(&binds(GRID, GRID), &[("t", &grid), ("tnew", &grid)], 1)
        .unwrap();
    let t = Rng(12).values(GRID * GRID);
    let (mut served, mut kernel) = (vec![0.0f32; GRID * GRID], vec![0.0f32; GRID * GRID]);
    let p50 = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2] as f64 / 1e3
    };
    with_pool(&Pool::new(0), || {
        // The first invocation loads the model, and gathers.
        serve(&region, &session, 1, &t, &served);
        for run in 0..runs {
            let (mut op_ns, mut chain_ns, mut kernel_ns) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..calls {
                region.reset_stats();
                let start = Instant::now();
                let mut outcome = session
                    .invoke()
                    .input("t", &t)
                    .unwrap()
                    .run(|| panic!("the host code ran on an infer-mode region"))
                    .unwrap();
                outcome.output("tnew", &mut served).unwrap();
                outcome.finish().unwrap();
                op_ns.push(start.elapsed().as_nanos() as u64);
                let stats = region.stats();
                assert_eq!(stats.to_tensor_ns, 0, "the input is read in place");
                chain_ns.push(stats.inference_ns);

                let start = Instant::now();
                straight_line_stencil(GRID, (w0, b0, w1, b1), &t, &mut kernel);
                kernel_ns.push(start.elapsed().as_nanos() as u64);
                assert!(same_bits(&served, &kernel));
            }
            let (op, chain, kernel) = (p50(&mut op_ns), p50(&mut chain_ns), p50(&mut kernel_ns));
            println!(
                "run {run}: stencil 258² · 5-8-1, 1 thread, p50 of {calls}: session op {op:.1} us \
                 (chain {chain:.1} us), straight-line kernel {kernel:.1} us, ratio {:.2}",
                op / kernel
            );
        }
    });
}
