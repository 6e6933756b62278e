//! Property-based tests of the data bridge: for arbitrary affine functors
//! and grid sizes, gather must agree with direct evaluation of the functor,
//! and gather→scatter through the same functor must roundtrip; for extreme
//! bindings, compile must never panic nor return a plan that reads outside
//! the array.

use hpacml_bridge::{compile, BridgeError, CompiledMap};
use hpacml_directive::parse::parse_directive;
use hpacml_directive::sema::{affine_form, analyze, Bindings};
use hpacml_directive::Directive;
use hpacml_tensor::Tensor;
use proptest::prelude::*;

fn functor_info(src: &str) -> hpacml_directive::sema::FunctorInfo {
    match parse_directive(src).unwrap() {
        Directive::Functor(f) => analyze(&f).unwrap(),
        other => panic!("{other:?}"),
    }
}

fn map_dir(src: &str) -> hpacml_directive::ast::MapDirective {
    match parse_directive(src).unwrap() {
        Directive::Map(m) => m,
        other => panic!("{other:?}"),
    }
}

/// One sample through the batched gather, as a batch-1 session runs it.
fn gather(plan: &CompiledMap, data: &[f32]) -> Result<Tensor, BridgeError> {
    let mut out = Tensor::zeros([0usize]);
    plan.gather_batch_into(data, 1, &mut out)?;
    Ok(out)
}

/// One sample through the batched scatter.
fn scatter(plan: &CompiledMap, lhs: &[f32], data: &mut [f32]) -> Result<(), BridgeError> {
    plan.scatter_batch(lhs, plan.numel(), 0, 1, data)
}

/// Check a `to`/`from` plan pair of one functor against `index_map`, the
/// flat per-sample array index behind every LHS element in LHS order —
/// the functor evaluated by hand. On a batch of `n` samples: the gather
/// must equal direct indexing, and scattering the gathered tensor into a
/// NaN-filled buffer must restore exactly the elements the functor reaches
/// (scatter is gather's inverse) and write nothing else.
fn check_against_index_map(
    functor: &str,
    target: &str,
    dims: &[usize],
    binds: &Bindings,
    n: usize,
    index_map: &[usize],
) -> Result<(), proptest::TestCaseError> {
    let info = functor_info(functor);
    let name = &info.decl.name;
    let to = compile(
        &info,
        &map_dir(&format!("tensor map(to: {name}({target}))")),
        dims,
        binds,
    )
    .unwrap();
    let from = compile(
        &info,
        &map_dir(&format!("tensor map(from: {name}({target}))")),
        dims,
        binds,
    )
    .unwrap();
    let (an, pn) = (to.array_numel(), to.numel());
    prop_assert_eq!(pn, index_map.len());

    let src: Vec<f32> = (0..n * an).map(|k| (k * 31 % 257) as f32 - 100.0).collect();
    let mut t = Tensor::zeros([0usize]);
    to.gather_batch_into(&src, n, &mut t).unwrap();
    for s in 0..n {
        for (e, &k) in index_map.iter().enumerate() {
            prop_assert_eq!(
                t.data()[s * pn + e],
                src[s * an + k],
                "sample {}, LHS element {} <- array element {}",
                s,
                e,
                k
            );
        }
    }

    let mut dst = vec![f32::NAN; n * an];
    from.scatter_batch(t.data(), pn, 0, n, &mut dst).unwrap();
    let mut reached = vec![false; an];
    for &k in index_map {
        reached[k] = true;
    }
    for (k, v) in dst.iter().enumerate() {
        if reached[k % an] {
            prop_assert_eq!(*v, src[k], "array element {} not restored", k);
        } else {
            prop_assert!(
                v.is_nan(),
                "array element {} outside the functor was written",
                k
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Fig. 2 shape, generalized: two point slices and one range slice
    /// of width 1..=5 per sweep point (run lengths 1 and `w`, overlapping
    /// windows along `j`), interleaved into `2 + w` feature columns.
    #[test]
    fn mixed_point_and_range_slices_roundtrip(
        n in 3usize..9,
        m in 6usize..12,
        w in 1usize..6,
        batch in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let h = w / 2; // window [j-h, j-h+w)
        let (lo, hi) = (h, m - (w - 1 - h)); // j range keeping the window inside
        let functor = format!(
            "tensor functor(st: [i, j, 0:{}] = (([i-1, j], [i+1, j], [i, j-{h}:j-{h}+{w}])))",
            2 + w
        );
        let target = format!("t[1:N-1, {lo}:{hi}]");
        let binds = Bindings::new().with("N", n as i64);
        let mut index_map = Vec::new();
        for i in 1..n - 1 {
            for j in lo..hi {
                index_map.push((i - 1) * m + j);
                index_map.push((i + 1) * m + j);
                index_map.extend((j - h..j - h + w).map(|jj| i * m + jj));
            }
        }
        check_against_index_map(&functor, &target, &[n, m], &binds, batch, &index_map)?;
    }

    /// Runs of 1..=5 elements spaced `s > run` apart along the innermost
    /// array axis, under 1-D, 2-D and 3-D sweeps: every run length the copy
    /// kernel special-cases (and one past them) at every sweep rank.
    #[test]
    fn spaced_runs_roundtrip_at_every_sweep_rank(
        rank in 1usize..4,
        run in 1usize..6,
        pad in 1usize..4,
        (c, n, m) in (1usize..4, 1usize..5, 1usize..6),
        batch in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let s = run + pad;
        let feat = format!("{s}*j : {s}*j+{run}");
        let (functor, target, dims) = match rank {
            1 => (
                format!("tensor functor(r1: [j, 0:{run}] = ([{feat}]))"),
                format!("x[0:{m}]"),
                vec![m * s],
            ),
            2 => (
                format!("tensor functor(r2: [i, j, 0:{run}] = ([i, {feat}]))"),
                format!("x[0:{n}, 0:{m}]"),
                vec![n, m * s],
            ),
            _ => (
                format!("tensor functor(r3: [c, i, j, 0:{run}] = ([c, i, {feat}]))"),
                format!("x[0:{c}, 0:{n}, 0:{m}]"),
                vec![c, n, m * s],
            ),
        };
        let rows: usize = dims[..dims.len() - 1].iter().product();
        let mut index_map = Vec::new();
        for row in 0..rows {
            for j in 0..m {
                index_map.extend((0..run).map(|e| row * m * s + j * s + e));
            }
        }
        check_against_index_map(&functor, &target, &dims, &Bindings::new(), batch, &index_map)?;
    }

    /// A transposed functor, `[i, j, 0:w] = ([j, w*i : w*i+w])`: the inner
    /// sweep axis `j` walks the array's outer one, so every feature column
    /// steps by a whole array row — the gather's strided arm — at row
    /// widths across every fixed-width arm and into a second column group.
    #[test]
    fn transposed_functor_roundtrips(
        n in 1usize..6,
        m in 1usize..7,
        w in 1usize..13,
        batch in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let functor = format!("tensor functor(tr: [i, j, 0:{w}] = ([j, {w}*i : {w}*i+{w}]))");
        let target = format!("x[0:{n}, 0:{m}]");
        let mut index_map = Vec::new();
        for i in 0..n {
            for j in 0..m {
                index_map.extend((0..w).map(|e| j * n * w + w * i + e));
            }
        }
        check_against_index_map(&functor, &target, &[m, n * w], &Bindings::new(), batch, &index_map)?;
    }

    /// A point slice beside an overlapping window of `w` unit-step columns,
    /// `[i, j, 0:1+w] = (([i-1, j], [i, j : j+w]))`: rows of 2..=13
    /// features through the unit-step arm, wider ones split into column
    /// groups.
    #[test]
    fn feature_widths_past_the_fixed_width_arms_roundtrip(
        n in 2usize..6,
        m in 1usize..8,
        w in 1usize..13,
        batch in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let functor = format!("tensor functor(wd: [i, j, 0:{}] = (([i-1, j], [i, j : j+{w}])))", 1 + w);
        let cols = m + w - 1;
        let target = format!("x[1:{n}, 0:{m}]");
        let mut index_map = Vec::new();
        for i in 1..n {
            for j in 0..m {
                index_map.push((i - 1) * cols + j);
                index_map.extend((j..j + w).map(|jj| i * cols + jj));
            }
        }
        check_against_index_map(&functor, &target, &[n, cols], &Bindings::new(), batch, &index_map)?;
    }

    /// Random symmetric stencil radius + grid: gathered features equal the
    /// directly indexed neighborhood at every interior sweep point.
    #[test]
    fn stencil_gather_matches_direct_indexing(
        n in 4usize..12,
        m in 4usize..12,
        radius in 1usize..3,
    ) {
        prop_assume!(n > 2 * radius && m > 2 * radius);
        let r = radius as i64;
        let functor = format!(
            "tensor functor(st: [i, j, 0:3] = (([i-{r}, j], [i, j], [i+{r}, j])))"
        );
        let map = format!("tensor map(to: st(t[{r}:N-{r}, 0:M]))");
        let info = functor_info(&functor);
        let map = map_dir(&map);
        let binds = Bindings::new().with("N", n as i64).with("M", m as i64);
        let plan = compile(&info, &map, &[n, m], &binds).unwrap();
        let grid: Vec<f32> = (0..n * m).map(|k| (k * k % 97) as f32).collect();
        let t = gather(&plan, &grid).unwrap();
        let sweep_i = n - 2 * radius;
        prop_assert_eq!(t.dims(), &[sweep_i, m, 3]);
        for si in 0..sweep_i {
            for j in 0..m {
                let i = si + radius;
                prop_assert_eq!(t.at(&[si, j, 0]), grid[(i - radius) * m + j]);
                prop_assert_eq!(t.at(&[si, j, 1]), grid[i * m + j]);
                prop_assert_eq!(t.at(&[si, j, 2]), grid[(i + radius) * m + j]);
            }
        }
    }

    /// Flat row-block functors (the MiniBUDE/Binomial/Bonds pattern) with a
    /// random feature width: gather is exactly the identity on the block.
    #[test]
    fn row_block_gather_is_identity(
        rows in 1usize..20,
        width in 1usize..9,
    ) {
        let functor = format!(
            "tensor functor(rows: [i, 0:{width}] = ([{width}*i : {width}*i+{width}]))"
        );
        let info = functor_info(&functor);
        let map = map_dir("tensor map(to: rows(x[0:N]))");
        let binds = Bindings::new().with("N", rows as i64);
        let plan = compile(&info, &map, &[rows * width], &binds).unwrap();
        let data: Vec<f32> = (0..rows * width).map(|k| k as f32 * 0.5).collect();
        let t = gather(&plan, &data).unwrap();
        prop_assert_eq!(t.data(), data.as_slice());
    }

    /// Gather → scatter through the identity functor restores the interior
    /// and never touches anything outside the mapped region.
    #[test]
    fn interior_roundtrip_never_touches_boundary(
        n in 3usize..10,
        m in 3usize..10,
    ) {
        let info = functor_info("tensor functor(id: [i, j, 0:1] = ([i, j]))");
        let to = map_dir("tensor map(to: id(a[1:N-1, 1:M-1]))");
        let from = map_dir("tensor map(from: id(a[1:N-1, 1:M-1]))");
        let binds = Bindings::new().with("N", n as i64).with("M", m as i64);
        let plan_to = compile(&info, &to, &[n, m], &binds).unwrap();
        let plan_from = compile(&info, &from, &[n, m], &binds).unwrap();

        let src: Vec<f32> = (0..n * m).map(|k| (k % 13) as f32 - 6.0).collect();
        let t = gather(&plan_to, &src).unwrap();
        let mut dst = vec![f32::NAN; n * m];
        scatter(&plan_from, t.data(), &mut dst).unwrap();
        for i in 0..n {
            for j in 0..m {
                let v = dst[i * m + j];
                if i == 0 || i == n - 1 || j == 0 || j == m - 1 {
                    prop_assert!(v.is_nan(), "boundary ({i},{j}) was written");
                } else {
                    prop_assert_eq!(v, src[i * m + j]);
                }
            }
        }
    }

    /// The compiled LHS element count always equals sweep × feature extents.
    #[test]
    fn lhs_numel_invariant(n in 2usize..16, feat in 1usize..6) {
        let functor = format!(
            "tensor functor(f: [i, 0:{feat}] = ([{feat}*i : {feat}*i+{feat}]))"
        );
        let info = functor_info(&functor);
        let map = map_dir("tensor map(to: f(x[0:N]))");
        let binds = Bindings::new().with("N", n as i64);
        let plan = compile(&info, &map, &[n * feat], &binds).unwrap();
        prop_assert_eq!(plan.numel(), n * feat);
        prop_assert_eq!(plan.sweep_counts.iter().product::<usize>(), n);
        prop_assert_eq!(plan.elem_counts.iter().sum::<usize>(), feat);
        // Scatter rejects a source shorter than the LHS.
        let wrong = Tensor::zeros([plan.numel() - 1]);
        let mut buf = vec![0.0f32; n * feat];
        prop_assert!(scatter(&plan, wrong.data(), &mut buf).is_err());
    }
}

/// A batch large enough (`n · numel ≥ 2^16`) that gather and scatter split
/// it across samples on the pool: the Fig. 2 stencil on a 20² grid, 41
/// samples.
#[test]
fn parallel_batch_roundtrips() {
    let (g, n) = (20usize, 41usize);
    let functor = "tensor functor(st: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))";
    let mut index_map = Vec::new();
    for i in 1..g - 1 {
        for j in 1..g - 1 {
            index_map.extend([(i - 1) * g + j, (i + 1) * g + j]);
            index_map.extend((j - 1..j + 2).map(|jj| i * g + jj));
        }
    }
    assert!(n * index_map.len() >= 1 << 16);
    check_against_index_map(
        functor,
        "t[1:19, 1:19]",
        &[g, g],
        &Bindings::new(),
        n,
        &index_map,
    )
    .unwrap();
}

/// Small values (half the draws, so that enough ranges are non-empty and
/// in bounds to compile), `±2^k (+ -1..=1)` for `k` in `30..63`, and both
/// `i64` extremes: the values where 64-bit index arithmetic overflows.
fn extreme() -> impl Strategy<Value = i64> {
    prop_oneof![
        -2i64..24,
        -2i64..24,
        -2i64..24,
        -2i64..24,
        (30u32..63, -1i64..2).prop_map(|(k, d)| (1i64 << k) + d),
        (30u32..63, -1i64..2).prop_map(|(k, d)| -(1i64 << k) + d),
        Just(i64::MIN),
        Just(i64::MAX),
    ]
}

/// An array extent: small, or `2^k` for `k` in `30..63`.
fn extent() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..40, (30u32..63).prop_map(|k| 1usize << k)]
}

/// Functors over one and two sweep symbols: points, a window, a row block,
/// a stepped range, a large coefficient and the Fig. 2 stencil.
const EXTREME_FUNCTORS: [&str; 6] = [
    "tensor functor(p: [i, 0:1] = ([i]))",
    "tensor functor(w: [i, 0:3] = ([i-1 : i+2]))",
    "tensor functor(r: [i, 0:8] = ([8*i : 8*i+8]))",
    "tensor functor(s: [i, 0:2] = ([6*i+1 : 6*i+5 : 2]))",
    "tensor functor(b: [i, 0:1] = ([1073741824*i - 3]))",
    "tensor functor(st: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))",
];

/// Points of `start:stop:step`, recomputed in `i128`: `(start, count,
/// step)`, or `None` for a range `compile` must reject (empty, or a
/// non-positive step).
fn sweep_points(start: i64, stop: i64, step: i64) -> Option<(i128, i128, i128)> {
    let span = stop as i128 - start as i128;
    (step > 0 && span > 0).then(|| {
        (
            start as i128,
            (span + step as i128 - 1) / step as i128,
            step as i128,
        )
    })
}

/// The lowest and highest flat element any RHS slice of `info` reads over
/// `sweep`, in `i128` with every product checked: `None` when the range
/// does not even fit an `i128` (then no plan may exist).
fn read_range(
    info: &hpacml_directive::sema::FunctorInfo,
    dims: &[usize],
    sweep: &[(i128, i128, i128)],
) -> Option<(i128, i128)> {
    let mut strides = vec![1i128; dims.len()];
    for d in (0..dims.len() - 1).rev() {
        strides[d] = strides[d + 1].checked_mul(dims[d + 1] as i128)?;
    }
    let (mut lo, mut hi) = (i128::MAX, i128::MIN);
    for spec in &info.decl.rhs {
        let (mut base, mut lo_s, mut hi_s) = (0i128, 0i128, 0i128);
        for (slice, &stride) in spec.0.iter().zip(&strides) {
            let start = affine_form(&slice.start, &info.sweep_syms).unwrap();
            base = base.checked_add(stride.checked_mul(start.constant as i128)?)?;
            for (sym, &(first, count, step)) in info.sweep_syms.iter().zip(sweep) {
                let coeff = stride.checked_mul(start.coeffs[sym] as i128)?;
                base = base.checked_add(coeff.checked_mul(first)?)?;
                let reach = coeff.checked_mul(step)?.checked_mul(count - 1)?;
                if reach < 0 {
                    lo_s = lo_s.checked_add(reach)?;
                } else {
                    hi_s = hi_s.checked_add(reach)?;
                }
            }
            if let Some(stop) = &slice.stop {
                let span = affine_form(stop, &info.sweep_syms).unwrap().constant - start.constant;
                let step = slice
                    .step
                    .as_ref()
                    .map_or(1, |e| affine_form(e, &[]).unwrap().constant);
                let last = (span as i128 + step as i128 - 1) / step as i128 - 1;
                hi_s = hi_s.checked_add(stride.checked_mul(step as i128 * last)?)?;
            }
        }
        lo = lo.min(base.checked_add(lo_s)?);
        hi = hi.max(base.checked_add(hi_s)?);
    }
    Some((lo, hi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Bindings, range bounds and steps at the edges of `i64`: `compile`
    /// never panics, and every plan it returns visits exactly the points
    /// the range has and reads only inside the array (both recomputed in
    /// `i128`). Small plans are also gathered and scattered.
    #[test]
    fn extreme_bindings_compile_to_typed_errors_or_in_bounds_plans(
        which in 0usize..6,
        (a, b, c) in (extreme(), extreme(), extreme()),
        (d, e) in (extreme(), extreme()),
        (rows, cols) in (extent(), extent()),
    ) {
        let info = functor_info(EXTREME_FUNCTORS[which]);
        let two_d = info.sweep_syms.len() == 2;
        let (target, dims) = if two_d {
            ("x[A:B:S, C:D]", vec![rows, cols])
        } else {
            ("x[A:B:S]", vec![rows])
        };
        let map = map_dir(&format!("tensor map(to: {}({target}))", info.decl.name));
        let binds = Bindings::new().with("A", a).with("B", b).with("S", c).with("C", d).with("D", e);
        let Ok(plan) = compile(&info, &map, &dims, &binds) else {
            return Ok(());
        };

        let mut sweep = vec![sweep_points(a, b, c)];
        if two_d {
            sweep.push(sweep_points(d, e, 1));
        }
        let sweep: Option<Vec<_>> = sweep.into_iter().collect();
        prop_assert!(sweep.is_some(), "empty range compiled: {plan:?}");
        let sweep = sweep.unwrap();
        for (got, (_, count, _)) in plan.sweep_counts.iter().zip(&sweep) {
            prop_assert_eq!(*got as i128, *count, "sweep count");
        }
        let len = dims.iter().map(|&n| n as i128).product::<i128>();
        let range = read_range(&info, &dims, &sweep);
        prop_assert!(range.is_some(), "reads overflow i128 yet compiled: {plan:?}");
        let (lo, hi) = range.unwrap();
        prop_assert!(0 <= lo && hi < len, "plan reads [{lo}, {hi}] of {len} elements: {plan:?}");

        if plan.array_numel() <= 4096 && plan.numel() <= 4096 {
            let data: Vec<f32> = (0..plan.array_numel()).map(|k| k as f32).collect();
            let t = gather(&plan, &data).unwrap();
            let mut back = vec![0.0f32; data.len()];
            scatter(&plan, t.data(), &mut back).unwrap();
        }
    }
}
