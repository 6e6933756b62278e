//! Property-based tests of the data bridge: for arbitrary affine functors
//! and grid sizes, gather must agree with direct evaluation of the functor,
//! and gather→scatter through the same functor must roundtrip.

use hpacml_bridge::compile;
use hpacml_directive::parse::parse_directive;
use hpacml_directive::sema::{analyze, Bindings};
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
        let t = plan.gather(&grid).unwrap();
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
        let t = plan.gather(&data).unwrap();
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
        let t = plan_to.gather(&src).unwrap();
        let mut dst = vec![f32::NAN; n * m];
        plan_from.scatter(&t, &mut dst).unwrap();
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
        // Scatter rejects any wrong-size tensor.
        let wrong = Tensor::zeros([plan.numel() + 1]);
        let mut buf = vec![0.0f32; n * feat];
        prop_assert!(plan.scatter(&wrong, &mut buf).is_err());
    }
}
