//! Bit-determinism of the tiled GEMM: the same problem must produce the
//! same bytes regardless of how many worker threads execute it and whether
//! weights were packed at load or on the fly — because every output element
//! is one ascending-`k` accumulator chain no matter how the work is
//! partitioned. (The sweeps
//! over the cache-slab depth `kc` live in the crate's own `gemm`/`quant`
//! tests, beside the crate-private entry points that take it.)
//!
//! This is an integration test (own process) so it can pin the global
//! pool's worker count via `HPACML_THREADS` *before* anything touches the
//! pool: the serial executions below then come from the pool's
//! nested-dispatch rule (a `parallel_for` issued from inside a worker runs
//! inline), giving a true 1-thread/N-thread comparison in one process.

use hpacml_tensor::gemm::{self, Act, Epilogue, PackedB};
use hpacml_tensor::ops::{self, Conv2dGeom};
use hpacml_tensor::quant::{self, QPackedB};
use hpacml_tensor::{Precision, Tensor};
use std::sync::Once;

static INIT: Once = Once::new();

/// Force the global pool to 7 workers + caller. Must run before any test
/// body touches `hpacml_par` (the pool is built on first use).
fn setup() {
    INIT.call_once(|| {
        // SAFETY: single-threaded at this point — called before the pool
        // (the only reader) initializes, and test bodies synchronize on the
        // `Once`. The `unsafe` is required: `set_var` is unsafe from edition
        // 2024 and warns without it under `-D warnings`.
        // lint: allow(no-unsafe) — one pre-pool `set_var`; justified above
        unsafe { std::env::set_var("HPACML_THREADS", "8") };
    });
}

/// Run `f` with parallelism disabled: a nested `parallel_for` dispatch
/// runs inline on the issuing worker, so everything inside `f` executes
/// on one thread.
fn run_serial(f: impl Fn() + Sync) {
    hpacml_par::parallel_for(1, 1, |_| f());
}

fn mat(m: usize, n: usize, seed: u64) -> Tensor<f32> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Tensor::from_shape_fn([m, n], |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

#[test]
fn gemm_is_bitwise_identical_at_1_and_n_threads() {
    setup();
    // Big enough that the parallel path actually splits into many stripes.
    let (m, k, n) = (301usize, 67usize, 93usize);
    let a = mat(m, k, 1);
    let bt = mat(n, k, 2);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.01 - 0.3).collect();
    let bp = PackedB::from_transb(&bt).unwrap();
    for act in [None, Some(Act::Relu), Some(Act::Tanh), Some(Act::Sigmoid)] {
        let epi = Epilogue::col_bias(&bias).with_act(act);
        let mut par = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&a, &bp, epi, &mut par).unwrap();

        let serial = parking_lot::Mutex::new(Tensor::zeros([0usize; 2]));
        run_serial(|| {
            let mut c = Tensor::zeros([0usize; 2]);
            gemm::matmul_transb_packed_into(&a, &bp, epi, &mut c).unwrap();
            *serial.lock() = c;
        });
        assert_eq!(
            par.data(),
            serial.lock().data(),
            "act {act:?}: parallel and serial runs must be bit-identical"
        );
    }
}

#[test]
fn conv_forward_is_bitwise_identical_at_1_and_n_threads() {
    setup();
    // Batched conv parallelizes over samples; the GEMM inside each sample
    // must not care which worker ran it.
    let g = Conv2dGeom::square(3, 1, 1);
    let input = mat(6 * 4 * 24 * 48, 1, 7).reshape([6, 4, 24, 48]).unwrap();
    let weight = mat(4 * 4 * 3 * 3, 1, 8).reshape([4, 4, 3, 3]).unwrap();
    let bias = vec![0.05f32, -0.1, 0.2, 0.0];
    let mut par = Tensor::zeros([0usize; 4]);
    ops::conv2d_fused_into(&input, &weight, &bias, g, Some(Act::Tanh), &mut par).unwrap();

    let serial = parking_lot::Mutex::new(Tensor::zeros([0usize; 4]));
    run_serial(|| {
        let mut c = Tensor::zeros([0usize; 4]);
        ops::conv2d_fused_into(&input, &weight, &bias, g, Some(Act::Tanh), &mut c).unwrap();
        *serial.lock() = c;
    });
    assert_eq!(par.data(), serial.lock().data());
}

/// Pool width must never change a bit. Totals {1, 2, 3, 8} cover the
/// caller-only path, even splits, an odd count (stripe boundaries land off
/// the MR grid's natural splits, catching tail-alignment bugs) and the CI
/// matrix's wide end — all compared against the 8-thread global pool.
#[test]
fn gemm_bits_are_identical_across_pool_sizes() {
    setup();
    let (m, k, n) = (137usize, 83usize, 61usize);
    let a = mat(m, k, 11);
    let bt = mat(n, k, 12);
    let bp = PackedB::from_transb(&bt).unwrap();
    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.07 - 0.4).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
    let mut base = Tensor::zeros([0usize; 2]);
    gemm::matmul_transb_packed_into(&a, &bp, epi, &mut base).unwrap();
    for workers in [0usize, 1, 2, 7] {
        let pool = hpacml_par::Pool::new(workers);
        hpacml_par::with_pool(&pool, || {
            let mut c = Tensor::zeros([0usize; 2]);
            gemm::matmul_transb_packed_into(&a, &bp, epi, &mut c).unwrap();
            assert_eq!(
                c.data(),
                base.data(),
                "{} total threads changed the bits",
                workers + 1
            );
        });
    }
}

/// Steal schedules vary from run to run of the *same build* — which chunk
/// a worker claims depends on OS scheduling. The bits must not.
#[test]
fn repeated_runs_with_stealing_are_bitwise_stable() {
    setup();
    let (m, k, n) = (301usize, 67usize, 93usize);
    let a = mat(m, k, 13);
    let bt = mat(n, k, 14);
    let bp = PackedB::from_transb(&bt).unwrap();
    let bias: Vec<f32> = (0..n).map(|j| (j as f32).cos()).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Sigmoid));
    let mut base = Tensor::zeros([0usize; 2]);
    gemm::matmul_transb_packed_into(&a, &bp, epi, &mut base).unwrap();
    let mut c = Tensor::zeros([0usize; 2]);
    for rep in 0..10 {
        gemm::matmul_transb_packed_into(&a, &bp, epi, &mut c).unwrap();
        assert_eq!(c.data(), base.data(), "rep {rep} produced different bits");
    }
}

/// The pack-on-the-fly path stages `B` through *per-thread* scratch before
/// dispatching row stripes; neither the scratch reuse nor the pool width
/// may change its bits relative to the pre-packed kernel.
#[test]
fn per_thread_scratch_pack_path_is_deterministic() {
    setup();
    let (m, k, n) = (96usize, 41usize, 53usize);
    let a = mat(m, k, 15);
    let bt = mat(n, k, 16);
    let bp = PackedB::from_transb(&bt).unwrap();
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.03).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Relu));
    let mut want = Tensor::zeros([0usize; 2]);
    gemm::matmul_transb_packed_into(&a, &bp, epi, &mut want).unwrap();
    for workers in [0usize, 2, 7] {
        let pool = hpacml_par::Pool::new(workers);
        hpacml_par::with_pool(&pool, || {
            let mut c = Tensor::zeros([0usize; 2]);
            ops::matmul_transb_into(&a, &bt, &mut c, epi).unwrap();
            assert_eq!(c.data(), want.data(), "workers={workers}");
        });
    }
}

/// The conv forward has two parallel routes — over samples when the batch
/// saturates the pool, intra-sample (parallel im2col + row-parallel GEMM,
/// staged through per-thread scratch) when it does not. Both must agree
/// with each other and with a caller-only pool, and a batch's prefix must
/// equal the smaller batch, whichever route each took.
#[test]
fn conv_routes_agree_bitwise() {
    setup();
    let g = Conv2dGeom::square(3, 1, 1);
    let big_n = 8usize; // == total threads → sample-parallel route
    let small_n = 2usize; // < total threads → intra-sample route
    let input = mat(big_n * 4 * 24 * 48, 1, 17)
        .reshape([big_n, 4, 24, 48])
        .unwrap();
    let weight = mat(4 * 4 * 3 * 3, 1, 18).reshape([4, 4, 3, 3]).unwrap();
    let bias = vec![0.05f32, -0.1, 0.2, 0.0];
    let mut big = Tensor::zeros([0usize; 4]);
    ops::conv2d_fused_into(&input, &weight, &bias, g, Some(Act::Tanh), &mut big).unwrap();

    let small_in = Tensor::from_vec(
        input.data()[..small_n * 4 * 24 * 48].to_vec(),
        [small_n, 4, 24, 48],
    )
    .unwrap();
    let mut small = Tensor::zeros([0usize; 4]);
    ops::conv2d_fused_into(&small_in, &weight, &bias, g, Some(Act::Tanh), &mut small).unwrap();
    assert_eq!(
        small.data(),
        &big.data()[..small.data().len()],
        "intra-sample route disagrees with the sample-parallel route"
    );

    let serial_pool = hpacml_par::Pool::new(0);
    hpacml_par::with_pool(&serial_pool, || {
        let mut c = Tensor::zeros([0usize; 4]);
        ops::conv2d_fused_into(&small_in, &weight, &bias, g, Some(Act::Tanh), &mut c).unwrap();
        assert_eq!(c.data(), small.data(), "caller-only pool changed the bits");
    });
}

/// Pool width must never change a bit of the *quantized* kernels either:
/// each weight is decoded in registers inside the micro-kernel (bf16 to its
/// f32 value, int8 to its integer as f32), and an int8 column is scaled once
/// after its last `k`, so partitioning is as irrelevant to the bits as it
/// is for f32. Same totals as the f32 sweep, at both reduced precisions.
#[test]
fn quantized_gemm_bits_are_identical_across_pool_sizes() {
    setup();
    let (m, k, n) = (137usize, 83usize, 61usize);
    let a = mat(m, k, 19);
    let bt = mat(n, k, 20);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.07 - 0.4).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Tanh));
    for prec in [Precision::Bf16, Precision::Int8] {
        let qb = QPackedB::from_transb(&bt, prec).unwrap();
        let mut base = Tensor::zeros([0usize; 2]);
        quant::matmul_transb_qpacked_into(&a, &qb, epi, &mut base).unwrap();
        for workers in [0usize, 1, 2, 7] {
            let pool = hpacml_par::Pool::new(workers);
            hpacml_par::with_pool(&pool, || {
                let mut c = Tensor::zeros([0usize; 2]);
                quant::matmul_transb_qpacked_into(&a, &qb, epi, &mut c).unwrap();
                assert_eq!(
                    c.data(),
                    base.data(),
                    "{prec:?}: {} total threads changed the bits",
                    workers + 1
                );
            });
        }
    }
}

/// Repeated quantized runs under the stealing pool: the steal schedule
/// varies, the bits must not. Also pins serial-vs-parallel agreement via
/// the nested-dispatch rule.
#[test]
fn repeated_quantized_runs_with_stealing_are_bitwise_stable() {
    setup();
    let (m, k, n) = (301usize, 67usize, 93usize);
    let a = mat(m, k, 21);
    let bt = mat(n, k, 22);
    let bias: Vec<f32> = (0..n).map(|j| (j as f32).cos()).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Sigmoid));
    for prec in [Precision::Bf16, Precision::Int8] {
        let qb = QPackedB::from_transb(&bt, prec).unwrap();
        let serial = parking_lot::Mutex::new(Tensor::zeros([0usize; 2]));
        run_serial(|| {
            let mut c = Tensor::zeros([0usize; 2]);
            quant::matmul_transb_qpacked_into(&a, &qb, epi, &mut c).unwrap();
            *serial.lock() = c;
        });
        let base = serial.into_inner();
        let mut c = Tensor::zeros([0usize; 2]);
        for rep in 0..10 {
            quant::matmul_transb_qpacked_into(&a, &qb, epi, &mut c).unwrap();
            assert_eq!(
                c.data(),
                base.data(),
                "{prec:?}: rep {rep} produced different bits"
            );
        }
    }
}

/// A quantized row's bits must not depend on the batch it was computed
/// under — dynamic batching holds at every precision.
#[test]
fn quantized_rows_are_independent_of_batch_size() {
    setup();
    let (k, n) = (31usize, 29usize);
    let big = mat(64, k, 23);
    let bt = mat(n, k, 24);
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.02).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Sigmoid));
    for prec in [Precision::Bf16, Precision::Int8] {
        let qb = QPackedB::from_transb(&bt, prec).unwrap();
        let mut full = Tensor::zeros([0usize; 2]);
        quant::matmul_transb_qpacked_into(&big, &qb, epi, &mut full).unwrap();
        for batch in [1usize, 3, 8, 17, 64] {
            let sub = Tensor::from_vec(big.data()[..batch * k].to_vec(), [batch, k]).unwrap();
            let mut c = Tensor::zeros([0usize; 2]);
            quant::matmul_transb_qpacked_into(&sub, &qb, epi, &mut c).unwrap();
            assert_eq!(
                c.data(),
                &full.data()[..batch * n],
                "{prec:?}: batch {batch} changed some row's bits"
            );
        }
    }
}

/// A row's bits must not depend on the batch it was computed under — the
/// invariant the runtime's dynamic batching relies on. (The nn-level
/// batched tests cover whole models; this pins the kernel itself.)
#[test]
fn row_results_are_independent_of_batch_size() {
    setup();
    let (k, n) = (31usize, 29usize);
    let big = mat(64, k, 9);
    let bt = mat(n, k, 10);
    let bp = PackedB::from_transb(&bt).unwrap();
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.02).collect();
    let epi = Epilogue::col_bias(&bias).with_act(Some(Act::Sigmoid));
    let mut full = Tensor::zeros([0usize; 2]);
    gemm::matmul_transb_packed_into(&big, &bp, epi, &mut full).unwrap();
    for batch in [1usize, 3, 8, 17, 64] {
        let sub = Tensor::from_vec(big.data()[..batch * k].to_vec(), [batch, k]).unwrap();
        let mut c = Tensor::zeros([0usize; 2]);
        gemm::matmul_transb_packed_into(&sub, &bp, epi, &mut c).unwrap();
        assert_eq!(
            c.data(),
            &full.data()[..batch * n],
            "batch {batch} changed some row's bits"
        );
    }
}
