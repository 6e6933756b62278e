//! Criterion: the register-tiled GEMM subsystem at MLP-representative
//! shapes. Throughput is reported in elements/s where one "element" is one
//! multiply-add FLOP (`2*m*n*k` per call), i.e. the numbers read directly
//! as FLOP/s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpacml_tensor::gemm::{self, ASource, BSource, PackedA, PackedB};
use hpacml_tensor::quant::{self, QPackedB};
use hpacml_tensor::{Act, Epilogue, Precision, Tensor};
use std::hint::black_box;

/// The w128 MLP's three layers at batch 1024, the 4-filter conv GEMM
/// shape of the CNN baseline (`out[f, oh*ow] = W[f, ckk] · col`), and the
/// two skinny layers of the 5→8→1 stencil surrogate on a 256×256 interior
/// (narrow-N tiles: `n = 8` and `n = 1`).
const SHAPES: [(usize, usize, usize); 6] = [
    (1024, 6, 128),
    (1024, 128, 64),
    (1024, 64, 1),
    (4, 36, 1152),
    (65536, 5, 8),
    (65536, 8, 1),
];

/// The reduced-precision rungs on the same driver, so the smoke run
/// executes every panel-codec instantiation: the weight-streaming-bound
/// batch-1 `4096→4096` layer of the `wide_b1_int8` benchmark workload at
/// both rungs, and the stencil surrogate's `5→8` layer at int8 (a quantized
/// pack on the narrow tile).
const QUANT_SHAPES: [(usize, usize, usize, Precision); 3] = [
    (1, 4096, 4096, Precision::Bf16),
    (1, 4096, 4096, Precision::Int8),
    (65536, 5, 8, Precision::Int8),
];

fn mat(m: usize, n: usize, seed: u64) -> Tensor<f32> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Tensor::from_shape_fn([m, n], |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");

    for &(m, k, n) in &SHAPES {
        let flops = 2 * m * n * k;
        let a = mat(m, k, 1);
        let bt = mat(n, k, 2);
        let bp = PackedB::from_transb(&bt).unwrap();
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
        let mut out = Tensor::<f32>::zeros([m, n]);
        group.throughput(Throughput::Elements(flops as u64));

        // Steady-state Linear kernel: pre-packed weights, bare epilogue.
        group.bench_function(BenchmarkId::new("packed", format!("{m}x{k}x{n}")), |b| {
            b.iter(|| {
                gemm::matmul_transb_packed_into(
                    black_box(&a),
                    black_box(&bp),
                    Epilogue::none(),
                    &mut out,
                )
                .unwrap();
                black_box(out.data());
            });
        });

        // Fused bias+activation epilogue on the same shape.
        group.bench_function(
            BenchmarkId::new("packed_bias_relu", format!("{m}x{k}x{n}")),
            |b| {
                b.iter(|| {
                    gemm::matmul_transb_packed_into(
                        black_box(&a),
                        black_box(&bp),
                        Epilogue::col_bias(&bias).with_act(Some(Act::Relu)),
                        &mut out,
                    )
                    .unwrap();
                    black_box(out.data());
                });
            },
        );
    }

    for &(m, k, n, prec) in &QUANT_SHAPES {
        let a = mat(m, k, 1);
        let qb = QPackedB::from_transb(&mat(n, k, 2), prec).unwrap();
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
        let mut out = Tensor::<f32>::zeros([m, n]);
        group.throughput(Throughput::Elements((2 * m * n * k) as u64));
        group.bench_function(
            BenchmarkId::new(format!("qpacked_{prec}_bias_relu"), format!("{m}x{k}x{n}")),
            |b| {
                b.iter(|| {
                    quant::matmul_transb_qpacked_into(
                        black_box(&a),
                        black_box(&qb),
                        Epilogue::col_bias(&bias).with_act(Some(Act::Relu)),
                        &mut out,
                    )
                    .unwrap();
                    black_box(out.data());
                });
            },
        );
    }

    // The conv route: row-major A (weights) against an unpacked [k, n]
    // column matrix, the exact operand layout im2col produces.
    let (f, ckk, l) = (4usize, 36usize, 1152usize);
    let w = mat(f, ckk, 3);
    let pa = PackedA::from_rows(w.data(), f, ckk);
    let col = mat(ckk, l, 4);
    let bias = vec![0.1f32; f];
    let mut out = vec![0.0f32; f * l];
    group.throughput(Throughput::Elements((2 * f * ckk * l) as u64));
    group.bench_function(
        BenchmarkId::new("conv_cols_bias_tanh", format!("{f}x{ckk}x{l}")),
        |b| {
            b.iter(|| {
                gemm::gemm_into(
                    f,
                    l,
                    ckk,
                    ASource::Packed(&pa),
                    BSource::Cols(black_box(col.data())),
                    Epilogue::row_bias(&bias).with_act(Some(Act::Tanh)),
                    &mut out,
                );
                black_box(&out);
            });
        },
    );

    // What model load pays, once: packing the w128 layer's weight panels.
    let bt = mat(128, 6, 5);
    let mut packed = PackedB::from_transb(&bt).unwrap();
    group.throughput(Throughput::Elements((128 * 6) as u64));
    group.bench_function("pack_b_128x6", |b| {
        b.iter(|| {
            packed.pack_rows_into(black_box(bt.data()), 128, 6);
            black_box(&packed);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
