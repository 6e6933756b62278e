//! The layers under the top-level API, driven from outside through their
//! public functions: `directive::parse_directives` + `sema::analyze`,
//! `bridge::compile` + `CompiledMap::{gather_batch_into, scatter_batch}`,
//! `nn::serialize::load_model` + `ForwardWorkspace::forward_at`,
//! `tensor::gemm::matmul_transb_packed_into` (and the quantized twin), and
//! `par`'s pool. The traced pass replays an operation's stages here, on the
//! operation's own inputs, and records each as a span.

use super::{ctx, median_us, Res};
use crate::report::RunReport;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use hpacml_bridge::CompiledMap;
use hpacml_directive::sema::{analyze, Bindings};
use hpacml_directive::{parse_directives, Direction, Directive};
use hpacml_nn::spec::{LayerSpec, ModelSpec};
use hpacml_nn::{ForwardWorkspace, SavedModel};
use hpacml_tensor::gemm::matmul_transb_packed_into;
use hpacml_tensor::quant::matmul_transb_qpacked_into;
use hpacml_tensor::{Act, Epilogue, PackedB, Precision, QPackedB, Tensor};
use std::hint::black_box;
use std::path::Path;

/// The most `Linear` layers the per-layer metric names cover (`l0`..`l2`).
pub const MAX_LINEAR: usize = 3;

const L_PACK: [&str; MAX_LINEAR] = [
    "tensor.l0_pack_us",
    "tensor.l1_pack_us",
    "tensor.l2_pack_us",
];
const L_GEMM: [&str; MAX_LINEAR] = [
    "tensor.l0_gemm_us",
    "tensor.l1_gemm_us",
    "tensor.l2_gemm_us",
];
const L_EPI: [&str; MAX_LINEAR] = [
    "tensor.l0_epilogue_us",
    "tensor.l1_epilogue_us",
    "tensor.l2_epilogue_us",
];
const L_QUANT: [&str; MAX_LINEAR] = [
    "tensor.quant_l0_gemm_us",
    "tensor.quant_l1_gemm_us",
    "tensor.quant_l2_gemm_us",
];
const SPAN_FUSED: [&str; MAX_LINEAR] = ["tensor.l0.fused", "tensor.l1.fused", "tensor.l2.fused"];
const SPAN_GEMM: [&str; MAX_LINEAR] = ["tensor.l0.gemm", "tensor.l1.gemm", "tensor.l2.gemm"];
const SPAN_QUANT: [&str; MAX_LINEAR] = [
    "tensor.quant_l0.gemm",
    "tensor.quant_l1.gemm",
    "tensor.quant_l2.gemm",
];

/// A region's input and output tensor maps, compiled by the harness.
pub struct Plans {
    pub to: CompiledMap,
    pub from: CompiledMap,
    pub parse_us: f64,
    pub compile_us: f64,
}

/// Parse + analyze `source` and compile the `to` map of `input` and the
/// `from` map of `output` against per-sample dims, timing both steps.
pub fn compile_plans(
    source: &str,
    input: (&str, &[usize]),
    output: (&str, &[usize]),
    binds: &Bindings,
) -> Res<Plans> {
    let front_end = || -> Res<Vec<Directive>> {
        let directives = ctx("parse directives", parse_directives(source))?;
        for d in &directives {
            if let Directive::Functor(f) = d {
                ctx("analyze functor", analyze(f))?;
            }
        }
        Ok(directives)
    };
    let directives = front_end()?;
    let parse_us = median_us(20, || {
        black_box(front_end().is_ok());
    });
    let compile_one = |array: &str, dims: &[usize], direction: Direction| -> Res<CompiledMap> {
        let map = directives
            .iter()
            .find_map(|d| match d {
                Directive::Map(m) if m.direction == direction && m.target.array == array => Some(m),
                _ => None,
            })
            .ok_or_else(|| format!("no explicit tensor map for `{array}`"))?;
        let decl = directives
            .iter()
            .find_map(|d| match d {
                Directive::Functor(f) if f.name == map.functor => Some(f),
                _ => None,
            })
            .ok_or_else(|| format!("no functor `{}`", map.functor))?;
        let info = ctx("analyze functor", analyze(decl))?;
        ctx(
            "compile tensor map",
            hpacml_bridge::compile(&info, map, dims, binds),
        )
    };
    let to = compile_one(input.0, input.1, Direction::To)?;
    let from = compile_one(output.0, output.1, Direction::From)?;
    let compile_us = median_us(20, || {
        black_box(compile_one(input.0, input.1, Direction::To).is_ok());
        black_box(compile_one(output.0, output.1, Direction::From).is_ok());
    });
    Ok(Plans {
        to,
        from,
        parse_us,
        compile_us,
    })
}

/// One `Linear` layer's operands, packed by the harness from the weights the
/// workload's model was built with.
struct LinearKernel {
    k: usize,
    n: usize,
    bias: Vec<f32>,
    act: Option<Act>,
    packed: PackedB<f32>,
    qpacked: Option<QPackedB>,
    pack_us: f64,
}

/// The stack below a session, rebuilt by the harness: bridge plans, the
/// model loaded through `nn` directly, and each `Linear`'s GEMM operands.
pub struct Replay {
    plans: Plans,
    model: SavedModel,
    prec: Precision,
    load_model_us: f64,
    fw: ForwardWorkspace,
    gathered: Tensor,
    kernels: Vec<LinearKernel>,
    /// Output of each layer of the per-layer chain, plus the bare-GEMM sink.
    acts: Vec<Tensor>,
    bare: Tensor,
    scatter_buf: Vec<f32>,
    /// Samples per operation.
    batch: usize,
}

impl Replay {
    /// `spec`/`model_seed` rebuild the exact weights saved at `model_path`
    /// (models are built from fixed seeds), which is how the harness gets
    /// at per-layer operands without reaching inside the loaded model.
    pub fn new(
        plans: Plans,
        model_path: &Path,
        spec: &ModelSpec,
        model_seed: u64,
        prec: Precision,
        batch: usize,
    ) -> Res<Replay> {
        let load = || -> Res<SavedModel> {
            let mut m = ctx("load model", hpacml_nn::serialize::load_model(model_path))?;
            m.quantize(prec);
            Ok(m)
        };
        let model = load()?;
        let load_model_us = median_us(3, || {
            black_box(load().is_ok());
        });

        let mut net = ctx("rebuild model", spec.build(model_seed))?;
        let mut weights = net.export_weights().into_iter();
        let mut kernels = Vec::new();
        for (i, layer) in spec.layers.iter().enumerate() {
            let LayerSpec::Linear {
                in_features: k,
                out_features: n,
            } = *layer
            else {
                continue;
            };
            let (w, bias) = weights
                .next()
                .zip(weights.next())
                .ok_or("model has fewer parameters than its spec")?;
            let act = match spec.layers.get(i + 1) {
                Some(LayerSpec::ReLU) => Some(Act::Relu),
                Some(LayerSpec::Tanh) => Some(Act::Tanh),
                Some(LayerSpec::Sigmoid) => Some(Act::Sigmoid),
                _ => None,
            };
            let wt = ctx("weight tensor", Tensor::from_vec(w, [n, k]))?;
            let mut packed = ctx("pack weights", PackedB::from_transb(&wt))?;
            let pack_us = median_us(if n * k > 1 << 20 { 3 } else { 15 }, || {
                packed.pack_rows_into(black_box(wt.data()), n, k);
            });
            let qpacked = match prec {
                Precision::F32 => None,
                p => Some(ctx("quantize weights", QPackedB::from_transb(&wt, p))?),
            };
            kernels.push(LinearKernel {
                k,
                n,
                bias,
                act,
                packed,
                qpacked,
                pack_us,
            });
        }
        if kernels.len() > MAX_LINEAR {
            return Err(format!(
                "model has {} Linear layers, metric names cover {MAX_LINEAR}",
                kernels.len()
            ));
        }
        let scatter_buf = vec![0.0f32; batch * plans.from.array_numel()];
        Ok(Replay {
            plans,
            model,
            prec,
            load_model_us,
            fw: ForwardWorkspace::new(),
            gathered: Tensor::default(),
            kernels,
            acts: vec![Tensor::default(); MAX_LINEAR],
            bare: Tensor::default(),
            scatter_buf,
            batch,
        })
    }

    /// Replay the stages of operation `op_id` on its own `input` (`n`
    /// samples back to back), as children of span `parent`:
    /// `bridge.gather` → `nn.forward` → `bridge.scatter`, then per `Linear`
    /// layer the fused kernel with the bare GEMM as its child, as children
    /// of `nn.forward`.
    pub fn replay(
        &mut self,
        t: &mut Tracer,
        parent: u64,
        op_id: u64,
        input: &[f32],
        n: usize,
    ) -> Res<()> {
        let feat = self.kernels.first().map_or(1, |l| l.k);
        let (gathered, _) = t.record("bridge.gather", parent, op_id, || {
            self.plans
                .to
                .gather_batch_into(input, n, &mut self.gathered)
        });
        ctx("replay gather", gathered)?;
        let rows = self.gathered.numel() / feat;
        ctx(
            "replay reshape",
            self.gathered.reshape_in_place(&[rows, feat]),
        )?;
        let (out, forward) = t.record("nn.forward", parent, op_id, || {
            self.fw
                .forward_at(&self.model.model, &self.gathered, self.prec)
        });
        let y = ctx("replay forward", out)?;
        let per_sample = self.plans.from.numel();
        let (scattered, _) = t.record("bridge.scatter", parent, op_id, || {
            self.plans
                .from
                .scatter_batch(y.data(), per_sample, 0, n, &mut self.scatter_buf)
        });
        ctx("replay scatter", scattered)?;

        for (i, l) in self.kernels.iter().enumerate() {
            // Layer `i` reads the previous layer's output (the gathered
            // batch for the first) and writes its own buffer.
            let (before, rest) = self.acts.split_at_mut(i);
            let cur = before.last().unwrap_or(&self.gathered);
            let nxt = &mut rest[0];
            let epi = Epilogue::col_bias(&l.bias).with_act(l.act);
            if let Some(q) = &l.qpacked {
                let (r, _) = t.record(SPAN_QUANT[i], forward, op_id, || {
                    matmul_transb_qpacked_into(cur, q, epi, nxt)
                });
                ctx("replay quantized gemm", r)?;
            } else {
                let (r, fused) = t.record(SPAN_FUSED[i], forward, op_id, || {
                    matmul_transb_packed_into(cur, &l.packed, epi, nxt)
                });
                ctx("replay fused gemm", r)?;
                let (r, _) = t.record(SPAN_GEMM[i], fused, op_id, || {
                    matmul_transb_packed_into(cur, &l.packed, Epilogue::none(), &mut self.bare)
                });
                ctx("replay bare gemm", r)?;
            }
        }
        Ok(())
    }

    /// The per-layer metrics of `bridge`, `nn` and `tensor`, from the replay
    /// spans of a traced pass. Times are medians over the replayed
    /// operations; byte and operation counts are computed from shapes.
    pub fn report(&self, report: &mut RunReport, spans: &[Span]) {
        let med = |name: &str| stats::median(&trace::durations_us(spans, name));
        report.single("directive.parse_us", self.plans.parse_us);
        report.single("bridge.compile_us", self.plans.compile_us);
        let gather_us = med("bridge.gather");
        let gathered_elems = self.batch * self.plans.to.numel();
        let scattered_elems = self.batch * self.plans.from.numel();
        // Rows one operation feeds the model (samples × sweep points).
        let rows = gathered_elems / self.kernels.first().map_or(1, |l| l.k).max(1);
        report.single("bridge.gather_us", gather_us);
        report.single(
            "bridge.gather_ns_per_elem",
            gather_us * 1e3 / gathered_elems.max(1) as f64,
        );
        report.single("bridge.scatter_us", med("bridge.scatter"));
        // Computed, not measured: every gathered or scattered element is
        // read once and written once as an f32.
        report.single(
            "bridge.bytes_per_op",
            (2 * 4 * (gathered_elems + scattered_elems)) as f64,
        );
        report.single("nn.forward_us", med("nn.forward"));
        report.single("nn.load_model_us", self.load_model_us);

        let flops: usize = self.kernels.iter().map(|l| 2 * rows * l.k * l.n).sum();
        let weight_bytes: usize = self
            .kernels
            .iter()
            .map(|l| match &l.qpacked {
                Some(q) => q.packed_bytes(),
                None => 4 * l.k * l.n,
            })
            .sum();
        report.single("tensor.flops_per_op", flops as f64);
        report.single("tensor.weight_bytes_per_op", weight_bytes as f64);
        for (i, l) in self.kernels.iter().enumerate() {
            report.single(L_PACK[i], l.pack_us);
            if l.qpacked.is_some() {
                report.single(L_QUANT[i], med(SPAN_QUANT[i]));
            } else {
                let bare = med(SPAN_GEMM[i]);
                report.single(L_GEMM[i], bare);
                // Fused minus bare; noise can push a cheap epilogue below 0.
                report.single(L_EPI[i], med(SPAN_FUSED[i]) - bare);
            }
        }
        let kernel_us = self.kernel_us(spans);
        if kernel_us > 0.0 {
            report.single("tensor.gemm_gflops", flops as f64 / (kernel_us * 1e3));
            if self.prec != Precision::F32 {
                // Computed bytes over measured time: how fast the quantized
                // panels stream, if every weight byte is read once per op.
                report.single(
                    "tensor.quant_gb_per_s",
                    weight_bytes as f64 / (kernel_us * 1e3),
                );
            }
        }
    }

    /// What the kernels under `nn.forward` add up to, for the layer table.
    pub fn kernel_us(&self, spans: &[Span]) -> f64 {
        let med = |name: &str| stats::median(&trace::durations_us(spans, name));
        (0..self.kernels.len())
            .map(|i| {
                if self.kernels[i].qpacked.is_some() {
                    med(SPAN_QUANT[i])
                } else {
                    med(SPAN_FUSED[i])
                }
            })
            .sum()
    }
}

/// `par`'s metrics: width, the round trip of an empty dispatch, and — over
/// `base..now` of the global pool's counters — how often chunks were stolen
/// and how many participants each job kept busy.
pub fn report_par(report: &mut RunReport, base: &hpacml_par::PoolStats) {
    let threads = hpacml_par::current_parallelism();
    let delta = hpacml_par::global().stats().delta_since(base);
    report.single("par.threads", threads as f64);
    report.single("par.steal_ratio", delta.steal_ratio());
    report.single("par.occupancy", delta.occupancy());
    report.single(
        "par.dispatch_us",
        median_us(200, || {
            hpacml_par::parallel_for(threads, 1, |r| {
                black_box(r);
            })
        }),
    );
}
