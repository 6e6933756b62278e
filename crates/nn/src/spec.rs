//! Architecture-as-data: model specifications with static shape inference.
//!
//! The nested Bayesian-optimization search (paper §V-C) proposes *model
//! architectures*; this module is the representation it manipulates. A
//! [`ModelSpec`] can be validated (shape inference through every layer),
//! sized (parameter count — the color axis of Figs. 7/8), built into a
//! trainable [`Sequential`], and serialized into `.hml` model files.

use crate::layer::{Conv2d, Dropout, Flatten, Layer, Linear, MaxPool2d, ReLU, Sigmoid, Tanh};
use crate::model::Sequential;
use crate::{NnError, Result};
use hpacml_tensor::ops::{conv_out_dim, Conv2dGeom};

/// Activation selector used in spec builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    ReLU,
    Tanh,
    Sigmoid,
}

/// One layer of a model architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    Linear {
        in_features: usize,
        out_features: usize,
    },
    ReLU,
    Tanh,
    Sigmoid,
    Dropout {
        p: f32,
    },
    Flatten,
    Conv2d {
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    },
    MaxPool2d {
        kernel: usize,
        stride: usize,
    },
}

impl LayerSpec {
    /// Scalar parameter count of this layer; `None` where it does not fit a
    /// `usize` (a spec read from a file may say anything).
    pub(crate) fn checked_param_count(&self) -> Option<usize> {
        let (out, taps) = match *self {
            LayerSpec::Linear {
                in_features,
                out_features,
            } => (out_features, [in_features, 1, 1]),
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                ..
            } => (out_ch, [in_ch, kernel, kernel]),
            _ => return Some(0),
        };
        let weights = taps.iter().try_fold(out, |n, d| n.checked_mul(*d))?;
        weights.checked_add(out)
    }

    /// Output shape (batch dim excluded) for the given input shape, or an
    /// error describing the incompatibility.
    pub fn infer(&self, input: &[usize]) -> Result<Vec<usize>> {
        match self {
            LayerSpec::Linear {
                in_features,
                out_features,
            } => {
                if input.len() != 1 || input[0] != *in_features {
                    return Err(NnError::BadSpec(format!(
                        "linear({in_features}→{out_features}) fed shape {input:?}"
                    )));
                }
                Ok(vec![*out_features])
            }
            LayerSpec::ReLU | LayerSpec::Tanh | LayerSpec::Sigmoid | LayerSpec::Dropout { .. } => {
                Ok(input.to_vec())
            }
            LayerSpec::Flatten => input
                .iter()
                .try_fold(1usize, |n, d| n.checked_mul(*d))
                .map(|n| vec![n.max(1)])
                .ok_or_else(|| NnError::BadSpec(format!("flatten of {input:?} overflows"))),
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
            } => {
                let [c, h, w] = three(input, "conv2d")?;
                if c != *in_ch {
                    return Err(NnError::BadSpec(format!(
                        "conv2d expects {in_ch} channels, input has {c}"
                    )));
                }
                let oh = window_out_dim(h, *kernel, *stride, *pad);
                let ow = window_out_dim(w, *kernel, *stride, *pad);
                if oh == 0 || ow == 0 {
                    return Err(NnError::BadSpec(format!(
                        "conv2d(k={kernel}, s={stride}, p={pad}) collapses {h}x{w} to {oh}x{ow}"
                    )));
                }
                Ok(vec![*out_ch, oh, ow])
            }
            LayerSpec::MaxPool2d { kernel, stride } => {
                let [c, h, w] = three(input, "maxpool2d")?;
                let oh = window_out_dim(h, *kernel, *stride, 0);
                let ow = window_out_dim(w, *kernel, *stride, 0);
                if oh == 0 || ow == 0 {
                    return Err(NnError::BadSpec(format!(
                        "maxpool2d(k={kernel}, s={stride}) collapses {h}x{w}"
                    )));
                }
                Ok(vec![c, oh, ow])
            }
        }
    }
}

/// [`conv_out_dim`], with a window no sweep can place — zero kernel or
/// stride, padding that overflows the padded extent — reported as 0 outputs,
/// so a spec read from a file is rejected here rather than dividing by zero.
fn window_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = pad.checked_mul(2).and_then(|p| input.checked_add(p));
    if kernel == 0 || stride == 0 || padded.is_none() {
        return 0;
    }
    conv_out_dim(input, kernel, stride, pad)
}

fn three(input: &[usize], what: &str) -> Result<[usize; 3]> {
    if input.len() != 3 {
        return Err(NnError::BadSpec(format!(
            "{what} expects [C, H, W] input, got {input:?}"
        )));
    }
    Ok([input[0], input[1], input[2]])
}

/// A complete architecture: per-sample input shape plus a layer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Shape of one sample (no batch dimension), e.g. `[6]` or `[4, 32, 64]`.
    pub input_shape: Vec<usize>,
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    pub fn new(input_shape: Vec<usize>, layers: Vec<LayerSpec>) -> Self {
        ModelSpec {
            input_shape,
            layers,
        }
    }

    /// Convenience MLP builder: `input → hidden... → output` with the given
    /// activation after every hidden layer and optional dropout.
    pub fn mlp(
        input_dim: usize,
        hidden: &[usize],
        output_dim: usize,
        act: Activation,
        dropout: f32,
    ) -> Self {
        let mut layers = Vec::new();
        let mut prev = input_dim;
        for &h in hidden {
            layers.push(LayerSpec::Linear {
                in_features: prev,
                out_features: h,
            });
            layers.push(match act {
                Activation::ReLU => LayerSpec::ReLU,
                Activation::Tanh => LayerSpec::Tanh,
                Activation::Sigmoid => LayerSpec::Sigmoid,
            });
            if dropout > 0.0 {
                layers.push(LayerSpec::Dropout { p: dropout });
            }
            prev = h;
        }
        layers.push(LayerSpec::Linear {
            in_features: prev,
            out_features: output_dim,
        });
        ModelSpec::new(vec![input_dim], layers)
    }

    /// Shape inference through the whole stack; returns per-layer output
    /// shapes (batch dim excluded). Errors describe the first mismatch.
    pub fn infer_shapes(&self) -> Result<Vec<Vec<usize>>> {
        let mut shapes = Vec::with_capacity(self.layers.len());
        let mut cur = self.input_shape.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            cur = layer.infer(&cur).map_err(|e| match e {
                NnError::BadSpec(s) => NnError::BadSpec(format!("layer {i}: {s}")),
                other => other,
            })?;
            shapes.push(cur.clone());
        }
        Ok(shapes)
    }

    /// Output shape of one sample.
    pub fn output_shape(&self) -> Result<Vec<usize>> {
        Ok(self
            .infer_shapes()?
            .last()
            .cloned()
            .unwrap_or_else(|| self.input_shape.clone()))
    }

    /// [`ModelSpec::param_count`] with checked arithmetic: `None` where the
    /// total does not fit a `usize`.
    pub(crate) fn checked_param_count(&self) -> Option<usize> {
        let add = |n: usize, l: &LayerSpec| n.checked_add(l.checked_param_count()?);
        self.layers.iter().try_fold(0, add)
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.checked_param_count()
            .expect("parameter count overflows usize")
    }

    /// Multiply-adds one sample's forward pass runs: `in · out` per
    /// `Linear`, `f · c · kh · kw · oh · ow` per `Conv2d` (bias adds,
    /// activations and pooling are not counted). A function of the
    /// architecture alone, so a search that minimizes it proposes the same
    /// models however loaded the host is. Errors where shape inference
    /// fails or the count does not fit a `usize`.
    pub fn mac_count(&self) -> Result<usize> {
        let shapes = self.infer_shapes()?;
        let add = |total: usize, (layer, out): (&LayerSpec, &Vec<usize>)| {
            let per_output = match *layer {
                LayerSpec::Linear { in_features, .. } => in_features,
                LayerSpec::Conv2d { in_ch, kernel, .. } => {
                    in_ch.checked_mul(kernel)?.checked_mul(kernel)?
                }
                _ => return Some(total),
            };
            let outputs = out.iter().try_fold(1usize, |n, d| n.checked_mul(*d))?;
            total.checked_add(per_output.checked_mul(outputs)?)
        };
        self.layers
            .iter()
            .zip(&shapes)
            .try_fold(0, add)
            .ok_or_else(|| NnError::BadSpec("multiply-add count overflows usize".into()))
    }

    /// Validate and instantiate with fresh (seeded) weights.
    pub fn build(&self, seed: u64) -> Result<Sequential> {
        let mut rng = crate::init::rng(seed);
        self.instantiate(seed, |layer| {
            Ok(match *layer {
                LayerSpec::Linear {
                    in_features,
                    out_features,
                } => Some(Box::new(Linear::new(in_features, out_features, &mut rng))),
                LayerSpec::Conv2d {
                    in_ch,
                    out_ch,
                    kernel,
                    stride,
                    pad,
                } => {
                    let geom = Conv2dGeom::square(kernel, stride, pad);
                    Some(Box::new(Conv2d::new(in_ch, out_ch, geom, &mut rng)))
                }
                _ => None,
            })
        })
    }

    /// Validate, then build the layers in order: `weighted` is offered each
    /// layer first and builds the ones with parameters (a seeded
    /// initialization, or a loader decoding a file's weights); every layer
    /// it returns `None` for is built here.
    pub(crate) fn instantiate(
        &self,
        seed: u64,
        mut weighted: impl FnMut(&LayerSpec) -> Result<Option<Box<dyn Layer>>>,
    ) -> Result<Sequential> {
        self.infer_shapes()?;
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(self.layers.len());
        for (i, spec) in self.layers.iter().enumerate() {
            if let Some(layer) = weighted(spec)? {
                layers.push(layer);
                continue;
            }
            layers.push(match *spec {
                LayerSpec::ReLU => Box::new(ReLU::default()),
                LayerSpec::Tanh => Box::new(Tanh::default()),
                LayerSpec::Sigmoid => Box::new(Sigmoid::default()),
                LayerSpec::Dropout { p } => {
                    Box::new(Dropout::new(p, seed.wrapping_add(1 + i as u64)))
                }
                LayerSpec::Flatten => Box::new(Flatten::default()),
                LayerSpec::MaxPool2d { kernel, stride } => {
                    Box::new(MaxPool2d::new(Conv2dGeom::square(kernel, stride, 0)))
                }
                LayerSpec::Linear { .. } | LayerSpec::Conv2d { .. } => {
                    unreachable!("`weighted` builds every layer with parameters")
                }
            });
        }
        Ok(Sequential::new(layers))
    }

    /// Human-readable one-line summary, e.g. `6 -> Linear(64) -> ReLU -> Linear(1)`.
    pub fn summary(&self) -> String {
        let mut s = format!("{:?}", self.input_shape);
        for l in &self.layers {
            s.push_str(" -> ");
            match l {
                LayerSpec::Linear { out_features, .. } => {
                    s.push_str(&format!("Linear({out_features})"))
                }
                LayerSpec::ReLU => s.push_str("ReLU"),
                LayerSpec::Tanh => s.push_str("Tanh"),
                LayerSpec::Sigmoid => s.push_str("Sigmoid"),
                LayerSpec::Dropout { p } => s.push_str(&format!("Dropout({p:.2})")),
                LayerSpec::Flatten => s.push_str("Flatten"),
                LayerSpec::Conv2d {
                    out_ch,
                    kernel,
                    stride,
                    pad,
                    ..
                } => s.push_str(&format!("Conv2d({out_ch}, k{kernel}, s{stride}, p{pad})")),
                LayerSpec::MaxPool2d { kernel, stride } => {
                    s.push_str(&format!("MaxPool2d(k{kernel}, s{stride})"))
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_builder_and_inference() {
        let spec = ModelSpec::mlp(6, &[64, 32], 1, Activation::ReLU, 0.1);
        let shapes = spec.infer_shapes().unwrap();
        assert_eq!(shapes.last().unwrap(), &vec![1]);
        assert_eq!(spec.output_shape().unwrap(), vec![1]);
        assert_eq!(
            spec.param_count(),
            (6 * 64 + 64) + (64 * 32 + 32) + (32 + 1)
        );
        assert_eq!(spec.mac_count().unwrap(), 6 * 64 + 64 * 32 + 32);
        let model = spec.build(1).unwrap();
        assert_eq!(model.param_count(), spec.param_count());
    }

    #[test]
    fn cnn_spec_shape_inference() {
        let spec = ModelSpec::new(
            vec![1, 28, 28],
            vec![
                LayerSpec::Conv2d {
                    in_ch: 1,
                    out_ch: 4,
                    kernel: 5,
                    stride: 2,
                    pad: 2,
                },
                LayerSpec::ReLU,
                LayerSpec::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                },
                LayerSpec::Flatten,
                LayerSpec::Linear {
                    in_features: 4 * 7 * 7,
                    out_features: 2,
                },
            ],
        );
        let shapes = spec.infer_shapes().unwrap();
        assert_eq!(shapes[0], vec![4, 14, 14]);
        assert_eq!(shapes[2], vec![4, 7, 7]);
        assert_eq!(spec.output_shape().unwrap(), vec![2]);
        // conv: 1·5·5 taps for each of 4·14·14 outputs; linear: 196·2.
        assert_eq!(spec.mac_count().unwrap(), 25 * 4 * 14 * 14 + 4 * 7 * 7 * 2);
        let model = spec.build(3).unwrap();
        let x = hpacml_tensor::Tensor::zeros([2, 1, 28, 28]);
        assert_eq!(model.forward(&x).unwrap().dims(), &[2, 2]);
    }

    #[test]
    fn bad_linear_width_is_rejected() {
        let spec = ModelSpec::new(
            vec![6],
            vec![
                LayerSpec::Linear {
                    in_features: 6,
                    out_features: 8,
                },
                LayerSpec::Linear {
                    in_features: 9,
                    out_features: 1,
                },
            ],
        );
        let err = spec.infer_shapes().unwrap_err();
        assert!(matches!(err, NnError::BadSpec(s) if s.contains("layer 1")));
        assert!(spec.mac_count().is_err());
    }

    #[test]
    fn collapsing_conv_is_rejected() {
        let spec = ModelSpec::new(
            vec![1, 4, 4],
            vec![LayerSpec::Conv2d {
                in_ch: 1,
                out_ch: 2,
                kernel: 8,
                stride: 1,
                pad: 0,
            }],
        );
        assert!(spec.infer_shapes().is_err());
        assert!(spec.build(0).is_err());
    }

    #[test]
    fn conv_on_flat_input_is_rejected() {
        let spec = ModelSpec::new(
            vec![16],
            vec![LayerSpec::Conv2d {
                in_ch: 1,
                out_ch: 2,
                kernel: 3,
                stride: 1,
                pad: 0,
            }],
        );
        assert!(spec.infer_shapes().is_err());
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let spec = ModelSpec::mlp(4, &[8], 2, Activation::Tanh, 0.0);
        let a = spec.build(7).unwrap();
        let b = spec.build(7).unwrap();
        let x = hpacml_tensor::Tensor::full([3, 4], 0.3f32);
        assert_eq!(a.forward(&x).unwrap().data(), b.forward(&x).unwrap().data());
    }

    #[test]
    fn summary_mentions_layers() {
        let spec = ModelSpec::mlp(4, &[8], 2, Activation::ReLU, 0.5);
        let s = spec.summary();
        assert!(s.contains("Linear(8)") && s.contains("ReLU") && s.contains("Dropout(0.50)"));
    }
}
