//! Training: softmax cross-entropy loss, backpropagation through the
//! sequential model, and a minibatch SGD trainer.
//!
//! The paper's pruning experiments (Fig. 10) iteratively prune and *retrain*
//! the model; the synthetic accuracy experiments also need a model trained
//! from scratch. This module provides exactly that amount of training
//! machinery for the sequential models of [`crate::model::Model`].

use serde::{Deserialize, Serialize};

use nbsmt_tensor::tensor::Tensor;

use crate::error::NnError;
use crate::model::{Layer, Model};

/// Softmax cross-entropy loss and its gradient with respect to the logits.
///
/// Returns `(mean_loss, grad)` where `grad` has the same shape as `logits`.
///
/// # Errors
///
/// Returns an error when a label is out of range or the batch is empty.
pub fn cross_entropy(
    logits: &Tensor<f32>,
    labels: &[usize],
) -> Result<(f32, Tensor<f32>), NnError> {
    let dims = logits.shape().dims();
    let (n, c) = (dims[0], dims[1]);
    if n == 0 || n != labels.len() {
        return Err(NnError::InvalidConfig(format!(
            "batch of {n} logits with {} labels",
            labels.len()
        )));
    }
    let s = logits.as_slice();
    let mut grad = vec![0.0_f32; n * c];
    let mut loss = 0.0_f32;
    for i in 0..n {
        if labels[i] >= c {
            return Err(NnError::InvalidConfig(format!(
                "label {} out of range for {c} classes",
                labels[i]
            )));
        }
        let row = &s[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let probs: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
        loss -= probs[labels[i]].max(1e-12).ln();
        for j in 0..c {
            grad[i * c + j] = (probs[j] - if j == labels[i] { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    Ok((loss / n as f32, Tensor::from_vec(grad, &[n, c])?))
}

/// Gradients of every parameterized layer, in layer order.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// `(layer_index, weight_grad, bias_grad)` for conv and linear layers.
    pub per_layer: Vec<(usize, Tensor<f32>, Vec<f32>)>,
}

/// Runs a forward + backward pass over one minibatch and returns the loss
/// and parameter gradients.
///
/// # Errors
///
/// Propagates layer shape errors; returns an error for layers that do not
/// support a backward pass (grouped convolutions).
pub fn backward(
    model: &Model,
    input: &Tensor<f32>,
    labels: &[usize],
) -> Result<(f32, Gradients), NnError> {
    // Forward pass, saving per-layer inputs and pooling argmaxes.
    let mut x = input.clone();
    let mut saved_inputs: Vec<Tensor<f32>> = Vec::with_capacity(model.len());
    let mut saved_argmax: Vec<Option<Vec<usize>>> = Vec::with_capacity(model.len());
    for layer in model.layers() {
        saved_inputs.push(x.clone());
        match layer {
            Layer::Conv2d(l) => {
                x = l.forward(&x)?;
                saved_argmax.push(None);
            }
            Layer::Linear(l) => {
                x = l.forward(&x)?;
                saved_argmax.push(None);
            }
            Layer::Relu(l) => {
                x = l.forward(&x);
                saved_argmax.push(None);
            }
            Layer::MaxPool2(l) => {
                let (out, argmax) = l.forward(&x)?;
                x = out;
                saved_argmax.push(Some(argmax));
            }
            Layer::Flatten(l) => {
                x = l.forward(&x)?;
                saved_argmax.push(None);
            }
        }
    }

    let (loss, mut grad) = cross_entropy(&x, labels)?;

    // Backward pass.
    let mut grads = Gradients {
        per_layer: Vec::new(),
    };
    for (idx, layer) in model.layers().iter().enumerate().rev() {
        let layer_input = &saved_inputs[idx];
        match layer {
            Layer::Conv2d(l) => {
                let mut gw = Tensor::<f32>::zeros(l.weight.shape().dims());
                let mut gb = vec![0.0_f32; l.bias.len()];
                grad = l.backward(layer_input, &grad, &mut gw, &mut gb)?;
                grads.per_layer.push((idx, gw, gb));
            }
            Layer::Linear(l) => {
                let mut gw = Tensor::<f32>::zeros(l.weight.shape().dims());
                let mut gb = vec![0.0_f32; l.bias.len()];
                grad = l.backward(layer_input, &grad, &mut gw, &mut gb)?;
                grads.per_layer.push((idx, gw, gb));
            }
            Layer::Relu(l) => {
                grad = l.backward(layer_input, &grad);
            }
            Layer::MaxPool2(l) => {
                let argmax = saved_argmax[idx].as_ref().expect("argmax saved in forward");
                grad = l.backward(layer_input.shape().dims(), argmax, &grad);
            }
            Layer::Flatten(l) => {
                grad = l.backward(layer_input.shape().dims(), &grad)?;
            }
        }
    }
    grads.per_layer.reverse();
    Ok((loss, grads))
}

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.05,
            batch_size: 16,
            epochs: 5,
        }
    }
}

/// Applies one SGD update to the model given gradients from [`backward`].
pub fn apply_gradients(model: &mut Model, grads: &Gradients, learning_rate: f32) {
    for (idx, gw, gb) in &grads.per_layer {
        match &mut model.layers_mut()[*idx] {
            Layer::Conv2d(l) => {
                for (w, g) in l.weight.as_mut_slice().iter_mut().zip(gw.as_slice()) {
                    *w -= learning_rate * g;
                }
                for (b, g) in l.bias.iter_mut().zip(gb.iter()) {
                    *b -= learning_rate * g;
                }
            }
            Layer::Linear(l) => {
                for (w, g) in l.weight.as_mut_slice().iter_mut().zip(gw.as_slice()) {
                    *w -= learning_rate * g;
                }
                for (b, g) in l.bias.iter_mut().zip(gb.iter()) {
                    *b -= learning_rate * g;
                }
            }
            _ => {}
        }
    }
}

/// A simple in-memory labeled dataset: a `[N, C, H, W]` image tensor plus one
/// label per image.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Images.
    pub images: Tensor<f32>,
    /// Class labels, one per image.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Extracts the minibatch covering samples `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the dataset size.
    pub fn batch(&self, start: usize, len: usize) -> (Tensor<f32>, Vec<usize>) {
        let dims = self.images.shape().dims();
        let sample = dims[1] * dims[2] * dims[3];
        assert!(start + len <= self.len(), "batch out of range");
        let data = self.images.as_slice()[start * sample..(start + len) * sample].to_vec();
        let images = Tensor::from_vec(data, &[len, dims[1], dims[2], dims[3]])
            .expect("batch slice matches shape");
        (images, self.labels[start..start + len].to_vec())
    }

    /// Extracts sample `index` as a single-image `[1, C, H, W]` tensor plus
    /// its label — the request-construction hook used by the serving layer,
    /// where every queue entry is one sample.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn sample(&self, index: usize) -> (Tensor<f32>, usize) {
        let (image, labels) = self.batch(index, 1);
        (image, labels[0])
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch number (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub loss: f32,
}

/// Trains the model with minibatch SGD.
///
/// `post_step` is called after every parameter update; pruned retraining
/// uses it to re-apply pruning masks so pruned weights stay at zero.
///
/// # Errors
///
/// Propagates layer and configuration errors.
pub fn train<F>(
    model: &mut Model,
    data: &Dataset,
    config: &SgdConfig,
    mut post_step: F,
) -> Result<Vec<EpochRecord>, NnError>
where
    F: FnMut(&mut Model),
{
    if data.is_empty() {
        return Err(NnError::InvalidConfig("empty training set".into()));
    }
    let mut records = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let mut total_loss = 0.0_f32;
        let mut batches = 0usize;
        let mut start = 0usize;
        while start < data.len() {
            let len = config.batch_size.min(data.len() - start);
            let (images, labels) = data.batch(start, len);
            let (loss, grads) = backward(model, &images, &labels)?;
            apply_gradients(model, &grads, config.learning_rate);
            post_step(model);
            total_loss += loss;
            batches += 1;
            start += len;
        }
        records.push(EpochRecord {
            epoch,
            loss: total_loss / batches.max(1) as f32,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, MaxPool2, Relu};
    use nbsmt_tensor::ops::Conv2dParams;
    use nbsmt_tensor::random::{SynthesisConfig, TensorSynthesizer, ValueDistribution};

    fn toy_model(seed: u64) -> Model {
        let mut synth = TensorSynthesizer::new(seed);
        let mut m = Model::new("toy");
        m.push(Layer::Conv2d(Conv2d::new(
            Conv2dParams::new(1, 4, 3, 1, 1),
            &mut synth,
        )))
        .push(Layer::Relu(Relu))
        .push(Layer::MaxPool2(MaxPool2))
        .push(Layer::Flatten(Flatten))
        .push(Layer::Linear(Linear::new(4 * 4 * 4, 2, &mut synth)));
        m
    }

    /// Builds a trivially separable two-class dataset: class 0 images are
    /// bright in the top half, class 1 in the bottom half.
    fn toy_dataset(n_per_class: usize, seed: u64) -> Dataset {
        let mut synth = TensorSynthesizer::new(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class * 2 {
            let class = i % 2;
            for y in 0..8 {
                for x in 0..8 {
                    let bright = if class == 0 { y < 4 } else { y >= 4 };
                    let noise = (synth.uniform() as f32 - 0.5) * 0.2;
                    let base = if bright { 1.0 } else { 0.0 };
                    let _ = x;
                    data.push(base + noise);
                }
            }
            labels.push(class);
        }
        Dataset {
            images: Tensor::from_vec(data, &[n_per_class * 2, 1, 8, 8]).unwrap(),
            labels,
        }
    }

    #[test]
    fn cross_entropy_basics() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]).unwrap();
        let (loss, grad) = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(loss < 0.01, "confident correct predictions give low loss");
        assert_eq!(grad.shape().dims(), &[2, 2]);

        let (wrong_loss, _) = cross_entropy(&logits, &[1, 0]).unwrap();
        assert!(wrong_loss > 1.0);

        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 5]).is_err());
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.0, -0.2], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for idx in 0..6 {
            let mut p = logits.clone();
            p.as_mut_slice()[idx] += eps;
            let mut m = logits.clone();
            m.as_mut_slice()[idx] -= eps;
            let (lp, _) = cross_entropy(&p, &labels).unwrap();
            let (lm, _) = cross_entropy(&m, &labels).unwrap();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[idx]).abs() < 1e-3,
                "idx {idx}: {num} vs {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_produces_gradients_for_every_compute_layer() {
        let model = toy_model(3);
        let data = toy_dataset(4, 5);
        let (images, labels) = data.batch(0, 8);
        let (loss, grads) = backward(&model, &images, &labels).unwrap();
        assert!(loss.is_finite());
        assert_eq!(grads.per_layer.len(), 2);
        // Gradients must not all be zero.
        let any_nonzero = grads
            .per_layer
            .iter()
            .any(|(_, gw, _)| gw.as_slice().iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let mut model = toy_model(11);
        let data = toy_dataset(16, 13);
        let config = SgdConfig {
            learning_rate: 0.1,
            batch_size: 8,
            epochs: 8,
        };
        let records = train(&mut model, &data, &config, |_| {}).unwrap();
        assert_eq!(records.len(), 8);
        assert!(
            records.last().unwrap().loss < records.first().unwrap().loss,
            "loss should decrease: {records:?}"
        );
        let (images, labels) = data.batch(0, data.len());
        let acc = model.accuracy(&images, &labels).unwrap();
        assert!(
            acc > 0.9,
            "accuracy {acc} too low on a separable toy problem"
        );
    }

    #[test]
    fn post_step_hook_runs_after_every_update() {
        let mut model = toy_model(17);
        let data = toy_dataset(8, 19);
        let mut calls = 0usize;
        train(
            &mut model,
            &data,
            &SgdConfig {
                learning_rate: 0.05,
                batch_size: 4,
                epochs: 2,
            },
            |_| calls += 1,
        )
        .unwrap();
        assert_eq!(calls, 2 * (16 / 4));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut model = toy_model(1);
        let data = Dataset {
            images: Tensor::<f32>::zeros(&[0, 1, 8, 8]),
            labels: vec![],
        };
        assert!(train(&mut model, &data, &SgdConfig::default(), |_| {}).is_err());
    }

    #[test]
    fn dataset_batching() {
        let data = toy_dataset(4, 23);
        assert_eq!(data.len(), 8);
        let (images, labels) = data.batch(2, 3);
        assert_eq!(images.shape().dims(), &[3, 1, 8, 8]);
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn apply_gradients_moves_weights_down_gradient() {
        let mut model = toy_model(29);
        let before = match &model.layers()[4] {
            Layer::Linear(l) => l.weight.as_slice()[0],
            _ => unreachable!(),
        };
        let gw = Tensor::<f32>::full(&[64, 2], 1.0);
        let grads = Gradients {
            per_layer: vec![(4, gw, vec![1.0, 1.0])],
        };
        apply_gradients(&mut model, &grads, 0.5);
        let after = match &model.layers()[4] {
            Layer::Linear(l) => l.weight.as_slice()[0],
            _ => unreachable!(),
        };
        assert!((before - after - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gaussian_synthesis_helper_used_in_tests_is_reasonable() {
        // Smoke check that the training data generator's noise helper stays
        // in range (guards against accidental misuse of the synthesizer).
        let mut synth = TensorSynthesizer::new(1);
        let t = synth.tensor(
            &SynthesisConfig {
                distribution: ValueDistribution::Gaussian {
                    mean: 0.0,
                    std: 1.0,
                },
                sparsity: 0.0,
                relu: false,
            },
            &[16],
        );
        assert_eq!(t.numel(), 16);
    }
}
