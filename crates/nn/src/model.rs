//! Sequential model container and forward execution.

use serde::{Deserialize, Serialize};

use nbsmt_tensor::tensor::Tensor;

use crate::error::NnError;
use crate::layers::{Conv2d, Flatten, Linear, MaxPool2, Relu};

/// A layer of a sequential model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Linear(Linear),
    /// ReLU activation.
    Relu(Relu),
    /// 2×2 max pooling.
    MaxPool2(MaxPool2),
    /// Flatten to `[N, F]`.
    Flatten(Flatten),
}

impl Layer {
    /// Short human-readable name of the layer kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::Linear(_) => "linear",
            Layer::Relu(_) => "relu",
            Layer::MaxPool2(_) => "maxpool2",
            Layer::Flatten(_) => "flatten",
        }
    }

    /// Whether the layer holds MAC-heavy parameters (conv or linear).
    pub fn is_compute_layer(&self) -> bool {
        matches!(self, Layer::Conv2d(_) | Layer::Linear(_))
    }
}

/// A sequential neural network.
///
/// The model owns its layers and executes them in order. It is deliberately
/// simple — the reproduction only needs small trainable CNNs; the large
/// ImageNet models of the paper are represented as layer-shape inventories in
/// `nbsmt-workloads` rather than executable graphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    layers: Vec<Layer>,
    /// Human-readable model name.
    pub name: String,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            layers: Vec::new(),
            name: name.into(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the trainer and the pruner).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of compute (conv/linear) layers.
    pub fn compute_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_compute_layer()).count()
    }

    /// Runs a forward pass and returns the final output (`[N, classes]` for
    /// classifiers).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = forward_layer(layer, &x)?;
        }
        Ok(x)
    }

    /// Runs a forward pass, returning the input of every layer alongside the
    /// final output. Used by the quantized execution engine to calibrate
    /// per-layer activation ranges and to hand each compute layer's input to
    /// the NB-SMT emulation.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_collect(
        &self,
        input: &Tensor<f32>,
    ) -> Result<(Vec<Tensor<f32>>, Tensor<f32>), NnError> {
        let mut x = input.clone();
        let mut inputs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            inputs.push(x.clone());
            x = forward_layer(layer, &x)?;
        }
        Ok((inputs, x))
    }

    /// Predicts the class of every sample in a `[N, classes]` logit tensor.
    pub fn argmax(logits: &Tensor<f32>) -> Vec<usize> {
        let dims = logits.shape().dims();
        let (n, c) = (dims[0], dims[1]);
        let s = logits.as_slice();
        (0..n)
            .map(|i| {
                let row = &s[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(idx, _)| idx)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Classification accuracy of the model on a batch.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn accuracy(&self, input: &Tensor<f32>, labels: &[usize]) -> Result<f64, NnError> {
        let logits = self.forward(input)?;
        let preds = Self::argmax(&logits);
        if labels.is_empty() {
            return Ok(0.0);
        }
        let correct = preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// Total conv + linear MAC operations for one input of spatial size
    /// `h × w` with `channels` input channels.
    ///
    /// # Errors
    ///
    /// Returns an error if layer shapes do not chain correctly.
    pub fn mac_ops(&self, channels: usize, h: usize, w: usize) -> Result<u64, NnError> {
        Ok(self.compute_layer_macs(channels, h, w)?.iter().sum())
    }

    /// MAC operations of each compute (conv/linear) layer, in order, for one
    /// input of spatial size `h × w` with `channels` input channels.
    ///
    /// # Errors
    ///
    /// Returns an error if layer shapes do not chain correctly.
    pub fn compute_layer_macs(
        &self,
        channels: usize,
        h: usize,
        w: usize,
    ) -> Result<Vec<u64>, NnError> {
        let mut macs = Vec::with_capacity(self.compute_layer_count());
        let (mut _c, mut ch, mut cw) = (channels, h, w);
        for layer in &self.layers {
            match layer {
                Layer::Conv2d(conv) => {
                    macs.push(conv.mac_ops(ch, cw));
                    ch = conv.params.output_size(ch);
                    cw = conv.params.output_size(cw);
                    _c = conv.params.out_channels;
                }
                Layer::Linear(lin) => macs.push(lin.mac_ops()),
                Layer::MaxPool2(_) => {
                    ch /= 2;
                    cw /= 2;
                }
                Layer::Relu(_) | Layer::Flatten(_) => {}
            }
        }
        Ok(macs)
    }
}

/// Applies one layer's forward pass.
pub(crate) fn forward_layer(layer: &Layer, x: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
    match layer {
        Layer::Conv2d(l) => l.forward(x),
        Layer::Linear(l) => l.forward(x),
        Layer::Relu(l) => Ok(l.forward(x)),
        Layer::MaxPool2(l) => Ok(l.forward(x)?.0),
        Layer::Flatten(l) => l.forward(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_tensor::ops::Conv2dParams;
    use nbsmt_tensor::random::TensorSynthesizer;

    fn tiny_model() -> Model {
        let mut synth = TensorSynthesizer::new(7);
        let mut m = Model::new("tiny");
        m.push(Layer::Conv2d(Conv2d::new(
            Conv2dParams::new(1, 4, 3, 1, 1),
            &mut synth,
        )))
        .push(Layer::Relu(Relu))
        .push(Layer::MaxPool2(MaxPool2))
        .push(Layer::Flatten(Flatten))
        .push(Layer::Linear(Linear::new(4 * 4 * 4, 3, &mut synth)));
        m
    }

    #[test]
    fn forward_produces_logits() {
        let m = tiny_model();
        let input = Tensor::<f32>::full(&[2, 1, 8, 8], 0.5);
        let out = m.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 3]);
        assert_eq!(m.len(), 5);
        assert_eq!(m.compute_layer_count(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn forward_collect_returns_layer_inputs() {
        let m = tiny_model();
        let input = Tensor::<f32>::full(&[1, 1, 8, 8], 1.0);
        let (inputs, out) = m.forward_collect(&input).unwrap();
        assert_eq!(inputs.len(), 5);
        assert_eq!(inputs[0].shape().dims(), &[1, 1, 8, 8]);
        assert_eq!(inputs[3].shape().dims(), &[1, 4, 4, 4]);
        assert_eq!(out.shape().dims(), &[1, 3]);
    }

    #[test]
    fn argmax_and_accuracy() {
        let logits = Tensor::from_vec(vec![0.1, 0.9, 0.0, 2.0, 1.0, -1.0], &[2, 3]).unwrap();
        assert_eq!(Model::argmax(&logits), vec![1, 0]);

        let m = tiny_model();
        let input = Tensor::<f32>::full(&[2, 1, 8, 8], 0.5);
        let acc = m.accuracy(&input, &[0, 0]).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(m.accuracy(&input, &[]).unwrap(), 0.0);
    }

    #[test]
    fn mac_ops_counts_conv_and_linear() {
        let m = tiny_model();
        // conv: 8*8 output positions * 4 filters * 9 * 1 channel = 2304
        // linear: 64 * 3 = 192
        assert_eq!(m.mac_ops(1, 8, 8).unwrap(), 2304 + 192);
        assert_eq!(m.compute_layer_macs(1, 8, 8).unwrap(), vec![2304, 192]);
    }

    #[test]
    fn layer_kind_labels() {
        let m = tiny_model();
        let kinds: Vec<&str> = m.layers().iter().map(|l| l.kind()).collect();
        assert_eq!(
            kinds,
            vec!["conv2d", "relu", "maxpool2", "flatten", "linear"]
        );
    }

    #[test]
    fn shape_errors_propagate() {
        let m = tiny_model();
        let bad = Tensor::<f32>::zeros(&[2, 3, 8, 8]);
        assert!(m.forward(&bad).is_err());
    }
}
