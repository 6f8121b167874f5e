//! Structural model zoo: layer-shape inventories of the CNNs the paper
//! evaluates (Table I) plus MobileNet-v1 (the MLPerf section).
//!
//! The pretrained ImageNet models themselves are not available offline, so
//! each model is represented by the exact sequence of its compute layers —
//! convolution geometry, GEMM dimensions, and MAC counts — which is all the
//! utilization, energy, and speedup experiments need. Value-dependent
//! experiments attach calibrated synthetic tensors to these layers (see
//! [`crate::calib`]).

use serde::{Deserialize, Serialize};

/// The kind of compute layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Dense convolution.
    Conv,
    /// Depthwise convolution (one filter per channel).
    Depthwise,
    /// Pointwise (1×1) convolution.
    Pointwise,
    /// Fully connected layer.
    FullyConnected,
}

/// One compute layer of a zoo model, described by its GEMM dimensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Human-readable layer name.
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// GEMM rows per image (`OH × OW` for convolutions, 1 for FC).
    pub m: usize,
    /// GEMM reduction dimension (`Cin/groups × K × K`).
    pub k: usize,
    /// GEMM columns (`Cout/groups`).
    pub n: usize,
    /// Number of groups (1 for dense convolutions).
    pub groups: usize,
}

impl LayerSpec {
    /// MAC operations of the layer for one input image.
    pub fn mac_ops(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64 * self.groups as u64
    }

    /// Creates a dense convolution layer spec from its geometry.
    pub fn conv(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        in_size: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let out_size = (in_size + 2 * padding - kernel) / stride + 1;
        LayerSpec {
            name: name.into(),
            kind: if kernel == 1 {
                LayerKind::Pointwise
            } else {
                LayerKind::Conv
            },
            m: out_size * out_size,
            k: in_ch * kernel * kernel,
            n: out_ch,
            groups: 1,
        }
    }

    /// Creates a depthwise convolution layer spec.
    pub fn depthwise(
        name: impl Into<String>,
        channels: usize,
        kernel: usize,
        in_size: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let out_size = (in_size + 2 * padding - kernel) / stride + 1;
        LayerSpec {
            name: name.into(),
            kind: LayerKind::Depthwise,
            m: out_size * out_size,
            k: kernel * kernel,
            n: 1,
            groups: channels,
        }
    }

    /// Creates a fully connected layer spec.
    pub fn fc(name: impl Into<String>, in_features: usize, out_features: usize) -> Self {
        LayerSpec {
            name: name.into(),
            kind: LayerKind::FullyConnected,
            m: 1,
            k: in_features,
            n: out_features,
            groups: 1,
        }
    }
}

/// A zoo model: a named sequence of compute layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name (as used in the paper's tables).
    pub name: String,
    /// Compute layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Total convolution MAC operations per image.
    pub fn conv_mac_ops(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind != LayerKind::FullyConnected)
            .map(|l| l.mac_ops())
            .sum()
    }

    /// Total fully connected MAC operations per image.
    pub fn fc_mac_ops(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind == LayerKind::FullyConnected)
            .map(|l| l.mac_ops())
            .sum()
    }

    /// The layers NB-SMT executes (the paper leaves the first convolution and
    /// the fully connected layers intact).
    pub fn nbsmt_layers(&self) -> Vec<&LayerSpec> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(i, l)| *i != 0 && l.kind != LayerKind::FullyConnected)
            .map(|(_, l)| l)
            .collect()
    }
}

/// AlexNet (the one-weird-trick variant used by torchvision).
pub fn alexnet() -> ModelSpec {
    let layers = vec![
        LayerSpec::conv("conv1", 3, 64, 11, 224, 4, 2),
        LayerSpec::conv("conv2", 64, 192, 5, 27, 1, 2),
        LayerSpec::conv("conv3", 192, 384, 3, 13, 1, 1),
        LayerSpec::conv("conv4", 384, 256, 3, 13, 1, 1),
        LayerSpec::conv("conv5", 256, 256, 3, 13, 1, 1),
        LayerSpec::fc("fc6", 256 * 6 * 6, 4096),
        LayerSpec::fc("fc7", 4096, 4096),
        LayerSpec::fc("fc8", 4096, 1000),
    ];
    ModelSpec {
        name: "AlexNet".into(),
        layers,
    }
}

/// ResNet-18.
pub fn resnet18() -> ModelSpec {
    let mut layers = vec![LayerSpec::conv("conv1", 3, 64, 7, 224, 2, 3)];
    let stages: [(usize, usize, usize); 4] = [
        // (channels, blocks, input spatial size of the stage)
        (64, 2, 56),
        (128, 2, 56),
        (256, 2, 28),
        (512, 2, 14),
    ];
    let mut in_ch = 64;
    for (s, &(ch, blocks, in_size)) in stages.iter().enumerate() {
        let stride = if s == 0 { 1 } else { 2 };
        let out_size = in_size / stride;
        for b in 0..blocks {
            let (block_in, block_stride, block_in_size) = if b == 0 {
                (in_ch, stride, in_size)
            } else {
                (ch, 1, out_size)
            };
            layers.push(LayerSpec::conv(
                format!("layer{}_{}_conv1", s + 1, b),
                block_in,
                ch,
                3,
                block_in_size,
                block_stride,
                1,
            ));
            layers.push(LayerSpec::conv(
                format!("layer{}_{}_conv2", s + 1, b),
                ch,
                ch,
                3,
                out_size,
                1,
                1,
            ));
            if b == 0 && (block_in != ch || block_stride != 1) {
                layers.push(LayerSpec::conv(
                    format!("layer{}_{}_downsample", s + 1, b),
                    block_in,
                    ch,
                    1,
                    block_in_size,
                    block_stride,
                    0,
                ));
            }
        }
        in_ch = ch;
    }
    layers.push(LayerSpec::fc("fc", 512, 1000));
    ModelSpec {
        name: "ResNet-18".into(),
        layers,
    }
}

/// ResNet-50 (bottleneck blocks).
pub fn resnet50() -> ModelSpec {
    let mut layers = vec![LayerSpec::conv("conv1", 3, 64, 7, 224, 2, 3)];
    let stages: [(usize, usize, usize); 4] =
        [(64, 3, 56), (128, 4, 56), (256, 6, 28), (512, 14, 14)];
    // Note: stage block counts for ResNet-50 are [3, 4, 6, 3]; the tuple above
    // encodes (width, blocks, input size) and the last stage is fixed below.
    let block_counts = [3usize, 4, 6, 3];
    let mut in_ch = 64;
    for (s, &(width, _, in_size)) in stages.iter().enumerate() {
        let blocks = block_counts[s];
        let stride = if s == 0 { 1 } else { 2 };
        let out_size = in_size / stride;
        let out_ch = width * 4;
        for b in 0..blocks {
            let (block_in, block_stride, block_in_size) = if b == 0 {
                (in_ch, stride, in_size)
            } else {
                (out_ch, 1, out_size)
            };
            layers.push(LayerSpec::conv(
                format!("layer{}_{}_conv1", s + 1, b),
                block_in,
                width,
                1,
                block_in_size,
                1,
                0,
            ));
            layers.push(LayerSpec::conv(
                format!("layer{}_{}_conv2", s + 1, b),
                width,
                width,
                3,
                block_in_size,
                block_stride,
                1,
            ));
            layers.push(LayerSpec::conv(
                format!("layer{}_{}_conv3", s + 1, b),
                width,
                out_ch,
                1,
                out_size,
                1,
                0,
            ));
            if b == 0 {
                layers.push(LayerSpec::conv(
                    format!("layer{}_{}_downsample", s + 1, b),
                    block_in,
                    out_ch,
                    1,
                    block_in_size,
                    block_stride,
                    0,
                ));
            }
        }
        in_ch = out_ch;
    }
    layers.push(LayerSpec::fc("fc", 2048, 1000));
    ModelSpec {
        name: "ResNet-50".into(),
        layers,
    }
}

/// GoogLeNet (Inception v1). Branch channel configurations follow the
/// original paper's table.
pub fn googlenet() -> ModelSpec {
    // (name, in_ch, size, [1x1, 3x3red, 3x3, 5x5red, 5x5, pool_proj])
    let inception: [(&str, usize, usize, [usize; 6]); 9] = [
        ("3a", 192, 28, [64, 96, 128, 16, 32, 32]),
        ("3b", 256, 28, [128, 128, 192, 32, 96, 64]),
        ("4a", 480, 14, [192, 96, 208, 16, 48, 64]),
        ("4b", 512, 14, [160, 112, 224, 24, 64, 64]),
        ("4c", 512, 14, [128, 128, 256, 24, 64, 64]),
        ("4d", 512, 14, [112, 144, 288, 32, 64, 64]),
        ("4e", 528, 14, [256, 160, 320, 32, 128, 128]),
        ("5a", 832, 7, [256, 160, 320, 32, 128, 128]),
        ("5b", 832, 7, [384, 192, 384, 48, 128, 128]),
    ];
    let mut layers = vec![
        LayerSpec::conv("conv1", 3, 64, 7, 224, 2, 3),
        LayerSpec::conv("conv2_reduce", 64, 64, 1, 56, 1, 0),
        LayerSpec::conv("conv2", 64, 192, 3, 56, 1, 1),
    ];
    for (name, in_ch, size, cfg) in inception {
        let [b1, b3r, b3, b5r, b5, pp] = cfg;
        layers.push(LayerSpec::conv(
            format!("inception{name}_1x1"),
            in_ch,
            b1,
            1,
            size,
            1,
            0,
        ));
        layers.push(LayerSpec::conv(
            format!("inception{name}_3x3_reduce"),
            in_ch,
            b3r,
            1,
            size,
            1,
            0,
        ));
        layers.push(LayerSpec::conv(
            format!("inception{name}_3x3"),
            b3r,
            b3,
            3,
            size,
            1,
            1,
        ));
        layers.push(LayerSpec::conv(
            format!("inception{name}_5x5_reduce"),
            in_ch,
            b5r,
            1,
            size,
            1,
            0,
        ));
        layers.push(LayerSpec::conv(
            format!("inception{name}_5x5"),
            b5r,
            b5,
            3,
            size,
            1,
            1,
        ));
        layers.push(LayerSpec::conv(
            format!("inception{name}_pool_proj"),
            in_ch,
            pp,
            1,
            size,
            1,
            0,
        ));
    }
    layers.push(LayerSpec::fc("fc", 1024, 1000));
    ModelSpec {
        name: "GoogLeNet".into(),
        layers,
    }
}

/// DenseNet-121 (growth rate 32, blocks of 6/12/24/16 layers with 1×1
/// bottlenecks and 1×1 transition convolutions).
pub fn densenet121() -> ModelSpec {
    let growth = 32usize;
    let mut layers = vec![LayerSpec::conv("conv0", 3, 64, 7, 224, 2, 3)];
    let block_sizes = [6usize, 12, 24, 16];
    let mut channels = 64usize;
    let mut size = 56usize;
    for (b, &block_len) in block_sizes.iter().enumerate() {
        for l in 0..block_len {
            layers.push(LayerSpec::conv(
                format!("dense{}_{}_bottleneck", b + 1, l),
                channels,
                4 * growth,
                1,
                size,
                1,
                0,
            ));
            layers.push(LayerSpec::conv(
                format!("dense{}_{}_conv", b + 1, l),
                4 * growth,
                growth,
                3,
                size,
                1,
                1,
            ));
            channels += growth;
        }
        if b < block_sizes.len() - 1 {
            layers.push(LayerSpec::conv(
                format!("transition{}", b + 1),
                channels,
                channels / 2,
                1,
                size,
                1,
                0,
            ));
            channels /= 2;
            size /= 2;
        }
    }
    layers.push(LayerSpec::fc("fc", channels, 1000));
    ModelSpec {
        name: "DenseNet-121".into(),
        layers,
    }
}

/// MobileNet-v1 (depthwise-separable blocks), used by the MLPerf experiment.
pub fn mobilenet_v1() -> ModelSpec {
    let mut layers = vec![LayerSpec::conv("conv1", 3, 32, 3, 224, 2, 1)];
    // (in_ch, out_ch, stride, input size)
    let blocks: [(usize, usize, usize, usize); 13] = [
        (32, 64, 1, 112),
        (64, 128, 2, 112),
        (128, 128, 1, 56),
        (128, 256, 2, 56),
        (256, 256, 1, 28),
        (256, 512, 2, 28),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 1024, 2, 14),
        (1024, 1024, 1, 7),
    ];
    for (i, &(in_ch, out_ch, stride, size)) in blocks.iter().enumerate() {
        layers.push(LayerSpec::depthwise(
            format!("dw{}", i + 1),
            in_ch,
            3,
            size,
            stride,
            1,
        ));
        let out_size = size / stride;
        layers.push(LayerSpec::conv(
            format!("pw{}", i + 1),
            in_ch,
            out_ch,
            1,
            out_size,
            1,
            0,
        ));
    }
    layers.push(LayerSpec::fc("fc", 1024, 1000));
    ModelSpec {
        name: "MobileNet-v1".into(),
        layers,
    }
}

/// The five CNNs of Table I, in the paper's order.
pub fn table1_models() -> Vec<ModelSpec> {
    vec![
        alexnet(),
        resnet18(),
        resnet50(),
        googlenet(),
        densenet121(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn giga(macs: u64) -> f64 {
        macs as f64 / 1e9
    }

    #[test]
    fn layer_spec_mac_counting() {
        let l = LayerSpec::conv("c", 3, 64, 3, 32, 1, 1);
        assert_eq!(l.mac_ops(), 32 * 32 * 3 * 9 * 64);
        let d = LayerSpec::depthwise("d", 32, 3, 16, 1, 1);
        assert_eq!(d.mac_ops(), 16 * 16 * 9 * 32);
        let f = LayerSpec::fc("f", 100, 10);
        assert_eq!(f.mac_ops(), 1000);
        assert_eq!(f.kind, LayerKind::FullyConnected);
        assert_eq!(
            LayerSpec::conv("p", 8, 8, 1, 4, 1, 0).kind,
            LayerKind::Pointwise
        );
    }

    /// Table I reports the per-image MAC counts of the five models; the
    /// structural zoo must land close to those numbers.
    #[test]
    fn table1_mac_counts_match_paper() {
        let cases: [(ModelSpec, f64, f64); 5] = [
            (alexnet(), 0.6, 0.059 * 1000.0),
            (resnet18(), 1.8, 0.5),
            (resnet50(), 4.1, 2.0),
            (googlenet(), 1.5, 1.0),
            (densenet121(), 2.7, 1.0),
        ];
        for (model, conv_g, fc_m) in cases {
            let conv = giga(model.conv_mac_ops());
            assert!(
                (conv - conv_g).abs() / conv_g < 0.25,
                "{}: conv MACs {conv:.2}G vs paper {conv_g}G",
                model.name
            );
            let fc = model.fc_mac_ops() as f64 / 1e6;
            assert!(
                (fc - fc_m).abs() / fc_m < 0.30,
                "{}: FC MACs {fc:.1}M vs paper {fc_m}M",
                model.name
            );
        }
    }

    #[test]
    fn resnet18_structure() {
        let m = resnet18();
        // conv1 + 4 stages * (2 blocks * 2 convs) + 3 downsample convs + fc
        assert_eq!(m.layers.len(), 1 + 16 + 3 + 1);
        assert_eq!(m.layers.last().unwrap().kind, LayerKind::FullyConnected);
        // NB-SMT layers exclude the first conv and the FC layer.
        assert_eq!(m.nbsmt_layers().len(), m.layers.len() - 2);
    }

    #[test]
    fn googlenet_has_nine_inception_modules() {
        let m = googlenet();
        let inception_layers = m
            .layers
            .iter()
            .filter(|l| l.name.starts_with("inception"))
            .count();
        assert_eq!(inception_layers, 9 * 6);
    }

    #[test]
    fn densenet_has_58_dense_convs_plus_transitions() {
        let m = densenet121();
        let dense = m
            .layers
            .iter()
            .filter(|l| l.name.starts_with("dense"))
            .count();
        assert_eq!(dense, 2 * (6 + 12 + 24 + 16));
        let transitions = m
            .layers
            .iter()
            .filter(|l| l.name.starts_with("transition"))
            .count();
        assert_eq!(transitions, 3);
        // Final feature count of DenseNet-121 is 1024.
        assert_eq!(m.layers.last().unwrap().k, 1024);
    }

    #[test]
    fn mobilenet_alternates_depthwise_and_pointwise() {
        let m = mobilenet_v1();
        let dw = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Depthwise)
            .count();
        let pw = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Pointwise)
            .count();
        assert_eq!(dw, 13);
        assert_eq!(pw, 13);
        // Pointwise convolutions dominate the MACs (they run at 2T in the
        // MLPerf experiment).
        let dw_macs: u64 = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Depthwise)
            .map(|l| l.mac_ops())
            .sum();
        let pw_macs: u64 = m
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::Pointwise)
            .map(|l| l.mac_ops())
            .sum();
        assert!(pw_macs > 10 * dw_macs);
    }

    #[test]
    fn table1_returns_five_models() {
        let models = table1_models();
        assert_eq!(models.len(), 5);
        assert_eq!(models[0].name, "AlexNet");
        assert_eq!(models[4].name, "DenseNet-121");
    }
}
