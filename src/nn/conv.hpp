// Convolutional and normalization layers. Activations stay 2-D
// (batch, features); each layer carries its own (C, H, W) geometry and
// interprets the feature axis as flattened NCHW — so Conv stacks compose
// with the Linear/BatchNorm machinery and the zoo without a tensor-rank
// overhaul. Naive direct convolution: correctness-first (gradient-checked),
// used by the `cnn_mini` zoo model for tests and examples.
#pragma once

#include "nn/module.hpp"

namespace of::nn {

struct ImageGeom {
  std::size_t channels = 1;
  std::size_t height = 1;
  std::size_t width = 1;
  std::size_t features() const noexcept { return channels * height * width; }
};

// 2-D convolution, square kernel, stride 1, symmetric zero padding.
class Conv2d final : public Module {
 public:
  Conv2d(ImageGeom in, std::size_t out_channels, std::size_t kernel, std::size_t padding,
         Rng& rng, std::string label = "conv");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return "Conv2d"; }

  ImageGeom out_geom() const noexcept { return out_; }

 private:
  ImageGeom in_;
  ImageGeom out_;
  std::size_t kernel_;
  std::size_t padding_;
  Parameter weight_;  // (out_c, in_c * k * k) row-major filter bank
  Parameter bias_;    // (out_c)
  Tensor cached_input_;

  float in_at(const Tensor& x, std::size_t b, std::size_t c, std::ptrdiff_t i,
              std::ptrdiff_t j) const;
  // Multiply-adds one sample costs in the forward pass (zero-padding taps
  // included): the pool's work estimate for both passes.
  std::size_t sample_madds() const noexcept;
};

// 2×2 max pooling, stride 2 (floor semantics on odd sizes).
class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(ImageGeom in);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "MaxPool2d"; }

  ImageGeom out_geom() const noexcept { return out_; }

 private:
  ImageGeom in_;
  ImageGeom out_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::size_t cached_batch_ = 0;
};

// Layer normalization over the feature axis with affine gamma/beta.
class LayerNorm final : public Module {
 public:
  LayerNorm(std::size_t features, float eps = 1e-5f, std::string label = "ln");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return "LayerNorm"; }

 private:
  std::size_t features_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;  // per row
};

}  // namespace of::nn
