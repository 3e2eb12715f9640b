#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"
#include "simd/simd.hpp"

namespace of::nn {

// --- Linear ------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, std::string label)
    : weight_(label + ".weight",
              Tensor::randn({in, out}, rng, 0.0f,
                            std::sqrt(2.0f / static_cast<float>(in)))),  // Kaiming
      bias_(label + ".bias", Tensor::zeros({out})) {}

Tensor Linear::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == weight_.value.size(0),
               "Linear: input " << x.shape_string() << " incompatible with weight "
                                << weight_.value.shape_string());
  cached_input_ = x;
  Tensor y = x.matmul(weight_.value);
  const std::size_t batch = y.size(0), out = y.size(1);
  for (std::size_t b = 0; b < batch; ++b) simd::add(y.data() + b * out, bias_.value.data(), out);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  // dW += xᵀ·dy ; db += Σ_batch dy ; dx = dy·Wᵀ
  const std::size_t in = weight_.value.size(0), out = weight_.value.size(1);
  OF_CHECK_MSG(grad_out.ndim() == 2 && grad_out.size(1) == out &&
                   grad_out.size(0) == cached_input_.size(0),
               "Linear: grad " << grad_out.shape_string() << " does not match input "
                               << cached_input_.shape_string() << " and weight "
                               << weight_.value.shape_string());
  const std::size_t batch = grad_out.size(0);
  const float* x = cached_input_.data();
  const float* dy = grad_out.data();
  float* dw = weight_.grad.data();
  // Row i of xᵀ·dy is built in a scratch row with matmul's skip-zero axpy
  // order, then added into the grad: the same bytes as adding the full
  // product, without the xᵀ copy or the in×out temporary.
  exec::Pool::global().parallel_for(in, out * batch, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> row(out);
    for (std::size_t i = lo; i < hi; ++i) {
      std::fill(row.begin(), row.end(), 0.0f);
      for (std::size_t b = 0; b < batch; ++b) {
        const float xbi = x[b * in + i];
        if (xbi == 0.0f) continue;
        simd::axpy(row.data(), dy + b * out, xbi, out);
      }
      simd::add(dw + i * out, row.data(), out);
    }
  });
  for (std::size_t b = 0; b < batch; ++b) simd::add(bias_.grad.data(), dy + b * out, out);
  return grad_out.matmul(weight_.value.transpose2d());
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// --- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y = x;
  for (auto& v : y.vec())
    if (v < 0.0f) v = 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i)
    if (cached_input_[i] <= 0.0f) g[i] = 0.0f;
  return g;
}

// --- Tanh --------------------------------------------------------------------

Tensor Tanh::forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.vec()) v = std::tanh(v);
  cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    const float t = cached_output_[i];
    g[i] *= (1.0f - t * t);
  }
  return g;
}

// --- HardSwish ---------------------------------------------------------------

Tensor HardSwish::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y = x;
  for (auto& v : y.vec()) {
    if (v <= -3.0f) v = 0.0f;
    else if (v < 3.0f) v = v * (v + 3.0f) / 6.0f;
    // else identity
  }
  return y;
}

Tensor HardSwish::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    const float v = cached_input_[i];
    float d;
    if (v <= -3.0f) d = 0.0f;
    else if (v < 3.0f) d = (2.0f * v + 3.0f) / 6.0f;
    else d = 1.0f;
    g[i] *= d;
  }
  return g;
}

// --- BatchNorm1d ---------------------------------------------------------------

BatchNorm1d::BatchNorm1d(std::size_t features, float momentum, float eps, std::string label)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_(label + ".gamma", Tensor::ones({features})),
      beta_(label + ".beta", Tensor::zeros({features})),
      running_mean_(Tensor::zeros({features})),
      running_var_(Tensor::ones({features})) {
  gamma_.is_batchnorm = beta_.is_batchnorm = true;
}

Tensor BatchNorm1d::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == features_,
               "BatchNorm1d: input " << x.shape_string() << " vs features " << features_);
  const std::size_t batch = x.size(0);
  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor({features_});

  if (training_ && batch > 1) {
    for (std::size_t j = 0; j < features_; ++j) {
      double mean = 0.0;
      for (std::size_t b = 0; b < batch; ++b) mean += x(b, j);
      mean /= static_cast<double>(batch);
      double var = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const double d = x(b, j) - mean;
        var += d * d;
      }
      var /= static_cast<double>(batch);
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[j] = inv_std;
      for (std::size_t b = 0; b < batch; ++b) {
        const float xh = (x(b, j) - static_cast<float>(mean)) * inv_std;
        cached_xhat_(b, j) = xh;
        y(b, j) = gamma_.value[j] * xh + beta_.value[j];
      }
      // The EMA tracks the *unbiased* variance (n/(n-1) correction), while
      // normalization above uses the biased batch variance — same convention
      // as torch.nn.BatchNorm1d, so eval-mode outputs match training stats.
      const double unbiased_var =
          var * static_cast<double>(batch) / static_cast<double>(batch - 1);
      running_mean_[j] =
          (1.0f - momentum_) * running_mean_[j] + momentum_ * static_cast<float>(mean);
      running_var_[j] =
          (1.0f - momentum_) * running_var_[j] + momentum_ * static_cast<float>(unbiased_var);
    }
  } else {
    for (std::size_t j = 0; j < features_; ++j) {
      const float inv_std = 1.0f / std::sqrt(running_var_[j] + eps_);
      cached_inv_std_[j] = inv_std;
      for (std::size_t b = 0; b < batch; ++b) {
        const float xh = (x(b, j) - running_mean_[j]) * inv_std;
        cached_xhat_(b, j) = xh;
        y(b, j) = gamma_.value[j] * xh + beta_.value[j];
      }
    }
  }
  return y;
}

Tensor BatchNorm1d::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.size(0);
  Tensor dx(grad_out.shape());
  const float n = static_cast<float>(batch);
  for (std::size_t j = 0; j < features_; ++j) {
    float dgamma = 0.0f, dbeta = 0.0f;
    for (std::size_t b = 0; b < batch; ++b) {
      dgamma += grad_out(b, j) * cached_xhat_(b, j);
      dbeta += grad_out(b, j);
    }
    gamma_.grad[j] += dgamma;
    beta_.grad[j] += dbeta;
    const float g = gamma_.value[j] * cached_inv_std_[j];
    if (training_ && batch > 1) {
      // Full batch-norm backward: dx = g/n * (n·dy − Σdy − x̂·Σ(dy·x̂))
      for (std::size_t b = 0; b < batch; ++b) {
        dx(b, j) = g / n * (n * grad_out(b, j) - dbeta - cached_xhat_(b, j) * dgamma);
      }
    } else {
      for (std::size_t b = 0; b < batch; ++b) dx(b, j) = g * grad_out(b, j);
    }
  }
  return dx;
}

void BatchNorm1d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm1d::collect_buffers(std::vector<Tensor*>& out) {
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

// --- Dropout -------------------------------------------------------------------

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  OF_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout probability must be in [0,1), got " << p);
}

Tensor Dropout::forward(const Tensor& x) {
  if (!training_ || p_ == 0.0f) {
    mask_ = Tensor();
    return x;
  }
  mask_ = Tensor(x.shape());
  Tensor y = x;
  const float keep_scale = 1.0f / (1.0f - p_);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const float m = rng_.bernoulli(p_) ? 0.0f : keep_scale;
    mask_[i] = m;
    y[i] *= m;
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  Tensor g = grad_out;
  g.mul_(mask_);
  return g;
}

// --- ResidualBlock ---------------------------------------------------------------

ResidualBlock::ResidualBlock(std::size_t dim, Rng& rng, std::string label) {
  body_.emplace<Linear>(dim, dim, rng, label + ".fc1");
  body_.emplace<BatchNorm1d>(dim, 0.1f, 1e-5f, label + ".bn1");
  body_.emplace<ReLU>();
  body_.emplace<Linear>(dim, dim, rng, label + ".fc2");
  body_.emplace<BatchNorm1d>(dim, 0.1f, 1e-5f, label + ".bn2");
}

Tensor ResidualBlock::forward(const Tensor& x) {
  Tensor pre = body_.forward(x);
  pre.add_(x);
  cached_pre_relu_ = pre;
  for (auto& v : pre.vec())
    if (v < 0.0f) v = 0.0f;
  return pre;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i)
    if (cached_pre_relu_[i] <= 0.0f) g[i] = 0.0f;
  Tensor g_body = body_.backward(g);
  g_body.add_(g);  // skip-connection gradient
  return g_body;
}

void ResidualBlock::collect_parameters(std::vector<Parameter*>& out) {
  body_.collect_parameters(out);
}

void ResidualBlock::collect_buffers(std::vector<Tensor*>& out) {
  body_.collect_buffers(out);
}

void ResidualBlock::set_training(bool training) {
  Module::set_training(training);
  body_.set_training(training);
}

}  // namespace of::nn
