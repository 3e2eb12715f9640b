#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "simd/simd.hpp"

namespace of::nn {

Optimizer::Optimizer(std::vector<Parameter*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  OF_CHECK_MSG(!params_.empty(), "optimizer created with no parameters");
  OF_CHECK_MSG(lr > 0.0f, "learning rate must be positive, got " << lr);
}

void Optimizer::zero_grad() {
  for (auto* p : params_) p->grad.zero_();
}

SGD::SGD(std::vector<Parameter*> params, float lr, float momentum, float weight_decay,
         bool nesterov)
    : Optimizer(std::move(params), lr),
      momentum_(momentum),
      weight_decay_(weight_decay),
      nesterov_(nesterov) {
  velocity_.reserve(params_.size());
  for (auto* p : params_) velocity_.emplace_back(p->value.shape());
}

void SGD::step() {
  // Per tile, through the simd kernels: tmp = g + wd·w; vel = vel·m + tmp;
  // tmp += m·vel (Nesterov); w += (−lr)·step. Each call is one rounding of
  // the scalar update, in its order, and w + (−lr·s) == w − lr·s exactly,
  // so the bytes match the per-element loop. The wd axpy runs even at
  // wd = 0: g + 0·w can map a −0 gradient to +0, and an infinite w to NaN.
  constexpr std::size_t kTile = 1024;
  float tmp[kTile];
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    const float* g = p.grad.data();
    float* w = p.value.data();
    float* vel = velocity_[i].data();
    const std::size_t n = p.value.numel();
    for (std::size_t j = 0; j < n; j += kTile) {
      const std::size_t len = std::min(kTile, n - j);
      std::copy_n(g + j, len, tmp);
      simd::axpy(tmp, w + j, weight_decay_, len);
      const float* step = tmp;
      if (momentum_ != 0.0f) {
        simd::scale(vel + j, momentum_, len);
        simd::add(vel + j, tmp, len);
        if (nesterov_)
          simd::axpy(tmp, vel + j, momentum_, len);
        else
          step = vel + j;
      }
      simd::axpy(w + j, step, -lr_, len);
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2, float eps,
           float weight_decay, bool decoupled)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      decoupled_(decoupled) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    float* g = p.grad.data();
    float* w = p.value.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::size_t n = p.value.numel();
    for (std::size_t j = 0; j < n; ++j) {
      float grad = g[j];
      if (!decoupled_) grad += weight_decay_ * w[j];  // classic L2
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad * grad;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      if (decoupled_) w[j] -= lr_ * weight_decay_ * w[j];  // AdamW decay
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

MultiStepLR::MultiStepLR(Optimizer& opt, std::vector<std::size_t> milestones, float gamma)
    : LRScheduler(opt), milestones_(std::move(milestones)), gamma_(gamma) {
  std::sort(milestones_.begin(), milestones_.end());
}

void MultiStepLR::on_epoch(std::size_t epoch) {
  // LR = base * gamma^(number of milestones passed).
  std::size_t passed = 0;
  for (std::size_t m : milestones_)
    if (epoch >= m) ++passed;
  opt_->set_lr(base_lr_ * std::pow(gamma_, static_cast<float>(passed)));
}

StepLR::StepLR(Optimizer& opt, std::size_t step_size, float gamma)
    : LRScheduler(opt), step_size_(step_size), gamma_(gamma) {
  OF_CHECK_MSG(step_size_ > 0, "StepLR step_size must be > 0");
}

void StepLR::on_epoch(std::size_t epoch) {
  opt_->set_lr(base_lr_ * std::pow(gamma_, static_cast<float>(epoch / step_size_)));
}

}  // namespace of::nn
