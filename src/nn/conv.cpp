#include "nn/conv.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "exec/pool.hpp"
#include "simd/simd.hpp"

namespace of::nn {

// --- Conv2d -----------------------------------------------------------------

Conv2d::Conv2d(ImageGeom in, std::size_t out_channels, std::size_t kernel,
               std::size_t padding, Rng& rng, std::string label)
    : in_(in),
      kernel_(kernel),
      padding_(padding),
      weight_(label + ".weight",
              Tensor::randn({out_channels, in.channels * kernel * kernel}, rng, 0.0f,
                            std::sqrt(2.0f / static_cast<float>(in.channels * kernel *
                                                                kernel)))),
      bias_(label + ".bias", Tensor::zeros({out_channels})) {
  OF_CHECK_MSG(kernel_ >= 1 && kernel_ <= in_.height + 2 * padding_ &&
                   kernel_ <= in_.width + 2 * padding_,
               "kernel does not fit the padded input");
  out_.channels = out_channels;
  out_.height = in_.height + 2 * padding_ - kernel_ + 1;
  out_.width = in_.width + 2 * padding_ - kernel_ + 1;
}

std::size_t Conv2d::sample_madds() const noexcept {
  return out_.features() * in_.channels * kernel_ * kernel_;
}

float Conv2d::in_at(const Tensor& x, std::size_t b, std::size_t c, std::ptrdiff_t i,
                    std::ptrdiff_t j) const {
  if (i < 0 || j < 0 || i >= static_cast<std::ptrdiff_t>(in_.height) ||
      j >= static_cast<std::ptrdiff_t>(in_.width))
    return 0.0f;  // zero padding
  return x(b, (c * in_.height + static_cast<std::size_t>(i)) * in_.width +
                  static_cast<std::size_t>(j));
}

Tensor Conv2d::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == in_.features(),
               "Conv2d: input " << x.shape_string() << " vs expected features "
                                << in_.features());
  cached_input_ = x;
  const std::size_t batch = x.size(0);
  Tensor y({batch, out_.features()});
  const float* xd = x.data();
  float* yd = y.data();
  const std::size_t in_feat = in_.features();
  const std::size_t out_feat = out_.features();
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(padding_);
  // Tap-major formulation: initialize each output plane to the bias, then
  // one axpy per (ic, ki, kj) kernel tap over every valid output row
  // segment. Each output element receives its taps in the same
  // lexicographic (ic, ki, kj) order as the former per-pixel gather loop,
  // and zero-padding taps contribute nothing, so the per-element sum is the
  // same for any SIMD/thread configuration.
  const auto sample_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const float* xs = xd + b * in_feat;
      float* ys = yd + b * out_feat;
      for (std::size_t oc = 0; oc < out_.channels; ++oc) {
        float* yplane = ys + oc * out_.height * out_.width;
        std::fill_n(yplane, out_.height * out_.width, bias_.value[oc]);
        for (std::size_t ic = 0; ic < in_.channels; ++ic) {
          const float* xplane = xs + ic * in_.height * in_.width;
          for (std::size_t ki = 0; ki < kernel_; ++ki) {
            for (std::size_t kj = 0; kj < kernel_; ++kj) {
              const float w = weight_.value(oc, (ic * kernel_ + ki) * kernel_ + kj);
              // Output columns whose input column oj + kj - pad is in range.
              const std::ptrdiff_t cj = static_cast<std::ptrdiff_t>(kj) - pad;
              const std::size_t oj_lo = cj < 0 ? static_cast<std::size_t>(-cj) : 0;
              const std::ptrdiff_t oj_hi =
                  std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(out_.width),
                                           static_cast<std::ptrdiff_t>(in_.width) - cj);
              if (oj_hi <= static_cast<std::ptrdiff_t>(oj_lo)) continue;
              const std::size_t len = static_cast<std::size_t>(oj_hi) - oj_lo;
              for (std::size_t oi = 0; oi < out_.height; ++oi) {
                const std::ptrdiff_t ii =
                    static_cast<std::ptrdiff_t>(oi + ki) - pad;
                if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(in_.height)) continue;
                simd::axpy(yplane + oi * out_.width + oj_lo,
                           xplane + static_cast<std::size_t>(ii) * in_.width +
                               static_cast<std::size_t>(
                                   static_cast<std::ptrdiff_t>(oj_lo) + cj),
                           w, len);
              }
            }
          }
        }
      }
    }
  };
  // Each sample writes its own output row — disjoint, so parallel execution
  // produces the same bytes as the serial loop for any thread count.
  exec::Pool::global().parallel_for(batch, sample_madds(), sample_range);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.size(0);
  Tensor dx({batch, in_.features()});
  // Weight/bias grads are shared across samples, so each chunk accumulates
  // into a private partial buffer and the partials are folded in chunk
  // order afterwards. The chunking depends only on the batch size — when
  // the pool runs the region inline the chunks run in the same order — so
  // the result is bitwise identical for any thread count. dx rows are disjoint
  // per sample and written directly.
  const std::size_t grain = (batch + 7) / 8;
  const std::size_t chunks = batch == 0 ? 0 : (batch + grain - 1) / grain;
  const std::size_t wcols = in_.channels * kernel_ * kernel_;
  std::vector<std::vector<float>> dw(chunks), db(chunks);
  // Each tap feeds both the weight gradient and dx: two multiply-adds.
  exec::Pool::global().run_chunks(
      batch, grain, 2 * sample_madds(),
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        dw[chunk].assign(out_.channels * wcols, 0.0f);
        db[chunk].assign(out_.channels, 0.0f);
        float* wg = dw[chunk].data();
        float* bg = db[chunk].data();
        for (std::size_t b = lo; b < hi; ++b) {
          for (std::size_t oc = 0; oc < out_.channels; ++oc) {
            for (std::size_t oi = 0; oi < out_.height; ++oi) {
              for (std::size_t oj = 0; oj < out_.width; ++oj) {
                const float g = grad_out(b, (oc * out_.height + oi) * out_.width + oj);
                if (g == 0.0f) continue;
                bg[oc] += g;
                for (std::size_t ic = 0; ic < in_.channels; ++ic) {
                  for (std::size_t ki = 0; ki < kernel_; ++ki) {
                    for (std::size_t kj = 0; kj < kernel_; ++kj) {
                      const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi + ki) -
                                                static_cast<std::ptrdiff_t>(padding_);
                      const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(oj + kj) -
                                                static_cast<std::ptrdiff_t>(padding_);
                      const float xin = in_at(cached_input_, b, ic, ii, jj);
                      wg[oc * wcols + (ic * kernel_ + ki) * kernel_ + kj] += g * xin;
                      if (ii >= 0 && jj >= 0 &&
                          ii < static_cast<std::ptrdiff_t>(in_.height) &&
                          jj < static_cast<std::ptrdiff_t>(in_.width)) {
                        dx(b, (ic * in_.height + static_cast<std::size_t>(ii)) * in_.width +
                                  static_cast<std::size_t>(jj)) +=
                            g * weight_.value(oc, (ic * kernel_ + ki) * kernel_ + kj);
                      }
                    }
                  }
                }
              }
            }
          }
        }
      });
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t i = 0; i < dw[c].size(); ++i) weight_.grad.data()[i] += dw[c][i];
    for (std::size_t i = 0; i < db[c].size(); ++i) bias_.grad[i] += db[c][i];
  }
  return dx;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// --- MaxPool2d ---------------------------------------------------------------

MaxPool2d::MaxPool2d(ImageGeom in) : in_(in) {
  OF_CHECK_MSG(in.height >= 2 && in.width >= 2, "input too small to pool");
  out_.channels = in.channels;
  out_.height = in.height / 2;
  out_.width = in.width / 2;
}

Tensor MaxPool2d::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == in_.features(),
               "MaxPool2d: input " << x.shape_string() << " vs expected features "
                                   << in_.features());
  const std::size_t batch = x.size(0);
  cached_batch_ = batch;
  Tensor y({batch, out_.features()});
  argmax_.assign(batch * out_.features(), 0);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < in_.channels; ++c) {
      for (std::size_t oi = 0; oi < out_.height; ++oi) {
        for (std::size_t oj = 0; oj < out_.width; ++oj) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t di = 0; di < 2; ++di) {
            for (std::size_t dj = 0; dj < 2; ++dj) {
              const std::size_t idx =
                  (c * in_.height + 2 * oi + di) * in_.width + 2 * oj + dj;
              if (x(b, idx) > best) {
                best = x(b, idx);
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = (c * out_.height + oi) * out_.width + oj;
          y(b, out_idx) = best;
          argmax_[b * out_.features() + out_idx] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor dx({cached_batch_, in_.features()});
  for (std::size_t b = 0; b < cached_batch_; ++b)
    for (std::size_t o = 0; o < out_.features(); ++o)
      dx(b, argmax_[b * out_.features() + o]) += grad_out(b, o);
  return dx;
}

// --- LayerNorm -----------------------------------------------------------------

LayerNorm::LayerNorm(std::size_t features, float eps, std::string label)
    : features_(features),
      eps_(eps),
      gamma_(label + ".gamma", Tensor::ones({features})),
      beta_(label + ".beta", Tensor::zeros({features})) {}

Tensor LayerNorm::forward(const Tensor& x) {
  OF_CHECK_MSG(x.ndim() == 2 && x.size(1) == features_,
               "LayerNorm: input " << x.shape_string() << " vs features " << features_);
  const std::size_t batch = x.size(0);
  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_.assign(batch, 0.0f);
  for (std::size_t b = 0; b < batch; ++b) {
    double mean = 0.0;
    for (std::size_t j = 0; j < features_; ++j) mean += x(b, j);
    mean /= static_cast<double>(features_);
    double var = 0.0;
    for (std::size_t j = 0; j < features_; ++j) {
      const double d = x(b, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(features_);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    cached_inv_std_[b] = inv_std;
    for (std::size_t j = 0; j < features_; ++j) {
      const float xh = (x(b, j) - static_cast<float>(mean)) * inv_std;
      cached_xhat_(b, j) = xh;
      y(b, j) = gamma_.value[j] * xh + beta_.value[j];
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.size(0);
  Tensor dx(grad_out.shape());
  const float n = static_cast<float>(features_);
  for (std::size_t b = 0; b < batch; ++b) {
    float sum_dy_g = 0.0f, sum_dy_g_xh = 0.0f;
    for (std::size_t j = 0; j < features_; ++j) {
      const float dyg = grad_out(b, j) * gamma_.value[j];
      sum_dy_g += dyg;
      sum_dy_g_xh += dyg * cached_xhat_(b, j);
      gamma_.grad[j] += grad_out(b, j) * cached_xhat_(b, j);
      beta_.grad[j] += grad_out(b, j);
    }
    for (std::size_t j = 0; j < features_; ++j) {
      const float dyg = grad_out(b, j) * gamma_.value[j];
      dx(b, j) = cached_inv_std_[b] / n *
                 (n * dyg - sum_dy_g - cached_xhat_(b, j) * sum_dy_g_xh);
    }
  }
  return dx;
}

void LayerNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

}  // namespace of::nn
