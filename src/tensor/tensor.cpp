#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "exec/pool.hpp"
#include "simd/simd.hpp"

namespace of::tensor {
namespace {

// Reductions use this fixed chunk tree at every size and thread count, so
// threads=1 and threads=N accumulate in the same order; the pool decides
// whether to dispatch it.
constexpr std::size_t kReduceChunk = 1 << 15;

// Side of the square tiles transpose2d copies through (16 floats = one
// 64-byte cache line).
constexpr std::size_t kTransposeTile = 16;

}  // namespace

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  OF_CHECK_MSG(data_.size() == shape_numel(shape_),
               "data size " << data_.size() << " does not match shape " << shape_string());
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.gaussian(mean, stddev));
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::arange(std::size_t n) {
  Tensor t({n});
  std::iota(t.data_.begin(), t.data_.end(), 0.0f);
  return t;
}

Tensor Tensor::from_vector(std::vector<float> v) {
  const std::size_t n = v.size();
  return Tensor({n}, std::move(v));
}

std::size_t Tensor::size(std::size_t dim) const {
  OF_CHECK_MSG(dim < shape_.size(), "dim " << dim << " out of range for " << shape_string());
  return shape_[dim];
}

Tensor Tensor::reshape(Shape new_shape) const {
  OF_CHECK_MSG(shape_numel(new_shape) == numel(),
               "cannot reshape " << shape_string() << " (" << numel() << " elems)");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

float& Tensor::at(std::size_t i) {
  OF_CHECK_MSG(i < data_.size(), "index " << i << " out of range (" << data_.size() << ")");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  OF_CHECK_MSG(i < data_.size(), "index " << i << " out of range (" << data_.size() << ")");
  return data_[i];
}

Tensor& Tensor::fill_(float v) noexcept {
  std::fill(data_.begin(), data_.end(), v);
  return *this;
}

// Elementwise kernels dispatch through of::simd (lane-independent, so the
// vector and scalar tables write identical bytes); the pool only shards the
// range — each shard runs the same kernel. One element is one operation.
#define OF_TENSOR_BINARY_INPLACE(name, kernel)                                     \
  Tensor& Tensor::name(const Tensor& other) {                                      \
    OF_CHECK_MSG(same_shape(other), "shape mismatch " << shape_string() << " vs "  \
                                                      << other.shape_string());    \
    const float* o = other.data_.data();                                           \
    float* d = data_.data();                                                       \
    exec::Pool::global().parallel_for(data_.size(), 1,                             \
                                      [&](std::size_t b, std::size_t e) {          \
                                        simd::kernel(d + b, o + b, e - b);         \
                                      });                                          \
    return *this;                                                                  \
  }

OF_TENSOR_BINARY_INPLACE(add_, add)
OF_TENSOR_BINARY_INPLACE(sub_, sub)
OF_TENSOR_BINARY_INPLACE(mul_, mul)
OF_TENSOR_BINARY_INPLACE(div_, div)
#undef OF_TENSOR_BINARY_INPLACE

Tensor& Tensor::add_scalar_(float v) noexcept {
  float* d = data_.data();
  const std::size_t n = data_.size();
  exec::Pool::global().parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    simd::add_scalar(d + b, v, e - b);
  });
  return *this;
}

Tensor& Tensor::scale_(float v) noexcept {
  float* d = data_.data();
  const std::size_t n = data_.size();
  exec::Pool::global().parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    simd::scale(d + b, v, e - b);
  });
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float alpha) {
  OF_CHECK_MSG(same_shape(other),
               "shape mismatch " << shape_string() << " vs " << other.shape_string());
  const float* o = other.data_.data();
  float* d = data_.data();
  const std::size_t n = data_.size();
  exec::Pool::global().parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    simd::axpy(d + b, o + b, alpha, e - b);
  });
  return *this;
}

Tensor& Tensor::clamp_(float lo, float hi) noexcept {
  float* d = data_.data();
  const std::size_t n = data_.size();
  // simd::clamp uses the intrinsic operand order (d>lo?d:lo, then t<hi?t:hi),
  // which agrees with min(hi, max(lo, d)) for every input including NaN
  // (both resolve NaN to lo).
  exec::Pool::global().parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    simd::clamp(d + b, lo, hi, e - b);
  });
  return *this;
}

Tensor& Tensor::abs_() noexcept {
  float* d = data_.data();
  const std::size_t n = data_.size();
  exec::Pool::global().parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) d[i] = std::fabs(d[i]);
  });
  return *this;
}

Tensor& Tensor::sign_() noexcept {
  float* d = data_.data();
  const std::size_t n = data_.size();
  const auto sgn = [](float v) { return (v > 0.0f) ? 1.0f : (v < 0.0f ? -1.0f : 0.0f); };
  exec::Pool::global().parallel_for(n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) d[i] = sgn(d[i]);
  });
  return *this;
}

Tensor Tensor::operator+(const Tensor& rhs) const { Tensor t = *this; t.add_(rhs); return t; }
Tensor Tensor::operator-(const Tensor& rhs) const { Tensor t = *this; t.sub_(rhs); return t; }
Tensor Tensor::operator*(const Tensor& rhs) const { Tensor t = *this; t.mul_(rhs); return t; }
Tensor Tensor::operator*(float s) const { Tensor t = *this; t.scale_(s); return t; }
Tensor Tensor::operator+(float s) const { Tensor t = *this; t.add_scalar_(s); return t; }
Tensor Tensor::operator-() const { Tensor t = *this; t.scale_(-1.0f); return t; }

Tensor operator*(float s, const Tensor& t) { return t * s; }

float Tensor::sum() const noexcept {
  // Double accumulation over a fixed chunk tree. The chunk decomposition
  // depends only on (n, kReduceChunk) — never the thread count — so the
  // float result is bitwise identical with exec.threads=1 and =N.
  const float* d = data_.data();
  const std::size_t n = data_.size();
  const auto partial = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += static_cast<double>(d[i]);
    return acc;
  };
  const double acc = exec::Pool::global().parallel_reduce(
      n, kReduceChunk, 1, 0.0, partial, [](double a, double b) { return a + b; });
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  OF_CHECK_MSG(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  OF_CHECK_MSG(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  OF_CHECK_MSG(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::l2_norm_squared() const noexcept {
  const float* d = data_.data();
  const std::size_t n = data_.size();
  const auto partial = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i)
      acc += static_cast<double>(d[i]) * static_cast<double>(d[i]);
    return acc;
  };
  const double acc = exec::Pool::global().parallel_reduce(
      n, kReduceChunk, 1, 0.0, partial, [](double a, double b) { return a + b; });
  return static_cast<float>(acc);
}

float Tensor::l2_norm() const noexcept { return std::sqrt(l2_norm_squared()); }

float Tensor::dot(const Tensor& other) const {
  OF_CHECK_MSG(numel() == other.numel(), "dot: size mismatch");
  const float* a = data_.data();
  const float* b = other.data_.data();
  const std::size_t n = data_.size();
  const auto partial = [&](std::size_t lo, std::size_t hi) {
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
      acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
  };
  const double acc = exec::Pool::global().parallel_reduce(
      n, kReduceChunk, 1, 0.0, partial, [](double x, double y) { return x + y; });
  return static_cast<float>(acc);
}

std::size_t Tensor::argmax() const {
  OF_CHECK_MSG(!data_.empty(), "argmax of empty tensor");
  return static_cast<std::size_t>(
      std::distance(data_.begin(), std::max_element(data_.begin(), data_.end())));
}

std::vector<std::size_t> Tensor::argmax_rows() const {
  OF_CHECK_MSG(ndim() == 2, "argmax_rows requires a 2-D tensor, got " << shape_string());
  const std::size_t rows = shape_[0], cols = shape_[1];
  std::vector<std::size_t> out(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* begin = data_.data() + r * cols;
    out[r] = static_cast<std::size_t>(
        std::distance(begin, std::max_element(begin, begin + cols)));
  }
  return out;
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  OF_CHECK_MSG(ndim() == 2 && rhs.ndim() == 2,
               "matmul requires 2-D tensors, got " << shape_string() << " x "
                                                   << rhs.shape_string());
  const std::size_t m = shape_[0], k = shape_[1];
  OF_CHECK_MSG(rhs.shape_[0] == k, "matmul inner-dim mismatch " << shape_string() << " x "
                                                                << rhs.shape_string());
  const std::size_t n = rhs.shape_[1];
  Tensor out({m, n});
  // ikj loop order: streams rhs rows, keeps out row hot — the standard
  // cache-friendly ordering for row-major GEMM without blocking.
  const float* a = data_.data();
  const float* b = rhs.data_.data();
  float* c = out.data_.data();
  const auto rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0f) continue;
        simd::axpy(c + i * n, b + kk * n, aik, n);
      }
    }
  };
  // Output rows are disjoint, so per-row parallelism writes the same bytes
  // as the serial loop for any thread count. A row is n·k multiply-adds.
  exec::Pool::global().parallel_for(m, n * k, rows);
  return out;
}

Tensor Tensor::transpose2d() const {
  OF_CHECK_MSG(ndim() == 2, "transpose2d requires a 2-D tensor, got " << shape_string());
  const std::size_t r = shape_[0], c = shape_[1];
  Tensor out({c, r});
  const float* src = data_.data();
  float* dst = out.data_.data();
  // Copy in kTransposeTile² tiles inside each row chunk: a tile's strided
  // side spans kTransposeTile cache lines, which stay resident while the
  // tile is written, instead of one line per element across the whole row.
  const auto rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i0 = lo; i0 < hi; i0 += kTransposeTile) {
      const std::size_t i1 = std::min(i0 + kTransposeTile, hi);
      for (std::size_t j0 = 0; j0 < c; j0 += kTransposeTile) {
        const std::size_t j1 = std::min(j0 + kTransposeTile, c);
        for (std::size_t j = j0; j < j1; ++j)
          for (std::size_t i = i0; i < i1; ++i) dst[j * r + i] = src[i * c + j];
      }
    }
  };
  exec::Pool::global().parallel_for(r, c, rows);  // one copy per element
  return out;
}

Tensor Tensor::row(std::size_t r) const {
  OF_CHECK_MSG(ndim() == 2 && r < shape_[0], "row " << r << " out of range for " << shape_string());
  const std::size_t c = shape_[1];
  Tensor out({c});
  std::copy_n(data_.data() + r * c, c, out.data_.data());
  return out;
}

void Tensor::set_row(std::size_t r, const Tensor& v) {
  OF_CHECK_MSG(ndim() == 2 && r < shape_[0], "row " << r << " out of range for " << shape_string());
  const std::size_t c = shape_[1];
  OF_CHECK_MSG(v.numel() == c, "set_row size mismatch");
  std::copy_n(v.data_.data(), c, data_.data() + r * c);
}

bool Tensor::allclose(const Tensor& other, float atol, float rtol) const {
  if (!same_shape(other)) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const float diff = std::fabs(data_[i] - other.data_[i]);
    if (diff > atol + rtol * std::fabs(other.data_[i])) return false;
  }
  return true;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

std::string Tensor::to_string(std::size_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_string() << " {";
  const std::size_t n = std::min(max_elems, data_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (n < data_.size()) os << ", ...";
  os << '}';
  return os.str();
}

Tensor flatten_all(const std::vector<Tensor>& tensors) {
  std::size_t total = 0;
  for (const auto& t : tensors) total += t.numel();
  Tensor flat({total});
  std::size_t off = 0;
  for (const auto& t : tensors) {
    std::copy_n(t.data(), t.numel(), flat.data() + off);
    off += t.numel();
  }
  return flat;
}

void unflatten_into(const Tensor& flat, std::vector<Tensor>& out) {
  std::size_t total = 0;
  for (const auto& t : out) total += t.numel();
  OF_CHECK_MSG(total == flat.numel(),
               "unflatten_into: flat has " << flat.numel() << " elems, targets need " << total);
  std::size_t off = 0;
  for (auto& t : out) {
    std::copy_n(flat.data() + off, t.numel(), t.data());
    off += t.numel();
  }
}

}  // namespace of::tensor
