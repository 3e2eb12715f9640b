#include "tensor/serialize.hpp"

#include "simd/simd.hpp"

namespace of::tensor {

bool append_scaled_span(Bytes& out, ConstFloatSpan src, double scale) {
  const std::size_t start = out.size();
  out.resize(start + src.size() * sizeof(float));
  // The scale is applied in double on purpose: per-client sample weights are
  // doubles, and squashing them to float before the multiply drops low bits
  // that the weighted mean then never recovers.
  return simd::scale_store_bytes(out.data() + start, src.data(), scale, src.size());
}

bool append_scaled_f16_span(Bytes& out, ConstFloatSpan src, double scale) {
  const std::size_t start = out.size();
  out.resize(start + src.size() * sizeof(std::uint16_t));
  return simd::scale_store_f16_bytes(out.data() + start, src.data(), scale,
                                     src.size());
}

void add_scaled_from_bytes(ConstByteSpan src, double alpha, FloatSpan acc) {
  OF_CHECK_MSG(src.size() == acc.size() * sizeof(float),
               "accumulate size mismatch: " << src.size() << " bytes vs " << acc.size()
                                            << " floats");
  // Frame bodies start at mode-byte + manifest offsets, so `src` is almost
  // never 4-byte aligned — the kernel uses unaligned loads throughout.
  simd::accum_scaled_bytes(acc.data(), src.data(), alpha, acc.size());
}

void add_scaled_from_f16_bytes(ConstByteSpan src, double alpha, FloatSpan acc) {
  OF_CHECK_MSG(src.size() == acc.size() * sizeof(std::uint16_t),
               "accumulate size mismatch: " << src.size() << " bytes vs " << acc.size()
                                            << " halves");
  simd::accum_scaled_f16_bytes(acc.data(), src.data(), alpha, acc.size());
}

void serialize_tensor(const Tensor& t, Bytes& out) {
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(t.ndim()));
  for (std::size_t d : t.shape()) append_pod<std::uint64_t>(out, d);
  append_span(out, t.data(), t.numel());
}

Bytes serialize_tensor(const Tensor& t) {
  Bytes out;
  out.reserve(4 + 8 * t.ndim() + 4 * t.numel());
  serialize_tensor(t, out);
  return out;
}

Tensor deserialize_tensor(ConstByteSpan buf, std::size_t& offset) {
  const auto ndim = read_pod<std::uint32_t>(buf, offset);
  OF_CHECK_MSG(ndim <= 8, "implausible tensor rank " << ndim << " — corrupt frame?");
  Shape shape(ndim);
  std::size_t numel = 1;
  for (auto& d : shape) {
    const auto dim = read_pod<std::uint64_t>(buf, offset);
    // The float data for this tensor still has to fit in the remaining
    // payload; reject hostile/corrupt dims before Tensor allocates, keeping a
    // running product so multi-dim shapes can't sneak past a per-dim cap.
    const std::size_t max_numel = (buf.size() - offset) / sizeof(float);
    OF_CHECK_MSG(dim <= max_numel && (dim == 0 || numel <= max_numel / dim),
                 "tensor dims exceed remaining frame — corrupt frame?");
    numel *= static_cast<std::size_t>(dim);
    d = static_cast<std::size_t>(dim);
  }
  Tensor t(shape);
  read_span(buf, offset, t.data(), t.numel());
  return t;
}

Tensor deserialize_tensor(ConstByteSpan buf) {
  std::size_t offset = 0;
  Tensor t = deserialize_tensor(buf, offset);
  OF_CHECK_MSG(offset == buf.size(), "trailing bytes after tensor frame");
  return t;
}

void serialize_tensors(const std::vector<Tensor>& ts, Bytes& out) {
  std::size_t bytes = sizeof(std::uint32_t);
  for (const auto& t : ts)
    bytes += sizeof(std::uint32_t) + sizeof(std::uint64_t) * t.ndim() + sizeof(float) * t.numel();
  out.reserve(out.size() + bytes);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(ts.size()));
  for (const auto& t : ts) serialize_tensor(t, out);
}

Bytes serialize_tensors(const std::vector<Tensor>& ts) {
  Bytes out;
  serialize_tensors(ts, out);
  return out;
}

std::vector<Tensor> deserialize_tensors(ConstByteSpan buf) {
  std::size_t offset = 0;
  const auto count = read_pod<std::uint32_t>(buf, offset);
  OF_CHECK_MSG(count <= (buf.size() - offset) / sizeof(std::uint32_t),
               "tensor count " << count << " exceeds remaining frame — corrupt frame?");
  std::vector<Tensor> ts;
  ts.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) ts.push_back(deserialize_tensor(buf, offset));
  OF_CHECK_MSG(offset == buf.size(), "trailing bytes after tensor list frame");
  return ts;
}

}  // namespace of::tensor
