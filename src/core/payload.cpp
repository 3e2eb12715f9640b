#include "core/payload.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "common/check.hpp"
#include "common/nonfinite.hpp"
#include "exec/pool.hpp"
#include "refl/config_io.hpp"
#include "refl/tlv.hpp"
#include "simd/simd.hpp"
#include "tensor/serialize.hpp"

namespace of::core {
namespace {

using tensor::ConstFloatSpan;
using tensor::FloatSpan;

enum : std::uint8_t {
  kPlain = 0,
  kCompressed = 1,
  kPrivacy = 2,
  kSkip = 3,
  kPlainF16 = 4,  // plain body in the fp16 wire repr (2 bytes/elem)
};

// Plain-family frames carry raw (f32 or f16) coordinate data whose body is
// exactly total × elem bytes — the only modes the coordinate-sharded
// aggregation can slice without decoding.
bool plain_mode(std::uint8_t mode) { return mode == kPlain || mode == kPlainF16; }
std::size_t plain_elem_size(std::uint8_t mode) {
  return mode == kPlainF16 ? sizeof(std::uint16_t) : sizeof(float);
}

// acc += alpha * body[lo..hi) for a plain-family body view.
void accum_plain_bytes(std::uint8_t mode, ConstByteSpan body, double alpha,
                       FloatSpan acc) {
  if (mode == kPlainF16)
    tensor::add_scaled_from_f16_bytes(body, alpha, acc);
  else
    tensor::add_scaled_from_bytes(body, alpha, acc);
}

// Magic opening a v2 TLV partial header ("OFP2" little-endian).
constexpr std::uint32_t kPartialMagic = 0x3250464Fu;

// Mirror of the comm layer's 1 GiB frame cap: no manifest may describe an
// update larger than a maximal frame could carry, no matter what its dims
// claim. Keeps a tiny hostile frame from provoking a huge allocation.
constexpr std::size_t kMaxUpdateElems = (std::size_t{1} << 30) / sizeof(float);

void write_manifest(Bytes& out, const std::vector<Tensor>& payload) {
  tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  for (const auto& t : payload) {
    tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(t.ndim()));
    for (std::size_t d : t.shape()) tensor::append_pod<std::uint64_t>(out, d);
  }
}

std::vector<tensor::Shape> read_manifest(ConstByteSpan in, std::size_t& off) {
  const auto count = tensor::read_pod<std::uint32_t>(in, off);
  // Every manifest entry occupies at least its u32 ndim, so a hostile count
  // (e.g. 2^32-1 in a 10-byte frame) is rejected before the shapes vector
  // allocates.
  OF_CHECK_MSG(count <= (in.size() - off) / sizeof(std::uint32_t),
               "manifest tensor count " << count << " exceeds frame — corrupt frame?");
  std::vector<tensor::Shape> shapes(count);
  std::size_t total = 0;
  for (auto& shape : shapes) {
    const auto ndim = tensor::read_pod<std::uint32_t>(in, off);
    OF_CHECK_MSG(ndim <= 8, "implausible tensor rank in payload manifest");
    shape.resize(ndim);
    std::size_t numel = 1;
    for (auto& d : shape) {
      const auto dim = tensor::read_pod<std::uint64_t>(in, off);
      // Compressed/privacy bodies are smaller than numel·4, so dims cannot
      // be capped against the remaining bytes — cap the running element
      // count against the frame-size ceiling instead.
      OF_CHECK_MSG(dim <= kMaxUpdateElems && (dim == 0 || numel <= kMaxUpdateElems / dim),
                   "manifest dims exceed the 1 GiB frame cap — corrupt frame?");
      numel *= static_cast<std::size_t>(dim);
      d = static_cast<std::size_t>(dim);
    }
    OF_CHECK_MSG(total <= kMaxUpdateElems - numel,
                 "manifest total exceeds the 1 GiB frame cap — corrupt frame?");
    total += numel;
  }
  return shapes;
}

std::size_t manifest_numel(const std::vector<tensor::Shape>& shapes) {
  std::size_t total = 0;
  for (const auto& s : shapes) total += tensor::shape_numel(s);
  return total;
}

// Split a flat float buffer into the manifest's tensor-list structure — the
// single structure-materializing copy at the very end of the decode path.
std::vector<Tensor> split_flat(ConstFloatSpan flat, const std::vector<tensor::Shape>& shapes) {
  std::vector<Tensor> out;
  out.reserve(shapes.size());
  std::size_t off = 0;
  for (const auto& shape : shapes) {
    const std::size_t n = tensor::shape_numel(shape);
    OF_CHECK_MSG(off + n <= flat.size(), "flat payload shorter than manifest");
    Tensor t(shape);
    std::copy_n(flat.data() + off, n, t.data());
    off += n;
    out.push_back(std::move(t));
  }
  OF_CHECK_MSG(off == flat.size(), "flat payload longer than manifest");
  return out;
}

// Same split, straight from the (unaligned) byte body of a plain frame.
std::vector<Tensor> split_flat_bytes(ConstByteSpan body,
                                     const std::vector<tensor::Shape>& shapes) {
  std::vector<Tensor> out;
  out.reserve(shapes.size());
  std::size_t off = 0;
  for (const auto& shape : shapes) {
    const std::size_t n = tensor::shape_numel(shape);
    OF_CHECK_MSG(off + n * sizeof(float) <= body.size(), "flat payload shorter than manifest");
    Tensor t(shape);
    std::memcpy(t.data(), body.data() + off, n * sizeof(float));
    off += n * sizeof(float);
    out.push_back(std::move(t));
  }
  OF_CHECK_MSG(off == body.size(), "flat payload longer than manifest");
  return out;
}

// Scale-while-flatten into a contiguous scratch span (plugin paths need the
// flat update in one piece). The scale stays double until the final store.
// Returns true iff every source element was finite (the fused admission
// screen); callers reject the update when it comes back false.
bool flatten_scaled(const std::vector<Tensor>& payload, double weight_scale, FloatSpan dst) {
  std::size_t pos = 0;
  bool finite = true;
  for (const auto& t : payload) {
    finite &= simd::scale_store(dst.data() + pos, t.data(), weight_scale, t.numel());
    pos += t.numel();
  }
  OF_CHECK_MSG(pos == dst.size(), "flatten size mismatch");
  return finite;
}

// Locate the first non-finite coordinate (flatten order) and throw the
// structured per-client admission error. Cold path — only runs after a
// fused finite screen already said "reject".
[[noreturn]] void throw_nonfinite(const std::vector<Tensor>& payload, int client_id) {
  std::size_t base = 0;
  for (const auto& t : payload) {
    const std::size_t at = simd::find_nonfinite(t.data(), t.numel());
    if (at < t.numel()) throw NonFiniteUpdateError(base + at, client_id);
    base += t.numel();
  }
  throw NonFiniteUpdateError(base, client_id);  // unreachable in practice
}

// Decode the mode-specific body of a plain/compressed frame into `out`
// (size `total`), reading through the view at its nonzero offset.
void decode_body_into(ConstByteSpan frame, std::size_t off, std::uint8_t mode,
                      std::size_t total, compression::Compressor* decompressor,
                      FloatSpan out) {
  if (mode == kPlain) {
    OF_CHECK_MSG(frame.size() - off == total * sizeof(float),
                 "trailing bytes in plain payload");
    tensor::read_span(frame, off, out.data(), total);
    return;
  }
  if (mode == kPlainF16) {
    OF_CHECK_MSG(frame.size() - off == total * sizeof(std::uint16_t),
                 "trailing bytes in f16 payload");
    // The body sits at an odd frame offset (mode byte + manifest), so the
    // halves are staged through an aligned block before widening — a u16
    // load straight off the frame would be misaligned.
    const std::uint8_t* src = frame.data() + off;
    std::uint16_t block[256];
    for (std::size_t i = 0; i < total;) {
      const std::size_t chunk = std::min<std::size_t>(std::size(block), total - i);
      std::memcpy(block, src + i * sizeof(std::uint16_t), chunk * sizeof(std::uint16_t));
      simd::f16_to_f32(out.data() + i, block, chunk);
      i += chunk;
    }
    return;
  }
  if (mode == kCompressed) {
    OF_CHECK_MSG(decompressor != nullptr, "compressed payload but no codec configured");
    const auto original_numel =
        static_cast<std::size_t>(tensor::read_pod<std::uint64_t>(frame, off));
    const auto len = tensor::read_pod<std::uint64_t>(frame, off);
    OF_CHECK_MSG(off + len == frame.size(), "compressed payload length mismatch");
    OF_CHECK_MSG(original_numel == total, "compressed payload numel mismatch");
    const compression::CompressedView view(frame.subspan(off), original_numel);
    decompressor->decompress(view, out);
    return;
  }
  OF_CHECK_MSG(false, "decode_update cannot decode privacy frames individually");
}

// write_manifest for a shape list (StreamingSum has no tensors, only shapes).
void write_manifest_shapes(Bytes& out, const std::vector<tensor::Shape>& shapes) {
  tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(shapes.size()));
  for (const auto& s : shapes) {
    tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
    for (std::size_t d : s) tensor::append_pod<std::uint64_t>(out, d);
  }
}

}  // namespace

StreamingSum::StreamingSum(FramePool& pool, compression::Compressor* decompressor)
    : pool_(&pool), decompressor_(decompressor) {}

void StreamingSum::reset() {
  acc_ = FramePool::FloatHandle{};
  shapes_.clear();
  total_ = 0;
  count_ = 0;
  init_ = false;
}

void StreamingSum::ensure_shapes(const std::vector<tensor::Shape>& shapes,
                                 std::size_t total) {
  if (!init_) {
    shapes_ = shapes;
    total_ = total;
    acc_ = pool_->acquire_floats(total_);
    std::fill(acc_->begin(), acc_->end(), 0.0f);
    peak_bytes_ = std::max(peak_bytes_, total_ * sizeof(float));
    init_ = true;
    return;
  }
  OF_CHECK_MSG(shapes.size() == shapes_.size() && total == total_,
               "payload structure mismatch");
}

void StreamingSum::add_update_frame(ConstByteSpan frame, double weight) {
  std::size_t off = 0;
  const auto mode = tensor::read_pod<std::uint8_t>(frame, off);
  OF_CHECK_MSG(mode != kPrivacy,
               "privacy frames cannot stream into a partial sum — use the "
               "collect-then-mean path");
  const auto shapes = read_manifest(frame, off);
  const std::size_t total = manifest_numel(shapes);
  ensure_shapes(shapes, total);
  if (plain_mode(mode)) {
    OF_CHECK_MSG(frame.size() - off == total * plain_elem_size(mode),
                 "trailing bytes in plain payload");
    accum_plain_bytes(mode, frame.subspan(off), weight, FloatSpan(*acc_));
    return;
  }
  FramePool::FloatHandle scratch = pool_->acquire_floats(total);
  decode_body_into(frame, off, mode, total, decompressor_, FloatSpan(*scratch));
  simd::accum_weighted(acc_->data(), scratch->data(), static_cast<float>(weight), total);
  peak_bytes_ = std::max(peak_bytes_, 2 * total * sizeof(float));
}

void StreamingSum::add(ConstByteSpan frame, double weight) {
  if (is_skip_update(frame)) return;
  add_update_frame(frame, weight);
  ++count_;
}

void StreamingSum::add_partial(ConstByteSpan partial) {
  std::size_t off = 0;
  PartialHeader hdr;
  // v2 partials open with the "OFP2" magic; the v1 form is a bare u64
  // count, whose low word would only collide with the magic at an absurd
  // ~845M-client contribution count.
  if (partial.size() >= 8 &&
      tensor::read_pod<std::uint32_t>(partial, off) == kPartialMagic) {
    const auto hlen = tensor::read_pod<std::uint32_t>(partial, off);
    OF_CHECK_MSG(off + hlen <= partial.size(), "partial header truncated");
    OF_CHECK_MSG(refl::tlv::decode(hdr, partial.data() + off, hlen),
                 "partial header malformed");
    off += hlen;
  } else {
    off = 0;
    hdr.count = tensor::read_pod<std::uint64_t>(partial, off);
  }
  if (hdr.count == 0) return;  // empty combiner: its body is a skip marker
  add_update_frame(partial.subspan(off), 1.0);
  count_ += static_cast<std::size_t>(hdr.count);
}

void StreamingSum::encode_partial_into(double scale,
                                       compression::Compressor* compressor,
                                       Bytes& out, WireRepr repr) {
  out.clear();
  PartialHeader hdr;
  hdr.count = static_cast<std::uint64_t>(count_);
  hdr.repr = compressor ? WireRepr::F32 : repr;
  refl::tlv::Bytes htlv;
  refl::tlv::encode(hdr, htlv);
  tensor::append_pod<std::uint32_t>(out, kPartialMagic);
  tensor::append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(htlv.size()));
  out.insert(out.end(), htlv.begin(), htlv.end());
  if (count_ == 0) {
    out.push_back(kSkip);
    return;
  }
  if (!compressor) {
    // A combiner's sum of admitted (finite) updates can still overflow to
    // Inf; surface it here rather than forwarding a poisoned partial.
    out.push_back(repr == WireRepr::F16 ? kPlainF16 : kPlain);
    write_manifest_shapes(out, shapes_);
    const bool finite =
        repr == WireRepr::F16
            ? tensor::append_scaled_f16_span(out, ConstFloatSpan(*acc_), scale)
            : tensor::append_scaled_span(out, ConstFloatSpan(*acc_), scale);
    if (!finite)
      throw NonFiniteUpdateError(
          simd::find_nonfinite(acc_->data(), total_));
    return;
  }
  out.push_back(kCompressed);
  write_manifest_shapes(out, shapes_);
  FramePool::FloatHandle flat = pool_->acquire_floats(total_);
  if (!simd::scale_store(flat->data(), acc_->data(), scale, total_))
    throw NonFiniteUpdateError(simd::find_nonfinite(acc_->data(), total_));
  FramePool::Handle lent = pool_->acquire();
  compression::Compressed c;
  c.payload = std::move(*lent);
  compressor->compress(ConstFloatSpan(*flat), c);
  tensor::append_pod<std::uint64_t>(out, c.original_numel);
  tensor::append_pod<std::uint64_t>(out, c.payload.size());
  tensor::append_span(out, ConstByteSpan(c.payload));
  *lent = std::move(c.payload);
  peak_bytes_ = std::max(peak_bytes_, 2 * total_ * sizeof(float));
}

std::vector<Tensor> StreamingSum::finish_mean() {
  OF_CHECK_MSG(count_ > 0, "no client updates to aggregate (all skipped?)");
  const float inv = 1.0f / static_cast<float>(count_);
  simd::scale(acc_->data(), inv, total_);
  return split_flat(ConstFloatSpan(*acc_), shapes_);
}

PayloadConfig PayloadConfig::from_config(const config::ConfigNode& node, bool strict) {
  // Strict parsing rejects a scalar (an unresolved `payload=<option>`).
  if (!strict && !node.is_map()) return PayloadConfig{};
  return refl::from_node<PayloadConfig>(node, "payload", {}, strict);
}

Bytes pack_tensors(const std::vector<Tensor>& ts) { return tensor::serialize_tensors(ts); }

Bytes encode_skip_update() { return Bytes{kSkip}; }

bool is_skip_update(ConstByteSpan frame) {
  return frame.size() == 1 && frame[0] == kSkip;
}

std::vector<Tensor> unpack_tensors(const Bytes& b) { return tensor::deserialize_tensors(b); }

void append_up_trailer(Bytes& frame, UpKind kind, const UpMetrics& m) {
  tensor::append_pod<float>(frame, m.loss_sum);
  tensor::append_pod<float>(frame, m.steps);
  tensor::append_pod<float>(frame, m.acc_sum);
  tensor::append_pod<float>(frame, m.acc_n);
  tensor::append_pod<std::uint8_t>(frame, static_cast<std::uint8_t>(kind));
}

std::optional<UpTrailer> strip_up_trailer(Bytes& frame) {
  if (frame.size() < kUpTrailerBytes) return std::nullopt;
  const std::size_t body = frame.size() - kUpTrailerBytes;
  const std::uint8_t kind = frame.back();
  if (kind > static_cast<std::uint8_t>(UpKind::Final)) return std::nullopt;
  UpTrailer t;
  t.kind = static_cast<UpKind>(kind);
  std::size_t off = body;
  t.metrics.loss_sum = tensor::read_pod<float>(frame, off);
  t.metrics.steps = tensor::read_pod<float>(frame, off);
  t.metrics.acc_sum = tensor::read_pod<float>(frame, off);
  t.metrics.acc_n = tensor::read_pod<float>(frame, off);
  frame.resize(body);
  return t;
}

void encode_update_into(const std::vector<Tensor>& payload, double weight_scale,
                        const PayloadPlugins& plugins, int client_id, int num_clients,
                        FramePool& pool, Bytes& out, WireRepr repr) {
  OF_CHECK_MSG(!(plugins.compressor && plugins.privacy),
               "compression and privacy plugins cannot stack on the same link");
  out.clear();
  if (!plugins.privacy && !plugins.compressor) {
    // Plain: scale-while-flatten straight into the frame — no clone, no
    // intermediate flat tensor, no extra byte buffer. The finite screen
    // rides the same store.
    const bool f16 = repr == WireRepr::F16;
    out.push_back(f16 ? kPlainF16 : kPlain);
    write_manifest(out, payload);
    bool finite = true;
    for (const auto& t : payload)
      finite &= f16 ? tensor::append_scaled_f16_span(out, t.span(), weight_scale)
                    : tensor::append_scaled_span(out, t.span(), weight_scale);
    if (!finite) throw_nonfinite(payload, client_id);
    return;
  }

  std::size_t total = 0;
  for (const auto& t : payload) total += t.numel();

  if (plugins.privacy) {
    // Privacy needs the flat update in one contiguous piece: flatten into
    // pooled scratch, hand the mechanism a view, append its body.
    FramePool::FloatHandle flat = pool.acquire_floats(total);
    if (!flatten_scaled(payload, weight_scale, FloatSpan(*flat)))
      throw_nonfinite(payload, client_id);
    out.push_back(kPrivacy);
    write_manifest(out, payload);
    FramePool::Handle body = pool.acquire();
    plugins.privacy->protect(ConstFloatSpan(*flat), client_id, num_clients, *body);
    tensor::append_pod<std::uint64_t>(out, body->size());
    tensor::append_span(out, ConstByteSpan(*body));
    return;
  }

  out.push_back(kCompressed);
  write_manifest(out, payload);
  // Lend the codec a pooled buffer as its payload storage so repeated
  // compress calls reuse capacity, then hand it back.
  FramePool::Handle lent = pool.acquire();
  compression::Compressed c;
  c.payload = std::move(*lent);
  bool fused = false;
  try {
    // Fused quantize-on-the-wire: codecs with a compress_scaled path (QSGD)
    // scale-while-flatten tile by tile — the O(model) intermediate float
    // frame below never materializes.
    fused = plugins.compressor->compress_scaled(payload, weight_scale, c);
  } catch (const NonFiniteUpdateError& e) {
    *lent = std::move(c.payload);  // hand the pooled buffer back
    throw NonFiniteUpdateError(e.coordinate(), client_id);
  }
  if (!fused) {
    FramePool::FloatHandle flat = pool.acquire_floats(total);
    if (!flatten_scaled(payload, weight_scale, FloatSpan(*flat))) {
      *lent = std::move(c.payload);
      throw_nonfinite(payload, client_id);
    }
    plugins.compressor->compress(ConstFloatSpan(*flat), c);
  }
  tensor::append_pod<std::uint64_t>(out, c.original_numel);
  tensor::append_pod<std::uint64_t>(out, c.payload.size());
  tensor::append_span(out, ConstByteSpan(c.payload));
  *lent = std::move(c.payload);
}

Bytes encode_update(const std::vector<Tensor>& payload, double weight_scale,
                    const PayloadPlugins& plugins, int client_id, int num_clients,
                    WireRepr repr) {
  FramePool pool;
  Bytes out;
  encode_update_into(payload, weight_scale, plugins, client_id, num_clients, pool, out,
                     repr);
  return out;
}

std::vector<Tensor> decode_update(ConstByteSpan frame,
                                  compression::Compressor* decompressor) {
  std::size_t off = 0;
  const auto mode = tensor::read_pod<std::uint8_t>(frame, off);
  const auto shapes = read_manifest(frame, off);
  const std::size_t total = manifest_numel(shapes);
  if (mode == kPlain) {
    OF_CHECK_MSG(frame.size() - off == total * sizeof(float),
                 "trailing bytes in plain payload");
    return split_flat_bytes(frame.subspan(off), shapes);
  }
  std::vector<float> flat(total);
  decode_body_into(frame, off, mode, total, decompressor, FloatSpan(flat));
  return split_flat(ConstFloatSpan(flat), shapes);
}

AggregationRule parse_aggregation_rule(const std::string& name) {
  if (name == "mean") return AggregationRule::Mean;
  if (name == "median") return AggregationRule::Median;
  if (name == "trimmed_mean") return AggregationRule::TrimmedMean;
  OF_CHECK_MSG(false, "unknown aggregation rule '" << name << "'");
}

std::vector<Tensor> robust_combine(const std::vector<Bytes>& raw_frames,
                                   compression::Compressor* decompressor,
                                   AggregationRule rule, double trim, FramePool* pool) {
  if (rule == AggregationRule::Mean)
    return mean_updates(raw_frames, decompressor, nullptr, pool);
  OF_CHECK_MSG(trim >= 0.0 && trim < 0.5, "trim fraction must be in [0, 0.5)");
  FramePool local_pool;
  FramePool& p = pool ? *pool : local_pool;

  // Decode every contribution into a pooled flat buffer; the tensor-list
  // structure is materialized exactly once, after the coordinate-wise pass.
  std::vector<tensor::Shape> shapes;
  std::size_t total = 0;
  std::vector<FramePool::FloatHandle> decoded;
  for (const auto& f : raw_frames) {
    if (is_skip_update(f)) continue;
    std::size_t off = 0;
    const auto mode = tensor::read_pod<std::uint8_t>(f, off);
    const auto frame_shapes = read_manifest(f, off);
    const std::size_t frame_total = manifest_numel(frame_shapes);
    if (decoded.empty()) {
      shapes = frame_shapes;
      total = frame_total;
    } else {
      OF_CHECK_MSG(frame_total == total, "payload structure mismatch");
    }
    FramePool::FloatHandle flat = p.acquire_floats(frame_total);
    decode_body_into(f, off, mode, frame_total, decompressor, FloatSpan(*flat));
    decoded.push_back(std::move(flat));
  }
  OF_CHECK_MSG(!decoded.empty(), "no client updates to aggregate (all skipped?)");

  const std::size_t k = decoded.size();
  const std::size_t cut = static_cast<std::size_t>(trim * static_cast<double>(k));
  FramePool::FloatHandle result = p.acquire_floats(total);
  // Coordinates are independent, so sharding them over the pool computes
  // exactly the serial values; each shard sorts into its own column scratch.
  const auto coords = [&](std::size_t lo, std::size_t hi) {
    std::vector<float> column(k);
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t c = 0; c < k; ++c) column[c] = (*decoded[c])[i];
      std::sort(column.begin(), column.end());
      if (rule == AggregationRule::Median) {
        (*result)[i] =
            (k % 2) ? column[k / 2] : 0.5f * (column[k / 2 - 1] + column[k / 2]);
      } else {  // trimmed mean
        double sum = 0.0;
        for (std::size_t c = cut; c < k - cut; ++c) sum += column[c];
        (*result)[i] = static_cast<float>(sum / static_cast<double>(k - 2 * cut));
      }
    }
  };
  // A coordinate costs a k-element gather and sort, about k·log2(k).
  exec::Pool::global().parallel_for(total, k * std::bit_width(k), coords);
  return split_flat(ConstFloatSpan(*result), shapes);
}

std::vector<Tensor> mean_updates(const std::vector<Bytes>& raw_frames,
                                 compression::Compressor* decompressor,
                                 privacy::PrivacyMechanism* privacy, FramePool* pool) {
  FramePool local_pool;
  FramePool& p = pool ? *pool : local_pool;

  // Drop skip markers (partial participation) before aggregating. Views
  // only — the frames stay where they arrived.
  std::vector<ConstByteSpan> frames;
  frames.reserve(raw_frames.size());
  for (const auto& f : raw_frames)
    if (!is_skip_update(f)) frames.push_back(f);
  OF_CHECK_MSG(!frames.empty(), "no client updates to aggregate (all skipped?)");

  // Peek the first frame's mode + manifest.
  std::size_t off0 = 0;
  const auto mode = tensor::read_pod<std::uint8_t>(frames[0], off0);
  const auto shapes = read_manifest(frames[0], off0);
  const std::size_t total = manifest_numel(shapes);
  const float inv_k = 1.0f / static_cast<float>(frames.size());

  if (mode == kPrivacy) {
    OF_CHECK_MSG(privacy != nullptr, "privacy payload but no mechanism configured");
    std::vector<ConstByteSpan> bodies;
    bodies.reserve(frames.size());
    for (const auto& f : frames) {
      std::size_t off = 0;
      const auto m = tensor::read_pod<std::uint8_t>(f, off);
      OF_CHECK_MSG(m == kPrivacy, "mixed payload modes in one aggregation");
      (void)read_manifest(f, off);
      const auto len = tensor::read_pod<std::uint64_t>(f, off);
      OF_CHECK_MSG(off + len == f.size(), "privacy payload length mismatch");
      bodies.push_back(f.subspan(off));
    }
    FramePool::FloatHandle sum = p.acquire_floats(total);
    privacy->aggregate_sum(bodies, FloatSpan(*sum));
    simd::scale(sum->data(), inv_k, total);
    return split_flat(ConstFloatSpan(*sum), shapes);
  }

  // Plain / compressed: accumulate every frame's body into one pooled flat
  // accumulator, then split into the tensor-list structure once. Validate
  // every frame's manifest up front so both execution paths below start
  // from the same per-frame body offsets.
  std::vector<std::size_t> body_off(frames.size());
  for (std::size_t fi = 0; fi < frames.size(); ++fi) {
    const ConstByteSpan f = frames[fi];
    std::size_t off = 0;
    const auto m = tensor::read_pod<std::uint8_t>(f, off);
    OF_CHECK_MSG(m == mode, "mixed payload modes in one aggregation");
    const auto frame_shapes = read_manifest(f, off);
    OF_CHECK_MSG(frame_shapes.size() == shapes.size() &&
                     manifest_numel(frame_shapes) == total,
                 "payload structure mismatch");
    if (plain_mode(m))
      OF_CHECK_MSG(f.size() - off == total * plain_elem_size(m),
                   "trailing bytes in plain payload");
    body_off[fi] = off;
  }

  FramePool::FloatHandle acc = p.acquire_floats(total);
  std::fill(acc->begin(), acc->end(), 0.0f);

  const std::size_t elem = plain_elem_size(mode);
  if (plain_mode(mode)) {
    // Shard coordinates across the pool; each shard walks the frames in
    // arrival order, so every element sees the exact serial accumulation
    // order and the mean is bitwise identical for any thread count.
    exec::Pool::global().parallel_for(total, frames.size(), [&](std::size_t lo, std::size_t hi) {
      FloatSpan dst = FloatSpan(*acc).subspan(lo, hi - lo);
      for (std::size_t fi = 0; fi < frames.size(); ++fi)
        accum_plain_bytes(mode,
                          frames[fi].subspan(body_off[fi] + lo * elem,
                                             (hi - lo) * elem),
                          1.0, dst);
    });
  } else {
    // Codecs may keep internal scratch, so decoding stays on this thread,
    // one frame at a time into one pooled buffer; only the elementwise
    // accumulation is sharded, in the serial per-element frame order.
    FramePool::FloatHandle scratch = p.acquire_floats(total);
    float* a = acc->data();
    const float* d = scratch->data();
    for (std::size_t fi = 0; fi < frames.size(); ++fi) {
      decode_body_into(frames[fi], body_off[fi], mode, total, decompressor,
                       FloatSpan(*scratch));
      exec::Pool::global().parallel_for(total, 1, [&](std::size_t lo, std::size_t hi) {
        simd::add(a + lo, d + lo, hi - lo);
      });
    }
  }
  simd::scale(acc->data(), inv_k, total);
  return split_flat(ConstFloatSpan(*acc), shapes);
}

}  // namespace of::core
