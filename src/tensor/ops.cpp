#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "runtime/gemm.h"
#include "runtime/scheduler.h"

namespace goldfish {

namespace {

void check_2d(const Tensor& t, const char* who) {
  GOLDFISH_CHECK(t.rank() == 2, std::string(who) + " expects a 2-D tensor");
}

/// Logical (rows, cols) of op(t) given its storage and transpose flag.
std::pair<long, long> op_dims(const Tensor& t, bool trans) {
  return trans ? std::make_pair(t.dim(1), t.dim(0))
               : std::make_pair(t.dim(0), t.dim(1));
}

}  // namespace

void gemm_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
              bool trans_b) {
  check_2d(a, "gemm");
  check_2d(b, "gemm");
  check_2d(c, "gemm");
  const auto [m, k] = op_dims(a, trans_a);
  const auto [kb, n] = op_dims(b, trans_b);
  GOLDFISH_CHECK(kb == k, "gemm inner dims: " + a.shape_str() + " · " +
                              b.shape_str());
  GOLDFISH_CHECK(c.dim(0) == m && c.dim(1) == n,
                 "gemm output shape: " + c.shape_str());
  runtime::sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(),
                 b.dim(1), c.data(), n);
}

void gemm_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
               bool trans_b) {
  check_2d(a, "gemm");
  check_2d(b, "gemm");
  const auto [m, k] = op_dims(a, trans_a);
  const auto [kb, n] = op_dims(b, trans_b);
  GOLDFISH_CHECK(kb == k, "gemm inner dims: " + a.shape_str() + " · " +
                              b.shape_str());
  c.resize_uninit({m, n});  // beta=0 overwrites every element
  runtime::sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(),
                 b.dim(1), c.data(), n, /*beta=*/0.0f, runtime::Epilogue::kNone,
                 nullptr);
}

Tensor gemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  Tensor c;
  gemm_into(c, a, b, trans_a, trans_b);
  return c;
}

void gemm_fused_into(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                     bool trans_b, runtime::Epilogue epilogue,
                     const Tensor& bias) {
  check_2d(a, "gemm_fused");
  check_2d(b, "gemm_fused");
  GOLDFISH_CHECK(epilogue != runtime::Epilogue::kNone,
                 "gemm_fused needs an epilogue; use gemm() for the plain "
                 "product");
  const auto [m, k] = op_dims(a, trans_a);
  const auto [kb, n] = op_dims(b, trans_b);
  GOLDFISH_CHECK(kb == k, "gemm inner dims: " + a.shape_str() + " · " +
                              b.shape_str());
  const long want = epilogue == runtime::Epilogue::kBiasCol ? n : m;
  GOLDFISH_CHECK(bias.rank() == 1 && bias.dim(0) == want,
                 "gemm_fused bias shape " + bias.shape_str());
  c.resize_uninit({m, n});
  runtime::sgemm(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(),
                 b.dim(1), c.data(), n, /*beta=*/0.0f, epilogue, bias.data());
}

Tensor gemm_fused(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                  runtime::Epilogue epilogue, const Tensor& bias) {
  Tensor c;
  gemm_fused_into(c, a, b, trans_a, trans_b, epilogue, bias);
  return c;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return gemm(a, b, false, false);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return gemm(a, b, true, false);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return gemm(a, b, false, true);
}

Tensor transpose(const Tensor& a) {
  check_2d(a, "transpose");
  const long m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (long i = 0; i < m; ++i)
    for (long j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  return t;
}

Tensor softmax_rows(const Tensor& logits, float temperature) {
  check_2d(logits, "softmax_rows");
  GOLDFISH_CHECK(temperature > 0.0f, "temperature must be positive");
  const long rows = logits.dim(0), cols = logits.dim(1);
  Tensor out({rows, cols});
  parallel_for(
      rows,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          float mx = -1e30f;
          for (long j = 0; j < cols; ++j) mx = std::max(mx, logits.at(i, j));
          double denom = 0.0;
          for (long j = 0; j < cols; ++j) {
            const float e = std::exp((logits.at(i, j) - mx) / temperature);
            out.at(i, j) = e;
            denom += e;
          }
          const float inv = static_cast<float>(1.0 / denom);
          for (long j = 0; j < cols; ++j) out.at(i, j) *= inv;
        }
      },
      std::max(1L, 4096 / std::max(1L, cols)));
  return out;
}

Tensor log_softmax_rows(const Tensor& logits, float temperature) {
  check_2d(logits, "log_softmax_rows");
  GOLDFISH_CHECK(temperature > 0.0f, "temperature must be positive");
  const long rows = logits.dim(0), cols = logits.dim(1);
  Tensor out({rows, cols});
  parallel_for(
      rows,
      [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i) {
          float mx = -1e30f;
          for (long j = 0; j < cols; ++j) mx = std::max(mx, logits.at(i, j));
          double denom = 0.0;
          for (long j = 0; j < cols; ++j)
            denom += std::exp((logits.at(i, j) - mx) / temperature);
          const float log_denom = static_cast<float>(std::log(denom));
          for (long j = 0; j < cols; ++j)
            out.at(i, j) = (logits.at(i, j) - mx) / temperature - log_denom;
        }
      },
      std::max(1L, 4096 / std::max(1L, cols)));
  return out;
}

std::vector<long> argmax_rows(const Tensor& t) {
  check_2d(t, "argmax_rows");
  const long rows = t.dim(0), cols = t.dim(1);
  std::vector<long> out(static_cast<std::size_t>(rows));
  for (long i = 0; i < rows; ++i) {
    long best = 0;
    float bv = t.at(i, 0);
    for (long j = 1; j < cols; ++j) {
      if (t.at(i, j) > bv) {
        bv = t.at(i, j);
        best = j;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::vector<float> row_variance(const Tensor& t) {
  check_2d(t, "row_variance");
  const long rows = t.dim(0), cols = t.dim(1);
  std::vector<float> out(static_cast<std::size_t>(rows));
  for (long i = 0; i < rows; ++i) {
    double mean = 0.0;
    for (long j = 0; j < cols; ++j) mean += t.at(i, j);
    mean /= cols;
    double var = 0.0;
    for (long j = 0; j < cols; ++j) {
      const double d = t.at(i, j) - mean;
      var += d * d;
    }
    out[static_cast<std::size_t>(i)] = static_cast<float>(var / cols);
  }
  return out;
}

Tensor clamp_min(Tensor t, float lo) {
  for (float& x : t.vec()) x = std::max(x, lo);
  return t;
}

Tensor hadamard(Tensor lhs, const Tensor& rhs) {
  GOLDFISH_CHECK(lhs.same_shape(rhs), "hadamard shape mismatch");
  float* a = lhs.data();
  const float* b = rhs.data();
  for (std::size_t i = 0; i < lhs.numel(); ++i) a[i] *= b[i];
  return lhs;
}

namespace {

/// Output positions [lo, hi) along one axis whose input tap
/// `x·stride + off` lands inside [0, len); `off` is the kernel offset minus
/// the padding. Every other position of the axis reads padding.
struct TapSpan {
  long lo = 0, hi = 0;
};

TapSpan tap_span(long off, long len, long stride, long out) {
  // x·stride + off >= 0  ⇔  x >= ceil(-off / stride)
  const long lo = off >= 0 ? 0 : (stride - off - 1) / stride;
  // x·stride + off < len  ⇔  x < ceil((len - off) / stride)
  const long hi = len <= off ? 0 : (len - off + stride - 1) / stride;
  const long h = std::min(hi, out);
  return {std::min(lo, h), h};
}

}  // namespace

void im2col_into(const Tensor& input, const Conv2dGeom& g, Tensor& cols) {
  GOLDFISH_CHECK(input.rank() == 4, "im2col expects (N,C,H,W)");
  GOLDFISH_CHECK(input.dim(1) == g.in_channels && input.dim(2) == g.in_h &&
                     input.dim(3) == g.in_w,
                 "im2col geometry mismatch: " + input.shape_str());
  const long N = input.dim(0);
  const long oh = g.out_h(), ow = g.out_w();
  const long kk = g.kernel * g.kernel;
  const long col_stride = N * oh * ow;
  cols.resize_uninit({g.patch_size(), col_stride});  // every element written
  float* dst = cols.data();
  const float* img = input.data();
  const long plane = g.in_h * g.in_w;
  // Patch rows are contiguous runs of N·oh·ow columns → parallel over rows,
  // each worker streaming its own rows front to back.
  parallel_for(g.patch_size(), [&](long r_lo, long r_hi) {
  for (long row = r_lo; row < r_hi; ++row) {
    const long c = row / kk;
    const long oy = row % kk / g.kernel - g.pad, ox = row % g.kernel - g.pad;
    const TapSpan ys = tap_span(oy, g.in_h, g.stride, oh);
    const TapSpan xs = tap_span(ox, g.in_w, g.stride, ow);
    for (long n = 0; n < N; ++n) {
      // This sample's oh·ow columns: padding rows, interior rows, padding.
      float* d = dst + row * col_stride + n * oh * ow;
      std::fill(d, d + ys.lo * ow, 0.0f);
      const float* src = img + (n * g.in_channels + c) * plane;
      for (long y = ys.lo; y < ys.hi; ++y) {
        float* dr = d + y * ow;
        const float* s = src + (y * g.stride + oy) * g.in_w;
        std::fill(dr, dr + xs.lo, 0.0f);
        for (long x = xs.lo; x < xs.hi; ++x) dr[x] = s[x * g.stride + ox];
        std::fill(dr + xs.hi, dr + ow, 0.0f);
      }
      std::fill(d + ys.hi * ow, d + oh * ow, 0.0f);
    }
  }
  }, /*grain=*/1);
}

Tensor im2col(const Tensor& input, const Conv2dGeom& g) {
  Tensor cols;
  im2col_into(input, g, cols);
  return cols;
}

void col2im_into(const Tensor& cols, long batch, const Conv2dGeom& g,
                 Tensor& img) {
  GOLDFISH_CHECK(cols.rank() == 2, "col2im expects a 2-D tensor");
  const long oh = g.out_h(), ow = g.out_w();
  const long patch = g.patch_size();
  GOLDFISH_CHECK(cols.dim(0) == patch && cols.dim(1) == batch * oh * ow,
                 "col2im geometry mismatch");
  img.resize_uninit({batch, g.in_channels, g.in_h, g.in_w});
  img.zero();  // padding positions receive no scatter writes
  const float* src = cols.data();
  float* out = img.data();
  const long col_stride = batch * oh * ow;
  const long plane = g.in_h * g.in_w;
  // Samples scatter into disjoint image slices → parallel over the batch.
  // Within a sample the loop order is (c, kh, kw, y, x), which fixes the
  // order of the additions each image element receives.
  parallel_for(batch, [&](long n_lo, long n_hi) {
  for (long n = n_lo; n < n_hi; ++n) {
    for (long c = 0; c < g.in_channels; ++c) {
      float* dst = out + (n * g.in_channels + c) * plane;
      for (long kh = 0; kh < g.kernel; ++kh) {
        const long oy = kh - g.pad;
        const TapSpan ys = tap_span(oy, g.in_h, g.stride, oh);
        for (long kw = 0; kw < g.kernel; ++kw) {
          const long ox = kw - g.pad;
          const TapSpan xs = tap_span(ox, g.in_w, g.stride, ow);
          const long row = ((c * g.kernel) + kh) * g.kernel + kw;
          const float* s0 = src + row * col_stride + n * oh * ow;
          for (long y = ys.lo; y < ys.hi; ++y) {
            float* d = dst + (y * g.stride + oy) * g.in_w;
            const float* s = s0 + y * ow;
            for (long x = xs.lo; x < xs.hi; ++x) d[x * g.stride + ox] += s[x];
          }
        }
      }
    }
  }
  }, /*grain=*/1);
}

Tensor col2im(const Tensor& cols, long batch, const Conv2dGeom& g) {
  Tensor img;
  col2im_into(cols, batch, g, img);
  return img;
}

}  // namespace goldfish
