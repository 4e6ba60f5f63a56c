// Parameterized property suites: invariants swept across a parameter range
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/adaptive_temperature.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/aggregation.h"
#include "losses/distillation.h"
#include "losses/goldfish_loss.h"
#include "nn/conv.h"
#include "nn/models.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

// -- softmax properties across temperatures ---------------------------------

class SoftmaxTemperature : public ::testing::TestWithParam<float> {};

TEST_P(SoftmaxTemperature, RowsAreDistributions) {
  Rng rng(1);
  Tensor logits = Tensor::randn({6, 10}, rng, 0.0f, 5.0f);
  Tensor p = softmax_rows(logits, GetParam());
  for (long i = 0; i < p.dim(0); ++i) {
    double s = 0.0;
    for (long j = 0; j < p.dim(1); ++j) {
      EXPECT_GE(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-4);
  }
}

TEST_P(SoftmaxTemperature, PreservesArgmax) {
  Rng rng(2);
  Tensor logits = Tensor::randn({6, 10}, rng, 0.0f, 5.0f);
  const auto base = argmax_rows(softmax_rows(logits, 1.0f));
  const auto scaled = argmax_rows(softmax_rows(logits, GetParam()));
  EXPECT_EQ(base, scaled);
}

TEST_P(SoftmaxTemperature, EntropyGrowsWithTemperature) {
  Rng rng(3);
  Tensor logits = Tensor::randn({4, 8}, rng, 0.0f, 4.0f);
  const auto entropy = [](const Tensor& p, long row) {
    double h = 0.0;
    for (long j = 0; j < p.dim(1); ++j) {
      const double v = p.at(row, j);
      if (v > 0) h -= v * std::log(v);
    }
    return h;
  };
  const float t = GetParam();
  Tensor cool = softmax_rows(logits, t);
  Tensor hot = softmax_rows(logits, t * 2.0f);
  for (long i = 0; i < 4; ++i)
    EXPECT_GE(entropy(hot, i) + 1e-7, entropy(cool, i));
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SoftmaxTemperature,
                         ::testing::Values(0.5f, 1.0f, 2.0f, 3.0f, 5.0f,
                                           10.0f));

// -- adaptive temperature monotone in deletion fraction ----------------------

class AdaptiveTempSweep : public ::testing::TestWithParam<long> {};

TEST_P(AdaptiveTempSweep, MonotoneInRemovedSize) {
  core::AdaptiveTemperature at;
  const long removed = GetParam();
  const long total = 1000;
  const float t_now = at(total - removed, removed);
  const float t_less = at(total - removed / 2, removed / 2);
  EXPECT_GE(t_now + 1e-6f, t_less);
  EXPECT_GE(t_now, at.min_temperature);
  EXPECT_LE(t_now, at.alpha * at.t0 + 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(DeletionSizes, AdaptiveTempSweep,
                         ::testing::Values(20L, 40L, 60L, 80L, 100L, 120L,
                                           200L, 400L));

// -- aggregation properties across client counts -----------------------------

class AggregationSweep : public ::testing::TestWithParam<int> {};

TEST_P(AggregationSweep, FedAvgOfIdenticalModelsIsIdentity) {
  const int clients = GetParam();
  Rng rng(4);
  nn::Model m = nn::make_mlp({1, 2, 2}, 4, 3, rng);
  std::vector<fl::ClientUpdate> updates;
  for (int c = 0; c < clients; ++c)
    updates.push_back({m.snapshot(), 10 + c, 0.0});
  fl::FedAvgAggregator agg;
  const auto avg = agg.aggregate(updates);
  EXPECT_NEAR(nn::snapshot_distance_sq(avg, m.snapshot()), 0.0f, 1e-8f);
}

TEST_P(AggregationSweep, AdaptiveWeightsArePositiveAndOrdered) {
  const int clients = GetParam();
  std::vector<double> mses;
  for (int c = 0; c < clients; ++c) mses.push_back(0.01 * (c + 1));
  const auto w = fl::AdaptiveAggregator::weights_from_mse(mses);
  for (int c = 0; c + 1 < clients; ++c) {
    EXPECT_GT(w[static_cast<std::size_t>(c)], 0.0f);
    EXPECT_GT(w[static_cast<std::size_t>(c)],
              w[static_cast<std::size_t>(c) + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, AggregationSweep,
                         ::testing::Values(2, 3, 5, 8, 15, 25));

// -- partition properties across client counts -------------------------------

class PartitionSweep : public ::testing::TestWithParam<long> {};

TEST_P(PartitionSweep, IidCoversAllRowsDisjointly) {
  const long clients = GetParam();
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 5, 30 * clients, 10));
  Rng rng(6);
  auto parts = data::partition_iid(tt.train, clients, rng);
  long total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, tt.train.size());
  for (const auto& p : parts) EXPECT_EQ(p.size(), 30);
}

TEST_P(PartitionSweep, HeterogeneousPreservesRowsAndMinimum) {
  const long clients = GetParam();
  auto tt = data::make_synthetic(
      data::default_spec(data::DatasetKind::Mnist, 7, 60 * clients, 10));
  Rng rng(8);
  data::HeteroOptions opt;
  auto parts = data::partition_heterogeneous(tt.train, clients, opt, rng);
  long total = 0;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), opt.min_per_client);
    total += p.size();
  }
  EXPECT_EQ(total, tt.train.size());
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, PartitionSweep,
                         ::testing::Values(2L, 5L, 15L, 25L));

// -- shard counts from the paper's sweep --------------------------------------

class ShardSweep : public ::testing::TestWithParam<long> {};

TEST_P(ShardSweep, ShardIndicesPartitionEvenly) {
  const long shards = GetParam();
  Rng rng(9);
  const long n = 18 * 20;  // divisible by every paper shard count
  auto idx = data::shard_indices(n, shards, rng);
  ASSERT_EQ(static_cast<long>(idx.size()), shards);
  std::size_t total = 0;
  for (const auto& s : idx) {
    EXPECT_EQ(static_cast<long>(s.size()), n / shards);
    total += s.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(PaperShardCounts, ShardSweep,
                         ::testing::Values(1L, 3L, 6L, 9L, 12L, 15L, 18L));

// -- distillation loss invariants across temperatures ------------------------

class DistillSweep : public ::testing::TestWithParam<float> {};

TEST_P(DistillSweep, GradientVanishesAtMatch) {
  Rng rng(10);
  Tensor t = Tensor::randn({3, 7}, rng, 0.0f, 3.0f);
  const auto r = losses::distillation_loss(t, t, GetParam());
  EXPECT_NEAR(r.grad_logits.squared_norm(), 0.0f, 1e-8f);
}

TEST_P(DistillSweep, LossIsLowerBoundedByTeacherEntropy) {
  // −Σ P_T log P_S ≥ −Σ P_T log P_T (Gibbs' inequality).
  Rng rng(11);
  Tensor t = Tensor::randn({3, 7}, rng, 0.0f, 3.0f);
  Tensor s = Tensor::randn({3, 7}, rng, 0.0f, 3.0f);
  const float temp = GetParam();
  const float match = losses::distillation_loss(t, t, temp).value;
  const float mismatch = losses::distillation_loss(t, s, temp).value;
  EXPECT_GE(mismatch + 1e-5f, match);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, DistillSweep,
                         ::testing::Values(1.0f, 2.0f, 3.0f, 5.0f, 8.0f));


// -- composite-loss weight sweeps ---------------------------------------------

class LossWeightSweep : public ::testing::TestWithParam<float> {};

TEST_P(LossWeightSweep, TotalIsLinearInConfusionWeight) {
  const float mu = GetParam();
  Rng rng(12);
  Tensor sf = Tensor::randn({3, 6}, rng, 0.0f, 2.0f);
  const std::vector<long> yf{0, 1, 2};
  losses::GoldfishLossConfig base;
  base.mu_c = 0.0f;
  losses::GoldfishLossConfig weighted = base;
  weighted.mu_c = mu;
  const auto r0 = losses::GoldfishLoss(base).eval_forget(sf, yf);
  const auto r1 = losses::GoldfishLoss(weighted).eval_forget(sf, yf);
  // total(µ) = total(0) + µ·L_c — exact linearity in the weight.
  EXPECT_NEAR(r1.total, r0.total + mu * r1.confusion, 1e-5f);
}

TEST_P(LossWeightSweep, TotalIsLinearInDistillationWeight) {
  const float mu = GetParam();
  Rng rng(13);
  Tensor sr = Tensor::randn({3, 6}, rng, 0.0f, 2.0f);
  Tensor tr = Tensor::randn({3, 6}, rng, 0.0f, 2.0f);
  const std::vector<long> yr{0, 1, 2};
  losses::GoldfishLossConfig base;
  base.mu_d = 0.0f;
  base.use_distillation = false;
  losses::GoldfishLossConfig weighted;
  weighted.mu_d = mu;
  const auto r0 = losses::GoldfishLoss(base).eval_remaining(sr, yr, tr);
  const auto r1 = losses::GoldfishLoss(weighted).eval_remaining(sr, yr, tr);
  EXPECT_NEAR(r1.total, r0.total + mu * r1.distillation, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Weights, LossWeightSweep,
                         ::testing::Values(0.1f, 0.25f, 0.5f, 1.0f, 2.0f));

// -- im2col/col2im adjoint across geometries ----------------------------------

struct ConvGeomParam {
  long channels, size, kernel, stride, pad;
};

class ConvGeomSweep : public ::testing::TestWithParam<ConvGeomParam> {};

TEST_P(ConvGeomSweep, Im2colCol2imAreAdjoint) {
  const auto p = GetParam();
  Conv2dGeom g{p.channels, p.size, p.size, p.kernel, p.stride, p.pad};
  ASSERT_GT(g.out_h(), 0);
  Rng rng(14);
  Tensor x = Tensor::randn({2, p.channels, p.size, p.size}, rng);
  Tensor cx = im2col(x, g);
  Tensor y = Tensor::randn(cx.shape(), rng);
  Tensor ay = col2im(y, 2, g);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cx.numel(); ++i) lhs += double(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += double(x[i]) * ay[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 + 1e-4 * std::fabs(lhs));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeomSweep,
    ::testing::Values(ConvGeomParam{1, 6, 3, 1, 0},
                      ConvGeomParam{3, 8, 3, 1, 1},
                      ConvGeomParam{2, 9, 5, 2, 2},
                      ConvGeomParam{4, 7, 1, 1, 0},
                      ConvGeomParam{1, 10, 3, 3, 1}));

// -- im2col/col2im against the scalar lowering, bit for bit -------------------

// The per-element lowering loops: a bounds test and at4 index math on every
// element. They define the values and, for col2im, the order of additions
// that the library's row-segment kernels must reproduce bit for bit.
Tensor scalar_im2col(const Tensor& input, const Conv2dGeom& g) {
  const long N = input.dim(0);
  const long oh = g.out_h(), ow = g.out_w();
  const long patch = g.patch_size();
  Tensor cols({patch, N * oh * ow});
  float* dst = cols.data();
  const long col_stride = N * oh * ow;
  for (long n = 0; n < N; ++n) {
    for (long c = 0; c < g.in_channels; ++c) {
      for (long kh = 0; kh < g.kernel; ++kh) {
        for (long kw = 0; kw < g.kernel; ++kw) {
          const long row = ((c * g.kernel) + kh) * g.kernel + kw;
          for (long y = 0; y < oh; ++y) {
            const long iy = y * g.stride + kh - g.pad;
            for (long x = 0; x < ow; ++x) {
              const long ix = x * g.stride + kw - g.pad;
              const long col = (n * oh + y) * ow + x;
              float v = 0.0f;
              if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                v = input.at4(n, c, iy, ix);
              dst[row * col_stride + col] = v;
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor scalar_col2im(const Tensor& cols, long batch, const Conv2dGeom& g) {
  const long oh = g.out_h(), ow = g.out_w();
  Tensor img = Tensor::zeros({batch, g.in_channels, g.in_h, g.in_w});
  const float* src = cols.data();
  const long col_stride = batch * oh * ow;
  for (long n = 0; n < batch; ++n) {
    for (long c = 0; c < g.in_channels; ++c) {
      for (long kh = 0; kh < g.kernel; ++kh) {
        for (long kw = 0; kw < g.kernel; ++kw) {
          const long row = ((c * g.kernel) + kh) * g.kernel + kw;
          for (long y = 0; y < oh; ++y) {
            const long iy = y * g.stride + kh - g.pad;
            if (iy < 0 || iy >= g.in_h) continue;
            for (long x = 0; x < ow; ++x) {
              const long ix = x * g.stride + kw - g.pad;
              if (ix < 0 || ix >= g.in_w) continue;
              const long col = (n * oh + y) * ow + x;
              img.at4(n, c, iy, ix) += src[row * col_stride + col];
            }
          }
        }
      }
    }
  }
  return img;
}

/// Element-for-element bit equality (shape first), reporting the first
/// mismatching flat index.
::testing::AssertionResult same_bits(const Tensor& got, const Tensor& want) {
  if (!got.same_shape(want))
    return ::testing::AssertionFailure()
           << "shape " << got.shape_str() << " vs " << want.shape_str();
  for (std::size_t i = 0; i < got.numel(); ++i)
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  return ::testing::AssertionSuccess();
}

TEST(Im2colCol2im, MatchScalarReferenceBitwise) {
  // C × H × W × K × S × P with P < K: rectangular inputs, stride above the
  // kernel, and windows that overhang a narrow input on both sides.
  constexpr long kBatch = 3;
  Rng rng(31);
  int geometries = 0;
  Tensor cols, img;  // reused across geometries, as a layer reuses its slots
  for (long c : {1, 3})
    for (long h : {5, 8, 11})
      for (long w : {4, 9})
        for (long k : {1, 2, 3, 5})
          for (long s : {1, 2, 3})
            for (long p = 0; p < k; ++p) {
              const Conv2dGeom g{c, h, w, k, s, p};
              if (g.out_h() <= 0 || g.out_w() <= 0) continue;
              ++geometries;
              SCOPED_TRACE(::testing::Message()
                           << "C" << c << " H" << h << " W" << w << " K" << k
                           << " S" << s << " P" << p);
              const Tensor x = Tensor::randn({kBatch, c, h, w}, rng);
              im2col_into(x, g, cols);
              ASSERT_TRUE(same_bits(cols, scalar_im2col(x, g)));
              const Tensor y = Tensor::randn(cols.shape(), rng);
              col2im_into(y, kBatch, g, img);
              ASSERT_TRUE(same_bits(img, scalar_col2im(y, kBatch, g)));
            }
  EXPECT_EQ(geometries, 390);
}

TEST(Conv2d, LenetShapesMatchScalarLoweringBitwise) {
  // lenet5's conv1 (1→6, k5, p2, 28×28) and conv2 (6→16, k5, 14×14) at
  // batch 20. The reference runs the same GEMM calls as Conv2d between the
  // scalar lowering loops and an at4 pack/unpack of the output layout.
  struct LenetConv {
    long in_c, out_c, pad, size;
  };
  constexpr long kBatch = 20, kKernel = 5;
  for (const LenetConv sh :
       {LenetConv{1, 6, 2, 28}, LenetConv{6, 16, 0, 14}}) {
    SCOPED_TRACE(::testing::Message() << "conv " << sh.in_c << "->"
                                      << sh.out_c);
    Rng rng(32);
    nn::Conv2d conv(sh.in_c, sh.out_c, kKernel, 1, sh.pad, sh.size, sh.size,
                    rng);
    const auto params = conv.params();
    const Tensor& weight = *params[0].value;
    Tensor bias = Tensor::randn(params[1].value->shape(), rng);
    *params[1].value = bias;
    const Conv2dGeom g{sh.in_c, sh.size, sh.size, kKernel, 1, sh.pad};
    const long oh = g.out_h(), ow = g.out_w();
    const Tensor x = Tensor::randn({kBatch, sh.in_c, sh.size, sh.size}, rng);
    const Tensor gy = Tensor::randn({kBatch, sh.out_c, oh, ow}, rng);

    // Reference forward.
    const Tensor cols = scalar_im2col(x, g);
    const Tensor flat = gemm_fused(weight, cols, false, false,
                                   runtime::Epilogue::kBiasRow, bias);
    Tensor want_y({kBatch, sh.out_c, oh, ow});
    for (long c = 0; c < sh.out_c; ++c)
      for (long n = 0; n < kBatch; ++n)
        for (long y = 0; y < oh; ++y)
          for (long xo = 0; xo < ow; ++xo)
            want_y.at4(n, c, y, xo) = flat.at(c, (n * oh + y) * ow + xo);
    // Reference backward.
    Tensor gflat({sh.out_c, kBatch * oh * ow});
    for (long c = 0; c < sh.out_c; ++c)
      for (long n = 0; n < kBatch; ++n)
        for (long y = 0; y < oh; ++y)
          for (long xo = 0; xo < ow; ++xo)
            gflat.at(c, (n * oh + y) * ow + xo) = gy.at4(n, c, y, xo);
    Tensor want_gw = Tensor::zeros(weight.shape());
    gemm_acc(want_gw, gflat, cols, false, true);
    Tensor want_gb = Tensor::zeros(bias.shape());
    for (long c = 0; c < sh.out_c; ++c) {
      double acc = 0.0;
      for (long j = 0; j < gflat.dim(1); ++j) acc += gflat.at(c, j);
      want_gb[std::size_t(c)] = static_cast<float>(acc);
    }
    const Tensor want_gx =
        scalar_col2im(gemm(weight, gflat, true, false), kBatch, g);

    EXPECT_TRUE(same_bits(conv.forward(x, true), want_y));
    EXPECT_TRUE(same_bits(conv.backward(gy), want_gx));
    EXPECT_TRUE(same_bits(*params[0].grad, want_gw));
    EXPECT_TRUE(same_bits(*params[1].grad, want_gb));
  }
}

// -- hard losses agree on direction across batch sizes -------------------------

class HardLossSweep : public ::testing::TestWithParam<long> {};

TEST_P(HardLossSweep, AllLossesDecreaseUnderGradientStep) {
  const long batch = GetParam();
  Rng rng(15);
  Tensor z = Tensor::randn({batch, 5}, rng, 0.0f, 2.0f);
  std::vector<long> y;
  for (long i = 0; i < batch; ++i) y.push_back(i % 5);
  for (const char* name : {"cross_entropy", "focal", "nll"}) {
    const auto loss = losses::make_hard_loss(name);
    const auto r0 = loss->eval(z, y);
    Tensor z2 = z;
    z2.add_scaled(r0.grad_logits, -1.0f);
    const auto r1 = loss->eval(z2, y);
    EXPECT_LT(r1.value, r0.value) << name << " batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, HardLossSweep,
                         ::testing::Values(1L, 2L, 7L, 32L, 100L));

}  // namespace
}  // namespace goldfish
