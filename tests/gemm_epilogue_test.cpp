// The GEMM epilogue mechanism: beta=0 overwrite vs beta=1 accumulate against
// the naive reference, fused bias writebacks proven bit-exact against the
// two-pass result (both broadcast orientations, shapes crossing the KC slice
// and partial tiles), thread-count determinism through the fused path, and
// Sequential pinned to the manual Linear→ReLU layer chain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "runtime/gemm.h"
#include "runtime/scheduler.h"
#include "tensor/ops.h"

namespace goldfish {
namespace {

using runtime::Epilogue;

/// Naive triple loop, double-accumulated (same as gemm_test's reference).
Tensor reference_gemm(const Tensor& a, const Tensor& b) {
  const long m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (long i = 0; i < m; ++i)
    for (long j = 0; j < n; ++j) {
      double acc = 0.0;
      for (long p = 0; p < k; ++p) acc += double(a.at(i, p)) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

/// The pre-fusion epilogue: a separate bias-broadcast pass over C.
Tensor two_pass(const Tensor& product, const Tensor& bias, Epilogue ep) {
  Tensor y = product;
  const long m = y.dim(0), n = y.dim(1);
  const bool per_col = ep == Epilogue::kBiasCol;
  for (long i = 0; i < m; ++i)
    for (long j = 0; j < n; ++j)
      y.at(i, j) += per_col ? bias[std::size_t(j)] : bias[std::size_t(i)];
  return y;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(GemmBeta, Beta0OverwritesWithoutReadingC) {
  Rng rng(21);
  // k=300 crosses the KC=256 slice; m/n sizes leave partial tiles.
  Tensor a = Tensor::randn({13, 300}, rng);
  Tensor b = Tensor::randn({300, 37}, rng);
  const Tensor expect = reference_gemm(a, b);
  // Poison C: beta=0 must never read these values (NaN would propagate).
  Tensor c = Tensor::full({13, 37}, std::nanf(""));
  runtime::sgemm(false, false, 13, 37, 300, a.data(), 300, b.data(), 37,
                 c.data(), 37, /*beta=*/0.0f, Epilogue::kNone, nullptr);
  for (std::size_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c[i], expect[i], 1e-3f * (1.0f + std::abs(expect[i])));
}

TEST(GemmBeta, Beta1AccumulatesOnTopOfC) {
  Rng rng(22);
  Tensor a = Tensor::randn({9, 270}, rng);
  Tensor b = Tensor::randn({270, 17}, rng);
  const Tensor expect = reference_gemm(a, b);
  Tensor c = Tensor::full({9, 17}, 2.5f);
  runtime::sgemm(false, false, 9, 17, 270, a.data(), 270, b.data(), 17,
                 c.data(), 17, /*beta=*/1.0f, Epilogue::kNone, nullptr);
  for (std::size_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c[i], expect[i] + 2.5f, 1e-3f * (1.0f + std::abs(expect[i])));
}

TEST(GemmBeta, Beta0EqualsBeta1FromZeroBitwise) {
  Rng rng(23);
  Tensor a = Tensor::randn({65, 310}, rng);  // multiple row panels, k > KC
  Tensor b = Tensor::randn({310, 43}, rng);
  Tensor c0 = Tensor::uninit({65, 43});
  Tensor c1({65, 43});  // zero-initialized
  runtime::sgemm(false, false, 65, 43, 310, a.data(), 310, b.data(), 43,
                 c0.data(), 43, 0.0f, Epilogue::kNone, nullptr);
  runtime::sgemm(false, false, 65, 43, 310, a.data(), 310, b.data(), 43,
                 c1.data(), 43);  // accumulate entry point
  EXPECT_TRUE(bitwise_equal(c0, c1));
}

class EpilogueBitExact : public ::testing::TestWithParam<Epilogue> {};

TEST_P(EpilogueBitExact, FusedMatchesTwoPassBitwise) {
  const Epilogue ep = GetParam();
  Rng rng(31);
  // Shapes chosen to cross the KC slice (k=300), multiple row panels
  // (m=131 > MC on every ISA) and partial edge tiles in both dimensions.
  const long m = 131, k = 300, n = 53;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  const bool per_col = ep == Epilogue::kBiasCol;
  Tensor bias = Tensor::randn({per_col ? n : m}, rng);

  const Tensor fused = gemm_fused(a, b, false, false, ep, bias);
  const Tensor unfused = two_pass(gemm(a, b, false, false), bias, ep);
  EXPECT_TRUE(bitwise_equal(fused, unfused));
}

TEST_P(EpilogueBitExact, FusedMatchesTwoPassTransposedOperands) {
  const Epilogue ep = GetParam();
  Rng rng(32);
  const long m = 34, k = 260, n = 19;
  Tensor at = Tensor::randn({k, m}, rng);  // stored transposed
  Tensor bt = Tensor::randn({n, k}, rng);
  const bool per_col = ep == Epilogue::kBiasCol;
  Tensor bias = Tensor::randn({per_col ? n : m}, rng);

  const Tensor fused = gemm_fused(at, bt, true, true, ep, bias);
  const Tensor unfused = two_pass(gemm(at, bt, true, true), bias, ep);
  EXPECT_TRUE(bitwise_equal(fused, unfused));
}

INSTANTIATE_TEST_SUITE_P(AllEpilogues, EpilogueBitExact,
                         ::testing::Values(Epilogue::kBiasCol,
                                           Epilogue::kBiasRow));

TEST(GemmEpilogue, DeterministicAcrossThreadCountsThroughFusedPath) {
  Rng rng(41);
  // Large enough to trigger the parallel path and multiple row panels.
  Tensor a = Tensor::randn({256, 256}, rng);
  Tensor b = Tensor::randn({256, 256}, rng);
  Tensor bias = Tensor::randn({256}, rng);
  Tensor c1 = Tensor::uninit({256, 256});
  Tensor c8 = Tensor::uninit({256, 256});
  runtime::Scheduler one(1);
  runtime::Scheduler eight(8);
  runtime::sgemm(false, false, 256, 256, 256, a.data(), 256, b.data(), 256,
                 c1.data(), 256, 0.0f, Epilogue::kBiasCol, bias.data(),
                 &one);
  runtime::sgemm(false, false, 256, 256, 256, a.data(), 256, b.data(), 256,
                 c8.data(), 256, 0.0f, Epilogue::kBiasCol, bias.data(),
                 &eight);
  // Bit-identical, not merely close: parallelism only splits output tiles,
  // never the k reduction, and the epilogue is elementwise per tile.
  EXPECT_TRUE(bitwise_equal(c1, c8));
}

TEST(GemmEpilogue, DegenerateKAppliesBetaAndEpilogue) {
  // k=0: the product term is empty; beta=0 + bias must still define C.
  Tensor bias = Tensor::from({-1.0f, 0.5f, 2.0f});
  Tensor c = Tensor::full({2, 3}, std::nanf(""));
  runtime::sgemm(false, false, 2, 3, 0, nullptr, 1, nullptr, 3, c.data(), 3,
                 0.0f, Epilogue::kBiasCol, bias.data());
  for (long i = 0; i < 2; ++i) {
    EXPECT_EQ(-1.0f, c.at(i, 0));
    EXPECT_EQ(0.5f, c.at(i, 1));
    EXPECT_EQ(2.0f, c.at(i, 2));
  }
  // beta=1 keeps C and adds the bias on top.
  runtime::sgemm(false, false, 2, 3, 0, nullptr, 1, nullptr, 3, c.data(), 3,
                 1.0f, Epilogue::kBiasCol, bias.data());
  EXPECT_EQ(-2.0f, c.at(0, 0));
  EXPECT_EQ(4.0f, c.at(1, 2));
}

TEST(GemmEpilogue, FusedShapeChecks) {
  Rng rng(51);
  Tensor a = Tensor::randn({4, 5}, rng);
  Tensor b = Tensor::randn({5, 6}, rng);
  Tensor bias_n = Tensor::randn({6}, rng);
  Tensor bias_m = Tensor::randn({4}, rng);
  EXPECT_NO_THROW(gemm_fused(a, b, false, false, Epilogue::kBiasCol, bias_n));
  EXPECT_NO_THROW(gemm_fused(a, b, false, false, Epilogue::kBiasRow, bias_m));
  // Wrong orientation for the chosen epilogue.
  EXPECT_THROW(gemm_fused(a, b, false, false, Epilogue::kBiasCol, bias_m),
               CheckError);
  EXPECT_THROW(gemm_fused(a, b, false, false, Epilogue::kBiasRow, bias_n),
               CheckError);
  EXPECT_THROW(gemm_fused(a, b, false, false, Epilogue::kNone, bias_n),
               CheckError);
}

TEST(SequentialPeephole, MlpMatchesManualLayerChain) {
  Rng rng(71);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Linear>(12, 16, rng));
  seq.add(std::make_unique<nn::ReLU>());
  seq.add(std::make_unique<nn::Linear>(16, 5, rng));

  // Manual chain over clones of the same layers.
  auto l0 = seq.layer(0).clone();
  auto l2 = seq.layer(2).clone();
  nn::ReLU relu;

  Tensor x = Tensor::randn({8, 12}, rng);
  const Tensor y_seq = seq.forward(x, true);
  const Tensor y_manual =
      l2->forward(relu.forward(l0->forward(x, true), true), true);
  EXPECT_TRUE(bitwise_equal(y_seq, y_manual));

  Tensor g = Tensor::randn({8, 5}, rng);
  const Tensor gx_seq = seq.backward(g);
  const Tensor gx_manual = l0->backward(relu.backward(l2->backward(g)));
  ASSERT_TRUE(gx_seq.same_shape(gx_manual));
  for (std::size_t i = 0; i < gx_seq.numel(); ++i)
    EXPECT_EQ(gx_seq[i], gx_manual[i]);

  auto ps = seq.params();
  std::vector<nn::ParamRef> pm;
  for (nn::ParamRef p : l0->params()) pm.push_back(p);
  for (nn::ParamRef p : l2->params()) pm.push_back(p);
  ASSERT_EQ(ps.size(), pm.size());
  for (std::size_t p = 0; p < ps.size(); ++p)
    for (std::size_t i = 0; i < ps[p].grad->numel(); ++i)
      EXPECT_EQ((*ps[p].grad)[i], (*pm[p].grad)[i]) << ps[p].name;
}

TEST(SequentialPeephole, ReluNotAfterLinearStillRuns) {
  Rng rng(72);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::ReLU>());  // leading ReLU
  seq.add(std::make_unique<nn::Linear>(6, 4, rng));

  Tensor x = Tensor::randn({3, 6}, rng);
  const Tensor y = seq.forward(x, true);
  ASSERT_EQ(2u, y.rank());
  // Backward must traverse both layers.
  Tensor g = Tensor::randn({3, 4}, rng);
  const Tensor gx = seq.backward(g);
  EXPECT_TRUE(gx.same_shape(x));
}

}  // namespace
}  // namespace goldfish
