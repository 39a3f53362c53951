// Public-API tests: planning options, host-vs-simulator agreement, and the
// profiling entry points.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/conv_api.hpp"
#include "reference/direct_conv.hpp"
#include "tensor/metrics.hpp"

namespace iwg::core {
namespace {

TensorF rand_tensor(std::initializer_list<std::int64_t> dims, unsigned seed) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

ConvShape shape_3x3(std::int64_t iw = 13) {
  ConvShape s;
  s.n = 1;
  s.ih = 8;
  s.iw = iw;
  s.ic = 8;
  s.oc = 16;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.validate();
  return s;
}

TEST(ConvApi, PlanForUsesWinogradByDefault) {
  const auto plan = plan_for(shape_3x3());
  ASSERT_FALSE(plan.empty());
  EXPECT_FALSE(plan[0].is_gemm);
  EXPECT_EQ(plan[0].cfg.r, 3);
}

TEST(ConvApi, PlanForGemmOnly) {
  ConvOptions opts;
  opts.use_winograd = false;
  const auto plan = plan_for(shape_3x3(), opts);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan[0].is_gemm);
}

TEST(ConvApi, PlanForFallsBackOutsideSupportedWidths) {
  ConvShape s = shape_3x3();
  s.fw = 11;
  s.pw = 5;
  const auto plan = plan_for(s);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan[0].is_gemm);

  ConvShape s1 = shape_3x3();
  s1.fw = 1;
  s1.pw = 0;
  const auto plan1 = plan_for(s1);
  ASSERT_EQ(plan1.size(), 1u);
  EXPECT_TRUE(plan1[0].is_gemm);
}

TEST(ConvApi, C64RequiresChannelMultiples) {
  ConvShape s = shape_3x3();
  s.fw = 9;
  s.pw = 4;
  s.iw = 24;
  s.ic = 64;
  s.oc = 64;
  ConvOptions opts;
  opts.allow_c64 = true;
  const auto plan = plan_for(s, opts);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan[0].cfg.variant, Variant::kC64);

  s.ic = 48;  // not a multiple of 64
  const auto plan2 = plan_for(s, opts);
  EXPECT_NE(plan2[0].cfg.variant, Variant::kC64);
}

TEST(ConvApi, PlanSingleCoversWidthExactly) {
  const ConvShape s = shape_3x3(17);
  const auto plan = plan_single(s, GammaConfig::make(8, 6, 3));
  std::int64_t covered = 0;
  for (const auto& seg : plan) covered += seg.ow_len;
  EXPECT_EQ(covered, s.ow());
  EXPECT_TRUE(plan.back().is_gemm);  // 17 % 6 != 0
}

TEST(ConvApi, HostAndSimulatorAgree) {
  // Same plan through both execution paths: results must be numerically
  // close (different accumulation orders, same algorithm).
  const ConvShape s = shape_3x3(14);
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 1);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 2);
  const auto plan = plan_for(s);
  const TensorF host = conv2d(x, w, s);
  const TensorF simv = conv2d_sim(x, w, s, plan);
  EXPECT_LT(max_rel_diff(host, simv), 1e-4);
}

TEST(ConvApi, DeconvHostAndSimulatorAgree) {
  const ConvShape s = shape_3x3(14);
  TensorF dy = rand_tensor({s.n, s.oh(), s.ow(), s.oc}, 3);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 4);
  const ConvShape b = GammaKernel::make_backward_shape(s);
  const TensorF host = deconv2d(dy, w, s);
  const TensorF simv = deconv2d_sim(dy, w, s, plan_for(b));
  ASSERT_TRUE(host.same_shape(simv));
  EXPECT_LT(max_rel_diff(host, simv), 1e-4);
}

TEST(ConvApi, ProfileReportsSaneNumbers) {
  const ConvShape s = ConvShape::from_ofms(8, 32, 32, 64, 3);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  const auto rep = profile_conv2d(s, dev, plan_for(s), 4);
  EXPECT_GT(rep.time_s, 0.0);
  EXPECT_GT(rep.gflops, 0.0);
  EXPECT_LT(rep.gflops, 2.0 * dev.peak_gflops() * 4.5);  // Φmax = 4.5
  EXPECT_GT(rep.transpose_s, 0.0);
  EXPECT_GT(rep.time_with_transpose(), rep.time_s);
  EXPECT_LT(rep.gflops_with_transpose(s.flops()), rep.gflops);
  EXPECT_EQ(rep.segments.size(), plan_for(s).size());
}

TEST(ConvApi, ProfileGemmBothLayouts) {
  const ConvShape s = ConvShape::from_ofms(8, 32, 32, 64, 3);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  for (GemmLayout layout : {GemmLayout::kNHWC, GemmLayout::kNCHW}) {
    const auto rep = profile_gemm_conv2d(s, dev, layout, 4);
    EXPECT_GT(rep.gflops, 0.0);
    // Standard convolution cannot beat peak.
    EXPECT_LT(rep.gflops, dev.peak_gflops());
  }
}

TEST(ConvApi, BackwardShapeRoundTrip) {
  ConvShape s;
  s.n = 2;
  s.ih = 10;
  s.iw = 12;
  s.ic = 5;
  s.oc = 7;
  s.fh = 5;
  s.fw = 3;
  s.ph = 2;
  s.pw = 1;
  s.validate();
  const ConvShape b = GammaKernel::make_backward_shape(s);
  EXPECT_EQ(b.ic, s.oc);
  EXPECT_EQ(b.oc, s.ic);
  EXPECT_EQ(b.oh(), s.ih);
  EXPECT_EQ(b.ow(), s.iw);
  // Backward of the backward restores the forward geometry.
  const ConvShape f = GammaKernel::make_backward_shape(b);
  EXPECT_EQ(f.ih, s.ih);
  EXPECT_EQ(f.iw, s.iw);
  EXPECT_EQ(f.ic, s.ic);
  EXPECT_EQ(f.oc, s.oc);
  EXPECT_EQ(f.ph, s.ph);
}

TEST(ConvApi, GflopsWithTransposeGuardsZeroTime) {
  // Regression: a default-constructed report divided by zero time.
  ConvPerfReport rep;
  EXPECT_DOUBLE_EQ(rep.gflops_with_transpose(1e9), 0.0);
}

TEST(ConvApi, MismatchedTensorsRejected) {
  const ConvShape s = shape_3x3();
  TensorF x({1, 8, 13, 4});  // wrong IC
  TensorF w({16, 3, 3, 8});
  EXPECT_THROW(conv2d(x, w, s), Error);
}

}  // namespace
}  // namespace iwg::core
