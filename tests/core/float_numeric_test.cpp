// Single-precision numeric mode: the paper's Fig. 2 includes single precision,
// and the full numeric path (kernels, checksums, injection, repair) must work
// for float as it does for double.
#include <gtest/gtest.h>

#include <string>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig float_opts(predict::Factorization f) {
  RunConfig o;
  o.factorization = f;
  o.n = 256;
  o.b = 32;
  o.elem_bytes = 4;
  o.mode = ExecutionMode::Numeric;
  o.strategy = "original";
  o.seed = 9;
  return o;
}

RunConfig with_abft(RunConfig c, const std::string& policy) {
  c.abft_policy = policy;
  return c;
}

class FloatCleanRuns
    : public ::testing::TestWithParam<predict::Factorization> {};

TEST_P(FloatCleanRuns, ResidualAtSinglePrecisionScale) {
  const Decomposer dec;
  const RunReport r = dec.run(float_opts(GetParam()));
  EXPECT_TRUE(r.numeric_executed);
  EXPECT_TRUE(r.numeric_correct);
  EXPECT_LT(r.residual, 1e-3);   // float roundoff scale
  EXPECT_GT(r.residual, 1e-10);  // and definitely not double precision
}

INSTANTIATE_TEST_SUITE_P(AllFactorizations, FloatCleanRuns,
                         ::testing::Values(predict::Factorization::Cholesky,
                                           predict::Factorization::LU,
                                           predict::Factorization::QR));

TEST(FloatNumeric, TransferBytesHalveVsDouble) {
  // elem_bytes feeds the workload model: single precision halves the panel
  // traffic, which (slightly) widens CPU-side slack as in paper Fig. 2.
  const Decomposer dec;
  RunConfig o = float_opts(predict::Factorization::LU);
  o.mode = ExecutionMode::TimingOnly;
  o.n = 30720;
  o.b = 512;
  const RunReport sp = dec.run(o);
  o.elem_bytes = 8;
  const RunReport dp = dec.run(o);
  EXPECT_LT(sp.trace.iterations[2].transfer, dp.trace.iterations[2].transfer);
  EXPECT_GT(sp.trace.iterations[2].slack, dp.trace.iterations[2].slack);
}

TEST(FloatNumeric, InjectionAndFullAbftRepairInFloat) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig o = float_opts(predict::Factorization::LU);
  o.n = 1024;
  o.strategy = "bsr";
  o.reclamation_ratio = 0.25;
  o.fc_desired = 0.999;
  o.error_rate_multiplier = 100.0;
  o.seed = 5;
  const RunReport none = dec.run(with_abft(o, "none"));
  EXPECT_GT(none.abft.errors_injected_total(), 0);
  EXPECT_FALSE(none.numeric_correct);
  const RunReport full = dec.run(with_abft(o, "full"));
  EXPECT_TRUE(full.numeric_correct) << "residual=" << full.residual;
}

}  // namespace
}  // namespace bsr::core
