#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig numeric_opts(predict::Factorization f, const std::string& s,
                       std::int64_t n = 256, std::int64_t b = 32) {
  RunConfig o;
  o.factorization = f;
  o.n = n;
  o.b = b;
  o.strategy = s;
  o.mode = ExecutionMode::Numeric;
  o.seed = 5;
  return o;
}

/// Fault-injection experiments run on the numeric_demo platform (paper-scale
/// op durations at reduced n, see PlatformProfile::numeric_demo) with a BSR
/// reclamation ratio that overclocks the late iterations into SDC territory.
RunConfig injection_opts(predict::Factorization f, std::int64_t n = 1024,
                         std::int64_t b = 32) {
  RunConfig o = numeric_opts(f, "bsr", n, b);
  o.reclamation_ratio = 0.25;
  o.fc_desired = 0.999;
  o.error_rate_multiplier = 100.0;
  return o;
}

RunConfig with_abft(RunConfig c, const std::string& policy) {
  c.abft_policy = policy;
  return c;
}

class NumericCleanRuns
    : public ::testing::TestWithParam<std::pair<predict::Factorization,
                                                const char*>> {};

TEST_P(NumericCleanRuns, ResidualTinyWithoutOverclock) {
  const auto [fact, strat] = GetParam();
  const Decomposer dec;
  RunConfig o = numeric_opts(fact, strat);
  o.reclamation_ratio = 0.0;  // no overclocking, no SDCs
  const RunReport r = dec.run(o);
  EXPECT_TRUE(r.numeric_executed);
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_TRUE(r.numeric_correct);
  EXPECT_EQ(r.abft.errors_injected_total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NumericCleanRuns,
    ::testing::Values(
        std::pair{predict::Factorization::Cholesky, "original"},
        std::pair{predict::Factorization::LU, "original"},
        std::pair{predict::Factorization::QR, "original"},
        std::pair{predict::Factorization::Cholesky, "bsr"},
        std::pair{predict::Factorization::LU, "sr"},
        std::pair{predict::Factorization::QR, "bsr"}));

TEST(Numeric, InjectionWithoutFtCorruptsResult) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig o = injection_opts(predict::Factorization::LU);
  const RunReport r = dec.run(with_abft(o, "none"));
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_FALSE(r.numeric_correct);
  EXPECT_GT(r.residual, 1e-3);
}

TEST(Numeric, FullAbftRepairsInjectedErrors) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig o = injection_opts(predict::Factorization::LU);
  const RunReport r = dec.run(with_abft(o, "full"));
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_GT(r.abft.corrected_0d + r.abft.corrected_1d, 0);
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
}

TEST(Numeric, AdaptiveAbftAlsoRepairs) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig o = injection_opts(predict::Factorization::LU);
  const RunReport r = dec.run(o);
  EXPECT_GT(r.abft.errors_injected_total(), 0);
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
  // The staircase: most iterations unprotected, the overclocked tail covered.
  EXPECT_GT(r.abft.iterations_unprotected, 0);
  EXPECT_GT(r.abft.iterations_protected_single + r.abft.iterations_protected_full,
            0);
}

TEST(Numeric, AdaptiveOverclocksIntoSdcTerritory) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig o = injection_opts(predict::Factorization::LU);
  const RunReport r = dec.run(o);
  const hw::Mhz ff = dec.platform().gpu.fault_free_max();
  int overclocked = 0;
  for (const auto& it : r.trace.iterations) {
    if (it.gpu_freq > ff) ++overclocked;
  }
  EXPECT_GT(overclocked, 0);
}

TEST(Numeric, CholeskyWithInjectionAndFullAbft) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig o = injection_opts(predict::Factorization::Cholesky, 512, 32);
  o.error_rate_multiplier = 300.0;
  const RunReport r = dec.run(with_abft(o, "full"));
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
}

TEST(Numeric, QrWithInjectionAndFullAbft) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig o = injection_opts(predict::Factorization::QR, 512, 32);
  o.error_rate_multiplier = 300.0;
  const RunReport r = dec.run(with_abft(o, "full"));
  EXPECT_TRUE(r.numeric_correct) << "residual=" << r.residual;
}

TEST(Numeric, StatsCountProtectedIterations) {
  const Decomposer dec;
  RunConfig o = numeric_opts(predict::Factorization::LU, "bsr");
  const RunReport forced = dec.run(with_abft(o, "single"));
  EXPECT_EQ(forced.abft.iterations_protected_single,
            static_cast<int>(forced.trace.iterations.size()));
  EXPECT_EQ(forced.abft.iterations_protected_full, 0);
}

TEST(Numeric, DeterministicInjectionPerSeed) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const RunConfig o = injection_opts(predict::Factorization::LU);
  const RunReport a = dec.run(with_abft(o, "none"));
  const RunReport b = dec.run(with_abft(o, "none"));
  EXPECT_EQ(a.abft.errors_injected_total(), b.abft.errors_injected_total());
  EXPECT_DOUBLE_EQ(a.residual, b.residual);
}

}  // namespace
}  // namespace bsr::core
