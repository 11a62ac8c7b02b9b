// Recovery-by-recompute: when ABFT detects a pattern it cannot correct, the
// trailing update is rolled back and redone — the "recovery with high
// overhead" path the paper contrasts against sufficient checksum strength.
#include <gtest/gtest.h>

#include <string>

#include "core/decomposer.hpp"

namespace bsr::core {
namespace {

RunConfig injected_single(std::uint64_t seed) {
  RunConfig o;
  o.factorization = predict::Factorization::LU;
  o.n = 1024;
  o.b = 32;
  o.strategy = "bsr";
  o.reclamation_ratio = 0.25;
  o.fc_desired = 0.999;
  o.mode = ExecutionMode::Numeric;
  // The fig09 regime: BSR still overclocks, and 1D errors (uncorrectable
  // by single-side checksums) appear in a fraction of the seeds.
  o.error_rate_multiplier = 150.0;
  o.seed = seed;
  return o;
}

RunConfig with_abft(RunConfig c, const std::string& policy) {
  c.abft_policy = policy;
  return c;
}

/// Finds a seed where single-side ABFT hits an uncorrectable pattern; the
/// paper's whole point is that such runs exist at these rates.
std::uint64_t find_corrupting_seed(const Decomposer& dec) {
  for (std::uint64_t seed = 1; seed < 60; ++seed) {
    RunConfig o = injected_single(seed);
    const RunReport r = dec.run(with_abft(o, "single"));
    if (r.abft.uncorrectable > 0 && !r.numeric_correct) return seed;
  }
  return 0;
}

TEST(Recovery, RepairsRunsSingleSideAbftLosesAndChargesTime) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  const std::uint64_t seed = find_corrupting_seed(dec);
  ASSERT_NE(seed, 0u) << "no corrupting seed found — rates too low?";

  RunConfig o = injected_single(seed);
  const RunReport no_recovery =
      dec.run(with_abft(o, "single"));
  EXPECT_FALSE(no_recovery.numeric_correct);
  EXPECT_EQ(no_recovery.abft.recoveries, 0);
  EXPECT_EQ(no_recovery.recovery_time, SimTime::zero());

  o.recover_uncorrectable = true;
  const RunReport recovered =
      dec.run(with_abft(o, "single"));
  EXPECT_TRUE(recovered.numeric_correct) << "residual=" << recovered.residual;
  EXPECT_GT(recovered.abft.recoveries, 0);
  EXPECT_GT(recovered.recovery_time, SimTime::zero());
  EXPECT_GT(recovered.recovery_energy_j, 0.0);
  // Recovery costs show up in the aggregate metrics.
  EXPECT_GT(recovered.seconds(), no_recovery.seconds());
  EXPECT_GT(recovered.total_energy_j(), no_recovery.total_energy_j());
}

TEST(Recovery, NoOpWhenNothingUncorrectable) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  RunConfig o = injected_single(5);
  o.recover_uncorrectable = true;
  // Full ABFT corrects everything: recovery never triggers.
  const RunReport r = dec.run(with_abft(o, "full"));
  EXPECT_TRUE(r.numeric_correct);
  EXPECT_EQ(r.abft.recoveries, 0);
  EXPECT_EQ(r.recovery_time, SimTime::zero());
}

TEST(Recovery, WorksForCholeskyAndQr) {
  const Decomposer dec(hw::PlatformProfile::numeric_demo());
  for (auto f : {predict::Factorization::Cholesky, predict::Factorization::QR}) {
    bool saw_recovery = false;
    for (std::uint64_t seed = 1; seed < 40 && !saw_recovery; ++seed) {
      RunConfig o = injected_single(seed);
      o.factorization = f;
      o.n = 512;
      o.recover_uncorrectable = true;
      const RunReport r = dec.run(with_abft(o, "single"));
      if (r.abft.recoveries > 0) {
        saw_recovery = true;
        EXPECT_TRUE(r.numeric_correct)
            << predict::to_string(f) << " residual=" << r.residual;
      }
    }
    EXPECT_TRUE(saw_recovery) << predict::to_string(f);
  }
}

}  // namespace
}  // namespace bsr::core
