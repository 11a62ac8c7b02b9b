// Public facade: run {Cholesky, LU, QR} under an energy-saving strategy on the
// simulated CPU-GPU platform, optionally executing the real numerics with real
// ABFT protection and fault injection.
//
// Quickstart (see include/bsr/bsr.hpp):
//   bsr::RunConfig cfg;                              // paper defaults
//   cfg.factorization = bsr::Factorization::LU;
//   cfg.strategy = "bsr";                            // registry key
//   cfg.reclamation_ratio = 0.0;                     // max energy saving
//   auto report = bsr::run(cfg);
//   std::cout << report.total_energy_j() << " J\n";
#pragma once

#include "bsr/run_config.hpp"
#include "core/report.hpp"
#include "hw/platform.hpp"

namespace bsr::core {

class Decomposer {
 public:
  explicit Decomposer(
      hw::PlatformProfile platform = hw::PlatformProfile::paper_default());

  [[nodiscard]] const hw::PlatformProfile& platform() const { return platform_; }

  /// Runs one factorization under a validated RunConfig; the strategy and
  /// ABFT policy are resolved through the bsr:: registries, so registry-only
  /// strategies work here. The config's `platform` key is ignored — this
  /// Decomposer's platform is used (bsr::run(cfg) resolves the key).
  [[nodiscard]] RunReport run(const RunConfig& cfg) const;

 private:
  hw::PlatformProfile platform_;
};

std::string summarize(const RunReport& r);

}  // namespace bsr::core
