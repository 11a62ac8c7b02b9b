#include "core/report.hpp"

#include <sstream>

namespace bsr::core {

// (Reserved for heavier report formatting; the human-readable summary lives
// here so report.hpp stays header-light.)
std::string summarize(const RunReport& r) {
  std::ostringstream ss;
  ss << r.strategy_name << " " << to_string(r.config.factorization)
     << " n=" << r.config.n << " b=" << r.config.block() << ": " << r.seconds()
     << " s, " << r.total_energy_j() << " J (CPU " << r.cpu_energy_j()
     << " + GPU " << r.gpu_energy_j() << "), " << r.gflops() << " GFLOP/s";
  if (r.numeric_executed) {
    ss << ", residual=" << r.residual
       << (r.numeric_correct ? " [correct]" : " [CORRUPTED]");
  }
  return ss.str();
}

}  // namespace bsr::core
