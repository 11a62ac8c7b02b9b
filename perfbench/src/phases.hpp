// The benchmark's three phases. Each runs unit by unit — a numeric run, a
// sweep pass, a daemon epoch — so the driver can interleave them; times
// every call from outside; checks every output; and reduces what it saw to
// end-to-end metrics. In the traced run each phase also replays its layers'
// public calls one by one to report per-layer metrics.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bsr/run_config.hpp"

namespace perfbench {

/// One phase, driven one unit at a time.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Runs one unit of the phase's work.
  virtual void step() = 0;
  /// True once the phase has run every kind of unit its metrics need.
  [[nodiscard]] virtual bool ready() const = 0;
  /// The phase's headline rate (the traced run compares it with and
  /// without spans).
  [[nodiscard]] virtual double headline() const = 0;
};

// -- numeric ABFT: fig09's world on LU, Cholesky and QR ----------------------

struct NumericPhase {
  /// Wall seconds of each bsr::run, per factorization (LU, Cholesky, QR).
  std::array<Samples, 3> run_s;
  /// The same, per factorization and fig09 scheme.
  std::array<std::map<std::string, Samples>, 3> scheme_run_s;
  /// Per fig09 scheme: runs that reported numeric_correct, and runs.
  std::map<std::string, std::array<int, 2>> correct_by_scheme;
  std::int64_t injected = 0;
  std::int64_t corrected = 0;
  std::int64_t uncorrectable = 0;
  std::int64_t recoveries = 0;
  int runs = 0;
  /// Runs per second of factorization `f`'s scheme mix: one over the mean,
  /// across its schemes, of each scheme's median run time.
  [[nodiscard]] double rate(std::size_t f) const;
};

/// Cycles through rounds of fig09 cells, one bsr::run per step.
class NumericRun final : public Phase {
 public:
  explicit NumericRun(Context& ctx) : ctx_(ctx) {}
  void step() override;
  [[nodiscard]] bool ready() const override;
  [[nodiscard]] double headline() const override;
  /// Re-runs one cell per factorization with its seed (the bytes must
  /// match), then hands back everything measured.
  NumericPhase finish();

 private:
  Context& ctx_;
  std::size_t next_ = 0;  ///< cells run so far, across rounds
  NumericPhase p_;
  std::vector<std::pair<bsr::RunConfig, std::string>> repeats_;
};

void numeric_end_to_end(const NumericPhase& p, Results& out);
void numeric_layers(Context& ctx, const NumericPhase& p, Results& out);

// -- simulator sweeps: paper grid + fault campaign, and rack scale-out -------

struct SimPhase {
  Samples paper_rate;  ///< unique cells per second, one sample per pass
  Samples rack_rate;
  Samples paper_wall_s;  ///< Sweep::run wall of the paper grid, per pass
  Samples rack_wall_s;
  Samples campaign_s;  ///< FaultCampaign::run wall, per pass
  std::size_t paper_requested = 0;
  std::size_t paper_unique = 0;
  int passes = 0;
  /// The last pass's cells, kept for the traced run's serial replay.
  std::vector<bsr::RunConfig> paper_cells;
  std::vector<bsr::RunConfig> rack_cells;
};

/// One paper pass (grid + campaign) and one rack pass per step.
class SimRun final : public Phase {
 public:
  explicit SimRun(Context& ctx) : ctx_(ctx) {}
  void step() override;
  [[nodiscard]] bool ready() const override { return p_.passes > 0; }
  [[nodiscard]] double headline() const override {
    return p_.paper_rate.median();
  }
  SimPhase finish() { return std::move(p_); }

 private:
  Context& ctx_;
  SimPhase p_;
};

void sim_end_to_end(const SimPhase& p, Results& out);
void sim_layers(Context& ctx, const SimPhase& p, Results& out);

// -- the result daemon: cold, restart and memory tiers -----------------------

/// One request line and the report bytes its reply carried, kept for the
/// byte-identity check and the traced run's stage replay.
struct ServeSample {
  std::string request;
  std::string report;
};

struct ServePhase {
  Samples executed_ms;  ///< client latency by the tier the daemon reported
  Samples store_ms;
  Samples memory_ms;
  Samples rps;  ///< run requests per second, one sample per epoch
  std::uint64_t runs_sent = 0;
  std::uint64_t stats_sent = 0;
  // Server::stats() and store counters, summed over every server.
  std::uint64_t executed = 0;
  std::uint64_t memory_hits = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t store_rejected = 0;
  int epochs = 0;
  /// Executed requests of the last epoch (kept for the traced run's replay).
  std::vector<ServeSample> executed_samples;
};

/// One daemon epoch (cold server, then restarted server) per step.
class ServeRun final : public Phase {
 public:
  explicit ServeRun(Context& ctx) : ctx_(ctx) {}
  void step() override;
  [[nodiscard]] bool ready() const override { return p_.epochs > 0; }
  [[nodiscard]] double headline() const override { return p_.rps.median(); }
  ServePhase finish() { return std::move(p_); }

 private:
  Context& ctx_;
  ServePhase p_;
};

void serve_end_to_end(const ServePhase& p, Results& out);
/// The closed-loop request rate, the memory tier's median and every tier's
/// p99 latency: recorded with every untraced run but not end-to-end
/// metrics, because on a shared VM they spread across runs beyond any bound
/// a gate could use (perfbench/README.md gives the measured spreads).
void serve_ungated(const ServePhase& p, Results& out);
void serve_layers(Context& ctx, const ServePhase& p, Results& out);

}  // namespace perfbench
