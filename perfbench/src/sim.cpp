// sim_sweep: timing-only grids on the shared pool, each pass on a fresh
// Sweep with a cold cache. The paper grid's cells take tens of microseconds,
// so sweep, fingerprint and strategy overhead show; rack cells take up to a
// few milliseconds and are bound by the cluster event engine.
#include <algorithm>
#include <string>
#include <vector>

#include "bsr/bsr.hpp"
#include "common/thread_pool.hpp"
#include "phases.hpp"
#include "serve/report_json.hpp"

namespace perfbench {
namespace {

constexpr int kPaperTrials = 2;
constexpr int kCampaignTrials = 8;
constexpr int kRackTrials = 2;
const std::vector<std::string> kStrategies = {"original", "r2h", "sr", "bsr"};
const std::vector<int> kDevices = {1, 2, 4, 8, 16, 32, 64};

bsr::Sweep paper_sweep(std::uint64_t root) {
  bsr::RunConfig base;
  base.variability = bsr::make_variability("hostile");
  bsr::Sweep sweep(base);
  sweep.over(bsr::strategy_axis(kStrategies))
      .over(bsr::factorization_axis({bsr::Factorization::Cholesky,
                                     bsr::Factorization::LU,
                                     bsr::Factorization::QR}))
      .over(bsr::size_axis({4096, 8192, 16384, 30720}))
      .over(bsr::trial_axis(kPaperTrials, root));
  return sweep;
}

bsr::FaultCampaign poisson_campaign(std::uint64_t root) {
  bsr::RunConfig base;
  base.n = 8192;
  base.seed = root;
  base.faults = bsr::make_faults("poisson");
  bsr::FaultCampaign campaign(base, kCampaignTrials);
  campaign.over(bsr::strategy_axis({"original", "bsr"}))
      .over(bsr::factorization_axis({bsr::Factorization::LU}));
  return campaign;
}

bsr::Sweep rack_sweep(std::uint64_t root) {
  bsr::RunConfig base;
  base.n = 4096;
  base.cluster = "rack_8x8";
  bsr::Axis devices{"devices", {}};
  for (const int d : kDevices) {
    devices.points.push_back(
        {std::to_string(d), [d](bsr::RunConfig& c) { c.devices = d; }});
  }
  bsr::Sweep sweep(base);
  sweep.over(devices)
      .over(bsr::strategy_axis({"original", "bsr"}))
      .over(bsr::trial_axis(kRackTrials, root));
  return sweep;
}

/// Every row has a report; every `stride`-th row must match a one-thread
/// Sweep of the same cell byte for byte.
void check_rows(Context& ctx, const bsr::SweepResult& result,
                std::size_t stride, const char* grid) {
  for (const bsr::SweepRow& row : result.rows) {
    if (!row.report) {
      ctx.tally.fail(std::string("sim: ") + grid + " row without a report");
      continue;
    }
    if (row.index % stride != 0) continue;
    bsr::SweepResult serial = bsr::Sweep(row.config).threads(1).run();
    ctx.tally.check(serial.rows.size() == 1 && serial.rows[0].report &&
                        bsr::serve::serialize_report(*serial.rows[0].report) ==
                            bsr::serve::serialize_report(*row.report),
                    std::string("sim: ") + grid +
                        " row differs from its one-thread run");
  }
  ctx.tally.ok(result.rows.size());
}

std::vector<bsr::RunConfig> configs_of(const bsr::SweepResult& result) {
  std::vector<bsr::RunConfig> out;
  out.reserve(result.rows.size());
  for (const bsr::SweepRow& row : result.rows) out.push_back(row.config);
  return out;
}

}  // namespace

void SimRun::step() {
  const std::uint64_t root =
      bsr::derive_cell_seed(ctx_.seed, static_cast<std::uint64_t>(p_.passes));
  try {
    // Paper grid plus its fault-campaign slice.
    bsr::Sweep paper = paper_sweep(root);
    bsr::FaultCampaign campaign = poisson_campaign(root);
    const Clock::time_point a = Clock::now();
    bsr::SweepResult grid;
    {
      Tracer::Scope span(ctx_.tracer, "core.sweep.paper", root);
      grid = paper.run();
    }
    const Clock::time_point b = Clock::now();
    bsr::CampaignResult camp;
    {
      Tracer::Scope span(ctx_.tracer, "faultcamp.run", root);
      camp = campaign.run();
    }
    const Clock::time_point c = Clock::now();
    p_.paper_rate.add(static_cast<double>(grid.unique_runs + camp.unique_runs) /
                     seconds_between(a, c));
    p_.paper_wall_s.add(seconds_between(a, b));
    p_.campaign_s.add(seconds_between(b, c));
    p_.paper_requested += grid.requested_runs;
    p_.paper_unique += grid.unique_runs;

    // Rack scale-out grid.
    bsr::Sweep rack = rack_sweep(root);
    const Clock::time_point d = Clock::now();
    bsr::SweepResult rgrid;
    {
      Tracer::Scope span(ctx_.tracer, "core.sweep.rack", root);
      rgrid = rack.run();
    }
    const double rack_s = seconds_since(d);
    p_.rack_rate.add(static_cast<double>(rgrid.unique_runs) / rack_s);
    p_.rack_wall_s.add(rack_s);

    ctx_.tally.check(camp.cells.size() == 2 && camp.unique_runs > 0,
                    "sim: fault campaign returned no cells");
    if (p_.passes == 0) {
      check_rows(ctx_, grid, 23, "paper");
      check_rows(ctx_, rgrid, 5, "rack");
    } else {
      ctx_.tally.ok(grid.rows.size() + rgrid.rows.size());
    }
    p_.paper_cells = configs_of(grid);
    p_.rack_cells = configs_of(rgrid);
  } catch (const std::exception& e) {
    ctx_.tally.fail(std::string("sim: pass threw: ") + e.what());
  }
  ++p_.passes;
}

void sim_end_to_end(const SimPhase& p, Results& out) {
  put(out, "paper_cells_per_s", p.paper_rate.median(), "1/s",
      p.paper_rate.size(), "median over passes");
  put(out, "rack_cells_per_s", p.rack_rate.median(), "1/s",
      p.rack_rate.size(), "median over passes");
}

void sim_layers(Context& ctx, const SimPhase& p, Results& out) {
  Tracer& tr = ctx.tracer;
  const double width = static_cast<double>(
      std::max<std::size_t>(1, bsr::ThreadPool::shared().size()));

  // Serial replay of the last paper pass: one bsr::run per cell.
  std::map<std::string, Samples> by_strategy;
  Samples fingerprint_us;
  double paper_serial_s = 0.0;
  for (std::size_t i = 0; i < p.paper_cells.size(); ++i) {
    const bsr::RunConfig& cfg = p.paper_cells[i];
    const Clock::time_point f0 = Clock::now();
    const std::string fp = cfg.fingerprint();
    const Clock::time_point f1 = Clock::now();
    tr.add("core.fingerprint", f0, f1, i);
    fingerprint_us.add(seconds_between(f0, f1) * 1e6);
    const Clock::time_point r0 = Clock::now();
    {
      Tracer::Scope span(tr, "core.run_single." + cfg.strategy, i);
      (void)bsr::run(cfg);
    }
    const double s = seconds_since(r0);
    paper_serial_s += s;
    by_strategy[cfg.strategy].add(s * 1e6);
    ctx.tally.check(!fp.empty(), "sim: empty fingerprint");
  }
  for (const std::string& k : kStrategies) {
    const Samples& s = by_strategy[k];
    put(out, "core.run_single." + k + ".us", s.median(), "us", s.size(),
        "median");
  }
  put(out, "core.fingerprint.us", fingerprint_us.median(), "us",
      fingerprint_us.size(), "median");

  // Serial replay of the last rack pass, by device count.
  std::map<int, Samples> by_devices;
  double rack_serial_s = 0.0;
  for (std::size_t i = 0; i < p.rack_cells.size(); ++i) {
    const bsr::RunConfig& cfg = p.rack_cells[i];
    const Clock::time_point r0 = Clock::now();
    {
      Tracer::Scope span(tr, "cluster.run.d" + std::to_string(cfg.devices), i);
      (void)bsr::run(cfg);
    }
    const double s = seconds_since(r0);
    rack_serial_s += s;
    by_devices[cfg.devices].add(s * 1e6);
  }
  for (const int d : {1, 8, 64}) {
    const Samples& s = by_devices[d];
    put(out, "cluster.run.d" + std::to_string(d) + ".us", s.median(), "us",
        s.size(), "median");
  }

  // The engine's own spans for one 64-device run, counted through a
  // TraceRecorder (attached only here, never in the measured passes).
  for (const bsr::RunConfig& cfg : p.rack_cells) {
    if (cfg.devices != 64) continue;
    bsr::TraceRecorder recorder;
    bsr::RunConfig traced = cfg;
    traced.trace = &recorder;
    const Clock::time_point r0 = Clock::now();
    (void)bsr::run(traced);
    const double s = seconds_since(r0);
    put(out, "cluster.sim_spans", static_cast<double>(recorder.size()),
        "count", 1, "count");
    put(out, "cluster.spans_per_s", static_cast<double>(recorder.size()) / s,
        "1/s", 1, "rate");
    break;
  }

  // Sweep overhead: the part of the pool's capacity during the last pass
  // that did not go to running cells.
  const double paper_wall = p.paper_wall_s.median();
  const double rack_wall = p.rack_wall_s.median();
  put(out, "core.sweep.overhead_share.paper",
      paper_wall > 0.0 ? 1.0 - paper_serial_s / (width * paper_wall) : 0.0,
      "share", p.paper_wall_s.size(), "1 - serial cell time/(width x wall)");
  put(out, "core.sweep.overhead_share.rack",
      rack_wall > 0.0 ? 1.0 - rack_serial_s / (width * rack_wall) : 0.0,
      "share", p.rack_wall_s.size(), "1 - serial cell time/(width x wall)");
  put(out, "core.sweep.unique_share",
      p.paper_requested > 0 ? static_cast<double>(p.paper_unique) /
                                  static_cast<double>(p.paper_requested)
                            : 0.0,
      "share", static_cast<std::size_t>(p.passes), "unique/requested");
  put(out, "faultcamp.run.ms", p.campaign_s.median() * 1e3, "ms",
      p.campaign_s.size(), "median");
}

}  // namespace perfbench
