// serve_mix: an in-process serve::Server (2 workers) over a fresh
// DiskResultStore, driven by 2 closed-loop TCP clients — daemon callers are
// sweep drivers that each wait for their reply. One epoch is a cold phase
// (every config executed once and written to the store, mixed with repeats
// that hit memory) and a restart phase (a new Server over the same store
// directory, the same configs in a new order: store hits, then memory hits).
#include <algorithm>
#include <cstdio>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bsr/bsr.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "phases.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/report_json.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr int kClients = 2;
constexpr int kPoolSize = 1200;  ///< distinct configs per epoch
constexpr std::size_t kIdentityStride = 64;  ///< configs checked for bytes
constexpr std::size_t kReplaySamples = 256;

// The mix follows what the daemon's callers, the figure drivers, request:
// the default grids of the timing-only drivers that run a bsr::Sweep
// (fig02, fig10 to fig15) ask for 242 runs, cells and baselines, of 170
// distinct configs; 45 of those configs are cluster runs. perfbench/README.md
// gives the count per driver.
constexpr int kDriverRequests = 242;
constexpr int kDriverConfigs = 170;
constexpr int kDriverClusterConfigs = 45;
/// Repeats per distinct config (memory hits within a phase).
constexpr double kRepeatsPerConfig =
    static_cast<double>(kDriverRequests - kDriverConfigs) / kDriverConfigs;
/// Share of distinct configs that are compute-bound 8-device rack_8x8 runs.
constexpr double kRackShare =
    static_cast<double>(kDriverClusterConfigs) / kDriverConfigs;
/// Run requests followed by a stats op: no driver sends stats, so this is
/// bench_serve's default --stats-share.
constexpr double kStatsShare = 0.05;

const std::vector<std::string> kStrategies = {"original", "r2h", "sr", "bsr"};
constexpr bsr::Factorization kFacts[] = {bsr::Factorization::Cholesky,
                                         bsr::Factorization::LU,
                                         bsr::Factorization::QR};
/// Single-node sizes, weighted by the drivers' distinct single-node configs
/// at each size (fig15 at 4096, fig13's size axis, 30720 elsewhere).
constexpr std::pair<std::int64_t, int> kSizes[] = {
    {4096, 38},  {5120, 4},  {10240, 4}, {15360, 4},
    {20480, 4},  {25600, 4}, {30720, 67}};

std::int64_t draw_size(bsr::Rng& rng) {
  int total = 0;
  for (const auto& [n, weight] : kSizes) total += weight;
  auto pick = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(total)));
  for (const auto& [n, weight] : kSizes) {
    if (pick < weight) return n;
    pick -= weight;
  }
  return kSizes[0].first;
}

/// The epoch's request lines: glue-dominated single-node paper configs
/// mixed with compute-dominated 8-device rack_8x8 configs, all distinct.
std::vector<std::string> request_pool(std::uint64_t seed, int epoch) {
  bsr::Rng rng(bsr::derive_cell_seed(
      seed, 0xC0FFEEu + static_cast<std::uint64_t>(epoch)));
  std::vector<std::string> pool;
  pool.reserve(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    bsr::RunConfig cfg;
    if (rng.next_double() < kRackShare) {
      cfg.n = 4096;
      cfg.devices = 8;
      cfg.cluster = "rack_8x8";
      cfg.strategy = rng.next_double() < 0.5 ? "original" : "bsr";
    } else {
      cfg.strategy = kStrategies[rng.next_below(kStrategies.size())];
      cfg.factorization = kFacts[rng.next_below(3)];
      cfg.n = draw_size(rng);
    }
    cfg.seed = bsr::derive_cell_seed(
        seed, static_cast<std::uint64_t>(epoch) * kPoolSize +
                  static_cast<std::uint64_t>(i));
    bsr::JsonWriter w;
    w.obj_open();
    w.key("op").value("run");
    w.key("config").raw(bsr::serve::serialize_config(cfg));
    w.obj_close();
    pool.push_back(w.take());
  }
  return pool;
}

/// Every pool index once plus uniformly drawn repeats, shuffled.
std::vector<int> schedule(bsr::Rng& rng) {
  std::vector<int> s;
  const int repeats = static_cast<int>(kPoolSize * kRepeatsPerConfig);
  s.reserve(static_cast<std::size_t>(kPoolSize + repeats));
  for (int i = 0; i < kPoolSize; ++i) s.push_back(i);
  for (int i = 0; i < repeats; ++i) {
    s.push_back(static_cast<int>(rng.next_below(kPoolSize)));
  }
  for (std::size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng.next_below(i)]);
  }
  return s;
}

/// What the clients of one server observed.
struct Observed {
  std::mutex mutex;
  Samples executed_ms, store_ms, memory_ms;
  std::uint64_t runs = 0;
  std::uint64_t stats = 0;
  /// Pool index -> (source -> report bytes), for the sampled configs.
  std::map<int, std::map<std::string, std::string>> reports;
  std::vector<ServeSample> executed_samples;
};

constexpr const char* kReportKey = ",\"report\":";

/// The reply's fields before its report, parsed. The client reads only
/// these: parsing every report would load the closed loop's CPUs as much as
/// the daemon's own work. Report bytes are checked verbatim instead.
bsr::JsonValue reply_header(const std::string& reply) {
  const std::size_t at = reply.find(kReportKey);
  return bsr::JsonValue::parse(at == std::string::npos
                                   ? reply
                                   : reply.substr(0, at) + "}");
}

/// The reply's report object, byte for byte; empty if it has none.
std::string report_bytes(const std::string& reply) {
  const std::size_t at = reply.find(kReportKey);
  if (at == std::string::npos || reply.back() != '}') return {};
  const std::size_t from = at + std::char_traits<char>::length(kReportKey);
  return reply.substr(from, reply.size() - 1 - from);
}

void client_loop(Context& ctx, std::uint16_t port,
                 const std::vector<std::string>& pool,
                 const std::vector<int>& order, std::atomic<std::size_t>& next,
                 std::uint64_t seed, Observed& seen) {
  try {
    bsr::serve::Client client = bsr::serve::Client::connect_tcp(port);
    bsr::Rng rng(seed);
    Samples executed, store, memory;
    std::uint64_t runs = 0;
    std::uint64_t stats = 0;
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= order.size()) break;
      const int idx = order[k];
      const std::string& line = pool[static_cast<std::size_t>(idx)];
      const Clock::time_point t0 = Clock::now();
      const std::string reply = client.call_raw(line);
      const Clock::time_point t1 = Clock::now();
      ++runs;
      const bsr::JsonValue v = reply_header(reply);
      if (!v.at("ok").as_bool()) {
        ctx.tally.fail("serve: run reply not ok: " + reply.substr(0, 200));
        continue;
      }
      const std::string source = v.at("source").as_string();
      const double ms = seconds_between(t0, t1) * 1e3;
      if (ctx.tracer.enabled()) {
        ctx.tracer.add("serve.request." + source, t0, t1, k);
      }
      if (source == "executed") {
        executed.add(ms);
      } else if (source == "store") {
        store.add(ms);
      } else if (source == "memory") {
        memory.add(ms);
      } else if (source != "coalesced") {
        ctx.tally.fail("serve: unknown source " + source);
        continue;
      }
      ctx.tally.ok();
      const bool sampled = static_cast<std::size_t>(idx) % kIdentityStride == 0;
      if (sampled || source == "executed") {
        std::string bytes = report_bytes(reply);
        std::lock_guard<std::mutex> lock(seen.mutex);
        if (source == "executed" &&
            seen.executed_samples.size() < kReplaySamples) {
          seen.executed_samples.push_back({line, bytes});
        }
        if (sampled) seen.reports[idx][source] = std::move(bytes);
      }
      if (rng.next_double() < kStatsShare) {
        ctx.tally.check(client.stats().at("ok").as_bool(),
                        "serve: stats op not ok");
        ++stats;
      }
    }
    std::lock_guard<std::mutex> lock(seen.mutex);
    seen.executed_ms.append(executed);
    seen.store_ms.append(store);
    seen.memory_ms.append(memory);
    seen.runs += runs;
    seen.stats += stats;
  } catch (const std::exception& e) {
    ctx.tally.fail(std::string("serve: client threw: ") + e.what());
  }
}

/// Starts a server over `store_dir`, drives `order` through it with the
/// closed-loop clients, checks its counters, and stops it. Returns the
/// client loop's wall seconds.
double drive(Context& ctx, const std::string& store_dir,
             const std::vector<std::string>& pool,
             const std::vector<int>& order,
             std::uint64_t seed, Observed& seen, ServePhase& p) {
  bsr::serve::ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.workers = kWorkers;
  scfg.store_dir = store_dir;
  if (ctx.tracer.enabled()) {
    Tracer& tracer = ctx.tracer;
    scfg.runner = [&tracer](const bsr::RunConfig& cfg) {
      Tracer::Scope span(tracer, "serve.worker.run");
      return bsr::run(cfg);
    };
  }
  bsr::serve::Server server(std::move(scfg));
  server.start();
  const std::uint64_t runs_before = seen.runs;
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(client_loop, std::ref(ctx), server.port(),
                         std::cref(pool), std::cref(order), std::ref(next),
                         bsr::derive_cell_seed(
                             seed, static_cast<std::uint64_t>(c)),
                         std::ref(seen));
  }
  for (std::thread& t : clients) t.join();
  const double wall = seconds_since(t0);
  const bsr::serve::ServeStats st = server.stats();
  const bsr::serve::StoreStats ss = server.store_stats();
  server.stop();

  const std::uint64_t sent = seen.runs - runs_before;
  ctx.tally.check(st.runs == sent && st.memory_hits + st.coalesced +
                                             st.store_hits + st.executed ==
                                         sent,
                  "serve: Server::stats() tiers do not sum to the runs sent");
  p.executed += st.executed;
  p.memory_hits += st.memory_hits;
  p.store_hits += st.store_hits;
  p.coalesced += st.coalesced;
  p.overloaded += st.overloaded;
  p.bad_requests += st.bad_requests;
  p.store_rejected += ss.rejected;
  return wall;
}

}  // namespace

void ServeRun::step() {
  const std::string dir = ctx_.out_dir + "/store-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(p_.epochs);
  std::filesystem::remove_all(dir);
  try {
    const std::vector<std::string> pool = request_pool(ctx_.seed, p_.epochs);
    bsr::Rng rng(bsr::derive_cell_seed(
        ctx_.seed, 0x5E4Eu + static_cast<std::uint64_t>(p_.epochs)));
    const std::vector<int> cold = schedule(rng);
    const std::vector<int> restart = schedule(rng);
    Observed seen;
    const double wall =
        drive(ctx_, dir, pool, cold, rng.next_u64(), seen, p_) +
        drive(ctx_, dir, pool, restart, rng.next_u64(), seen, p_);
    p_.rps.add(static_cast<double>(seen.runs) / wall);
    p_.runs_sent += seen.runs;
    p_.stats_sent += seen.stats;
    p_.executed_ms.append(seen.executed_ms);
    p_.store_ms.append(seen.store_ms);
    p_.memory_ms.append(seen.memory_ms);

    // One fingerprint, one report: whichever tier answered, the bytes
    // must be identical.
    for (const auto& [idx, by_source] : seen.reports) {
      bool same = !by_source.empty();
      for (const auto& [source, bytes] : by_source) {
        same = same && !bytes.empty() && bytes == by_source.begin()->second;
      }
      ctx_.tally.check(same, "serve: report bytes differ between tiers for "
                            "pool config " + std::to_string(idx));
    }
    p_.executed_samples = std::move(seen.executed_samples);
  } catch (const std::exception& e) {
    ctx_.tally.fail(std::string("serve: epoch threw: ") + e.what());
  }
  std::filesystem::remove_all(dir);
  ++p_.epochs;
}

void serve_end_to_end(const ServePhase& p, Results& out) {
  put(out, "executed_p50_ms", p.executed_ms.median(), "ms",
      p.executed_ms.size(), "median");
  put(out, "store_hit_p50_ms", p.store_ms.median(), "ms", p.store_ms.size(),
      "median");
}

void serve_ungated(const ServePhase& p, Results& out) {
  put(out, "serve_rps", p.rps.median(), "1/s", p.rps.size(),
      "median over epochs");
  put(out, "memory_hit_p50_ms", p.memory_ms.median(), "ms",
      p.memory_ms.size(), "median");
  const std::pair<const char*, const Samples*> tiers[] = {
      {"executed_p99_ms", &p.executed_ms},
      {"store_hit_p99_ms", &p.store_ms},
      {"memory_hit_p99_ms", &p.memory_ms}};
  for (const auto& [name, samples] : tiers) {
    // p99, or the highest percentile with at least 10 samples beyond it.
    const double n = static_cast<double>(samples->size());
    const double rank = std::clamp(1.0 - 10.0 / n, 0.0, 0.99);
    char stat[32];
    std::snprintf(stat, sizeof stat, "p%.4g", rank * 100.0);
    put(out, name, samples->percentile(rank), "ms", samples->size(), stat);
  }
}

void serve_layers(Context& ctx, const ServePhase& p, Results& out) {
  Tracer& tr = ctx.tracer;
  Samples parse_us, config_us, fp_us, run_us, ser_us, deser_us, save_us,
      load_us;
  double json_bytes = 0.0;
  double json_s = 0.0;
  const std::string dir =
      ctx.out_dir + "/replay-store-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  try {
    bsr::serve::DiskResultStore store(dir);
    std::uint64_t id = 0;
    for (const ServeSample& s : p.executed_samples) {
      ++id;
      auto timed = [&](const char* name, Samples& into, auto&& fn) {
        const Clock::time_point t0 = Clock::now();
        auto result = fn();
        const Clock::time_point t1 = Clock::now();
        tr.add(name, t0, t1, id);
        into.add(seconds_between(t0, t1) * 1e6);
        return result;
      };
      const bsr::serve::Request req = timed(
          "serve.parse_request", parse_us,
          [&] { return bsr::serve::parse_request(s.request); });
      const bsr::RunConfig cfg =
          timed("serve.config_from_json", config_us, [&] {
            return bsr::serve::config_from_json(req.body.at("config"));
          });
      const std::string fp =
          timed("core.fingerprint", fp_us, [&] { return cfg.fingerprint(); });
      (void)timed("core.run_single", run_us, [&] { return bsr::run(cfg); });
      const bsr::RunReport report =
          timed("serve.deserialize_report", deser_us,
                [&] { return bsr::serve::deserialize_report(s.report); });
      const std::string again = timed("serve.serialize_report", ser_us, [&] {
        return bsr::serve::serialize_report(report);
      });
      ctx.tally.check(again == s.report,
                      "serve replay: report did not round-trip byte for byte");
      const Clock::time_point j0 = Clock::now();
      const bsr::JsonValue parsed = bsr::JsonValue::parse(s.report);
      const Clock::time_point j1 = Clock::now();
      tr.add("common.json.parse", j0, j1, id);
      json_bytes += static_cast<double>(s.report.size());
      json_s += seconds_between(j0, j1);
      (void)timed("serve.store.save", save_us, [&] {
        store.save_serialized(fp, s.report);
        return 0;
      });
      const auto loaded = timed("serve.store.load", load_us,
                                [&] { return store.load_serialized(fp); });
      ctx.tally.check(parsed.is_object() && loaded && *loaded == s.report,
                      "serve replay: store did not return the saved bytes");
    }
  } catch (const std::exception& e) {
    ctx.tally.fail(std::string("serve replay threw: ") + e.what());
  }
  std::filesystem::remove_all(dir);

  const std::size_t n = p.executed_samples.size();
  put(out, "serve.parse_request.us", parse_us.median(), "us", n, "median");
  put(out, "serve.config_from_json.us", config_us.median(), "us", n, "median");
  put(out, "serve.serialize_report.us", ser_us.median(), "us", n, "median");
  put(out, "serve.deserialize_report.us", deser_us.median(), "us", n,
      "median");
  put(out, "common.json.parse.MBps",
      json_s > 0.0 ? json_bytes / json_s / 1e6 : 0.0, "MB/s", n,
      "bytes/time");
  put(out, "serve.store.save.us", save_us.median(), "us", n, "median");
  put(out, "serve.store.load.us", load_us.median(), "us", n, "median");
  put(out, "serve.store_hit_share",
      p.runs_sent > 0 ? static_cast<double>(p.store_hits) /
                            static_cast<double>(p.runs_sent)
                      : 0.0,
      "share", static_cast<std::size_t>(p.runs_sent), "store hits/runs");
  put(out, "serve.store.corrupt", static_cast<double>(p.store_rejected),
      "count", static_cast<std::size_t>(p.epochs), "total");
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"serve.executed", p.executed},
      {"serve.memory_hits", p.memory_hits},
      {"serve.store_hits", p.store_hits},
      {"serve.coalesced", p.coalesced},
      {"serve.overloaded", p.overloaded},
      {"serve.bad_requests", p.bad_requests}};
  for (const auto& [name, value] : counters) {
    put(out, name, static_cast<double>(value), "count",
        static_cast<std::size_t>(p.epochs), "total");
  }

  // Client latency not explained by the stages the replay timed: socket,
  // framing, queueing and the server's own bookkeeping.
  const double lookup = parse_us.median() + config_us.median() + fp_us.median();
  const double tiers[][2] = {
      {p.executed_ms.median() * 1e3,
       lookup + run_us.median() + ser_us.median() + save_us.median()},
      {p.store_ms.median() * 1e3,
       lookup + load_us.median() + deser_us.median()},
      {p.memory_ms.median() * 1e3, lookup}};
  const char* names[] = {"serve.client_overhead.executed.us",
                         "serve.client_overhead.store_hit.us",
                         "serve.client_overhead.memory_hit.us"};
  for (int i = 0; i < 3; ++i) {
    put(out, names[i], tiers[i][0] - tiers[i][1], "us", n,
        "client p50 - stage medians");
  }
}

}  // namespace perfbench
