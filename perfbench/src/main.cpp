// perfbench — the repo benchmark's driver binary (perfbench/run.py builds
// and runs it; see perfbench/README.md).
//
//   perfbench --workload <numeric_abft|sim_sweep|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Every workload runs the three phases — numeric ABFT runs, simulator
// sweeps and the result daemon — interleaved unit by unit, so every
// end-to-end metric is measured on every workload; the workload decides
// which phase gets half of the time. --trace 0 reports the end-to-end
// metrics; --trace 1 is the separate traced run that reports the per-layer
// metrics. Set-up is timed in fresh processes of this binary
// (--setup-probe <store dir>), started between the untraced run's units.
//
// Output: a provenance record (one JSON line, also written under
// --out-dir), then, as the last line, {"correct","attempted","failed",
// "metrics"}.
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bsr/bsr.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "phases.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace perfbench;

namespace {

/// Time share of the workload's own phase; the other two split the rest.
constexpr double kPrimaryShare = 0.5;
/// Set-up is timed in this many fresh processes; `setup_s` is the median.
constexpr int kSetupProbes = 15;

enum class PhaseId { Numeric, Sim, Serve };

const std::map<std::string, PhaseId> kWorkloads = {
    {"numeric_abft", PhaseId::Numeric},
    {"sim_sweep", PhaseId::Sim},
    {"serve_mix", PhaseId::Serve},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string setup_probe;  ///< store directory of a set-up probe process
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<numeric_abft|sim_sweep|serve_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage("unexpected argument " + a);
    a = a.substr(2);
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      usage("--" + a + " needs a value");
    }
  }
  Args args;
  try {
    for (const auto& [k, v] : kv) {
      std::size_t used = 0;
      if (k == "workload") {
        args.workload = v;
      } else if (k == "seed") {
        args.seed = std::stoull(v, &used);
      } else if (k == "seconds") {
        args.seconds = std::stod(v, &used);
      } else if (k == "trace") {
        args.trace = std::stoi(v, &used) != 0;
      } else if (k == "out-dir") {
        args.out_dir = v;
      } else if (k == "setup-probe") {
        args.setup_probe = v;
      } else {
        usage("unknown flag --" + k);
      }
      if (used != 0 && used != v.size()) usage("malformed --" + k);
    }
  } catch (const std::logic_error&) {
    usage("malformed flag value");
  }
  if (!args.setup_probe.empty()) return args;
  if (kWorkloads.count(args.workload) == 0) {
    usage("unknown workload \"" + args.workload + "\"");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// CPU time the hypervisor took from this VM so far, summed over CPUs
/// (the "steal" column of /proc/stat), in seconds; 0 where unavailable.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  const long hz = ::sysconf(_SC_CLK_TCK);
  return in && cpu == "cpu" && hz > 0 ? fields[7] / static_cast<double>(hz)
                                      : 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// What one set-up probe measured, in seconds.
struct SetupTimes {
  double pool = 0.0;       ///< starting the shared pool
  double first_run = 0.0;  ///< the first timing-only bsr::run
  double daemon = 0.0;     ///< start with store mount, first reply, stop
  [[nodiscard]] double total() const { return pool + first_run + daemon; }
};

/// The body of a set-up probe process: brings up, once and cold, what a
/// process pays for only once — the shared pool, the first bsr::run, and a
/// daemon that mounts a fresh store under `dir`, accepts a connection and
/// answers its first request (a stats op, so no per-request store write
/// lands in set-up), then stops — and prints the seconds of each. Exits
/// non-zero if the reply is not ok.
int setup_probe(const std::string& dir) {
  std::filesystem::remove_all(dir);
  SetupTimes t;
  Clock::time_point t0 = Clock::now();
  (void)bsr::ThreadPool::shared();
  t.pool = seconds_since(t0);
  t0 = Clock::now();
  (void)bsr::run(bsr::RunConfig{});
  t.first_run = seconds_since(t0);
  bool ok = false;
  t0 = Clock::now();
  {
    bsr::serve::ServerConfig scfg;
    scfg.workers = 2;
    scfg.store_dir = dir;
    bsr::serve::Server server(std::move(scfg));
    server.start();
    {
      bsr::serve::Client client =
          bsr::serve::Client::connect_tcp(server.port());
      ok = client.stats().at("ok").as_bool();
    }
    server.stop();
  }
  t.daemon = seconds_since(t0);
  std::filesystem::remove_all(dir);
  std::printf("%.9g %.9g %.9g\n", t.pool, t.first_run, t.daemon);
  return ok ? 0 : 1;
}

/// Runs one set-up probe in a fresh process (this binary, --setup-probe),
/// waits for it, and returns what it measured.
SetupTimes run_setup_probe(const std::string& dir) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("setup probe: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string self = "/proc/self/exe";
  std::string flag = "--setup-probe";
  std::string where = dir;
  char* argv[] = {self.data(), flag.data(), where.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t got = 0;
  while (spawned == 0 && (got = ::read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  if (spawned != 0) throw std::runtime_error("setup probe: spawn failed");
  int status = 0;
  ::waitpid(pid, &status, 0);
  SetupTimes t;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "%lf %lf %lf", &t.pool, &t.first_run,
                  &t.daemon) != 3) {
    throw std::runtime_error("setup probe failed: " + out);
  }
  return t;
}

/// The set-up probes of an untraced run. They are spread evenly over the
/// measured time like the phases' units, so they meet the same host as the
/// phases do rather than whatever state the run started in.
class SetupProbes {
 public:
  SetupProbes(std::string dir, Tally& tally)
      : dir_(std::move(dir)), tally_(tally) {}

  /// Runs every probe that is due once `progress` (0 to 1) of the measured
  /// time is spent.
  void run_due(double progress) {
    while (done_ < kSetupProbes && done_ <= progress * kSetupProbes) {
      ++done_;
      try {
        const SetupTimes t = run_setup_probe(dir_);
        total.add(t.total());
        pool.add(t.pool);
        first_run.add(t.first_run);
        daemon.add(t.daemon);
        tally_.ok();
      } catch (const std::exception& e) {
        tally_.fail(e.what());
      }
    }
  }

  Samples total, pool, first_run, daemon;

 private:
  std::string dir_;
  Tally& tally_;
  int done_ = 0;
};

/// The three phases of one run.
struct Runs {
  explicit Runs(Context& ctx) : numeric(ctx), sim(ctx), serve(ctx) {}
  Phase& get(PhaseId id) {
    switch (id) {
      case PhaseId::Numeric: return numeric;
      case PhaseId::Sim: return sim;
      case PhaseId::Serve: return serve;
    }
    return numeric;
  }
  NumericRun numeric;
  SimRun sim;
  ServeRun serve;
};

constexpr PhaseId kPhases[] = {PhaseId::Numeric, PhaseId::Sim, PhaseId::Serve};

double share(PhaseId phase, PhaseId primary) {
  return phase == primary ? kPrimaryShare : (1.0 - kPrimaryShare) / 2.0;
}

/// Interleaves the phases unit by unit, so each phase's measurements spread
/// over the whole run and a slow stretch of the host lands on all of them
/// alike: the next unit always goes to the phase furthest behind its share
/// of the time. Stops once `seconds` are spent and every phase is ready.
/// The set-up probes run between units as they fall due.
void interleave(Runs& runs, PhaseId primary, double seconds,
                SetupProbes& probes) {
  std::map<PhaseId, double> spent;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    probes.run_due(seconds_since(t0) / seconds);
    const bool time_up = seconds_since(t0) >= seconds;
    std::optional<PhaseId> next;
    double behind = 0.0;
    for (const PhaseId id : kPhases) {
      if (time_up && runs.get(id).ready()) continue;
      const double lag = share(id, primary) - spent[id] / seconds;
      if (!next || lag > behind) {
        behind = lag;
        next = id;
      }
    }
    if (!next) break;  // time is up and every phase is ready
    const Clock::time_point u0 = Clock::now();
    runs.get(*next).step();
    spent[*next] += seconds_since(u0);
  }
  probes.run_due(1.0);
}

/// Runs one phase on its own for `seconds`, and at least until it is ready.
void run_alone(Phase& phase, double seconds) {
  const Clock::time_point t0 = Clock::now();
  while (!phase.ready() || seconds_since(t0) < seconds) phase.step();
}

void write_metrics(bsr::JsonWriter& w, const char* key, const Results& metrics,
                   bool detail) {
  w.key(key).obj_open();
  for (const auto& [name, m] : metrics) {
    w.key(name).obj_open();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    if (detail) {
      w.key("samples").value(static_cast<std::int64_t>(m.samples));
      w.key("stat").value(m.stat);
    }
    w.obj_close();
  }
  w.obj_close();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.setup_probe.empty()) return setup_probe(args.setup_probe);
  const PhaseId primary = kWorkloads.at(args.workload);
  std::filesystem::create_directories(args.out_dir);

  Tracer untraced(false);
  Tally tally;
  Context ctx{args.seed, untraced, tally, args.out_dir};

  Results metrics;
  Results ungated;
  Runs runs(ctx);
  Tracer traced(args.trace);
  Context tctx{args.seed, traced, tally, args.out_dir};
  Runs traced_runs(tctx);
  Runs& measured = args.trace ? traced_runs : runs;
  std::string trace_path;
  const double steal0 = steal_seconds();
  const Clock::time_point measured0 = Clock::now();
  SetupProbes setup(args.out_dir + "/setup-store-" +
                        std::to_string(::getpid()),
                    tally);
  if (!args.trace) {
    interleave(runs, primary, args.seconds, setup);
  } else {
    // The workload's own phase alone, without spans and with them in the
    // order untraced, traced, traced, untraced, so warm-up and drift fall
    // on both sides and the difference is the tracing overhead; then the
    // other two phases with spans for their layers.
    const double half = args.seconds * share(primary, primary) / 2.0;
    run_alone(runs.get(primary), half);
    run_alone(traced_runs.get(primary), half);
    run_alone(traced_runs.get(primary), half);
    run_alone(runs.get(primary), half);
    for (const PhaseId id : kPhases) {
      if (id != primary) {
        run_alone(traced_runs.get(id), args.seconds * share(id, primary));
      }
    }
    const double plain = runs.get(primary).headline();
    const double with_spans = traced_runs.get(primary).headline();
    put(metrics, "obs.trace_overhead",
        with_spans > 0.0 ? plain / with_spans - 1.0 : 0.0, "share", 2,
        "untraced/traced headline - 1");
  }
  // Share of the VM's CPU capacity the hypervisor took while measuring: a
  // run with a large share ran on a host that was busy elsewhere.
  const double steal_share =
      (steal_seconds() - steal0) /
      (seconds_since(measured0) *
       std::max(1u, std::thread::hardware_concurrency()));
  const NumericPhase numeric = measured.numeric.finish();
  const SimPhase sim = measured.sim.finish();
  const ServePhase serve = measured.serve.finish();
  if (!args.trace) {
    put(metrics, "setup_s", setup.total.median(), "s", setup.total.size(),
        "median over fresh processes");
    numeric_end_to_end(numeric, metrics);
    sim_end_to_end(sim, metrics);
    serve_end_to_end(serve, metrics);
    serve_ungated(serve, ungated);
  } else {
    numeric_layers(tctx, numeric, metrics);
    sim_layers(tctx, sim, metrics);
    serve_layers(tctx, serve, metrics);
    put(metrics, "obs.spans", static_cast<double>(traced.size()), "count", 1,
        "count");
    trace_path = args.out_dir + "/trace-" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".json";
    try {
      traced.write_chrome_trace(trace_path);
    } catch (const std::exception& e) {
      tally.fail(e.what());
    }
  }

  const bsr::BuildInfo& build = bsr::build_info();
  bsr::JsonWriter rec;
  rec.obj_open();
  rec.key("workload").value(args.workload);
  rec.key("seed").value_u64(args.seed);
  rec.key("seconds").value(args.seconds);
  rec.key("trace").value(args.trace);
  rec.key("host").obj_open();
  rec.key("nproc").value(
      static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  rec.key("cpu_model").value(cpu_model());
  rec.key("steal_share").value(steal_share);
  rec.key("compiler").value(build.compiler);
  rec.key("build_info").obj_open();
  rec.key("version").value(build.version);
  rec.key("build_type").value(build.build_type);
  rec.key("flags").value(build.flags);
  rec.obj_close();
  rec.obj_close();
  rec.key("phases").obj_open();
  rec.key("numeric").obj_open();
  rec.key("runs").value(numeric.runs);
  rec.obj_close();
  rec.key("sim").obj_open();
  rec.key("passes").value(sim.passes);
  rec.obj_close();
  rec.key("serve").obj_open();
  rec.key("epochs").value(serve.epochs);
  rec.key("runs_sent").value(static_cast<std::int64_t>(serve.runs_sent));
  rec.key("stats_sent").value(static_cast<std::int64_t>(serve.stats_sent));
  rec.obj_close();
  rec.obj_close();
  if (!args.trace) {
    rec.key("setup").obj_open();
    rec.key("probes").value(static_cast<std::int64_t>(setup.total.size()));
    rec.key("pool_s").value(setup.pool.median());
    rec.key("first_run_s").value(setup.first_run.median());
    rec.key("daemon_s").value(setup.daemon.median());
    rec.obj_close();
  }
  if (!trace_path.empty()) rec.key("chrome_trace").value(trace_path);
  write_metrics(rec, "metrics", metrics, true);
  if (!ungated.empty()) write_metrics(rec, "ungated", ungated, true);
  rec.key("attempted").value(static_cast<std::int64_t>(tally.attempted()));
  rec.key("failed").value(static_cast<std::int64_t>(tally.failed()));
  rec.key("failures").arr_open();
  for (const std::string& note : tally.notes()) rec.value(note);
  rec.arr_close();
  rec.obj_close();
  const std::string record_path = args.out_dir + "/result-" + args.workload +
                                  "-seed" + std::to_string(args.seed) +
                                  "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << rec.str() << '\n';

  bsr::JsonWriter last;
  last.obj_open();
  last.key("correct").value(tally.failed() == 0);
  last.key("attempted").value(static_cast<std::int64_t>(tally.attempted()));
  last.key("failed").value(static_cast<std::int64_t>(tally.failed()));
  write_metrics(last, "metrics", metrics, false);
  last.obj_close();
  std::printf("%s\n%s\n", rec.str().c_str(), last.str().c_str());
  return 0;
}
