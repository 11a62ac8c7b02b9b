// numeric_abft: fig09's world (n = 768, b = 32, numeric_demo platform, SDC
// rate x150, BSR r = 0.25, fc = 0.999) on all three factorizations, one
// bsr::run at a time from this thread; the kernels keep their own
// shared-pool parallelism.
#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/update.hpp"
#include "abft/verify.hpp"
#include "bsr/bsr.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"
#include "la/verify.hpp"
#include "phases.hpp"
#include "serve/report_json.hpp"

namespace perfbench {
namespace {

using bsr::Factorization;
using bsr::la::idx;

constexpr idx kN = 768;
constexpr idx kB = 32;

struct Scheme {
  const char* key;  ///< metric suffix
  const char* policy;
  bool recover;
};
/// fig09's five schemes, run on LU and QR.
constexpr Scheme kSchemes[] = {
    {"none", "none", false},      {"single", "single", false},
    {"single_recovery", "single", true}, {"full", "full", false},
    {"adaptive", "adaptive", false},
};
/// Cholesky runs its protected schemes with rollback on. Without it, a
/// block the checksums flag but cannot repair leaves the trailing matrix
/// indefinite, potf2 rejects it and bsr::run throws instead of reporting;
/// with no checksums at all nothing can be rolled back.
constexpr Scheme kCholeskySchemes[] = {
    {"single_recovery", "single", true},
    {"full_recovery", "full", true},
    {"adaptive_recovery", "adaptive", true},
};

constexpr Factorization kFacts[] = {Factorization::LU, Factorization::Cholesky,
                                    Factorization::QR};
constexpr const char* kFactKeys[] = {"lu", "cholesky", "qr"};

struct Cell {
  int fact;  ///< index into kFacts
  const Scheme* scheme;
};

/// LU runs are cheap, so a round gives each LU scheme several trials and
/// the three factorizations take similar time.
constexpr int kLuTrialsPerRound = 6;

/// The schemes factorization `f` runs.
std::span<const Scheme> schemes_of(int f) {
  if (kFacts[f] == Factorization::Cholesky) return kCholeskySchemes;
  return kSchemes;
}

/// One round: every scheme of every factorization. The factorizations are
/// interleaved so each one's runs spread over the whole round and a slow
/// stretch of the host does not land on one factorization alone.
std::vector<Cell> round_cells() {
  std::vector<std::pair<double, Cell>> order;
  for (int f = 0; f < 3; ++f) {
    std::vector<Cell> mine;
    const int trials = kFacts[f] == Factorization::LU ? kLuTrialsPerRound : 1;
    for (int t = 0; t < trials; ++t) {
      for (const Scheme& s : schemes_of(f)) mine.push_back({f, &s});
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
      order.emplace_back((static_cast<double>(i) + 0.5) /
                             static_cast<double>(mine.size()),
                         mine[i]);
    }
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Cell> cells;
  for (const auto& entry : order) cells.push_back(entry.second);
  return cells;
}

bsr::RunConfig numeric_config(const Cell& cell, std::uint64_t seed) {
  bsr::RunConfig c;
  c.factorization = kFacts[cell.fact];
  c.n = kN;
  c.b = kB;
  c.strategy = "bsr";
  c.reclamation_ratio = 0.25;
  c.fc_desired = 0.999;
  c.error_rate_multiplier = 150.0;
  c.platform = "numeric_demo";
  c.mode = bsr::ExecutionMode::Numeric;
  c.abft_policy = cell.scheme->policy;
  c.recover_uncorrectable = cell.scheme->recover;
  c.seed = seed;
  return c;
}

/// Full and adaptive ABFT must never let corruption through silently.
/// Without rollback (fig09) two faults in one checksum block can still
/// leave a wrong result — but then the checksums report the block as
/// uncorrectable.
bool silent_corruption(const Scheme& s, const bsr::RunReport& r) {
  const bool checked = std::string(s.policy) == "full" ||
                       std::string(s.policy) == "adaptive";
  return checked && !(r.numeric_executed &&
                      (r.numeric_correct || r.abft.uncorrectable > 0));
}

/// The factorization's adaptive scheme.
const Scheme& adaptive_of(int f) { return schemes_of(f).back(); }

}  // namespace

double NumericPhase::rate(std::size_t f) const {
  double sum = 0.0;
  for (const auto& [scheme, runs] : scheme_run_s[f]) sum += runs.median();
  return sum > 0.0 ? static_cast<double>(scheme_run_s[f].size()) / sum : 0.0;
}

void NumericRun::step() {
  static const std::vector<Cell> cells = round_cells();
  const std::uint64_t id = next_++;
  const Cell& cell = cells[id % cells.size()];
  const bool first_round = id < cells.size();
  const bsr::RunConfig cfg =
      numeric_config(cell, bsr::derive_cell_seed(ctx_.seed, id));
  const std::string fact = kFactKeys[cell.fact];
  try {
    const Clock::time_point r0 = Clock::now();
    bsr::RunReport report;
    {
      Tracer::Scope span(ctx_.tracer, "core.numeric_run." + fact, id);
      report = bsr::run(cfg);
    }
    const double s = seconds_since(r0);
    const auto f = static_cast<std::size_t>(cell.fact);
    p_.run_s[f].add(s);
    p_.scheme_run_s[f][cell.scheme->key].add(s);
    ++p_.runs;
    auto& tally = p_.correct_by_scheme[cell.scheme->key];
    tally[0] += report.numeric_correct ? 1 : 0;
    tally[1] += 1;
    p_.injected += report.abft.errors_injected_total();
    p_.corrected += report.abft.corrected_0d + report.abft.corrected_1d;
    p_.uncorrectable += report.abft.uncorrectable;
    p_.recoveries += report.abft.recoveries;
    ctx_.tally.check(!silent_corruption(*cell.scheme, report),
                     "numeric: " + fact + "/" + cell.scheme->key +
                         " run was wrong with no uncorrectable block reported");
    // The first adaptive run of each factorization is re-run in finish().
    if (first_round && cell.scheme == &adaptive_of(cell.fact) &&
        std::none_of(repeats_.begin(), repeats_.end(), [&](const auto& r) {
          return r.first.factorization == cfg.factorization;
        })) {
      repeats_.emplace_back(cfg, bsr::serve::serialize_report(report));
    }
  } catch (const std::exception& e) {
    ctx_.tally.fail(std::string("numeric: bsr::run threw: ") + e.what());
  }
}

bool NumericRun::ready() const {
  static const std::size_t round = round_cells().size();
  return next_ >= round;
}

double NumericRun::headline() const {
  double runs = 0.0;
  double seconds = 0.0;
  for (const Samples& s : p_.run_s) {
    runs += static_cast<double>(s.size());
    seconds += s.sum();
  }
  return seconds > 0.0 ? runs / seconds : 0.0;
}

NumericPhase NumericRun::finish() {
  for (const auto& [cfg, bytes] : repeats_) {
    try {
      ctx_.tally.check(bsr::serve::serialize_report(bsr::run(cfg)) == bytes,
                       "numeric: a repeated seed gave different report bytes");
    } catch (const std::exception& e) {
      ctx_.tally.fail(std::string("numeric: repeat run threw: ") + e.what());
    }
  }
  repeats_.clear();
  return std::move(p_);
}

void numeric_end_to_end(const NumericPhase& p, Results& out) {
  static const char* names[] = {"lu_runs_per_s", "cholesky_runs_per_s",
                                "qr_runs_per_s"};
  for (std::size_t f = 0; f < 3; ++f) {
    put(out, names[f], p.rate(f), "1/s", p.run_s[f].size(),
        "1/mean over schemes of median run time");
  }
}

// ---------------------------------------------------------------------------
// Per-layer replay. bsr::run does its kernel calls internally, so the traced
// run repeats the same factorizations here call by call — the kernels at
// each iteration's shape, in the order the numeric runner issues them — with
// a span around every call into la and abft.
// ---------------------------------------------------------------------------
namespace {

namespace la = bsr::la;
namespace abft = bsr::abft;

/// Operation and computed-byte counts of one replay (8-byte elements; bytes
/// are what the operands' sizes imply, not measured traffic).
struct KernelWork {
  double panel_flops = 0.0;
  double update_flops = 0.0;
  double update_bytes = 0.0;
};

double gemm_flops(double m, double n, double k) { return 2.0 * m * n * k; }
double gemm_bytes(double m, double n, double k) {
  return 8.0 * (m * k + k * n + 2.0 * m * n);
}

/// Replays one factorization of the numeric runner without faults: fill,
/// per-iteration panel and trailing update, then the residual check. With
/// `mode` other than None (LU only) the trailing GEMM runs through the ABFT
/// protected update and a scrub instead, spanned as abft.*.
KernelWork replay(Context& ctx, int f, std::uint64_t seed,
                  abft::ChecksumMode mode = abft::ChecksumMode::None) {
  Tracer& tr = ctx.tracer;
  const std::string key = kFactKeys[f];
  const bool protect = mode != abft::ChecksumMode::None;
  const std::string mode_key =
      mode == abft::ChecksumMode::Full ? "full" : "single";
  const std::string tag = protect ? "abft." + mode_key + "." : "la.";
  auto spanned = [&](const std::string& layer) {
    // ABFT replays attribute only their abft calls; the rest is self time
    // of their root span and never pollutes the la.* totals.
    return protect ? std::string("abft.replay.other") : layer + "." + key;
  };
  Tracer::Scope root(tr, protect ? "abft.replay." + mode_key
                                 : "la.replay." + key);
  KernelWork work;
  const idx n = kN;
  la::Matrix<double> a(n, n);
  bsr::Rng rng(seed);
  {
    Tracer::Scope span(tr, spanned("la.fill"));
    if (kFacts[f] == Factorization::Cholesky) {
      la::fill_spd(a.view(), rng);
    } else {
      la::fill_random(a.view(), rng);
    }
  }
  const la::Matrix<double> a0 = a;
  std::vector<idx> ipiv(static_cast<std::size_t>(n), 0);
  std::vector<double> tau(static_cast<std::size_t>(n), 0.0);

  for (idx j0 = 0; j0 < n; j0 += kB) {
    const idx m = n - j0;
    const idx bb = std::min(kB, m);
    const idx mt = m - bb;
    const double dm = static_cast<double>(m);
    const double db = static_cast<double>(bb);
    const double dt = static_cast<double>(mt);
    switch (kFacts[f]) {
      case Factorization::LU: {
        {
          Tracer::Scope span(tr, spanned("la.panel"));
          std::vector<idx> piv;
          la::getf2(a.block(j0, j0, m, bb), piv);
          for (idx i = 0; i < bb; ++i) {
            const idx r = j0 + i;
            const idx q = piv[static_cast<std::size_t>(i)] + j0;
            ipiv[static_cast<std::size_t>(r)] = q;
            if (q == r) continue;
            if (j0 > 0) la::swap(j0, &a(r, 0), n, &a(q, 0), n);
            if (j0 + bb < n) {
              la::swap(n - j0 - bb, &a(r, j0 + bb), n, &a(q, j0 + bb), n);
            }
          }
        }
        work.panel_flops += dm * db * db - db * db * db / 3.0;
        if (mt <= 0) break;
        auto l21 = a.block(j0 + bb, j0, mt, bb).as_const();
        auto u12 = a.block(j0, j0 + bb, bb, mt);
        auto c = a.block(j0 + bb, j0 + bb, mt, mt);
        {
          Tracer::Scope span(tr, spanned("la.update"));
          la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::NoTrans,
                   la::Diag::Unit, 1.0, a.block(j0, j0, bb, bb).as_const(),
                   u12);
          if (!protect) {
            la::gemm(la::Op::NoTrans, la::Op::NoTrans, -1.0, l21,
                     u12.as_const(), 1.0, c);
          }
        }
        if (protect) {
          abft::BlockChecksums<double> chk(mt, mt, bb, mode);
          chk.encode(c.as_const());
          {
            Tracer::Scope span(tr, tag + "update");
            abft::protected_gemm_update(c, l21, u12.as_const(), chk);
          }
          Tracer::Scope span(tr, tag + "scrub");
          const abft::VerifyResult v = abft::scrub(chk, c);
          ctx.tally.check(v.blocks_flagged == 0,
                          "abft replay: a fault-free update was flagged");
        }
        work.update_flops += db * db * dt + gemm_flops(dt, dt, db);
        work.update_bytes += 8.0 * (db * db / 2.0 + 2.0 * db * dt) +
                             gemm_bytes(dt, dt, db);
        break;
      }
      case Factorization::Cholesky: {
        auto akk = a.block(j0, j0, bb, bb);
        {
          Tracer::Scope span(tr, spanned("la.panel"));
          if (la::potf2(akk) != 0) {
            throw std::runtime_error("replay: Cholesky panel not SPD");
          }
        }
        work.panel_flops += db * db * db / 3.0;
        if (mt <= 0) break;
        Tracer::Scope span(tr, spanned("la.update"));
        la::trsm(la::Side::Right, la::Uplo::Lower, la::Op::Trans,
                 la::Diag::NonUnit, 1.0, akk.as_const(),
                 a.block(j0 + bb, j0, mt, bb));
        auto l21 = a.block(j0 + bb, j0, mt, bb).as_const();
        la::Matrix<double> l21t(bb, mt);
        for (idx j = 0; j < mt; ++j) {
          for (idx i = 0; i < bb; ++i) l21t(i, j) = l21(j, i);
        }
        la::gemm(la::Op::NoTrans, la::Op::NoTrans, -1.0, l21,
                 l21t.view().as_const(), 1.0,
                 a.block(j0 + bb, j0 + bb, mt, mt));
        work.update_flops += dt * db * db + gemm_flops(dt, dt, db);
        work.update_bytes += 8.0 * (db * db / 2.0 + 2.0 * dt * db) +
                             gemm_bytes(dt, dt, db);
        break;
      }
      case Factorization::QR: {
        const idx tc = n - j0 - bb;
        std::vector<double> ptau;
        {
          Tracer::Scope span(tr, spanned("la.panel"));
          la::geqr2(a.block(j0, j0, m, bb), ptau);
        }
        std::copy(ptau.begin(), ptau.end(),
                  tau.begin() + static_cast<std::ptrdiff_t>(j0));
        work.panel_flops += 2.0 * dm * db * db - 2.0 * db * db * db / 3.0;
        if (tc <= 0) break;
        const double dc = static_cast<double>(tc);
        Tracer::Scope span(tr, spanned("la.update"));
        auto v = a.block(j0, j0, m, bb).as_const();
        la::Matrix<double> t(bb, bb);
        la::larft(v, ptau.data(), t.view());
        la::larfb_left_trans(v, t.view().as_const(),
                             a.block(j0, j0 + bb, m, tc));
        work.update_flops += dm * db * db + 4.0 * dm * db * dc + db * db * dc;
        work.update_bytes +=
            8.0 * (dm * db + db * db + 2.0 * dm * dc + 2.0 * db * dc);
        break;
      }
    }
  }

  double residual = 0.0;
  {
    Tracer::Scope span(tr, spanned("la.verify"));
    switch (kFacts[f]) {
      case Factorization::LU:
        residual = la::lu_residual(a0.view(), a.view().as_const(), ipiv);
        break;
      case Factorization::Cholesky:
        residual = la::cholesky_residual(a0.view(), a.view().as_const());
        break;
      case Factorization::QR:
        residual = la::qr_residual(a0.view(), a.view().as_const(), tau);
        break;
    }
  }
  ctx.tally.check(residual < 1e-6, "la replay: " + key + " residual " +
                                       std::to_string(residual));
  return work;
}

}  // namespace

void numeric_layers(Context& ctx, const NumericPhase& p, Results& out) {
  // Each replay follows a real bsr::run of the same factorization and seed
  // (its adaptive scheme), so the run and its layers see the same state of the
  // host; every figure is the median over the replays.
  constexpr int kReplays = 5;
  const char* layers[] = {"la.fill", "la.panel", "la.update", "la.verify"};
  const char* abft_spans[] = {"abft.single.update", "abft.single.scrub",
                              "abft.full.update", "abft.full.scrub"};
  std::array<KernelWork, 3> work{};
  // Per factorization: span name -> self milliseconds of each replay.
  std::array<std::map<std::string, Samples>, 3> ms;
  for (int f = 0; f < 3; ++f) {
    const std::string k = kFactKeys[f];
    auto& mine = ms[static_cast<std::size_t>(f)];
    for (int r = 0; r < kReplays; ++r) {
      const std::uint64_t seed = bsr::derive_cell_seed(
          ctx.seed ^ 0x5EED, static_cast<std::uint64_t>(f * kReplays + r));
      try {
        const std::map<std::string, double> before = ctx.tracer.self_seconds();
        const Clock::time_point r0 = Clock::now();
        {
          Tracer::Scope span(ctx.tracer, "core.numeric_run." + k);
          (void)bsr::run(numeric_config({f, &adaptive_of(f)}, seed));
        }
        const double run_ms = seconds_since(r0) * 1e3;
        work[static_cast<std::size_t>(f)] = replay(ctx, f, seed);
        if (kFacts[f] == Factorization::LU) {
          replay(ctx, f, seed, abft::ChecksumMode::SingleSide);
          replay(ctx, f, seed, abft::ChecksumMode::Full);
        }
        const std::map<std::string, double> after = ctx.tracer.self_seconds();
        auto delta_ms = [&](const std::string& name) {
          const auto a = after.find(name);
          const auto b = before.find(name);
          return ((a == after.end() ? 0.0 : a->second) -
                  (b == before.end() ? 0.0 : b->second)) *
                 1e3;
        };
        double layer_sum = 0.0;
        for (const char* layer : layers) {
          const double d = delta_ms(std::string(layer) + "." + k);
          mine[layer].add(d);
          layer_sum += d;
        }
        mine["run"].add(run_ms);
        mine["self"].add(run_ms - layer_sum);
        if (kFacts[f] == Factorization::LU) {
          for (const char* name : abft_spans) mine[name].add(delta_ms(name));
        }
      } catch (const std::exception& e) {
        ctx.tally.fail(std::string("la replay threw: ") + e.what());
      }
    }
  }

  for (int f = 0; f < 3; ++f) {
    const std::string k = kFactKeys[f];
    const KernelWork& w = work[static_cast<std::size_t>(f)];
    auto& mine = ms[static_cast<std::size_t>(f)];
    const std::size_t n = mine["run"].size();
    const double panel = mine["la.panel"].median();
    const double update = mine["la.update"].median();
    put(out, "la.fill." + k + ".ms", mine["la.fill"].median(), "ms", n,
        "median");
    put(out, "la.panel." + k + ".ms", panel, "ms", n, "median");
    put(out, "la.panel." + k + ".gflops",
        panel > 0.0 ? w.panel_flops / (panel * 1e6) : 0.0, "GFLOP/s", n,
        "flops/median");
    put(out, "la.update." + k + ".ms", update, "ms", n, "median");
    put(out, "la.update." + k + ".gflops",
        update > 0.0 ? w.update_flops / (update * 1e6) : 0.0, "GFLOP/s", n,
        "flops/median");
    put(out, "la.update." + k + ".flops", w.update_flops, "flop", 1, "count");
    put(out, "la.update." + k + ".bytes_computed", w.update_bytes, "B", 1,
        "computed");
    put(out, "la.verify." + k + ".ms", mine["la.verify"].median(), "ms", n,
        "median");
    put(out, "core.numeric_run." + k + ".ms", mine["run"].median(), "ms", n,
        "median");
    put(out, "core.numeric_self." + k + ".ms", mine["self"].median(), "ms", n,
        "median of run - replayed layers");
  }

  auto& lu = ms[0];
  const double lu_update = lu["la.update"].median();
  const std::size_t n = lu["run"].size();
  for (const char* mode : {"single", "full"}) {
    const std::string m = mode;
    const double update = lu["abft." + m + ".update"].median();
    put(out, "abft.update." + m + ".ms", update, "ms", n, "median");
    put(out, "abft.overhead_ratio." + m,
        lu_update > 0.0 ? update / lu_update : 0.0, "ratio", n,
        "protected gemm / la.update.lu");
    put(out, "abft.scrub." + m + ".ms", lu["abft." + m + ".scrub"].median(),
        "ms", n, "median");
  }
  for (const auto& [key, counts] : p.correct_by_scheme) {
    put(out, "abft.correct_share." + key,
        counts[1] > 0 ? static_cast<double>(counts[0]) / counts[1] : 0.0,
        "share", static_cast<std::size_t>(counts[1]), "share");
  }
  const double runs = std::max(1, p.runs);
  const auto nruns = static_cast<std::size_t>(p.runs);
  put(out, "fault.injected", static_cast<double>(p.injected) / runs,
      "count/run", nruns, "mean");
  put(out, "abft.corrected", static_cast<double>(p.corrected) / runs,
      "count/run", nruns, "mean");
  put(out, "abft.uncorrectable", static_cast<double>(p.uncorrectable) / runs,
      "count/run", nruns, "mean");
  put(out, "abft.recoveries", static_cast<double>(p.recoveries) / runs,
      "count/run", nruns, "mean");
}

}  // namespace perfbench
