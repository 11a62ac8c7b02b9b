// DiskResultStore: durable save/load round-trips, byte-identical serialized
// records, and LOUD misses (never crashes, never wrong results) on corrupt,
// old-schema, fingerprint-mismatched, or undeserializable records.
#include "serve/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  return cfg;
}

/// A fresh per-test store directory under the test's temp dir (leftovers
/// from a previous ctest run are wiped so first-load-misses stay misses).
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "bsr_store_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

void overwrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

/// A record with a valid envelope whose report lacks its `trace` member:
/// it parses and names the right fingerprint, but no report builds from it.
std::string record_without_trace(const std::string& fp,
                                 const std::string& report_json) {
  const JsonValue report = JsonValue::parse(report_json);
  std::vector<std::pair<std::string, JsonValue>> members;
  for (const auto& [key, value] : report.members()) {
    if (key != "trace") members.emplace_back(key, value);
  }
  return "{\"schema\":" + std::to_string(DiskResultStore::kSchemaVersion) +
         ",\"fingerprint\":\"" + fp + "\",\"report\":" +
         JsonValue::make_object(std::move(members)).dump() + "}";
}

TEST(DiskResultStore, MissThenSaveThenHit) {
  DiskResultStore store(fresh_dir("roundtrip"));
  const RunConfig cfg = small_config();
  const std::string fp = cfg.fingerprint() + ":roundtrip";

  core::RunReport loaded;
  EXPECT_EQ(store.load_serialized(fp, &loaded), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);

  const core::RunReport report = bsr::run(cfg);
  const std::string cold = serialize_report(report);
  store.save_serialized(fp, cold);
  EXPECT_EQ(store.stats().saves, 1u);

  const std::shared_ptr<const std::string> warm =
      store.load_serialized(fp, &loaded);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().rejected, 0u);
  EXPECT_EQ(*warm, cold);
  // The out-parameter carries the report the store vetted the record with.
  EXPECT_EQ(serialize_report(loaded), cold);
}

TEST(DiskResultStore, SerializedPathIsByteIdentical) {
  DiskResultStore store(fresh_dir("serialized"));
  const std::string fp = "fp-serialized";
  const std::string cold = serialize_report(bsr::run(small_config()));

  store.save_serialized(fp, cold);
  const std::shared_ptr<const std::string> warm = store.load_serialized(fp);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(*warm, cold);  // the byte-identity contract, cross-process
}

TEST(DiskResultStore, SurvivesReopen) {
  const std::string dir = fresh_dir("reopen");
  const std::string fp = "fp-reopen";
  const std::string cold = serialize_report(bsr::run(small_config()));
  {
    DiskResultStore store(dir);
    store.save_serialized(fp, cold);
  }
  DiskResultStore reopened(dir);  // a daemon restart
  const std::shared_ptr<const std::string> warm =
      reopened.load_serialized(fp);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(*warm, cold);
}

TEST(DiskResultStore, CorruptRecordIsALoudMissNotACrash) {
  DiskResultStore store(fresh_dir("corrupt"));
  const std::string fp = "fp-corrupt";
  store.save_serialized(fp, serialize_report(bsr::run(small_config())));

  overwrite(store.record_path(fp), "{\"schema\":1,\"fingerpr");  // truncated
  core::RunReport report;
  EXPECT_EQ(store.load_serialized(fp, &report), nullptr);
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(DiskResultStore, OldSchemaVersionIsRejected) {
  DiskResultStore store(fresh_dir("schema"));
  const std::string fp = "fp-schema";
  const std::string report_json = serialize_report(bsr::run(small_config()));
  store.save_serialized(fp, report_json);

  // Rewrite the record claiming a pre-historic schema version.
  overwrite(store.record_path(fp),
            "{\"schema\":0,\"fingerprint\":\"" + fp +
                "\",\"report\":" + report_json + "}");
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);

  // Schema 1 embedded the legacy options block; such records are misses.
  overwrite(store.record_path(fp),
            "{\"schema\":1,\"fingerprint\":\"" + fp +
                "\",\"report\":" + report_json + "}");
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 2u);
}

TEST(DiskResultStore, FingerprintMismatchIsRejected) {
  // A record copied to the wrong path (or a hash collision) must never be
  // served as the requested configuration's result.
  DiskResultStore store(fresh_dir("mismatch"));
  store.save_serialized("fp-A", serialize_report(bsr::run(small_config())));

  std::ifstream in(store.record_path("fp-A"), std::ios::binary);
  const std::string record((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  overwrite(store.record_path("fp-B"), record);

  EXPECT_EQ(store.load_serialized("fp-B"), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);
  // The original record still loads fine.
  EXPECT_NE(store.load_serialized("fp-A"), nullptr);
}

TEST(DiskResultStore, DeserializationFailureInsideAValidEnvelopeRejects) {
  DiskResultStore store(fresh_dir("badreport"));
  const std::string fp = "fp-badreport";
  overwrite(store.record_path(fp),
            "{\"schema\":" + std::to_string(DiskResultStore::kSchemaVersion) +
                ",\"fingerprint\":\"" + fp +
                "\",\"report\":{\"not_a_report\":true}}");
  // The envelope is fine, but a record is only served if its report builds.
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);

  // The near miss: a real report with one member renamed away.
  const std::string good = serialize_report(bsr::run(small_config()));
  overwrite(store.record_path(fp), record_without_trace(fp, good));
  core::RunReport report;
  EXPECT_EQ(store.load_serialized(fp, &report), nullptr);
  EXPECT_EQ(store.stats().rejected, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(DiskResultStore, EveryCorruptionClassCountsTheRejectedMetric) {
  // Satellite contract (docs/OBSERVABILITY.md): each corruption class —
  // truncated record, garbage JSON, schema drift, a report that does not
  // build — is a loud miss that
  // bumps the process-wide bsr_store_rejected_records_total counter, never
  // a crash and never a stale answer.
  common::Counter& rejected = common::MetricsRegistry::global().counter(
      "bsr_store_rejected_records_total", "");
  DiskResultStore store(fresh_dir("metric"));
  const std::string good = serialize_report(bsr::run(small_config()));

  const std::uint64_t before = rejected.value();

  store.save_serialized("fp-trunc", "{\"schema\":1,\"report\":" + good + "}");
  overwrite(store.record_path("fp-trunc"), "{\"schema\":1,\"fing");
  EXPECT_EQ(store.load_serialized("fp-trunc"), nullptr);
  EXPECT_EQ(rejected.value(), before + 1);

  overwrite(store.record_path("fp-garbage"), "not json at all\n");
  EXPECT_EQ(store.load_serialized("fp-garbage"), nullptr);
  EXPECT_EQ(rejected.value(), before + 2);

  overwrite(store.record_path("fp-drift"),
            "{\"schema\":999,\"fingerprint\":\"fp-drift\",\"report\":" + good +
                "}");
  EXPECT_EQ(store.load_serialized("fp-drift"), nullptr);
  EXPECT_EQ(rejected.value(), before + 3);

  overwrite(store.record_path("fp-notrace"),
            record_without_trace("fp-notrace", good));
  EXPECT_EQ(store.load_serialized("fp-notrace"), nullptr);
  EXPECT_EQ(rejected.value(), before + 4);

  // A valid record written after the carnage still round-trips: corruption
  // of one record never poisons the store.
  store.save_serialized("fp-ok", good);
  const std::shared_ptr<const std::string> ok = store.load_serialized("fp-ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(*ok, good);
}

TEST(DiskResultStore, OutParameterIsUntouchedOnMissAndReject) {
  // Only a served record writes the caller's report: a miss or a reject
  // leaves whatever the caller had in place.
  DiskResultStore store(fresh_dir("outparam"));
  const core::RunReport sentinel = bsr::run(small_config());
  const std::string sentinel_json = serialize_report(sentinel);

  core::RunReport report = sentinel;
  EXPECT_EQ(store.load_serialized("fp-absent", &report), nullptr);
  EXPECT_EQ(serialize_report(report), sentinel_json);

  overwrite(store.record_path("fp-garbage"), "not json at all\n");
  EXPECT_EQ(store.load_serialized("fp-garbage", &report), nullptr);
  EXPECT_EQ(serialize_report(report), sentinel_json);

  RunConfig other = small_config();
  other.n = 2048;
  overwrite(store.record_path("fp-notrace"),
            record_without_trace("fp-notrace",
                                 serialize_report(bsr::run(other))));
  EXPECT_EQ(store.load_serialized("fp-notrace", &report), nullptr);
  EXPECT_EQ(serialize_report(report), sentinel_json);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().rejected, 2u);
}

TEST(DiskResultStore, SaveOverwritesAnExistingRecord) {
  DiskResultStore store(fresh_dir("overwrite"));
  const std::string fp = "fp-overwrite";
  RunConfig second = small_config();
  second.n = 2048;
  const std::string first_json = serialize_report(bsr::run(small_config()));
  const std::string second_json = serialize_report(bsr::run(second));
  ASSERT_NE(first_json, second_json);

  store.save_serialized(fp, first_json);
  store.save_serialized(fp, second_json);
  EXPECT_EQ(store.stats().saves, 2u);
  core::RunReport report;
  const std::shared_ptr<const std::string> warm =
      store.load_serialized(fp, &report);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(*warm, second_json);
  EXPECT_EQ(serialize_report(report), second_json);
}

TEST(DiskResultStore, RejectedRecordOverwrittenBySaveIsServedAgain) {
  // The daemon's recovery path at the store level: a record that does not
  // build is a miss, the caller re-runs and saves, and the next load hits.
  DiskResultStore store(fresh_dir("recover"));
  const std::string fp = "fp-recover";
  const std::string good = serialize_report(bsr::run(small_config()));
  overwrite(store.record_path(fp), record_without_trace(fp, good));
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);

  store.save_serialized(fp, good);
  const std::shared_ptr<const std::string> warm = store.load_serialized(fp);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(*warm, good);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().rejected, 1u);
}

TEST(DiskResultStore, SaveLeavesOnlyTheRecordFileBehind) {
  // Records are written to a ".tmp" sibling and renamed into place; after
  // a save the directory holds exactly one file per fingerprint.
  const std::string dir = fresh_dir("atomic");
  DiskResultStore store(dir);
  const std::string good = serialize_report(bsr::run(small_config()));
  store.save_serialized("fp-1", good);
  store.save_serialized("fp-2", good);
  store.save_serialized("fp-1", good);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> expected = {store.record_path("fp-1"),
                                       store.record_path("fp-2")};
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(files.size(), expected.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(std::filesystem::path(files[i]).filename(),
              std::filesystem::path(expected[i]).filename());
  }
}

TEST(DiskResultStore, RecordPathIsStablePerFingerprintAndDistinctAcrossThem) {
  const std::string dir = fresh_dir("paths");
  DiskResultStore a(dir);
  DiskResultStore b(dir);
  // Fingerprints may contain '/': the file name must not.
  const std::string fp = small_config().fingerprint();
  EXPECT_EQ(a.record_path(fp), b.record_path(fp));
  const std::filesystem::path path(a.record_path(fp));
  EXPECT_EQ(path.parent_path(), std::filesystem::path(dir));
  EXPECT_EQ(path.extension(), ".json");
  EXPECT_EQ(path.filename().string().find('/'), std::string::npos);
  EXPECT_NE(a.record_path(fp), a.record_path(fp + "x"));
  EXPECT_NE(a.record_path("fp-A"), a.record_path("fp-B"));
}

TEST(DiskResultStore, ConcurrentLoadsAndSavesKeepTheCountsWhole) {
  DiskResultStore store(fresh_dir("concurrent"));
  const std::string good = serialize_report(bsr::run(small_config()));
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> workers;
  std::atomic<int> served_wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::string fp = "fp-" + std::to_string((t + i) % 3);
        const std::shared_ptr<const std::string> hit =
            store.load_serialized(fp);
        if (hit == nullptr) {
          store.save_serialized(fp, good);
        } else if (*hit != good) {
          ++served_wrong;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const StoreStats s = store.stats();
  EXPECT_EQ(served_wrong.load(), 0);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(s.saves, s.misses);
  EXPECT_GE(s.misses, 3u);  // each of the three fingerprints missed once
}

TEST(DiskResultStore, UnreadableDirectoryThrowsAtConstruction) {
  EXPECT_THROW(DiskResultStore("/proc/definitely/not/creatable"),
               std::runtime_error);
}

}  // namespace
}  // namespace bsr::serve
