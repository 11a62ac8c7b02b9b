// DiskResultStore — the durable fingerprint -> serialized RunReport tier of
// the serving subsystem (the daemon's tier 3, docs/SERVING.md).
//
// Layout: one record file per fingerprint inside the store directory,
//
//   <dir>/<hash16(fp)><hash16'(fp)>.json
//   record = {"schema":2,"fingerprint":"<fp>","report":{...}}
//
// written to a ".tmp" sibling and atomically renamed into place, so readers
// (including concurrent daemons sharing the directory) never observe a
// half-written record. The filename is a hash, not the fingerprint itself
// (fingerprints contain '/' and are unbounded in length); the fingerprint
// inside the record is authoritative, and a mismatch — a hash collision or
// a copied-in foreign record — is rejected like corruption, and so is a
// record whose report no longer deserializes. Rejections are LOUD misses: a
// warning on stderr, a bump of stats().rejected and of
// bsr_store_rejected_records_total, and nullptr back to the caller, never a
// crash and never a silently-served wrong result. Bumping the schema version
// invalidates old records the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/report.hpp"

namespace bsr::serve {

/// Counters of one DiskResultStore's lifetime (monotone, thread-safe reads
/// under the store's own lock via stats()).
struct StoreStats {
  std::uint64_t hits = 0;      ///< load_serialized() found a valid record
  std::uint64_t misses = 0;    ///< load_serialized() found nothing
  std::uint64_t rejected = 0;  ///< corrupt/stale/mismatched/undeserializable
  std::uint64_t saves = 0;     ///< records written
};

/// The on-disk store (see file comment). Thread-safe: load/save serialize on
/// an internal mutex (records are small; the simulator run dominates).
class DiskResultStore {
 public:
  /// Records are written under `dir`, created (one level) if absent. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit DiskResultStore(std::string dir);

  /// Reads the record for `fingerprint` and returns its serialized report
  /// text; nullptr on a miss or a loud reject. A record is served only if
  /// its report deserializes; when `report` is non-null it receives that
  /// deserialized report, so the caller needs no second parse. The daemon
  /// serves warm responses from the returned text, so a store hit is
  /// byte-identical to the cold response by construction.
  [[nodiscard]] std::shared_ptr<const std::string> load_serialized(
      const std::string& fingerprint, core::RunReport* report = nullptr);

  /// Writes (or atomically overwrites) the record for `fingerprint`, taking
  /// the report already serialized (the daemon has it in hand).
  void save_serialized(const std::string& fingerprint,
                       const std::string& report_json);

  /// Lifetime counters (copied under the lock).
  [[nodiscard]] StoreStats stats() const;

  /// The store directory as given.
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The record path for `fingerprint` (exposed for tests and tooling).
  [[nodiscard]] std::string record_path(const std::string& fingerprint) const;

  /// The on-disk schema version this build reads and writes.
  static constexpr int kSchemaVersion = 2;

 private:
  std::string dir_;
  mutable std::mutex mutex_;
  StoreStats stats_;
};

}  // namespace bsr::serve
