#include "serve/store.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/metrics.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {

namespace {

/// Process-wide corruption counter (bsr/observability.hpp): every loud
/// reject — truncated record, garbage JSON, schema drift, fingerprint
/// mismatch, a report that no longer deserializes — counts here as well as
/// in the store's own stats(), so daemons surface corruption without
/// polling stderr.
common::Counter& rejected_records_counter() {
  static common::Counter& c = common::MetricsRegistry::global().counter(
      "bsr_store_rejected_records_total",
      "durable-store records rejected as corrupt, stale-schema, or "
      "mismatched (each one is a loud miss, never a served answer)");
  return c;
}

/// FNV-1a over `s`, folded with a per-call basis so two independent 64-bit
/// digests make one 32-hex-digit filename (collisions are additionally
/// caught by the fingerprint check inside the record).
std::uint64_t fnv1a(const std::string& s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

DiskResultStore::DiskResultStore(std::string dir) : dir_(std::move(dir)) {
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("store: cannot create directory " + dir_ + ": " +
                             std::strerror(errno));
  }
}

std::string DiskResultStore::record_path(const std::string& fingerprint) const {
  return dir_ + "/" + hex16(fnv1a(fingerprint, 14695981039346656037ULL)) +
         hex16(fnv1a(fingerprint, 0x9e3779b97f4a7c15ULL)) + ".json";
}

std::shared_ptr<const std::string> DiskResultStore::load_serialized(
    const std::string& fingerprint, core::RunReport* report) {
  const std::string path = record_path(fingerprint);
  std::ifstream in(path, std::ios::binary);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!in) {
    ++stats_.misses;
    return nullptr;
  }
  std::ostringstream text;
  text << in.rdbuf();

  // Parse and vet the record envelope; anything unexpected is a loud reject.
  const auto reject = [&](const std::string& why)
      -> std::shared_ptr<const std::string> {
    ++stats_.rejected;
    rejected_records_counter().inc();
    std::fprintf(stderr,
                 "store: rejecting record %s (%s); treating as a miss\n",
                 path.c_str(), why.c_str());
    return nullptr;
  };
  try {
    const JsonValue record = JsonValue::parse(text.str());
    const std::int64_t schema = record.at("schema").to_int64();
    if (schema != kSchemaVersion) {
      return reject("schema version " + std::to_string(schema) +
                    ", this build reads " + std::to_string(kSchemaVersion));
    }
    if (record.at("fingerprint").as_string() != fingerprint) {
      return reject("fingerprint mismatch");
    }
    // A record is only served if its report builds: the same tree the
    // envelope check walked, deserialized once.
    const JsonValue& body = record.at("report");
    core::RunReport built = deserialize_report(body);
    if (report != nullptr) *report = std::move(built);
    ++stats_.hits;
    return std::make_shared<const std::string>(body.dump());
  } catch (const std::exception& e) {
    return reject(e.what());
  }
}

void DiskResultStore::save_serialized(const std::string& fingerprint,
                                      const std::string& report_json) {
  JsonWriter w;
  w.obj_open();
  w.key("schema").value(kSchemaVersion);
  w.key("fingerprint").value(fingerprint);
  w.key("report").raw(report_json);
  w.obj_close();

  const std::string path = record_path(fingerprint);
  const std::string tmp = path + ".tmp";
  std::lock_guard<std::mutex> lock(mutex_);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("store: cannot write " + tmp);
    }
    out << w.str() << '\n';
    if (!out.flush()) {
      throw std::runtime_error("store: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("store: rename " + tmp + " -> " + path + ": " +
                             std::strerror(errno));
  }
  ++stats_.saves;
}

StoreStats DiskResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace bsr::serve
