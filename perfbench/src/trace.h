// Spans the benchmark records from outside the program: decorators
// around the calls into each layer's public interface (CatalogClient at
// the three ladder joins, CatalogJournal under each shard catalog).
// Nothing here reaches inside a layer; self times are derived by
// subtracting the spans of the layer below.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/client.h"
#include "catalog/journal.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where a span was taken. kWire wraps the WireCatalogClient inside the
/// resilient endpoint factory, kBackend wraps the server's backend (the
/// sharded client), kShard wraps one shard's InProcessCatalogClient and
/// the journal kinds wrap one shard's FileJournal.
enum class Layer : uint8_t {
  kWire,
  kBackend,
  kShard,
  kJournalAppend,
  kJournalFlush,
  kJournalSync,
  kJournalRead,
};

struct Span {
  Layer layer = Layer::kWire;
  uint8_t shard = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  // journal appends: record bytes
};

/// In-memory span store; written out when the benchmark ends.
class SpanLog {
 public:
  void Record(const Span& span);
  /// Moves every span recorded so far out of the log.
  std::vector<Span> Take();

  /// Disabled decorators forward without taking a clock reading.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> enabled_{true};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Forwards every CatalogClient call to `inner`, recording one span per
/// call into `log`.
std::shared_ptr<vdg::CatalogClient> TraceClient(
    std::shared_ptr<vdg::CatalogClient> inner, SpanLog* log, Layer layer,
    uint8_t shard = 0);

/// Forwards every CatalogJournal call to `inner`, recording one span per
/// Append/Flush/Sync/ReadAll into `log`.
std::unique_ptr<vdg::CatalogJournal> TraceJournal(
    std::unique_ptr<vdg::CatalogJournal> inner, SpanLog* log, uint8_t shard);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
