// The system under test, assembled from the repository's public
// classes: per-shard catalogs over FileJournals on disk, and the
// serving ladder ResilientCatalogClient -> WireCatalogClient ->
// CatalogServer -> ShardedCatalogClient -> InProcessCatalogClient.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/sharding.h"
#include "federation/resilient_client.h"
#include "federation/server.h"
#include "trace.h"

namespace perfbench {

std::string JournalPath(const std::string& dir, uint32_t shard);
std::string SnapshotPath(const std::string& dir, uint32_t shard);

/// One catalog per shard, each over its own FileJournal in `dir`, in
/// partition mode. With a span log the journals are traced.
class ShardSet {
 public:
  enum class OpenMode { kReplay, kSnapshot };

  /// Opens every shard in parallel, one thread per shard (how a sharded
  /// service restarts). `*wall_s` gets the wall time of the whole open
  /// and `*shard_s` each shard's own; either may be null.
  static vdg::Result<std::unique_ptr<ShardSet>> Open(
      const std::string& dir, uint32_t shards, OpenMode mode, SpanLog* log,
      double* wall_s, std::vector<double>* shard_s);

  size_t size() const { return catalogs_.size(); }
  vdg::VirtualDataCatalog& catalog(size_t shard) { return *catalogs_[shard]; }
  /// In-process clients over the shards, traced when `log` is set.
  std::vector<std::shared_ptr<vdg::CatalogClient>> Clients(SpanLog* log);
  size_t Objects() const;

 private:
  std::vector<std::unique_ptr<vdg::VirtualDataCatalog>> catalogs_;
};

/// The serving ladder over a ShardSet, with one resilient connection per
/// client. Server and wire options stay at their defaults, and so does
/// the transport: in-memory duplex pipes, which add no pump thread per
/// connection. The ShardSet must outlive the service.
class Service {
 public:
  Service(ShardSet* shards, SpanLog* log, size_t clients);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  vdg::CatalogClient& client(size_t i) { return *clients_[i]; }
  size_t clients() const { return clients_.size(); }
  /// The in-process backend, for oracles that bypass the wire.
  vdg::ShardedCatalogClient& sharded() { return *sharded_; }

  vdg::WireClientStats WireStats() const;
  vdg::ResilientStats ResilientTotals() const;
  const vdg::ServerStats& server_stats() const { return server_->stats(); }
  const vdg::ServerOptions& server_options() const {
    return server_->options();
  }

 private:
  struct WireSlot {
    mutable std::mutex mu;
    std::shared_ptr<vdg::WireCatalogClient> wire;
  };

  std::shared_ptr<vdg::ShardedCatalogClient> sharded_;
  std::unique_ptr<vdg::CatalogServer> server_;
  std::vector<std::unique_ptr<WireSlot>> wires_;
  std::vector<std::shared_ptr<vdg::ResilientCatalogClient>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
