#include "ladder.h"

#include <thread>
#include <utility>

namespace perfbench {

using namespace vdg;

std::string JournalPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".vdc";
}

std::string SnapshotPath(const std::string& dir, uint32_t shard) {
  return dir + "/shard" + std::to_string(shard) + ".snap";
}

Result<std::unique_ptr<ShardSet>> ShardSet::Open(const std::string& dir,
                                                 uint32_t shards,
                                                 OpenMode mode, SpanLog* log,
                                                 double* wall_s,
                                                 std::vector<double>* shard_s) {
  auto set = std::unique_ptr<ShardSet>(new ShardSet());
  std::vector<Status> statuses(shards, Status::OK());
  std::vector<double> seconds(shards, 0.0);
  for (uint32_t k = 0; k < shards; ++k) {
    std::unique_ptr<CatalogJournal> journal =
        std::make_unique<FileJournal>(JournalPath(dir, k));
    if (log != nullptr) {
      journal = TraceJournal(std::move(journal), log, static_cast<uint8_t>(k));
    }
    auto catalog = std::make_unique<VirtualDataCatalog>(
        "vdp://bench/shard" + std::to_string(k), std::move(journal));
    catalog->set_partition_mode(true);
    set->catalogs_.push_back(std::move(catalog));
  }
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (uint32_t k = 0; k < shards; ++k) {
    threads.emplace_back([&, k] {
      VirtualDataCatalog& catalog = *set->catalogs_[k];
      const int64_t begin = NowNs();
      statuses[k] = mode == OpenMode::kSnapshot
                        ? catalog.OpenFromSnapshot(SnapshotPath(dir, k))
                        : catalog.Open();
      seconds[k] = (NowNs() - begin) * 1e-9;
    });
  }
  for (std::thread& t : threads) t.join();
  if (wall_s != nullptr) *wall_s = (NowNs() - start) * 1e-9;
  if (shard_s != nullptr) *shard_s = std::move(seconds);
  for (const Status& s : statuses) VDG_RETURN_IF_ERROR(s);
  return set;
}

std::vector<std::shared_ptr<CatalogClient>> ShardSet::Clients(SpanLog* log) {
  std::vector<std::shared_ptr<CatalogClient>> out;
  for (size_t k = 0; k < catalogs_.size(); ++k) {
    std::shared_ptr<CatalogClient> client =
        std::make_shared<InProcessCatalogClient>(catalogs_[k].get());
    if (log != nullptr) {
      client = TraceClient(std::move(client), log, Layer::kShard,
                           static_cast<uint8_t>(k));
    }
    out.push_back(std::move(client));
  }
  return out;
}

size_t ShardSet::Objects() const {
  size_t total = 0;
  for (const auto& catalog : catalogs_) total += catalog->Stats().total();
  return total;
}

Service::Service(ShardSet* shards, SpanLog* log, size_t clients) {
  ShardedClientOptions options;
  options.id_tag = "srv";
  sharded_ =
      std::make_shared<ShardedCatalogClient>(shards->Clients(log), options);
  std::shared_ptr<CatalogClient> backend = sharded_;
  if (log != nullptr) backend = TraceClient(backend, log, Layer::kBackend);
  server_ = std::make_unique<CatalogServer>(backend);
  for (size_t i = 0; i < clients; ++i) {
    wires_.push_back(std::make_unique<WireSlot>());
    WireSlot* slot = wires_.back().get();
    CatalogServer* server = server_.get();
    ResilientEndpoint endpoint;
    endpoint.name = "bench-" + std::to_string(i);
    endpoint.connect = [server, slot,
                        log]() -> Result<std::shared_ptr<CatalogClient>> {
      VDG_ASSIGN_OR_RETURN(
          std::shared_ptr<WireCatalogClient> wire,
          WireCatalogClient::Connect(server, WireClientOptions{},
                                     /*use_socket=*/false));
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->wire = wire;
      }
      if (log == nullptr) return std::shared_ptr<CatalogClient>(wire);
      return TraceClient(wire, log, Layer::kWire);
    };
    ResilientOptions resilient;
    resilient.seed = 0x5eed + i;
    clients_.push_back(std::make_shared<ResilientCatalogClient>(
        std::vector<ResilientEndpoint>{std::move(endpoint)}, resilient));
  }
}

Service::~Service() {
  clients_.clear();
  for (auto& slot : wires_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->wire.reset();
  }
  server_->Shutdown();
}

WireClientStats Service::WireStats() const {
  WireClientStats total;
  for (const auto& slot : wires_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->wire == nullptr) continue;
    WireClientStats s = slot->wire->stats();
    total.round_trips += s.round_trips;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
    total.deadline_expiries += s.deadline_expiries;
    total.admission_rejections += s.admission_rejections;
    total.cancellations += s.cancellations;
    total.failures += s.failures;
  }
  return total;
}

ResilientStats Service::ResilientTotals() const {
  ResilientStats total;
  for (const auto& client : clients_) {
    ResilientStats s = client->stats();
    total.retries += s.retries;
    total.reconnects += s.reconnects;
    total.failovers += s.failovers;
    total.breaker_opens += s.breaker_opens;
    total.breaker_short_circuits += s.breaker_short_circuits;
    total.exhausted_calls += s.exhausted_calls;
    total.mutation_fail_fast += s.mutation_fail_fast;
  }
  return total;
}

}  // namespace perfbench
