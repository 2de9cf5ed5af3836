#include "trace.h"

#include <type_traits>
#include <utility>

namespace perfbench {

using namespace vdg;

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

namespace {

class TracingClient final : public CatalogClient {
 public:
  TracingClient(std::shared_ptr<CatalogClient> inner, SpanLog* log,
                Layer layer, uint8_t shard)
      : inner_(std::move(inner)), log_(log), layer_(layer), shard_(shard) {}

  const std::string& authority() const override { return inner_->authority(); }
  bool read_only() const override { return inner_->read_only(); }
  VirtualDataCatalog* local_catalog() const override {
    return inner_->local_catalog();
  }
  ShardTopology shard_topology() const override {
    return inner_->shard_topology();
  }

  Result<std::vector<uint64_t>> ShardVersions() override {
    return Timed([&] { return inner_->ShardVersions(); });
  }
  Result<std::vector<CatalogChange>> ShardChangesSince(
      uint32_t shard, uint64_t since) override {
    return Timed([&] { return inner_->ShardChangesSince(shard, since); });
  }
  Result<uint64_t> Version() override {
    return Timed([&] { return inner_->Version(); });
  }
  Result<std::vector<CatalogChange>> ChangesSince(uint64_t since) override {
    return Timed([&] { return inner_->ChangesSince(since); });
  }
  Result<Dataset> GetDataset(std::string_view name) override {
    return Timed([&] { return inner_->GetDataset(name); });
  }
  Result<Transformation> GetTransformation(std::string_view name) override {
    return Timed([&] { return inner_->GetTransformation(name); });
  }
  Result<Derivation> GetDerivation(std::string_view name) override {
    return Timed([&] { return inner_->GetDerivation(name); });
  }
  Result<bool> HasDataset(std::string_view name) override {
    return Timed([&] { return inner_->HasDataset(name); });
  }
  Result<bool> IsMaterialized(std::string_view dataset) override {
    return Timed([&] { return inner_->IsMaterialized(dataset); });
  }
  Result<std::string> ProducerOf(std::string_view dataset) override {
    return Timed([&] { return inner_->ProducerOf(dataset); });
  }
  Result<std::vector<Invocation>> InvocationsOf(
      std::string_view derivation) override {
    return Timed([&] { return inner_->InvocationsOf(derivation); });
  }
  Result<NameList> FindDatasets(const DatasetQuery& query) override {
    return Timed([&] { return inner_->FindDatasets(query); });
  }
  Result<NameList> FindTransformations(
      const TransformationQuery& query) override {
    return Timed([&] { return inner_->FindTransformations(query); });
  }
  Result<NameList> FindDerivations(const DerivationQuery& query) override {
    return Timed([&] { return inner_->FindDerivations(query); });
  }
  Result<NameList> AllNames(std::string_view kind) override {
    return Timed([&] { return inner_->AllNames(kind); });
  }
  Result<bool> TypeConforms(const DatasetType& type,
                            const DatasetType& against) override {
    return Timed([&] { return inner_->TypeConforms(type, against); });
  }
  Result<std::vector<ObjectRecord>> BatchGet(
      const std::vector<ObjectKey>& keys) override {
    return Timed([&] { return inner_->BatchGet(keys); });
  }
  Result<ProvenanceStep> GetProvenanceStep(std::string_view dataset) override {
    return Timed([&] { return inner_->GetProvenanceStep(dataset); });
  }
  Status DefineDataset(Dataset dataset) override {
    return Timed([&] { return inner_->DefineDataset(std::move(dataset)); });
  }
  Status DefineTransformation(Transformation transformation) override {
    return Timed([&] {
      return inner_->DefineTransformation(std::move(transformation));
    });
  }
  Status DefineDerivation(Derivation derivation) override {
    return Timed(
        [&] { return inner_->DefineDerivation(std::move(derivation)); });
  }
  Status Annotate(std::string_view kind, std::string_view name,
                  std::string_view key, AttributeValue value) override {
    return Timed([&] {
      return inner_->Annotate(kind, name, key, std::move(value));
    });
  }
  Result<std::string> AddReplica(Replica replica) override {
    return Timed([&] { return inner_->AddReplica(std::move(replica)); });
  }
  Result<std::string> RecordInvocation(Invocation invocation) override {
    return Timed(
        [&] { return inner_->RecordInvocation(std::move(invocation)); });
  }
  Status SetDatasetSize(std::string_view name, int64_t size_bytes) override {
    return Timed([&] { return inner_->SetDatasetSize(name, size_bytes); });
  }
  Status InvalidateReplica(std::string_view id) override {
    return Timed([&] { return inner_->InvalidateReplica(id); });
  }
  Result<BatchResult> ApplyBatch(const std::vector<CatalogMutation>& mutations,
                                 const BatchOptions& options) override {
    return Timed([&] { return inner_->ApplyBatch(mutations, options); });
  }

 private:
  template <typename F>
  std::invoke_result_t<F> Timed(F&& call) {
    if (!log_->enabled()) return call();
    const int64_t start = NowNs();
    auto result = call();
    log_->Record({layer_, shard_, start, NowNs(), 0});
    return result;
  }

  std::shared_ptr<CatalogClient> inner_;
  SpanLog* log_;
  Layer layer_;
  uint8_t shard_;
};

class TracingJournal final : public CatalogJournal {
 public:
  TracingJournal(std::unique_ptr<CatalogJournal> inner, SpanLog* log,
                 uint8_t shard)
      : inner_(std::move(inner)), log_(log), shard_(shard) {}

  Status Append(const std::string& record) override {
    return Timed(Layer::kJournalAppend, record.size(),
                 [&] { return inner_->Append(record); });
  }
  Status Flush() override {
    return Timed(Layer::kJournalFlush, 0, [&] { return inner_->Flush(); });
  }
  Result<std::vector<std::string>> ReadAll() override {  // result-api-ok: journal records
    return Timed(Layer::kJournalRead, 0, [&] { return inner_->ReadAll(); });
  }
  Status Sync() override {
    return Timed(Layer::kJournalSync, 0, [&] { return inner_->Sync(); });
  }
  Status Rewrite(const std::vector<std::string>& records) override {
    return inner_->Rewrite(records);
  }
  bool persistent() const override { return inner_->persistent(); }

 private:
  template <typename F>
  std::invoke_result_t<F> Timed(Layer layer, uint64_t bytes, F&& call) {
    if (!log_->enabled()) return call();
    const int64_t start = NowNs();
    auto result = call();
    log_->Record({layer, shard_, start, NowNs(), bytes});
    return result;
  }

  std::unique_ptr<CatalogJournal> inner_;
  SpanLog* log_;
  uint8_t shard_;
};

}  // namespace

std::shared_ptr<CatalogClient> TraceClient(std::shared_ptr<CatalogClient> inner,
                                           SpanLog* log, Layer layer,
                                           uint8_t shard) {
  return std::make_shared<TracingClient>(std::move(inner), log, layer, shard);
}

std::unique_ptr<CatalogJournal> TraceJournal(
    std::unique_ptr<CatalogJournal> inner, SpanLog* log, uint8_t shard) {
  return std::make_unique<TracingJournal>(std::move(inner), log, shard);
}

}  // namespace perfbench
