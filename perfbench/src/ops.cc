#include "ops.h"

#include <algorithm>
#include <utility>

#include "catalog/wire.h"
#include "schema/derivation.h"
#include "trace.h"

namespace perfbench {

using namespace vdg;

void Tally::Fail(const std::string& why) {
  ++failed;
  if (first_error.empty()) first_error = why;
}

std::vector<double> InTimeOrder(std::vector<Sample> samples) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.at_ns < b.at_ns;
                   });
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.us);
  return out;
}

void Tally::Merge(Tally&& other) {
  auto append = [](auto* to, auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&find, other.find);
  append(&lineage, other.lineage);
  append(&commit, other.commit);
  append(&lag_us, other.lag_us);
  append(&done_ns, other.done_ns);
  append(&point_ns, other.point_ns);
  append(&dv_ns, other.dv_ns);
  attempted += other.attempted;
  failed += other.failed;
  append(&records, other.records);
  if (first_error.empty()) first_error = std::move(other.first_error);
}

namespace {

/// Replays one call's request and response through the public wire
/// codec, as client and server each do once per round trip.
void AddCodec(const wire::Request& request, const wire::Response& response,
              OpRecord* record) {
  const int64_t t0 = NowNs();
  const std::string frame = wire::EncodeRequestFrame(1, request);
  const int64_t t1 = NowNs();
  Result<wire::Frame> in = wire::DecodeFrame(frame);
  if (in.ok()) (void)wire::DecodeRequest(in->kind, in->payload);
  const int64_t t2 = NowNs();
  const std::string reply = wire::EncodeResponseFrame(1, response);
  const int64_t t3 = NowNs();
  Result<wire::Frame> out = wire::DecodeFrame(reply);
  if (out.ok()) (void)wire::DecodeResponse(out->kind, out->payload);
  const int64_t t4 = NowNs();
  record->encode_ns += (t1 - t0) + (t3 - t2);
  record->decode_ns += (t2 - t1) + (t4 - t3);
  ++record->round_trips;
}

template <typename Req, typename Resp>
void AddCodec(wire::MsgKind kind, Req request, Resp response,
              OpRecord* record) {
  AddCodec(wire::Request{kind, std::move(request)},
           wire::Response{kind, Status::OK(), std::move(response)}, record);
}

bool SameNames(const NameList& got, const std::vector<std::string>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) return false;
  }
  return true;
}

using Steps = std::vector<std::pair<std::string, ProvenanceStep>>;

/// Walks from `start` to its raw input, one GetProvenanceStep per hop.
/// `steps` (traced runs) keeps every answer for the codec replay.
std::string Walk(CatalogClient& client, std::string start,
                 const std::string& expect_raw, size_t expect_hops,
                 Steps* steps) {
  std::string current = std::move(start);
  size_t hops = 0;
  while (true) {
    Result<ProvenanceStep> step = client.GetProvenanceStep(current);
    if (!step.ok()) return "GetProvenanceStep: " + step.status().ToString();
    if (steps != nullptr) steps->emplace_back(current, *step);
    if (!step->exists) return "lineage reached missing dataset " + current;
    if (step->producer.empty()) break;
    if (!step->derivation.has_value()) return "step without derivation";
    std::vector<std::string> inputs = step->derivation->InputDatasets();
    if (inputs.size() != 1 || ++hops > expect_hops) {
      return "lineage of " + current + " left its chain";
    }
    current = std::move(inputs[0]);
  }
  if (current != expect_raw || hops != expect_hops) {
    return "lineage ended at " + current + " after " + std::to_string(hops) +
           " hops, expected " + expect_raw;
  }
  return "";
}

void RecordWalk(const Steps& steps, int64_t start, int64_t end,
                Tally* tally) {
  OpRecord record;
  record.start_ns = start;
  record.end_ns = end;
  for (const auto& [name, step] : steps) {
    AddCodec(wire::MsgKind::kGetProvenanceStep, wire::NameReq{name},
             wire::StepResp{step}, &record);
  }
  tally->records.push_back(record);
}

/// A batch through the resilient client (which stamps its token); OK
/// only when every op applied.
bool Commit(CatalogClient& client, const OpContext& ctx,
            const std::vector<CatalogMutation>& mutations, Tally* tally) {
  ++tally->attempted;
  const int64_t start = NowNs();
  Result<BatchResult> result = client.ApplyBatch(mutations);
  const int64_t end = NowNs();
  if (!result.ok()) {
    tally->Fail("ApplyBatch: " + result.status().ToString());
    return false;
  }
  if (result->applied != mutations.size()) {
    tally->Fail("ApplyBatch applied " + std::to_string(result->applied) +
                " of " + std::to_string(mutations.size()) + ": " +
                result->first_error.ToString());
    return false;
  }
  tally->commit.push_back({end, (end - start) * 1e-3});
  if (ctx.trace) {
    OpRecord record{start, end, /*write=*/true};
    BatchOptions options;
    options.idempotency_token = "rcc-0123456789abcdef-1";
    AddCodec(wire::MsgKind::kApplyBatch,
             wire::ApplyBatchReq{mutations, options},
             wire::BatchResultResp{*result}, &record);
    tally->records.push_back(record);
  }
  return true;
}

DatasetQuery BinQuery(uint32_t bin) {
  DatasetQuery query;
  query.predicates.push_back(
      {"bin", PredicateOp::kEq, static_cast<int64_t>(bin)});
  return query;
}

}  // namespace

void RunDiscoveryOp(CatalogClient& client, const OpContext& ctx, const Op& op,
                    int64_t intended_ns, bool check, Tally* tally) {
  const Corpus& corpus = *ctx.corpus;
  ++tally->attempted;
  const int64_t start = NowNs();
  switch (op.kind) {
    case OpKind::kFindSelective:
    case OpKind::kFindBroad: {
      DatasetQuery query = BinQuery(op.a);
      const bool selective = op.kind == OpKind::kFindSelective;
      if (selective) {
        query.predicates.push_back(
            {"run", PredicateOp::kEq, static_cast<int64_t>(op.b)});
      }
      Result<NameList> names = client.FindDatasets(query);
      const int64_t end = NowNs();
      if (!names.ok()) {
        tally->Fail("FindDatasets: " + names.status().ToString());
        return;
      }
      tally->find.push_back({end, (end - intended_ns) * 1e-3});
      if (check && !SameNames(*names, selective ? corpus.CellTruth(op.a, op.b)
                                                : corpus.BinTruth(op.a))) {
        tally->Fail("FindDatasets bin=" + std::to_string(op.a) +
                    " returned a wrong answer");
        return;
      }
      if (ctx.trace) {
        OpRecord record{start, end};
        record.find = true;
        record.results = names->size();
        for (size_t k = 0; k < ctx.shards->size(); ++k) {
          record.candidates +=
              ctx.shards->catalog(k).ExplainFindDatasets(query)
                  .actual_candidates;
        }
        AddCodec(wire::MsgKind::kFindDatasets, wire::FindDatasetsReq{query},
                 wire::NamesResp{*names}, &record);
        tally->records.push_back(record);
      }
      return;
    }
    case OpKind::kLineage: {
      const size_t depth = corpus.spec().depth;
      Steps steps;
      std::string error = Walk(client, corpus.ChainName(op.a, depth),
                               corpus.ChainName(op.a, 0), depth,
                               ctx.trace ? &steps : nullptr);
      const int64_t end = NowNs();
      if (!error.empty()) {
        tally->Fail(error);
        return;
      }
      tally->lineage.push_back({end, (end - intended_ns) * 1e-3});
      if (ctx.trace) RecordWalk(steps, start, end, tally);
      return;
    }
    case OpKind::kBatchGet: {
      std::vector<ObjectKey> keys;
      for (size_t index : BatchGetIndices(corpus, op)) {
        keys.push_back({"dataset", corpus.DatasetName(index)});
      }
      Result<std::vector<ObjectRecord>> records = client.BatchGet(keys);
      const int64_t end = NowNs();
      if (!records.ok()) {
        tally->Fail("BatchGet: " + records.status().ToString());
        return;
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        const ObjectRecord& got = (*records)[i];
        if (!got.status.ok() || !got.dataset.has_value() ||
            got.dataset->name != keys[i].name) {
          tally->Fail("BatchGet returned a wrong record for " + keys[i].name);
          return;
        }
      }
      if (ctx.trace) {
        OpRecord record{start, end};
        AddCodec(wire::MsgKind::kBatchGet, wire::BatchGetReq{keys},
                 wire::RecordsResp{*records}, &record);
        tally->records.push_back(record);
      }
      return;
    }
    case OpKind::kAnnotate: {
      const std::string name = corpus.DatasetName(op.a);
      const AttributeValue value(static_cast<int64_t>(op.c));
      Status status = client.Annotate("dataset", name, "note", value);
      const int64_t end = NowNs();
      if (!status.ok()) {
        tally->Fail("Annotate: " + status.ToString());
        return;
      }
      tally->commit.push_back({end, (end - intended_ns) * 1e-3});
      if (ctx.trace) {
        OpRecord record{start, end, /*write=*/true};
        AddCodec(
            wire::Request{wire::MsgKind::kAnnotate,
                          wire::AnnotateReq{"dataset", name, "note", value}},
            wire::Response{wire::MsgKind::kAnnotate, Status::OK(), {}},
            &record);
        tally->records.push_back(record);
      }
      return;
    }
  }
}

CampaignWorker::CampaignWorker(uint64_t seed, uint32_t worker, size_t chains)
    : plan_(seed, worker, chains) {}

bool CampaignWorker::Step(CatalogClient& client, const OpContext& ctx,
                          Tally* tally) {
  const Corpus& corpus = *ctx.corpus;
  const uint32_t w = plan_.worker();
  const CampaignPoint point = plan_.Next();
  const uint64_t target = point.repeat ? point.of : point.index;
  const std::string sig = CampaignSignature(w, target);
  const std::string name = CampaignDerivation(w, target);

  // Dedup lookup: has this parameter point been produced already?
  DerivationQuery query;
  query.predicates.push_back({"param_sig", PredicateOp::kEq, sig});
  ++tally->attempted;
  const int64_t start = NowNs();
  Result<NameList> found = client.FindDerivations(query);
  const int64_t end = NowNs();
  if (!found.ok()) {
    tally->Fail("FindDerivations: " + found.status().ToString());
    return false;
  }
  tally->find.push_back({end, (end - start) * 1e-3});
  if (ctx.trace) {
    OpRecord record{start, end};
    record.find = true;
    record.results = found->size();
    for (size_t k = 0; k < ctx.shards->size(); ++k) {
      record.candidates += ctx.shards->catalog(k)
                               .ExplainFindDerivations(query)
                               .actual_candidates;
    }
    AddCodec(wire::MsgKind::kFindDerivations, wire::FindDerivationsReq{query},
             wire::NamesResp{*found}, &record);
    tally->records.push_back(record);
  }
  if (point.repeat) {
    if (found->size() != 1 || (*found)[0] != name) {
      tally->Fail("dedup lookup missed repeated point " + name);
      return false;
    }
    tally->point_ns.push_back(end);
    return true;
  }
  if (!found->empty()) {
    tally->Fail("new point " + name + " was already defined");
    return false;
  }

  const std::string output = CampaignOutput(w, point.index);
  const size_t depth = corpus.spec().depth;
  Derivation dv(name, kCampaignTransformation);
  (void)dv.AddArg(ActualArg::DatasetRef("out", output, ArgDirection::kOut));
  (void)dv.AddArg(ActualArg::DatasetRef(
      "in", corpus.ChainName(point.chain, depth), ArgDirection::kIn));
  (void)dv.AddArg(ActualArg::String("param", sig));
  if (!Commit(client, ctx,
              {CatalogMutation::DefineDerivation(std::move(dv)),
               CatalogMutation::Annotate("derivation", name, "param_sig", sig),
               CatalogMutation::Annotate("derivation", name, "campaign",
                                         "bench")},
              tally)) {
    return false;
  }

  Replica replica;
  replica.dataset = output;
  replica.site = "site-" + std::to_string(w);
  replica.storage_element = "se-0";
  replica.physical_path = "/prod/" + output;
  replica.size_bytes = 2 << 20;
  Invocation invocation;
  invocation.derivation = name;
  invocation.context.site = replica.site;
  invocation.context.host = "wn-" + std::to_string(point.index % 64);
  invocation.duration_s = 60;
  invocation.cpu_seconds = 55;
  if (!Commit(client, ctx,
              {CatalogMutation::AddReplica(std::move(replica)),
               CatalogMutation::RecordInvocation(std::move(invocation), {0}),
               CatalogMutation::SetDatasetSize(output, 2 << 20)},
              tally)) {
    return false;
  }
  acknowledged_.push_back(point.index);
  tally->dv_ns.push_back(NowNs());

  if (point.verify) {
    ++tally->attempted;
    Steps steps;
    const int64_t walk_start = NowNs();
    std::string error = Walk(client, output, corpus.ChainName(point.chain, 0),
                             depth + 1, ctx.trace ? &steps : nullptr);
    const int64_t walk_end = NowNs();
    if (!error.empty()) {
      tally->Fail(error);
      return false;
    }
    tally->lineage.push_back({walk_end, (walk_end - walk_start) * 1e-3});
    if (ctx.trace) RecordWalk(steps, walk_start, walk_end, tally);
  }
  tally->point_ns.push_back(NowNs());
  return true;
}

uint64_t CheckCampaign(ShardSet& shards, ShardedCatalogClient& sharded,
                       const std::vector<CampaignWorker>& workers,
                       std::string* first_error) {
  uint64_t violations = 0;
  auto violation = [&](const std::string& why) {
    ++violations;
    if (first_error->empty()) *first_error = why;
  };
  size_t acknowledged = 0;
  for (const CampaignWorker& worker : workers) {
    for (uint64_t point : worker.acknowledged()) {
      ++acknowledged;
      const std::string name = CampaignDerivation(worker.worker(), point);
      const std::string output = CampaignOutput(worker.worker(), point);
      DerivationQuery query;
      query.predicates.push_back(
          {"param_sig", PredicateOp::kEq,
           CampaignSignature(worker.worker(), point)});
      Result<NameList> found = sharded.FindDerivations(query);
      if (!found.ok() || found->size() != 1 || (*found)[0] != name) {
        violation("derivation " + name + " is not defined exactly once");
        continue;
      }
      Result<std::vector<Invocation>> invocations = sharded.InvocationsOf(name);
      if (!invocations.ok() || invocations->size() != 1) {
        violation("derivation " + name + " lacks exactly one invocation");
      }
      if (shards.catalog(sharded.ShardOf(output)).ReplicasOf(output, false)
              .size() != 1) {
        violation("output " + output + " lacks exactly one replica");
      }
    }
  }
  DerivationQuery all;
  all.name_prefix = "cmp-";
  Result<NameList> defined = sharded.FindDerivations(all);
  if (!defined.ok() || defined->size() != acknowledged) {
    violation("campaign defined " +
              std::to_string(defined.ok() ? defined->size() : 0) +
              " derivations for " + std::to_string(acknowledged) +
              " acknowledged points");
  }
  return violations;
}

}  // namespace perfbench
