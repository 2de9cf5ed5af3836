#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <variant>

#include "schema/derivation.h"
#include "schema/transformation.h"

namespace perfbench {

using namespace vdg;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::Add(const std::string& text) {
  Add(text.size());
  for (unsigned char ch : text) {
    h_ ^= ch;
    h_ *= 0x100000001b3ull;
  }
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

Transformation MakeTransformation(const char* name, bool with_param) {
  Transformation xf(name, Transformation::Kind::kSimple);
  FormalArg out;
  out.name = "out";
  out.direction = ArgDirection::kOut;
  (void)xf.AddArg(std::move(out));
  FormalArg in;
  in.name = "in";
  in.direction = ArgDirection::kIn;
  (void)xf.AddArg(std::move(in));
  if (with_param) {
    FormalArg param;
    param.name = "param";
    param.direction = ArgDirection::kNone;
    (void)xf.AddArg(std::move(param));
  }
  xf.set_executable(std::string("/usr/local/bin/") + name);
  return xf;
}

}  // namespace

Corpus::Corpus(const CorpusSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed) {
  Rng rng(seed ^ 0xc0b905ull);
  Digest digest;
  digest.Add(spec.datasets);
  digest.Add(spec.chains);
  digest.Add(spec.depth);
  digest.Add(spec.status_reputs);
  digest.Add(spec.replica_every);
  digest.Add(spec.tail_ops);
  bin_.resize(spec.datasets);
  run_.resize(spec.datasets);
  by_bin_.assign(spec.bins, {});
  by_cell_.assign(static_cast<size_t>(spec.bins) * spec.runs, {});
  for (size_t i = 0; i < spec.datasets; ++i) {
    bin_[i] = static_cast<uint32_t>(rng.Below(spec.bins));
    run_[i] = static_cast<uint32_t>(rng.Below(spec.runs));
    digest.Add((static_cast<uint64_t>(bin_[i]) << 32) | run_[i]);
    std::string name = DatasetName(i);
    by_bin_[bin_[i]].push_back(name);
    by_cell_[bin_[i] * spec.runs + run_[i]].push_back(std::move(name));
  }
  for (auto& names : by_bin_) std::sort(names.begin(), names.end());
  for (auto& names : by_cell_) std::sort(names.begin(), names.end());
  for (const CatalogMutation& m : TailBatch()) {
    if (const auto* a = std::get_if<CatalogMutation::AnnotateOp>(&m.op)) {
      digest.Add(a->name);
    } else if (const auto* r =
                   std::get_if<CatalogMutation::AddReplicaOp>(&m.op)) {
      digest.Add(r->replica.dataset);
    }
  }
  const size_t derived = spec.chains * spec.depth;
  mutations_ = 2 + (spec.datasets - derived) + derived * 4 +
               (spec.datasets + spec.replica_every - 1) / spec.replica_every +
               spec.datasets * spec.status_reputs + spec.tail_ops;
  digest_ = digest.value();
}

std::string Corpus::DatasetName(size_t index) const {
  const size_t plain = plain_datasets();
  if (index < plain) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ds-%06zu", index);
    return buf;
  }
  const size_t k = index - plain;
  return ChainName(k / (spec_.depth + 1), k % (spec_.depth + 1));
}

std::string Corpus::ChainName(size_t chain, size_t depth) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ch-%04zu-%zu", chain, depth);
  return buf;
}

std::string Corpus::ChainDerivation(size_t chain, size_t depth) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dv-%04zu-%zu", chain, depth);
  return buf;
}

Status Corpus::ForEachSetupStage(
    const std::function<Status(std::vector<CatalogMutation>&)>& load) const {
  std::vector<CatalogMutation> stage;
  auto flush = [&]() -> Status {
    Status s = load(stage);
    stage.clear();
    return s;
  };

  stage.push_back(CatalogMutation::DefineTransformation(
      MakeTransformation(kChainTransformation, false)));
  stage.push_back(CatalogMutation::DefineTransformation(
      MakeTransformation(kCampaignTransformation, true)));
  VDG_RETURN_IF_ERROR(flush());

  // Raw datasets: every plain dataset and the head of every chain.
  const size_t plain = plain_datasets();
  const size_t stride = spec_.depth + 1;
  for (size_t i = 0; i < spec_.datasets; ++i) {
    if (i >= plain && (i - plain) % stride != 0) continue;
    Dataset ds;
    ds.name = DatasetName(i);
    ds.descriptor = DatasetDescriptor::File("/store/raw/" + ds.name);
    ds.size_bytes = static_cast<int64_t>(1 << 20) + static_cast<int64_t>(i);
    ds.annotations.Set("bin", static_cast<int64_t>(bin_[i]));
    ds.annotations.Set("run", static_cast<int64_t>(run_[i]));
    ds.annotations.Set("status", "v0");
    stage.push_back(CatalogMutation::DefineDataset(std::move(ds)));
  }
  VDG_RETURN_IF_ERROR(flush());

  // Chains, one level per stage so every input already exists.
  for (size_t d = 1; d <= spec_.depth; ++d) {
    for (size_t c = 0; c < spec_.chains; ++c) {
      const size_t index = plain + c * stride + d;
      const std::string out = ChainName(c, d);
      Derivation dv(ChainDerivation(c, d), kChainTransformation);
      (void)dv.AddArg(ActualArg::DatasetRef("out", out, ArgDirection::kOut));
      (void)dv.AddArg(
          ActualArg::DatasetRef("in", ChainName(c, d - 1), ArgDirection::kIn));
      stage.push_back(CatalogMutation::DefineDerivation(std::move(dv)));
      stage.push_back(CatalogMutation::Annotate(
          "dataset", out, "bin", static_cast<int64_t>(bin_[index])));
      stage.push_back(CatalogMutation::Annotate(
          "dataset", out, "run", static_cast<int64_t>(run_[index])));
      stage.push_back(CatalogMutation::Annotate("dataset", out, "status", "v0"));
    }
    VDG_RETURN_IF_ERROR(flush());
  }

  for (size_t i = 0; i < spec_.datasets; i += spec_.replica_every) {
    Replica replica;
    replica.dataset = DatasetName(i);
    replica.site = "site-" + std::to_string(i % 4);
    replica.storage_element = "se-0";
    replica.physical_path = "/store/" + replica.dataset;
    replica.size_bytes = static_cast<int64_t>(1 << 20);
    stage.push_back(CatalogMutation::AddReplica(std::move(replica)));
  }
  for (size_t r = 1; r <= spec_.status_reputs; ++r) {
    const std::string value = "v" + std::to_string(r);
    for (size_t i = 0; i < spec_.datasets; ++i) {
      stage.push_back(
          CatalogMutation::Annotate("dataset", DatasetName(i), "status", value));
    }
  }
  return flush();
}

std::string RoutingKey(const CatalogMutation& mutation) {
  return std::visit(
      [](const auto& op) -> std::string {
        using T = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<T, CatalogMutation::DefineDatasetOp>) {
          return op.dataset.name;
        } else if constexpr (std::is_same_v<
                                 T, CatalogMutation::DefineDerivationOp>) {
          std::vector<std::string> outputs = op.derivation.OutputDatasets();
          return outputs.empty() ? op.derivation.name() : outputs[0];
        } else if constexpr (std::is_same_v<T, CatalogMutation::AnnotateOp>) {
          return op.name;
        } else if constexpr (std::is_same_v<T, CatalogMutation::AddReplicaOp>) {
          return op.replica.dataset;
        } else {
          return "";
        }
      },
      mutation.op);
}

std::vector<CatalogMutation> Corpus::TailBatch() const {
  Rng rng(seed_ ^ 0x7a11ull);
  std::vector<CatalogMutation> tail;
  tail.reserve(spec_.tail_ops);
  for (size_t k = 0; k < spec_.tail_ops; ++k) {
    const std::string name = DatasetName(rng.Below(spec_.datasets));
    if (k % 2 == 0) {
      tail.push_back(CatalogMutation::Annotate("dataset", name, "status",
                                               "t" + std::to_string(k)));
    } else {
      Replica replica;
      replica.dataset = name;
      replica.site = "site-tail";
      replica.storage_element = "se-1";
      replica.physical_path = "/tail/" + name + "/" + std::to_string(k);
      replica.size_bytes = 4096;
      tail.push_back(CatalogMutation::AddReplica(std::move(replica)));
    }
  }
  return tail;
}

Op DrawDiscoveryOp(const Corpus& corpus, Rng& rng) {
  const CorpusSpec& spec = corpus.spec();
  Op op;
  const double pick = rng.Unit();
  if (pick < 0.57) {
    op.kind = OpKind::kFindSelective;
    op.a = static_cast<uint32_t>(rng.Below(spec.bins));
    op.b = static_cast<uint32_t>(rng.Below(spec.runs));
  } else if (pick < 0.85) {
    op.kind = OpKind::kFindBroad;
    op.a = static_cast<uint32_t>(rng.Below(spec.bins));
  } else if (pick < 0.95) {
    op.kind = OpKind::kLineage;
    op.a = static_cast<uint32_t>(rng.Below(spec.chains));
  } else if (pick < 0.98) {
    op.kind = OpKind::kBatchGet;
    op.c = rng.Next();
  } else {
    op.kind = OpKind::kAnnotate;
    op.a = static_cast<uint32_t>(rng.Below(spec.datasets));
    op.c = rng.Next() >> 16;
  }
  return op;
}

std::vector<Op> OpenLoopSchedule(const Corpus& corpus, uint64_t seed,
                                 double rate_per_s, double seconds) {
  Rng rng(seed ^ 0x5c4edull);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(rate_per_s * seconds * 1.05) + 16);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0;
  const double horizon = seconds * 1e9;
  while (true) {
    t += -std::log(1.0 - rng.Unit()) * mean_gap_ns;
    if (t >= horizon) break;
    Op op = DrawDiscoveryOp(corpus, rng);
    op.at_ns = static_cast<int64_t>(t);
    ops.push_back(op);
  }
  return ops;
}

uint64_t ScheduleDigest(const std::vector<Op>& ops) {
  Digest digest;
  for (const Op& op : ops) {
    digest.Add(static_cast<uint64_t>(op.at_ns));
    digest.Add((static_cast<uint64_t>(op.kind) << 56) ^
               (static_cast<uint64_t>(op.a) << 24) ^ op.b);
    digest.Add(op.c);
  }
  return digest.value();
}

std::vector<size_t> BatchGetIndices(const Corpus& corpus, const Op& op) {
  Rng rng(op.c);
  std::vector<size_t> out(8);
  for (size_t& index : out) index = rng.Below(corpus.spec().datasets);
  return out;
}

CampaignPlan::CampaignPlan(uint64_t seed, uint32_t worker, size_t chains)
    : rng_(seed ^ (0xca3a16ull + worker * 0x100000001b3ull)),
      worker_(worker),
      chains_(chains) {}

CampaignPoint CampaignPlan::Next() {
  CampaignPoint point;
  point.index = next_++;
  if (!fresh_.empty() && rng_.Below(5) == 0) {
    point.repeat = true;
    point.of = fresh_[rng_.Below(fresh_.size())];
    point.chain = chain_of_[point.of];
  } else {
    point.chain = static_cast<uint32_t>(rng_.Below(chains_));
    point.verify = fresh_.size() % 4 == 0;
    fresh_.push_back(point.index);
  }
  chain_of_.push_back(point.chain);
  return point;
}

std::string CampaignDerivation(uint32_t worker, uint64_t point) {
  return "cmp-" + std::to_string(worker) + "-" + std::to_string(point);
}
std::string CampaignOutput(uint32_t worker, uint64_t point) {
  return "cmpo-" + std::to_string(worker) + "-" + std::to_string(point);
}
std::string CampaignSignature(uint32_t worker, uint64_t point) {
  return "sig-" + std::to_string(worker) + "-" + std::to_string(point);
}

uint64_t CampaignDigest(uint64_t seed, uint32_t workers, size_t chains,
                        size_t points) {
  Digest digest;
  for (uint32_t w = 0; w < workers; ++w) {
    CampaignPlan plan(seed, w, chains);
    for (size_t i = 0; i < points; ++i) {
      CampaignPoint p = plan.Next();
      digest.Add(p.index);
      digest.Add((p.repeat ? 1ull : 0ull) | (p.verify ? 2ull : 0ull));
      digest.Add(p.of);
      digest.Add(p.chain);
    }
  }
  return digest.value();
}

double Percentile(std::vector<double>* samples, double pct) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*samples)[rank - 1];
}

size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double WindowedPercentile(const std::vector<double>& ordered, double pct) {
  const size_t n = ordered.size();
  const size_t per_window_min =
      static_cast<size_t>(std::ceil(10.0 / (1.0 - pct / 100.0) - 1e-9));
  const size_t windows =
      std::clamp<size_t>(per_window_min == 0 ? 1 : n / per_window_min, 1, 10);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> slice(ordered.begin() + n * w / windows,
                              ordered.begin() + n * (w + 1) / windows);
    tails.push_back(Percentile(&slice, pct));
  }
  return Percentile(&tails, 50);
}

void WindowRates(const std::vector<int64_t>& times, int64_t from, int64_t to,
                 int windows, std::vector<double>* rates) {
  if (to <= from || windows <= 0) return;
  std::vector<double> counts(windows, 0.0);
  const double width = static_cast<double>(to - from) / windows;
  for (int64_t t : times) {
    if (t < from || t >= to) continue;
    const int w = std::min(windows - 1, static_cast<int>((t - from) / width));
    counts[w] += 1;
  }
  for (double c : counts) rates->push_back(c / (width * 1e-9));
}

}  // namespace perfbench
