// Seeded inputs of the benchmark: the catalog corpus with its ground
// truth, the discovery op schedule and the campaign plan. The program
// under test only ever sees what these generate; the same seed gives
// the same inputs and the same digests.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "catalog/batch.h"
#include "common/status.h"

namespace perfbench {

/// splitmix64: fully specified here so digests do not depend on the
/// standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Order-sensitive 64-bit digest (FNV-1a over the fed words).
class Digest {
 public:
  void Add(uint64_t word);
  void Add(const std::string& text);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Hex(uint64_t value);

struct CorpusSpec {
  size_t datasets = 100000;  // chain datasets included
  size_t chains = 2000;
  size_t depth = 8;          // derivations per chain
  uint32_t bins = 200;
  uint32_t runs = 50;
  size_t status_reputs = 2;    // extra puts of the `status` annotation
  uint32_t replica_every = 2;  // one replica per this many datasets
  uint32_t shards = 4;
  size_t tail_ops = 1000;      // journal tail appended after the snapshot
};

inline constexpr char kChainTransformation[] = "xf-chain";
inline constexpr char kCampaignTransformation[] = "xf-cms";

/// The discovery corpus: plain raw datasets plus `chains` derivation
/// chains of `depth` steps. Every dataset carries `bin` and `run`
/// annotations; the generator keeps the exact answer of every
/// bin / bin+run query.
class Corpus {
 public:
  Corpus(const CorpusSpec& spec, uint64_t seed);

  const CorpusSpec& spec() const { return spec_; }
  size_t plain_datasets() const { return spec_.datasets - ChainDatasets(); }

  /// Calls `load` with each stage of the setup mutation stream, in
  /// order. A stage's mutations depend only on earlier stages, and two
  /// mutations of one stage that share a RoutingKey must keep their
  /// order.
  vdg::Status ForEachSetupStage(
      const std::function<vdg::Status(std::vector<vdg::CatalogMutation>&)>&
          load) const;
  /// The journal tail written after the flat snapshot: annotation
  /// re-puts and replicas.
  std::vector<vdg::CatalogMutation> TailBatch() const;

  std::string DatasetName(size_t index) const;
  std::string ChainName(size_t chain, size_t depth) const;
  std::string ChainDerivation(size_t chain, size_t depth) const;

  const std::vector<std::string>& BinTruth(uint32_t bin) const {
    return by_bin_[bin];
  }
  const std::vector<std::string>& CellTruth(uint32_t bin, uint32_t run) const {
    return by_cell_[bin * spec_.runs + run];
  }
  /// Mutations in the setup stream plus the tail.
  size_t mutations() const { return mutations_; }
  uint64_t digest() const { return digest_; }

 private:
  size_t ChainDatasets() const { return spec_.chains * (spec_.depth + 1); }

  CorpusSpec spec_;
  uint64_t seed_;
  std::vector<uint32_t> bin_;
  std::vector<uint32_t> run_;
  std::vector<std::vector<std::string>> by_bin_;
  std::vector<std::vector<std::string>> by_cell_;
  size_t mutations_ = 0;
  uint64_t digest_ = 0;
};

/// The dataset a setup mutation is about (a derivation's output for a
/// derivation); "" for transformations.
std::string RoutingKey(const vdg::CatalogMutation& mutation);

enum class OpKind : uint8_t {
  kFindSelective,  // bin == b AND run == r
  kFindBroad,      // bin == b
  kLineage,        // leaf-to-raw walk, one GetProvenanceStep per hop
  kBatchGet,       // 8 datasets
  kAnnotate,       // a `note` put on one dataset
};

struct Op {
  int64_t at_ns = 0;  // intended start, from the phase start
  OpKind kind = OpKind::kFindSelective;
  uint32_t a = 0;     // bin / chain / dataset index
  uint32_t b = 0;     // run
  uint64_t c = 0;     // BatchGet key seed / annotation value
};

/// Draws one op of the discovery mix: finds 85% (two thirds
/// selective), lineage 10%, BatchGet 3%, Annotate 2%.
Op DrawDiscoveryOp(const Corpus& corpus, Rng& rng);
/// Poisson arrivals at `rate_per_s` over `seconds`.
std::vector<Op> OpenLoopSchedule(const Corpus& corpus, uint64_t seed,
                                 double rate_per_s, double seconds);
uint64_t ScheduleDigest(const std::vector<Op>& ops);
/// Dataset indices a BatchGet op fetches.
std::vector<size_t> BatchGetIndices(const Corpus& corpus, const Op& op);

/// One planned point of a production worker. One point in five repeats
/// an earlier point of the same worker: its dedup lookup must find the
/// derivation that point defined, and the worker skips it.
struct CampaignPoint {
  uint64_t index = 0;
  bool repeat = false;
  uint64_t of = 0;       // for repeats: the earlier point repeated
  uint32_t chain = 0;    // the chain leaf the derivation reads
  bool verify = false;   // walk the output's lineage after write-back
};

class CampaignPlan {
 public:
  CampaignPlan(uint64_t seed, uint32_t worker, size_t chains);
  CampaignPoint Next();
  uint32_t worker() const { return worker_; }

 private:
  Rng rng_;
  uint32_t worker_;
  size_t chains_;
  uint64_t next_ = 0;
  std::vector<uint64_t> fresh_;  // indices of non-repeat points so far
  std::vector<uint32_t> chain_of_;
};

std::string CampaignDerivation(uint32_t worker, uint64_t point);
std::string CampaignOutput(uint32_t worker, uint64_t point);
std::string CampaignSignature(uint32_t worker, uint64_t point);
/// Digest of the first `points` points of each worker's plan.
uint64_t CampaignDigest(uint64_t seed, uint32_t workers, size_t chains,
                        size_t points);

/// Nearest-rank percentile of `samples` (sorted in place).
double Percentile(std::vector<double>* samples, double pct);
/// Samples strictly above the nearest-rank `pct` percentile of `n`.
size_t SamplesBeyond(size_t n, double pct);
/// Splits time-ordered samples into as many equal-count windows (at most
/// 10) as keep at least 10 samples beyond `pct` in each, and returns the
/// median of the windows' `pct` percentiles: one stall moves one window.
double WindowedPercentile(const std::vector<double>& ordered, double pct);
/// Events per second in each of `windows` equal slices of [from, to),
/// appended to `*rates`.
void WindowRates(const std::vector<int64_t>& times, int64_t from, int64_t to,
                 int windows, std::vector<double>* rates);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
