// The client side of every workload: one call sequence per op kind,
// issued through a CatalogClient (the resilient end of the ladder),
// with its latency, its oracle check and, on traced runs, its codec
// cost measured on the op's own requests and responses.
#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/client.h"
#include "ladder.h"
#include "workload.h"

namespace perfbench {

/// One client-side op on a traced run: its span and what the offline
/// codec replay of its frames cost.
struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool write = false;  // Annotate / ApplyBatch
  bool find = false;   // FindDatasets / FindDerivations
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  uint32_t round_trips = 0;
  uint64_t candidates = 0;  // Explain*: planner candidates over all shards
  uint64_t results = 0;
};

/// One latency sample: when the op completed and how long it took.
struct Sample {
  int64_t at_ns = 0;
  double us = 0;
};

/// Sample values in completion order.
std::vector<double> InTimeOrder(std::vector<Sample> samples);

/// What one client thread saw.
struct Tally {
  std::vector<Sample> find;
  std::vector<Sample> lineage;
  std::vector<Sample> commit;
  std::vector<double> lag_us;  // open loop: send time - intended time
  std::vector<int64_t> done_ns;   // closed loop: op completion times
  std::vector<int64_t> point_ns;  // campaign: planned points handled
  std::vector<int64_t> dv_ns;     // campaign: derivations acknowledged
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed, refused or wrong
  std::vector<OpRecord> records;
  std::string first_error;

  void Fail(const std::string& why);
  void Merge(Tally&& other);
};

struct OpContext {
  const Corpus* corpus = nullptr;
  ShardSet* shards = nullptr;  // traced runs: for ExplainFindDatasets
  bool trace = false;
};

/// Issues `op`; latency counts from `intended_ns` (the open-loop due
/// time, or the send time for a closed loop). `check` compares the
/// answer with the generator's ground truth.
void RunDiscoveryOp(vdg::CatalogClient& client, const OpContext& ctx,
                    const Op& op, int64_t intended_ns, bool check,
                    Tally* tally);

/// One production worker: dedup lookup, define batch, write-back batch
/// and, for one new point in four, a lineage walk of its output.
class CampaignWorker {
 public:
  CampaignWorker(uint64_t seed, uint32_t worker, size_t chains);
  /// Handles the next planned point; false once an op failed.
  bool Step(vdg::CatalogClient& client, const OpContext& ctx, Tally* tally);
  /// Points whose derivation was acknowledged.
  const std::vector<uint64_t>& acknowledged() const { return acknowledged_; }
  uint32_t worker() const { return plan_.worker(); }

 private:
  CampaignPlan plan_;
  std::vector<uint64_t> acknowledged_;
};

/// Checks the campaign's result in-process: every acknowledged
/// derivation exists once, with one replica and one invocation, and no
/// other campaign derivation exists. Returns the number of violations.
uint64_t CheckCampaign(ShardSet& shards, vdg::ShardedCatalogClient& sharded,
                       const std::vector<CampaignWorker>& workers,
                       std::string* first_error);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
