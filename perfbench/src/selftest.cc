// Self-tests of the benchmark's own pieces: the tail-percentile rule,
// determinism of the generated inputs, and that the traced ladder
// answers exactly like the untraced one.
//
//   perfbench_selftest <scratch-dir>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "ladder.h"
#include "ops.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace vdg;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
    }                                                                 \
  } while (0)

void TestPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);
  CHECK(Percentile(&v, 50) == 50);
  CHECK(Percentile(&v, 99) == 99);
  CHECK(Percentile(&v, 100) == 100);
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(SamplesBeyond(999, 99) == 9);
  CHECK(SamplesBeyond(200, 95) == 10);

  // Windowed tail: windows shrink to keep 10 samples beyond the
  // percentile, and one stalled window does not move the result.
  std::vector<double> ordered(10000, 1.0);
  for (int i = 0; i < 2000; ++i) ordered[i] = 1000.0;  // first window stalls
  std::vector<double> copy = ordered;
  CHECK(Percentile(&copy, 99.5) == 1000.0);
  CHECK(WindowedPercentile(ordered, 99.5) == 1.0);  // 5 windows of 2000
  std::vector<double> few(1999, 1.0);  // p99 needs 1000 per window: one
  for (int i = 0; i < 25; ++i) few[i * 40] = 5.0;
  copy = few;
  CHECK(WindowedPercentile(few, 99) == Percentile(&copy, 99));
  CHECK(WindowedPercentile(std::vector<double>(5, 2.0), 99) == 2.0);

  // Window rates: events per second in each equal window, appended; a
  // burst moves only its own window.
  std::vector<int64_t> times;
  for (int64_t t = 0; t < 1000000000; t += 1000000) times.push_back(t);
  times.insert(times.end(), 500, 100);  // a burst in the first window
  std::vector<double> rates = {7.0};
  WindowRates(times, 0, 1000000000, 4, &rates);
  CHECK(rates == std::vector<double>({7.0, 3000.0, 1000.0, 1000.0, 1000.0}));
}

CorpusSpec SmallSpec() {
  CorpusSpec spec;
  spec.datasets = 3000;
  spec.chains = 40;
  spec.bins = 20;
  spec.runs = 5;
  spec.tail_ops = 40;
  return spec;
}

void TestDeterminism() {
  const CorpusSpec spec = SmallSpec();
  const Corpus a(spec, 7), b(spec, 7), c(spec, 8);
  CHECK(a.digest() == b.digest());
  CHECK(a.digest() != c.digest());
  CHECK(ScheduleDigest(OpenLoopSchedule(a, 7, 500, 2)) ==
        ScheduleDigest(OpenLoopSchedule(b, 7, 500, 2)));
  CHECK(ScheduleDigest(OpenLoopSchedule(a, 7, 500, 2)) !=
        ScheduleDigest(OpenLoopSchedule(a, 8, 500, 2)));
  CHECK(CampaignDigest(7, 4, spec.chains, 256) ==
        CampaignDigest(7, 4, spec.chains, 256));
  CHECK(CampaignDigest(7, 4, spec.chains, 256) !=
        CampaignDigest(8, 4, spec.chains, 256));
  // Repeats only ever name an earlier fresh point of the same worker.
  CampaignPlan plan(7, 0, spec.chains);
  std::vector<bool> fresh;
  for (int i = 0; i < 500; ++i) {
    CampaignPoint p = plan.Next();
    CHECK(p.index == static_cast<uint64_t>(i));
    if (p.repeat) CHECK(p.of < p.index && fresh[p.of]);
    fresh.push_back(!p.repeat);
  }
}

std::string Describe(const Result<ProvenanceStep>& step) {
  if (!step.ok()) return step.status().ToString();
  std::string out = step->dataset + "|" + (step->exists ? "1" : "0") + "|" +
                    step->producer + "|" +
                    std::to_string(step->invocations.size());
  if (step->derivation) out += "|" + step->derivation->SignatureText();
  return out;
}

void TestTracedLadderIdentity(const std::string& scratch) {
  const CorpusSpec spec = SmallSpec();
  const Corpus corpus(spec, 11);
  const std::string dir = scratch + "/selftest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto built = ShardSet::Open(dir, spec.shards, ShardSet::OpenMode::kReplay,
                                nullptr, nullptr, nullptr);
    CHECK(built.ok());
    if (!built.ok()) return;
    ShardedCatalogClient loader((*built)->Clients(nullptr));
    Status loaded = corpus.ForEachSetupStage(
        [&](std::vector<CatalogMutation>& stage) -> Status {
          VDG_ASSIGN_OR_RETURN(BatchResult r, loader.ApplyBatch(stage));
          return r.applied == stage.size() ? Status::OK() : r.first_error;
        });
    CHECK(loaded.ok());
  }
  // Two copies of the corpus, so the two ladders write separate journals.
  const std::string copy = dir + "-traced";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  SpanLog log;
  auto plain_set = ShardSet::Open(dir, spec.shards,
                                  ShardSet::OpenMode::kReplay, nullptr,
                                  nullptr, nullptr);
  auto traced_set = ShardSet::Open(copy, spec.shards,
                                   ShardSet::OpenMode::kReplay, &log, nullptr,
                                   nullptr);
  CHECK(plain_set.ok() && traced_set.ok());
  if (!plain_set.ok() || !traced_set.ok()) return;
  Service plain(plain_set->get(), nullptr, 1);
  Service traced(traced_set->get(), &log, 1);
  CatalogClient& p = plain.client(0);
  CatalogClient& t = traced.client(0);

  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Op op = DrawDiscoveryOp(corpus, rng);
    DatasetQuery query;
    query.predicates.push_back(
        {"bin", PredicateOp::kEq, static_cast<int64_t>(op.a % spec.bins)});
    if (op.kind == OpKind::kFindSelective) {
      query.predicates.push_back(
          {"run", PredicateOp::kEq, static_cast<int64_t>(op.b)});
    }
    Result<NameList> a = p.FindDatasets(query), b = t.FindDatasets(query);
    CHECK(a.ok() && b.ok() && a->ToStrings() == b->ToStrings());
    const std::string name = corpus.DatasetName(rng.Below(spec.datasets));
    CHECK(Describe(p.GetProvenanceStep(name)) ==
          Describe(t.GetProvenanceStep(name)));
  }
  // Ground truth through the traced ladder.
  for (uint32_t bin = 0; bin < spec.bins; ++bin) {
    DatasetQuery query;
    query.predicates.push_back(
        {"bin", PredicateOp::kEq, static_cast<int64_t>(bin)});
    Result<NameList> got = t.FindDatasets(query);
    CHECK(got.ok() && got->ToStrings() == corpus.BinTruth(bin));
  }
  // Writes: the same batch through both ladders gives the same statuses.
  for (uint32_t w = 0; w < 2; ++w) {
    OpContext ctx{&corpus, nullptr, false};
    Tally ta, tb;
    CampaignWorker wa(5, w, spec.chains), wb(5, w, spec.chains);
    for (int i = 0; i < 20; ++i) {
      CHECK(wa.Step(p, ctx, &ta));
      CHECK(wb.Step(t, ctx, &tb));
    }
    CHECK(wa.acknowledged() == wb.acknowledged());
    CHECK(ta.failed == 0 && tb.failed == 0);
  }
  // Every traced call left spans at each join.
  bool wire = false, backend = false, shard = false, journal = false;
  for (const Span& s : log.Take()) {
    wire |= s.layer == Layer::kWire;
    backend |= s.layer == Layer::kBackend;
    shard |= s.layer == Layer::kShard;
    journal |= s.layer == Layer::kJournalAppend;
  }
  CHECK(wire && backend && shard && journal);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch-dir>\n");
    return 2;
  }
  perfbench::TestPercentileRule();
  perfbench::TestDeterminism();
  perfbench::TestTracedLadderIdentity(argv[1]);
  std::filesystem::remove_all(std::string(argv[1]) + "/selftest");
  std::filesystem::remove_all(std::string(argv[1]) + "/selftest-traced");
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
