// perfbench: one end-to-end benchmark of the catalog service.
//
// Every run builds a 10^5-dataset corpus over 4 shard journals on disk,
// restarts the shards from those journals and serves them through the
// real ladder (Resilient -> Wire -> CatalogServer -> Sharded ->
// catalogs) to client threads of this process. The workload decides
// where the measured seconds go:
//   discovery  rounds of open-loop analysts at a frozen offered rate,
//              a closed-loop capacity slice and a campaign slice
//   campaign   closed-loop production workers writing derivations
// and each reports every end-to-end metric (--trace 0) or every
// per-layer metric from a single-in-flight traced run (--trace 1).
// Restarts (full replay and flat snapshot) run in every run, before
// serving.
//
//   perfbench --workload <w> --seed <n> --seconds <s> --trace <0|1>
//             --rate <ops/s> --tail-pct find=<pct>,lineage=<pct>,commit=<pct>
//             --scratch <dir>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ladder.h"
#include "ops.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace vdg;
namespace fs = std::filesystem;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr size_t kSetupBatchOps = 8192;
constexpr size_t kMaxClients = 4;
constexpr double kWarmupSeconds = 0.5;
// Discovery cuts its measured seconds into rounds of an open-loop slice,
// a capacity slice and a campaign slice, in these shares. A host slow
// period of a few seconds then touches a few rounds of every metric
// instead of one whole metric, and the medians over windows pass it by.
constexpr double kRoundSeconds = 2.5;
constexpr double kOpenShare = 0.5;
constexpr double kCapacityShare = 0.2;
constexpr double kCapacityWarmupShare = 0.1;  // of each capacity slice
constexpr uint64_t kCheckEvery = 16;  // finds compared to ground truth
constexpr size_t kRestarts = 5;       // restart cycles in untraced runs
// Open-loop health: the run is invalid when most ops leave late (the
// generator fell behind) or more than a quarter of the open-loop slices
// end with their last tenth still leaving late (a backlog grew). A lone
// stall is neither.
constexpr double kMaxLagP90Us = 20000;
constexpr double kMaxFinalLagP50Us = 5000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double rate = 0;
  std::map<std::string, double> tail_pct;
  std::string scratch;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--rate") {
      args->rate = std::atof(value.c_str());
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--tail-pct") {
      size_t pos = 0;
      while (pos < value.size()) {
        size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        const std::string item = value.substr(pos, comma - pos);
        const size_t eq = item.find('=');
        if (eq == std::string::npos) {
          *error = "bad --tail-pct item " + item;
          return false;
        }
        args->tail_pct[item.substr(0, eq)] = std::atof(item.c_str() + eq + 1);
        pos = comma + 1;
      }
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload != "discovery" && args->workload != "campaign") {
    *error = "--workload must be discovery or campaign";
    return false;
  }
  if (args->seconds <= 0 || args->rate <= 0 || args->scratch.empty()) {
    *error = "--seconds, --rate and --scratch are required";
    return false;
  }
  for (const char* kind : {"find", "lineage", "commit"}) {
    if (args->tail_pct.count(kind) == 0) {
      *error = std::string("--tail-pct needs ") + kind;
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}


void SleepUntil(int64_t ns) {
  timespec ts;
  ts.tv_sec = ns / 1000000000;
  ts.tv_nsec = ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Everything a run measured, besides the per-phase tallies.
struct Measures {
  std::vector<double> setup_s;
  std::vector<double> save_s;
  std::vector<double> open_s;
  std::vector<double> open_snapshot_s;
  std::vector<double> read_s;    // traced replay opens, per shard
  std::vector<double> replay_s;  // traced replay opens, per shard
  uint64_t snapshot_opens = 0;   // shard opens from a flat snapshot
  uint64_t snapshot_used = 0;
  uint64_t tail_records = 0;
  uint64_t journal_bytes = 0;    // after setup
  uint64_t setup_objects = 0;
  uint64_t restart_failures = 0;
  std::string first_error;

  void Fail(const std::string& why) {
    ++restart_failures;
    if (first_error.empty()) first_error = why;
  }
};

std::vector<uint64_t> StateDigests(ShardSet& set) {
  std::vector<uint64_t> digests(set.size());
  std::vector<std::thread> threads;
  for (size_t k = 0; k < set.size(); ++k) {
    threads.emplace_back([&, k] {
      Digest digest;
      for (const std::string& record : set.catalog(k).CurrentStateRecords()) {
        digest.Add(record);
      }
      digests[k] = digest.value();
    });
  }
  for (std::thread& t : threads) t.join();
  return digests;
}

/// Writes the files in `dir` back to disk now, so that the kernel's
/// delayed writeback (30 s after the write) cannot land in the middle of
/// a measured phase.
void WriteBack(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

/// Builds the corpus into `dir`: shard journals, one flat snapshot per
/// shard, then the journal tail. Returns each shard's state digest.
Result<std::vector<uint64_t>> BuildCorpus(const Corpus& corpus,
                                          const std::string& dir,
                                          Measures* m) {
  fs::create_directories(dir);
  const uint32_t shards = corpus.spec().shards;
  // Set-up time counts the catalog's work, not the generator's: the
  // clock runs while mutations are committed and snapshots saved.
  double busy_s = 0;
  int64_t start = NowNs();
  VDG_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardSet> set,
      ShardSet::Open(dir, shards, ShardSet::OpenMode::kReplay, nullptr,
                     nullptr, nullptr));
  ShardedClientOptions options;
  options.id_tag = "setup";
  ShardedCatalogClient sharded(set->Clients(nullptr), options);
  auto commit = [&](const std::vector<CatalogMutation>& batch) -> Status {
    VDG_ASSIGN_OR_RETURN(BatchResult result, sharded.ApplyBatch(batch));
    if (result.applied != batch.size()) return result.first_error;
    return Status::OK();
  };
  busy_s += (NowNs() - start) * 1e-9;
  // One loader thread per shard: each stage is dealt out by the shard
  // of the dataset a mutation is about, so the loaders mostly write
  // different shards.
  const ShardRouter router(shards);
  auto load = [&](std::vector<CatalogMutation>& stage) -> Status {
    std::vector<std::vector<std::vector<CatalogMutation>>> batches(shards);
    for (CatalogMutation& mutation : stage) {
      auto& mine = batches[router.ShardOf(RoutingKey(mutation))];
      if (mine.empty() || mine.back().size() == kSetupBatchOps) {
        mine.emplace_back();
      }
      mine.back().push_back(std::move(mutation));
    }
    std::vector<Status> statuses(shards, Status::OK());
    std::vector<std::thread> loaders;
    const int64_t begin = NowNs();
    for (uint32_t k = 0; k < shards; ++k) {
      loaders.emplace_back([&, k] {
        for (const std::vector<CatalogMutation>& batch : batches[k]) {
          statuses[k] = commit(batch);
          if (!statuses[k].ok()) break;
        }
      });
    }
    for (std::thread& t : loaders) t.join();
    busy_s += (NowNs() - begin) * 1e-9;
    for (const Status& s : statuses) VDG_RETURN_IF_ERROR(s);
    return Status::OK();
  };
  VDG_RETURN_IF_ERROR(corpus.ForEachSetupStage(load));
  std::vector<CatalogMutation> tail = corpus.TailBatch();
  start = NowNs();
  for (uint32_t k = 0; k < shards; ++k) {
    VDG_RETURN_IF_ERROR(set->catalog(k).SaveSnapshotFile(SnapshotPath(dir, k)));
  }
  m->save_s.push_back((NowNs() - start) * 1e-9);
  VDG_RETURN_IF_ERROR(commit(tail));
  busy_s += (NowNs() - start) * 1e-9;
  m->setup_s.push_back(busy_s);

  const int64_t digest_start = NowNs();
  std::vector<uint64_t> digests = StateDigests(*set);
  std::fprintf(stderr, "setup %.3fs (snapshot save %.3fs), state digest %.3fs\n",
               m->setup_s.back(), m->save_s.back(),
               (NowNs() - digest_start) * 1e-9);
  m->setup_objects = set->Objects();
  set.reset();
  m->journal_bytes = 0;
  for (uint32_t k = 0; k < shards; ++k) {
    m->journal_bytes += fs::file_size(JournalPath(dir, k));
  }
  return digests;
}

/// Reopens every shard twice — full journal replay, then flat snapshot
/// plus tail — checks both against the pre-restart state and returns
/// the snapshot-opened set.
Result<std::unique_ptr<ShardSet>> RestartCycle(
    const std::string& dir, uint32_t shards,
    const std::vector<uint64_t>& expected, SpanLog* log, Measures* m) {
  double wall = 0;
  std::vector<double> per_shard;
  if (log != nullptr) log->Take();
  VDG_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardSet> replayed,
      ShardSet::Open(dir, shards, ShardSet::OpenMode::kReplay, log, &wall,
                     &per_shard));
  m->open_s.push_back(wall);
  if (log != nullptr) {
    for (const Span& span : log->Take()) {
      if (span.layer != Layer::kJournalRead) continue;
      const double read = (span.end_ns - span.start_ns) * 1e-9;
      m->read_s.push_back(read);
      m->replay_s.push_back(per_shard[span.shard] - read);
    }
  }
  if (StateDigests(*replayed) != expected) {
    m->Fail("replayed shards differ from the pre-restart state");
  }
  replayed.reset();

  VDG_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardSet> snapshot,
      ShardSet::Open(dir, shards, ShardSet::OpenMode::kSnapshot, log, &wall,
                     nullptr));
  m->open_snapshot_s.push_back(wall);
  for (size_t k = 0; k < snapshot->size(); ++k) {
    VirtualDataCatalog::SnapshotLoadReport report =
        snapshot->catalog(k).last_snapshot_load();
    ++m->snapshot_opens;
    if (report.used && report.fallback_reason.empty()) {
      ++m->snapshot_used;
    } else {
      m->Fail("shard " + std::to_string(k) +
              " fell back to replay: " + report.fallback_reason);
    }
    m->tail_records += report.tail_records_replayed;
  }
  if (StateDigests(*snapshot) != expected) {
    m->Fail("snapshot-opened shards differ from the pre-restart state");
  }
  std::fprintf(stderr, "restart: replay %.3fs, snapshot %.3fs\n",
               m->open_s.back(), m->open_snapshot_s.back());
  if (log != nullptr) log->Take();
  return snapshot;
}

// ---------------------------------------------------------------------
// Serving phases
// ---------------------------------------------------------------------

template <typename Body>
Tally RunThreads(size_t threads, Body body) {
  std::vector<Tally> tallies(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { body(t, &tallies[t]); });
  }
  for (std::thread& th : pool) th.join();
  Tally total;
  for (Tally& t : tallies) total.Merge(std::move(t));
  return total;
}

/// Traced runs trace every other op: the op's context asks for records
/// and the span log records. The untraced ops between them go through
/// the same (forwarding) decorators and give the tracing overhead.
/// Returns where op `n` reports to: `*traced` or `plain`.
Tally* Alternate(uint64_t n, SpanLog* alternate, const OpContext& ctx,
                 OpContext* op_ctx, Tally* traced, Tally* plain) {
  *op_ctx = ctx;
  if (alternate == nullptr || n % 2 == 1) {
    if (alternate != nullptr) alternate->set_enabled(false);
    return plain;
  }
  alternate->set_enabled(true);
  op_ctx->trace = true;
  return traced;
}

/// Open loop over one slice of the schedule (due times from the slice
/// start): the ops are dealt round-robin to the client threads, and each
/// op is timed from its intended start. `*final_lag_us` gets the median
/// lag over the slice's last tenth. With `alternate` (one client), every
/// other op is traced into `*traced`.
Tally OpenLoop(Service& service, const OpContext& ctx,
               const std::vector<Op>& ops, SpanLog* alternate, Tally* traced,
               double* final_lag_us) {
  const size_t threads = service.clients();
  const int64_t origin = NowNs() + 2000000;
  std::vector<std::vector<double>> final_lag(threads);
  Tally tally = RunThreads(threads, [&](size_t t, Tally* out) {
    CatalogClient& client = service.client(t);
    OpContext op_ctx;
    for (size_t i = t; i < ops.size(); i += threads) {
      const int64_t due = origin + ops[i].at_ns;
      SleepUntil(due);
      const double lag = (NowNs() - due) * 1e-3;
      out->lag_us.push_back(lag);
      if (i >= ops.size() - ops.size() / 10) final_lag[t].push_back(lag);
      Tally* to = Alternate(i, alternate, ctx, &op_ctx, traced, out);
      RunDiscoveryOp(client, op_ctx, ops[i], due, i % kCheckEvery == 0, to);
    }
    if (alternate != nullptr) alternate->set_enabled(false);
  });
  std::vector<double> tail;
  for (auto& v : final_lag) tail.insert(tail.end(), v.begin(), v.end());
  *final_lag_us = Percentile(&tail, 50);
  return tally;
}

/// Cuts a schedule into `n` consecutive slices of `slice_ns` each, with
/// due times rebased to the slice's start.
std::vector<std::vector<Op>> Slices(const std::vector<Op>& ops,
                                    int64_t slice_ns, size_t n) {
  std::vector<std::vector<Op>> slices(n);
  for (Op op : ops) {
    const size_t k = static_cast<size_t>(op.at_ns / slice_ns);
    if (k >= n) continue;
    op.at_ns -= static_cast<int64_t>(k) * slice_ns;
    slices[k].push_back(op);
  }
  return slices;
}

/// Windows of this length cut a throughput phase into samples.
constexpr double kRateWindowSeconds = 0.25;

int RateWindows(int64_t from, int64_t to) {
  return std::max(1, static_cast<int>(std::lround((to - from) * 1e-9 /
                                                  kRateWindowSeconds)));
}

/// Closed loop over the discovery mix; the completion rates of its
/// windows after a short warm-up are appended to `*ops_per_s`.
Tally ClosedLoop(Service& service, const OpContext& ctx, uint64_t seed,
                 double seconds, std::vector<double>* ops_per_s) {
  const int64_t start = NowNs();
  const int64_t counted_from =
      start + static_cast<int64_t>(kCapacityWarmupShare * seconds * 1e9);
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  Tally tally = RunThreads(service.clients(), [&](size_t t, Tally* out) {
    Rng rng(seed ^ (0xc105edull * (t + 1)));
    CatalogClient& client = service.client(t);
    for (uint64_t n = 0;; ++n) {
      const int64_t now = NowNs();
      if (now >= stop) break;
      RunDiscoveryOp(client, ctx, DrawDiscoveryOp(*ctx.corpus, rng), now,
                     n % kCheckEvery == 0, out);
      out->done_ns.push_back(NowNs());
    }
  });
  WindowRates(tally.done_ns, counted_from, stop,
              RateWindows(counted_from, stop), ops_per_s);
  return tally;
}

/// Closed-loop production campaign, one worker per client; each call
/// continues the workers' plans. The windows' rates are appended to
/// `*points_per_s` and `*dvs_per_s`. With `alternate` (one client),
/// every other point is traced into `*traced`.
Tally Campaign(Service& service, const OpContext& ctx, double seconds,
               std::vector<CampaignWorker>& workers, SpanLog* alternate,
               Tally* traced, std::vector<double>* points_per_s,
               std::vector<double>* dvs_per_s) {
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  Tally tally = RunThreads(service.clients(), [&](size_t t, Tally* out) {
    CampaignWorker& worker = workers[t];
    OpContext op_ctx;
    for (uint64_t n = 0; NowNs() < stop; ++n) {
      Tally* to = Alternate(n, alternate, ctx, &op_ctx, traced, out);
      if (!worker.Step(service.client(t), op_ctx, to)) break;
    }
    if (alternate != nullptr) alternate->set_enabled(false);
  });
  if (traced != nullptr) {
    tally.point_ns.insert(tally.point_ns.end(), traced->point_ns.begin(),
                          traced->point_ns.end());
    tally.dv_ns.insert(tally.dv_ns.end(), traced->dv_ns.begin(),
                       traced->dv_ns.end());
  }
  const int windows = RateWindows(start, stop);
  WindowRates(tally.point_ns, start, stop, windows, points_per_s);
  WindowRates(tally.dv_ns, start, stop, windows, dvs_per_s);
  return tally;
}

// ---------------------------------------------------------------------
// Trace attribution
// ---------------------------------------------------------------------

/// Per-layer self times of one traced phase. Spans nest by time: every
/// span is charged to the innermost enclosing span one level up (op >
/// wire > backend > shard > journal); with one request in flight that
/// is the span that caused it.
struct Breakdown {
  uint64_t ops = 0, round_trips = 0, backend_calls = 0, read_calls = 0,
           write_calls = 0, legs = 0, appends = 0, flushes = 0, syncs = 0,
           misnested = 0;
  double op_ns = 0, resilient_self_ns = 0, wire_self_ns = 0,
         sharding_self_ns = 0, read_ns = 0, read_self_ns = 0, commit_ns = 0,
         commit_self_ns = 0, journal_ns = 0, append_ns = 0, flush_ns = 0,
         sync_ns = 0, append_bytes = 0, encode_ns = 0, decode_ns = 0,
         candidates = 0, results = 0, skew_sum = 0;
  uint64_t skew_n = 0;
  double self_sum_ns = 0;
};

int LevelOf(Layer layer) {
  switch (layer) {
    case Layer::kWire: return 1;
    case Layer::kBackend: return 2;
    case Layer::kShard: return 3;
    default: return 4;
  }
}

Breakdown Attribute(const std::vector<OpRecord>& records,
                    const std::vector<Span>& spans) {
  struct Item {
    int64_t start, end;
    int level;
    Layer layer;
    size_t op;  // index into records, or npos
    uint64_t bytes;
    double child_ns = 0;
    std::vector<double> legs;
  };
  constexpr size_t npos = static_cast<size_t>(-1);
  std::vector<Item> items;
  for (size_t i = 0; i < records.size(); ++i) {
    items.push_back({records[i].start_ns, records[i].end_ns, 0, Layer::kWire,
                     i, 0});
  }
  for (const Span& s : spans) {
    if (s.layer == Layer::kJournalRead) continue;
    items.push_back({s.start_ns, s.end_ns, LevelOf(s.layer), s.layer, npos,
                     s.bytes});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.start != b.start ? a.start < b.start : a.level < b.level;
  });
  Breakdown b;
  std::vector<size_t> stack;
  for (size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    while (!stack.empty() && items[stack.back()].end < item.end) {
      stack.pop_back();
    }
    if (item.level > 0) {
      if (stack.empty() || items[stack.back()].level != item.level - 1) {
        ++b.misnested;  // not attributable: stays out of every sum
        continue;
      }
      Item& parent = items[stack.back()];
      const double dur = static_cast<double>(item.end - item.start);
      parent.child_ns += dur;
      if (item.level == 3) parent.legs.push_back(dur);
      item.op = parent.op;
    }
    stack.push_back(i);
  }
  for (const Item& item : items) {
    if (item.op == npos) continue;
    const OpRecord& op = records[item.op];
    const double dur = static_cast<double>(item.end - item.start);
    const double self = dur - item.child_ns;
    b.self_sum_ns += self;
    switch (item.level) {
      case 0:
        ++b.ops;
        b.op_ns += dur;
        b.resilient_self_ns += self;
        b.encode_ns += op.encode_ns;
        b.decode_ns += op.decode_ns;
        if (op.find) {
          // An empty answer counts as one result: candidates examined
          // per answer, never a division by zero.
          b.candidates += op.candidates;
          b.results += std::max<uint64_t>(op.results, 1);
        }
        break;
      case 1:
        ++b.round_trips;
        b.wire_self_ns += self;
        break;
      case 2:
        ++b.backend_calls;
        (op.write ? b.write_calls : b.read_calls) += 1;
        b.sharding_self_ns += self;
        if (!op.write && item.legs.size() >= 2) {  // scatter/gather reads
          std::vector<double> legs = item.legs;
          const double top = *std::max_element(legs.begin(), legs.end());
          const double mid = Median(legs);
          if (mid > 0) {
            b.skew_sum += top / mid;
            ++b.skew_n;
          }
        }
        break;
      case 3:
        ++b.legs;
        if (op.write) {
          b.commit_ns += dur;
          b.commit_self_ns += self;
        } else {
          b.read_ns += dur;
          b.read_self_ns += self;
        }
        break;
      default:
        b.journal_ns += dur;
        if (item.layer == Layer::kJournalAppend) {
          ++b.appends;
          b.append_ns += dur;
          b.append_bytes += item.bytes;
        } else if (item.layer == Layer::kJournalFlush) {
          ++b.flushes;
          b.flush_ns += dur;
        } else {
          ++b.syncs;
          b.sync_ns += dur;
        }
        break;
    }
  }
  return b;
}

void DumpSpans(const std::string& path, const std::vector<OpRecord>& records,
               const std::vector<Span>& spans) {
  std::ofstream out(path);
  static const char* kNames[] = {"wire",          "backend",      "shard",
                                 "journal.append", "journal.flush",
                                 "journal.sync",   "journal.read"};
  for (const OpRecord& r : records) {
    out << "{\"layer\":\"op\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"write\":" << r.write
        << ",\"round_trips\":" << r.round_trips
        << ",\"encode_ns\":" << r.encode_ns << ",\"decode_ns\":" << r.decode_ns
        << "}\n";
  }
  for (const Span& s : spans) {
    out << "{\"layer\":\"" << kNames[static_cast<int>(s.layer)]
        << "\",\"shard\":" << static_cast<int>(s.shard)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"bytes\":" << s.bytes << "}\n";
  }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Tail of one latency class (time-ordered samples), refusing a
/// percentile with fewer than 10 samples beyond it.
double Tail(const std::vector<double>& ordered, double pct, const char* what,
            std::vector<std::string>* problems) {
  if (SamplesBeyond(ordered.size(), pct) < 10) {
    problems->push_back(std::string(what) + ": p" + Number(pct) + " of " +
                        std::to_string(ordered.size()) +
                        " samples has fewer than 10 beyond it");
  }
  return WindowedPercentile(ordered, pct);
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to record from a build with "
                       "assertions enabled\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to record from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // Open-loop due times need sleeps that end on time, not 50us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const bool traced = args.trace;
  const std::string& workload = args.workload;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t clients = traced ? 1 : std::min<size_t>(kMaxClients, nproc);
  const double T = args.seconds;
  CorpusSpec spec;
  const Corpus corpus(spec, args.seed);
  // The untraced discovery schedule at the frozen rate, whatever this
  // run plays: its digest stands for the seed's inputs.
  const std::vector<Op> schedule_probe =
      OpenLoopSchedule(corpus, args.seed, args.rate, kOpenShare * T);

  const bool discovery = workload == "discovery";
  // Untraced discovery runs the schedule in rounds of one open-loop
  // slice each; a traced run plays it in one piece and does nothing else.
  const size_t rounds = std::max<size_t>(1, std::lround(T / kRoundSeconds));
  const double round_s = T / rounds;
  const double open_slice_s = traced ? T : kOpenShare * round_s;
  // The offered rate is frozen for the whole benchmark; a traced run
  // gives its single client the per-client share of it.
  const double rate = traced ? args.rate / kMaxClients : args.rate;
  const size_t open_slices = traced ? 1 : rounds;
  const std::vector<std::vector<Op>> schedule = Slices(
      OpenLoopSchedule(corpus, args.seed, rate, open_slices * open_slice_s),
      static_cast<int64_t>(open_slice_s * 1e9), open_slices);

  std::printf("digest corpus=%s schedule=%s campaign=%s\n",
              Hex(corpus.digest()).c_str(),
              Hex(ScheduleDigest(schedule_probe)).c_str(),
              Hex(CampaignDigest(args.seed, kMaxClients, spec.chains, 4096))
                  .c_str());
  std::fflush(stdout);

  // Each run works in its own directory; ones left by runs that died are
  // removed so that killed runs cannot fill the disk.
  const std::string run_dir =
      args.scratch + "/run-" + std::to_string(getpid());
  fs::create_directories(args.scratch);
  for (const auto& entry : fs::directory_iterator(args.scratch)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) != 0) continue;
    const pid_t pid = static_cast<pid_t>(std::atol(name.c_str() + 4));
    if (pid > 0 && kill(pid, 0) != 0 && errno == ESRCH) {
      fs::remove_all(entry.path());
    }
  }
  fs::remove_all(run_dir);
  SpanLog log;
  SpanLog* span_log = traced ? &log : nullptr;
  Measures m;

  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    fs::remove_all(run_dir);
    return 1;
  };

  // Set-up, several times; the last corpus is the one restarted and served.
  const int setups = traced ? 1 : 3;
  std::vector<uint64_t> expected;
  std::string dir;
  for (int i = 0; i < setups; ++i) {
    if (!dir.empty()) fs::remove_all(dir);
    dir = run_dir + "/setup" + std::to_string(i);
    Result<std::vector<uint64_t>> built = BuildCorpus(corpus, dir, &m);
    if (!built.ok()) return fail("setup: " + built.status().ToString());
    expected = *built;
  }
  WriteBack(dir);

  // Restart cycles on the last corpus; open times are medians over them.
  std::unique_ptr<ShardSet> shards;
  const size_t restarts = traced ? 1 : kRestarts;
  while (m.open_s.size() < restarts) {
    shards.reset();
    Result<std::unique_ptr<ShardSet>> reopened =
        RestartCycle(dir, spec.shards, expected, span_log, &m);
    if (!reopened.ok()) return fail("restart: " + reopened.status().ToString());
    shards = std::move(*reopened);
  }

  // Memory: the peak over set-up and restarts. The serving peak is left
  // out: it depends on when the allocator's per-thread arenas hand back
  // superseded snapshots, which varied by 10% between seeds.
  const double rss_mb = PeakRssMb();

  // Serving.
  std::vector<CampaignWorker> workers;
  Tally open_tally, capacity_tally, campaign_tally, traced_tally;
  bool healthy = true;
  size_t backlog_slices = 0;
  std::vector<double> capacity_rates, point_rates, dv_rates;
  Breakdown breakdown;
  std::vector<Span> spans;
  WireClientStats wire_before, wire_after;
  uint64_t campaign_violations = 0;
  std::string campaign_error;
  std::vector<double> primary_lag;
  {
    Service service(shards.get(), span_log, clients);
    OpContext ctx{&corpus, shards.get(), false};
    log.set_enabled(false);
    // Warm-up: connect every client and touch the indexes once.
    std::vector<double> warm_rates;
    Tally warmup = ClosedLoop(service, ctx, args.seed ^ 0x3a93ull,
                              kWarmupSeconds, &warm_rates);
    for (size_t t = 0; t < service.clients(); ++t) {
      workers.emplace_back(args.seed, static_cast<uint32_t>(t), spec.chains);
    }

    // Traced runs trace every other op of the main phase and run nothing
    // else.
    SpanLog* alternate = traced ? &log : nullptr;
    Tally* traced_out = traced ? &traced_tally : nullptr;
    log.Take();
    wire_before = service.WireStats();
    if (discovery) {
      for (size_t r = 0; r < open_slices; ++r) {
        double final_lag = 0;
        open_tally.Merge(OpenLoop(service, ctx, schedule[r], alternate,
                                  traced_out, &final_lag));
        if (final_lag > kMaxFinalLagP50Us) ++backlog_slices;
        if (traced) continue;
        capacity_tally.Merge(ClosedLoop(service, ctx,
                                        args.seed ^ (0x9e3779b9ull * (r + 1)),
                                        kCapacityShare * round_s,
                                        &capacity_rates));
        campaign_tally.Merge(Campaign(
            service, ctx, (1 - kOpenShare - kCapacityShare) * round_s,
            workers, nullptr, nullptr, &point_rates, &dv_rates));
      }
      primary_lag = open_tally.lag_us;
      std::vector<double> lag = primary_lag;
      healthy = Percentile(&lag, 90) <= kMaxLagP90Us &&
                backlog_slices * 4 <= open_slices;
    } else {
      campaign_tally = Campaign(service, ctx, T, workers, alternate,
                                traced_out, &point_rates, &dv_rates);
      capacity_rates = point_rates;
    }
    wire_after = service.WireStats();
    if (traced) {
      spans = log.Take();
      breakdown = Attribute(traced_tally.records, spans);
    }
    if (!workers.empty()) {
      campaign_violations = CheckCampaign(*shards, service.sharded(), workers,
                                          &campaign_error);
    }

    // Per-layer counters of the whole serving part.
    const ResilientStats resilient = service.ResilientTotals();
    const ServerStats& server = service.server_stats();
    const WireClientStats wire = service.WireStats();
    m.first_error = m.first_error.empty() ? campaign_error : m.first_error;

    // ------------------------------------------------------------------
    std::vector<std::string> problems;
    Tally all;
    for (Tally* t : {&warmup, &open_tally, &capacity_tally, &campaign_tally,
                     &traced_tally}) {
      all.attempted += t->attempted;
      all.failed += t->failed;
      if (!t->first_error.empty()) problems.push_back(t->first_error);
    }
    all.failed += campaign_violations + m.restart_failures;
    if (!m.first_error.empty()) problems.push_back(m.first_error);
    // An invalid open loop is a measurement verdict, not a wrong answer:
    // it goes to the context line and stderr, not into `correct`.
    if (!healthy) {
      std::fprintf(stderr, "perfbench: invalid run: the open loop fell "
                           "behind its schedule\n");
    }

    std::vector<Metric> metrics;
    std::vector<double> lag = primary_lag;
    const double lag_p99 = lag.empty() ? 0 : Percentile(&lag, 99);
    if (!traced) {
      // Latency sources: on discovery the open loop's analysts, on
      // campaign its dedup lookups and walks. Commits are the campaign's
      // ApplyBatch calls on both: the open loop's few annotations would
      // not give a steady tail.
      const Tally& reads = discovery ? open_tally : campaign_tally;
      const std::vector<double> find = InTimeOrder(reads.find),
                          lineage = InTimeOrder(reads.lineage),
                          commit = InTimeOrder(campaign_tally.commit);
      metrics = {
          {"setup_s", Median(m.setup_s), "s"},
          {"find_p50_us", WindowedPercentile(find, 50), "us"},
          {"find_tail_us", Tail(find, args.tail_pct["find"], "find", &problems),
           "us"},
          {"lineage_p50_us", WindowedPercentile(lineage, 50), "us"},
          {"lineage_tail_us",
           Tail(lineage, args.tail_pct["lineage"], "lineage", &problems), "us"},
          {"commit_p50_us", WindowedPercentile(commit, 50), "us"},
          {"commit_tail_us",
           Tail(commit, args.tail_pct["commit"], "commit", &problems), "us"},
          {"capacity_ops_s", Median(capacity_rates), "1/s"},
          {"campaign_dv_per_s", Median(dv_rates), "1/s"},
          {"open_s", Median(m.open_s), "s"},
          {"open_snapshot_s", Median(m.open_snapshot_s), "s"},
          {"rss_mb", rss_mb, "MB"},
      };
      std::fprintf(stderr,
                   "samples find=%zu lineage=%zu commit=%zu setups=%zu "
                   "restarts=%zu points=%llu\n",
                   find.size(), lineage.size(), commit.size(),
                   m.setup_s.size(), m.open_s.size(),
                   static_cast<unsigned long long>(
                       campaign_tally.point_ns.size()));
    } else {
      const Breakdown& b = breakdown;
      auto per = [](double v, uint64_t n) { return n == 0 ? 0.0 : v / n; };
      const double codec_ns = b.encode_ns + b.decode_ns;
      const uint64_t ops = std::max<uint64_t>(b.ops, 1);
      // Every op of the main phase, traced or not, crossed the wire.
      const Tally& plain = discovery ? open_tally : campaign_tally;
      const double phase_ops =
          std::max<double>(1, traced_tally.attempted + plain.attempted);
      const double traced_find_p50 = Median(InTimeOrder(traced_tally.find));
      const double untraced_find_p50 = Median(InTimeOrder(plain.find));
      const double self_ratio = b.op_ns > 0 ? b.self_sum_ns / b.op_ns : 0;
      metrics = {
          {"federation.server.handoff_us",
           per(b.wire_self_ns - codec_ns, b.round_trips) * 1e-3, "us"},
          {"catalog.wire.encode_us", per(b.encode_ns, b.round_trips) * 1e-3,
           "us"},
          {"catalog.wire.decode_us", per(b.decode_ns, b.round_trips) * 1e-3,
           "us"},
          {"federation.wire_client.bytes_per_op",
           static_cast<double>(wire_after.bytes_sent + wire_after.bytes_received -
                               wire_before.bytes_sent -
                               wire_before.bytes_received) /
               phase_ops,
           "bytes"},
          {"federation.wire_client.round_trips_per_op",
           static_cast<double>(wire_after.round_trips - wire_before.round_trips) /
               phase_ops,
           "count"},
          {"federation.resilient.self_us", per(b.resilient_self_ns, b.ops) * 1e-3,
           "us"},
          {"federation.resilient.retries",
           static_cast<double>(resilient.retries), "count"},
          {"federation.resilient.exhausted_calls",
           static_cast<double>(resilient.exhausted_calls), "count"},
          {"catalog.sharding.self_us",
           per(b.sharding_self_ns, b.backend_calls) * 1e-3, "us"},
          {"catalog.sharding.legs_per_op",
           per(static_cast<double>(b.legs), b.backend_calls), "count"},
          {"catalog.sharding.leg_skew", per(b.skew_sum, b.skew_n), "ratio"},
          {"catalog.catalog.read_us", per(b.read_self_ns, b.read_calls) * 1e-3,
           "us"},
          {"catalog.catalog.candidates_per_result",
           b.results > 0 ? b.candidates / b.results : 0, "ratio"},
          {"catalog.catalog.commit_us", per(b.commit_ns, b.write_calls) * 1e-3,
           "us"},
          {"catalog.catalog.commit_self_us",
           per(b.commit_self_ns, b.write_calls) * 1e-3, "us"},
          {"catalog.catalog.objects", static_cast<double>(shards->Objects()),
           "count"},
          {"catalog.journal.append_us", per(b.append_ns, b.appends) * 1e-3,
           "us"},
          {"catalog.journal.flush_us", per(b.flush_ns, b.flushes) * 1e-3, "us"},
          {"catalog.journal.sync_us", per(b.sync_ns, b.syncs) * 1e-3, "us"},
          {"catalog.journal.bytes_per_mutation",
           per(b.append_bytes, b.appends), "bytes"},
          {"catalog.journal.bytes_per_object",
           per(static_cast<double>(m.journal_bytes), m.setup_objects),
           "bytes"},
          {"catalog.journal.read_s", Median(m.read_s), "s"},
          {"catalog.catalog.replay_s", Median(m.replay_s), "s"},
          {"catalog.flatsnap.used",
           per(static_cast<double>(m.snapshot_used), m.snapshot_opens),
           "ratio"},
          {"catalog.flatsnap.tail_records",
           per(static_cast<double>(m.tail_records), m.snapshot_opens),
           "count"},
          {"catalog.flatsnap.save_s", Median(m.save_s), "s"},
          {"federation.server.queue_rejections",
           static_cast<double>(server.queue_rejections.load()), "count"},
          {"federation.server.batch_dedup_hits",
           static_cast<double>(server.batch_dedup_hits.load()), "count"},
          {"federation.wire_client.deadline_expiries",
           static_cast<double>(wire.deadline_expiries), "count"},
          {"bench.gen_lag_p99_us", lag_p99, "us"},
          {"bench.trace.self_sum_ratio", self_ratio, "ratio"},
          {"bench.trace.find_p50_us", traced_find_p50, "us"},
          {"bench.trace.overhead_ratio",
           untraced_find_p50 > 0 ? traced_find_p50 / untraced_find_p50 : 0,
           "ratio"},
      };
      if (std::fabs(self_ratio - 1.0) > 0.10 || b.misnested > 0) {
        problems.push_back("layer self times sum to " + Number(self_ratio) +
                           " of the traced latency (" +
                           std::to_string(b.misnested) + " misnested spans)");
      }
      // Self-time table: where one op's time went, layer by layer.
      std::fprintf(stderr, "self time per op (%llu ops, %llu round trips):\n",
                   static_cast<unsigned long long>(b.ops),
                   static_cast<unsigned long long>(b.round_trips));
      const std::pair<const char*, double> rows[] = {
          {"resilient + client glue", b.resilient_self_ns},
          {"wire handoff (queues, wakeups, copies)", b.wire_self_ns - codec_ns},
          {"wire codec (encode + decode)", codec_ns},
          {"sharding (route, scatter, gather)", b.sharding_self_ns},
          {"catalog reads", b.read_self_ns},
          {"catalog commits (without journal)", b.commit_self_ns},
          {"journal", b.journal_ns},
      };
      for (const auto& [label, ns] : rows) {
        std::fprintf(stderr, "  %-40s %10.2f us  %5.1f%%\n", label,
                     ns / ops * 1e-3, b.op_ns > 0 ? 100.0 * ns / b.op_ns : 0);
      }
      std::fprintf(stderr, "  %-40s %10.2f us  (sum/e2e %.4f)\n",
                   "end to end", b.op_ns / ops * 1e-3, self_ratio);
      std::fprintf(stderr, "tracing overhead: find p50 %.1f us traced vs "
                           "%.1f us untraced\n",
                   traced_find_p50, untraced_find_p50);
      const std::string trace_dir = args.scratch + "/traces";
      fs::create_directories(trace_dir);
      DumpSpans(trace_dir + "/" + workload + "-seed" +
                    std::to_string(args.seed) + ".jsonl",
                traced_tally.records, spans);
    }

    // Context: host, build and configuration of this result.
    std::string context = "{";
    auto field = [&](const std::string& k, const std::string& v) {
      if (context.size() > 1) context += ",";
      context += Quote(k) + ":" + v;
    };
    field("workload", Quote(workload));
    field("seed", std::to_string(args.seed));
    field("trace", traced ? "1" : "0");
    field("nproc", std::to_string(nproc));
    field("compiler", Quote(CompilerString()));
    field("build_type", Quote(PERFBENCH_BUILD_TYPE));
    field("clients", std::to_string(clients));
    field("datasets", std::to_string(spec.datasets));
    field("shards", std::to_string(spec.shards));
    field("chains", std::to_string(spec.chains));
    field("chain_depth", std::to_string(spec.depth));
    field("setup_mutations", std::to_string(corpus.mutations()));
    field("objects_after_setup", std::to_string(m.setup_objects));
    field("offered_rate_ops_s", Number(args.rate));
    field("rounds", std::to_string(discovery ? open_slices : 0));
    field("server_workers", std::to_string(service.server_options().workers));
    field("server_queue_capacity",
          std::to_string(service.server_options().queue_capacity));
    field("fanout", Quote("sequential (ShardedClientOptions default)"));
    field("transport", Quote("in-memory duplex pipe (server default)"));
    field("journal_flush_policy",
          Quote("FileJournal: fwrite+fflush per commit, no fsync"));
    field("open", Quote("4 shards in parallel, one thread each"));
    field("tail_pct", Quote("find=" + Number(args.tail_pct["find"]) +
                            ",lineage=" + Number(args.tail_pct["lineage"]) +
                            ",commit=" + Number(args.tail_pct["commit"])));
    field("valid", healthy ? "true" : "false");
    field("backlog_slices", std::to_string(backlog_slices));
    field("gen_lag_p99_us", Number(lag_p99));
    field("corpus_digest", Quote(Hex(corpus.digest())));
    field("schedule_digest", Quote(Hex(ScheduleDigest(schedule_probe))));
    field("modeled_metrics", "[]");
    context += "}";
    std::printf("context %s\n", context.c_str());

    for (const std::string& p : problems) {
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
    std::string line = "{\"correct\": ";
    line += problems.empty() && all.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                      all.attempted, 1));
    line += ", \"failed\": " + std::to_string(all.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) line += ", ";
      line += Quote(metrics[i].name) + ": {\"value\": " +
              Number(metrics[i].value) + ", \"unit\": " +
              Quote(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  shards.reset();
  fs::remove_all(run_dir);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
