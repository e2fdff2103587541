// perfbench: the end-to-end benchmark of the secret-shared XML store over
// its real socket path. See README.md for the workloads, the metrics and
// how the traced run splits a read's time across layers.
//
//   perfbench --workload doc_fetch --seed 1 --seconds 20 --trace 0
//             --work-dir <dir> --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics on an untraced deployment;
// --trace 1 runs the same workload untraced and then traced, checks that
// tracing changed no answer, and reports the per-layer metrics. The last
// line of standard output is one JSON object.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "deploy.h"
#include "gf/field.h"
#include "core/database.h"
#include "trace.h"
#include "workload.h"
#include "xmark/generator.h"

namespace perfbench {
namespace {

using ssdb::Status;
using ssdb::StatusOr;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/traces";
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Status::InvalidArgument("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args.seconds < 1 || args.seconds > 600) {
        return Status::InvalidArgument("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) return Status::InvalidArgument("flags take one value");
  if (args.workload.empty()) return Status::InvalidArgument("--workload");
  return args;
}

// Client-side layer split of one operation, from its slice stub calls.
struct OpLayers {
  int64_t self_ns = 0;     // wall time no stub call covers
  int64_t fanout_ns = 0;   // wall time beyond the slowest document's span
  int64_t skew_ns = 0;     // per fan-out step: slowest minus fastest slice
  int64_t stub_ns = 0;     // summed stub call time ...
  int64_t channel_ns = 0;  // ... of which inside the channels
  uint64_t calls = 0;
  uint64_t messages = 0;
};

OpLayers Analyze(std::vector<StubCall> calls, int64_t begin, int64_t end) {
  OpLayers out;
  std::sort(calls.begin(), calls.end(),
            [](const StubCall& a, const StubCall& b) {
              return a.begin_ns < b.begin_ns;
            });
  int64_t covered = 0;
  int64_t reach = begin;
  std::map<uint32_t, std::pair<int64_t, int64_t>> doc_span;
  // A fan-out step is the n-th call of one method on each slice of a
  // document; it costs its slowest slice call.
  struct Step {
    int64_t fastest = 0;
    int64_t slowest = 0;
    uint32_t calls = 0;
  };
  std::map<std::tuple<uint32_t, uint32_t, Method>, uint32_t> seq;
  std::map<std::tuple<uint32_t, Method, uint32_t>, Step> steps;
  for (const StubCall& c : calls) {
    int64_t from = std::max(c.begin_ns, reach);
    int64_t to = std::min(c.end_ns, end);
    if (to > from) covered += to - from;
    reach = std::max(reach, c.end_ns);
    auto [it, fresh] = doc_span.try_emplace(c.doc, c.begin_ns, c.end_ns);
    if (!fresh) it->second.second = std::max(it->second.second, c.end_ns);
    int64_t duration = c.end_ns - c.begin_ns;
    Step& step = steps[{c.doc, c.method, seq[{c.doc, c.slice, c.method}]++}];
    step.fastest = step.calls == 0 ? duration : std::min(step.fastest, duration);
    step.slowest = std::max(step.slowest, duration);
    ++step.calls;
    out.stub_ns += duration;
    out.channel_ns += c.channel_ns;
    ++out.calls;
  }
  int64_t slowest_doc = 0;
  for (const auto& [doc, span] : doc_span) {
    slowest_doc = std::max(slowest_doc, span.second - span.first);
  }
  for (const auto& [key, step] : steps) {
    if (step.calls > 1) out.skew_ns += step.slowest - step.fastest;
  }
  out.self_ns = (end - begin) - covered;
  out.fanout_ns = calls.empty() ? 0 : (end - begin) - slowest_doc;
  return out;
}

struct OpRecord {
  uint32_t client = 0;
  uint32_t read = 0;  // template index of a read
  int round = -1;     // measured round, -1 in the warm-up pass
  bool write = false;
  WriteKind kind = WriteKind::kRetag;  // of a write
  bool check_only = false;
  bool warmup = false;
  bool ok = true;
  int64_t ns = 0;  // from the call to its checked result
  uint64_t trips = 0;
  uint64_t bytes = 0;
  uint64_t digest = 0;
  uint64_t result_size = 0;
  uint64_t candidates = 0;
  uint64_t reshared_bytes = 0;
  OpLayers layers;  // traced deployments only

  bool measured_read() const { return !write && !check_only; }
};

constexpr size_t kBuckets = static_cast<size_t>(Bucket::kCount);

// Attributes the servers' own counters (requests handled, buffer pool) to
// the bucket that was current while they moved. Switch only while every
// client is between operations.
class BucketMeter {
 public:
  explicit BucketMeter(Deployment* dep)
      : dep_(dep), last_requests_(dep->RequestsHandled()),
        last_pool_(dep->Pool()) {}

  void Switch(Bucket next) {
    size_t b = static_cast<size_t>(CurrentBucket());
    uint64_t requests = dep_->RequestsHandled();
    PoolCounters pool = dep_->Pool();
    requests_[b] += requests - last_requests_;
    pool_[b].hits += pool.hits - last_pool_.hits;
    pool_[b].misses += pool.misses - last_pool_.misses;
    pool_[b].evictions += pool.evictions - last_pool_.evictions;
    last_requests_ = requests;
    last_pool_ = pool;
    SetBucket(next);
  }
  uint64_t requests(Bucket b) const { return requests_[static_cast<size_t>(b)]; }
  const PoolCounters& pool(Bucket b) const {
    return pool_[static_cast<size_t>(b)];
  }

 private:
  Deployment* dep_;
  uint64_t last_requests_;
  PoolCounters last_pool_;
  std::array<uint64_t, kBuckets> requests_{};
  std::array<PoolCounters, kBuckets> pool_{};
};

struct PhaseResult {
  std::vector<OpRecord> records;
  double read_wall_s = 0;  // wall time of the measured read phase
  // Every slice's storage statistics once the warm-up writes are applied.
  std::vector<ssdb::storage::StorageStats> warm_stats;
};

// Runs a workload's op lists against one deployment.
class Runner {
 public:
  static constexpr int kRounds = 10;

  Runner(const Workload& w, const Oracle& oracle, Deployment* dep,
         bool traced)
      : w_(w), oracle_(oracle), dep_(dep), traced_(traced) {
    for (uint32_t c = 0; c < w.deploy.clients; ++c) {
      ClientState cs;
      cs.index = c;
      clients_.push_back(std::move(cs));
    }
    if (traced_) meter_ = std::make_unique<BucketMeter>(dep);
  }

  const BucketMeter* meter() const { return meter_.get(); }

  // A warm-up pass of every op list (on read-only workloads the write list
  // too), then kRounds measured rounds. A round runs every client's ops for
  // read_seconds / kRounds; on read-only workloads client 0 then runs
  // `writes` / kRounds writes of the write list alone. Spreading the writes
  // over the run keeps one noisy stretch of the host from owning the write
  // tail. A write burst is whole pairs, so readers always see the original
  // document.
  StatusOr<PhaseResult> Run(double read_seconds, size_t writes) {
    PhaseResult out;
    const bool single = w_.deploy.clients == 1;
    auto all_clients = [&](size_t count, int64_t deadline, bool warmup) {
      std::vector<std::thread> threads;
      for (ClientState& cs : clients_) {
        threads.emplace_back([&, count, deadline, warmup] {
          RunOps(&cs, w_.ops[cs.index], &cs.read_pos, count, deadline,
                 warmup, single);
        });
      }
      for (std::thread& t : threads) t.join();
    };
    ClientState& writer = clients_[0];
    // Each write of the write list is followed by its check read.
    const size_t burst = 2 * writes / kRounds;
    if (!w_.interleaved && (burst % 4 != 0 || w_.write_ops.size() % 4 != 0)) {
      return Status::InvalidArgument("write bursts must be whole pairs");
    }
    all_clients(w_.ops[0].size(), 0, /*warmup=*/true);
    if (!w_.interleaved) {
      RunOps(&writer, w_.write_ops, &writer.write_pos, w_.write_ops.size(), 0,
             /*warmup=*/true, /*single=*/true);
    }
    SSDB_ASSIGN_OR_RETURN(out.warm_stats, dep_->SliceStats());
    for (round_ = 0; round_ < kRounds; ++round_) {
      if (traced_ && !single) {
        // Several clients share the servers: no op id for server spans.
        SetServerOp(0);
        meter_->Switch(Bucket::kRead);
      }
      int64_t start = NowNs();
      all_clients(0, start + static_cast<int64_t>(read_seconds / kRounds * 1e9),
                  /*warmup=*/false);
      out.read_wall_s += (NowNs() - start) / 1e9;
      if (traced_) meter_->Switch(Bucket::kOther);
      if (!w_.interleaved) {
        RunOps(&writer, w_.write_ops, &writer.write_pos, burst, 0,
               /*warmup=*/false, /*single=*/true);
        if (traced_) meter_->Switch(Bucket::kOther);
      }
    }
    for (ClientState& cs : clients_) {
      out.records.insert(out.records.end(), cs.records.begin(),
                         cs.records.end());
    }
    return out;
  }

 private:
  struct ClientState {
    uint32_t index = 0;
    size_t read_pos = 0;
    size_t write_pos = 0;
    DocState state = DocState::kOriginal;
    uint64_t version = 0;
    std::vector<OpRecord> records;
  };

  // Runs `count` ops from `ops` (cyclically, from *pos), or — count 0 —
  // until `deadline`.
  void RunOps(ClientState* cs, const std::vector<Op>& ops, size_t* pos,
              size_t count, int64_t deadline, bool warmup, bool single) {
    for (size_t done = 0; count == 0 ? NowNs() < deadline : done < count;
         ++done) {
      const Op& op = ops[(*pos)++ % ops.size()];
      cs->records.push_back(RunOne(cs, op, warmup, single));
    }
  }

  OpRecord RunOne(ClientState* cs, const Op& op, bool warmup, bool single) {
    OpRecord rec;
    rec.client = cs->index;
    rec.round = round_;
    rec.read = op.read;
    rec.write = op.write;
    rec.kind = op.write_kind;
    rec.check_only = op.check_only;
    rec.warmup = warmup;
    const uint32_t c = cs->index;
    const uint64_t op_id = next_op_.fetch_add(1) + 1;
    Bucket bucket = warmup || op.check_only
                        ? Bucket::kOther
                        : (op.write ? Bucket::kWrite : Bucket::kRead);
    ClientTrace* trace = dep_->trace(c);
    uint64_t span_id = 0;
    uint64_t messages = 0;
    if (traced_) {
      if (single) {
        meter_->Switch(bucket);
        SetServerOp(op_id);
      }
      span_id = Spans().Reserve();
      trace->BeginOp(op_id, span_id);
      messages = trace->messages();
    }
    uint64_t bytes = dep_->WireBytes(c);
    uint64_t trips = dep_->RoundTrips(c, 0);
    int64_t begin = NowNs();
    Status status = op.write ? Write(cs, op, &rec) : Read(cs, op, &rec);
    int64_t end = NowNs();
    rec.ok = status.ok();
    if (!status.ok() && failures_logged_.fetch_add(1) < 5) {
      std::fprintf(stderr, "perfbench: op failed: %s\n",
                   status.ToString().c_str());
    }
    rec.ns = end - begin;
    rec.bytes = dep_->WireBytes(c) - bytes;
    if (op.write) rec.trips = dep_->RoundTrips(c, 0) - trips;
    if (traced_) {
      rec.layers = Analyze(trace->TakeCalls(), begin, end);
      rec.layers.messages = trace->messages() - messages;
      Span span;
      span.begin_ns = begin;
      span.end_ns = end;
      span.op = op_id;
      span.thread = ThreadIndex();
      span.kind = op.write ? SpanKind::kOpWrite : SpanKind::kOpRead;
      span.arg0 = rec.bytes;
      span.arg1 = rec.trips;
      Spans().Fill(span_id, span);
    }
    return rec;
  }

  Status Read(ClientState* cs, const Op& op, OpRecord* rec) {
    const ReadTemplate& t = w_.templates[op.read];
    ssdb::shard::Router* router = dep_->router(cs->index);
    Answer answer;
    ssdb::query::QueryStats stats;
    if (w_.corpus) {
      SSDB_ASSIGN_OR_RETURN(ssdb::shard::CorpusResult result,
                            router->QueryCorpus(t.query, t.mode));
      answer.aggregate = result.is_aggregate;
      answer.result = std::move(result.aggregate);
      for (const auto& doc : result.nodes) {
        for (const auto& node : doc.nodes) answer.pres.push_back(node.pre);
      }
      stats = result.stats;
    } else {
      SSDB_ASSIGN_OR_RETURN(ssdb::shard::DocResult result,
                            router->QueryDoc(DocId(0), t.query, t.mode));
      answer.aggregate = result.is_aggregate;
      answer.result = std::move(result.aggregate);
      for (const auto& node : result.nodes) answer.pres.push_back(node.pre);
      stats = result.stats;
    }
    rec->trips = stats.eval.round_trips;
    rec->result_size = stats.result_size;
    rec->candidates = stats.candidates_examined;
    rec->digest = answer.Digest();
    return oracle_.Check(w_, op.read, cs->state, answer);
  }

  Status Write(ClientState* cs, const Op& op, OpRecord* rec) {
    ssdb::shard::Router* router = dep_->router(cs->index);
    const WriteTargets& targets = oracle_.targets();
    StatusOr<ssdb::shard::DocMutation> result = Status::Internal("no write");
    switch (op.write_kind) {
      case WriteKind::kRetag:
        result = router->UpdateDoc(DocId(0), targets.retag_pre, kRetagTo,
                                   std::nullopt);
        break;
      case WriteKind::kRetagBack:
        result = router->UpdateDoc(DocId(0), targets.retag_pre, kRetagFrom,
                                   std::nullopt);
        break;
      case WriteKind::kInsert:
        result = router->InsertDoc(DocId(0), targets.host_pre, kFragment);
        break;
      case WriteKind::kDelete:
        result = router->DeleteDoc(DocId(0), targets.inserted_pre);
        break;
    }
    if (!result.ok()) return result.status();
    const ssdb::encode::MutateStats& stats = result->stats;
    rec->reshared_bytes = stats.reshared_bytes;
    rec->digest = Digest({result->version, stats.path_nodes,
                          stats.subtree_nodes, stats.children_fetched,
                          stats.reshared_bytes});
    if (result->version != cs->version + 1) {
      return Status::Internal("write committed version " +
                              std::to_string(result->version) + ", expected " +
                              std::to_string(cs->version + 1));
    }
    cs->version = result->version;
    cs->state = After(op.write_kind);
    return Status::OK();
  }

  const Workload& w_;
  const Oracle& oracle_;
  Deployment* dep_;
  bool traced_;
  std::vector<ClientState> clients_;
  std::unique_ptr<BucketMeter> meter_;
  int round_ = -1;  // measured round in progress, -1 during warm-up
  std::atomic<uint64_t> next_op_{0};
  std::atomic<int> failures_logged_{0};
};

// --- Metrics -----------------------------------------------------------------

// Nearest-rank percentile of `values` (q in (0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  // Every metric on its own line, then the JSON result line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
    for (const Metric& m : metrics_) {
      std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("failed_frac %.6f (%llu of %llu operations)\n",
                attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      double value = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

uint64_t CountFailed(const std::vector<OpRecord>& records) {
  uint64_t failed = 0;
  for (const OpRecord& r : records) failed += r.ok ? 0 : 1;
  return failed;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Adds the end-to-end metrics of one untraced phase.
void AddEndToEnd(const Workload& w, const std::vector<OpRecord>& records,
                 double read_wall_s, Report* report) {
  std::vector<double> reads;
  std::vector<double> writes;
  double warm_read_trips = 0, warm_read_bytes = 0, warm_reads = 0;
  double warm_write_trips = 0, warm_write_bytes = 0, warm_writes = 0;
  for (const OpRecord& r : records) {
    if (r.warmup) {
      if (r.write) {
        warm_write_trips += r.trips;
        warm_write_bytes += r.bytes;
        ++warm_writes;
      } else if (r.measured_read()) {
        warm_read_trips += r.trips;
        warm_read_bytes += r.bytes;
        ++warm_reads;
      }
      continue;
    }
    if (r.write) {
      writes.push_back(r.ns / 1e6);
    } else if (r.measured_read()) {
      reads.push_back(r.ns / 1e6);
    }
  }
  report->Add("read_p50_ms", Percentile(reads, 0.50), "ms");
  report->Add("read_p99_ms", Percentile(reads, 0.99), "ms");
  report->Add("read_qps", reads.size() / read_wall_s, "1/s");
  report->Add("write_p50_ms", Percentile(writes, 0.50), "ms");
  report->Add("write_p90_ms", Percentile(writes, 0.90), "ms");
  report->Add("round_trips_per_read", warm_read_trips / warm_reads, "count");
  report->Add("round_trips_per_write", warm_write_trips / warm_writes,
              "count");
  report->Add("wire_bytes_per_read", warm_read_bytes / warm_reads, "B");
  report->Add("wire_bytes_per_write", warm_write_bytes / warm_writes, "B");
  for (size_t t = 0; t < w.templates.size(); ++t) {
    std::vector<double> ms;
    double trips = 0, bytes = 0;
    for (const OpRecord& r : records) {
      if (r.warmup || !r.measured_read() || r.read != t) continue;
      ms.push_back(r.ns / 1e6);
      trips += r.trips;
      bytes += r.bytes;
    }
    if (ms.empty()) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "read %-48s %-10s n=%-5zu p50 %7.2f p99 %7.2f ms %5.1f trips "
                  "%8.0f B",
                  w.templates[t].text.c_str(),
                  std::string(ssdb::query::MatchModeName(w.templates[t].mode))
                      .c_str(),
                  ms.size(), Median(ms), Percentile(ms, 0.99), trips / ms.size(),
                  bytes / ms.size());
    report->Note(line);
  }
  const char* kind_names[] = {"retag", "retag back", "insert", "delete"};
  for (int k = 0; k < 4; ++k) {
    std::vector<double> ms;
    for (const OpRecord& r : records) {
      if (!r.warmup && r.write && static_cast<int>(r.kind) == k) {
        ms.push_back(r.ns / 1e6);
      }
    }
    if (ms.empty()) continue;
    char line[128];
    std::snprintf(line, sizeof(line), "write %-10s n=%-5zu p50 %7.2f p90 %7.2f ms",
                  kind_names[k], ms.size(), Median(ms), Percentile(ms, 0.9));
    report->Note(line);
  }
  for (int round = 0; round < Runner::kRounds; ++round) {
    std::vector<double> r_ms, w_ms;
    for (const OpRecord& r : records) {
      if (r.round != round) continue;
      if (r.write) w_ms.push_back(r.ns / 1e6);
      if (r.measured_read()) r_ms.push_back(r.ns / 1e6);
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "round %d: %zu reads p50 %.2f p99 %.2f ms; %zu writes p50 "
                  "%.2f p90 %.2f ms",
                  round, r_ms.size(), Median(r_ms), Percentile(r_ms, 0.99),
                  w_ms.size(), Median(w_ms), Percentile(w_ms, 0.9));
    report->Note(line);
  }
  report->Note("measured reads " + std::to_string(reads.size()) +
               " (beyond p99: " +
               std::to_string(reads.size() -
                              static_cast<size_t>(std::ceil(0.99 * reads.size()))) +
               "), measured writes " + std::to_string(writes.size()) +
               " (beyond p90: " +
               std::to_string(writes.size() -
                              static_cast<size_t>(std::ceil(0.9 * writes.size()))) +
               ")");
}

// Adds the per-layer metrics of the traced phase.
void AddPerLayer(const std::vector<OpRecord>& records, const BucketMeter& meter,
                 Deployment* dep, Report* report) {
  double reads = 0, writes = 0, results = 0, candidates = 0;
  OpLayers r_sum, w_sum;
  double reshared = 0;
  for (const OpRecord& r : records) {
    if (r.warmup) continue;
    OpLayers* sum = nullptr;
    if (r.write) {
      ++writes;
      reshared += r.reshared_bytes;
      sum = &w_sum;
    } else if (r.measured_read()) {
      ++reads;
      results += r.result_size;
      candidates += r.candidates;
      sum = &r_sum;
    } else {
      continue;
    }
    sum->self_ns += r.layers.self_ns;
    sum->fanout_ns += r.layers.fanout_ns;
    sum->skew_ns += r.layers.skew_ns;
    sum->stub_ns += r.layers.stub_ns;
    sum->channel_ns += r.layers.channel_ns;
    sum->calls += r.layers.calls;
    sum->messages += r.layers.messages;
  }
  ServerTotalsSnapshot rs = Snapshot(ServerTotalsFor(Bucket::kRead));
  ServerTotalsSnapshot ws = Snapshot(ServerTotalsFor(Bucket::kWrite));
  const PoolCounters& pool = meter.pool(Bucket::kRead);
  auto per_read_ms = [&](double ns) { return ns / 1e6 / reads; };
  double store_ns = static_cast<double>(rs.store_ns - rs.visitor_ns);
  report->Add("shard.fanout_ms", per_read_ms(r_sum.fanout_ns), "ms");
  report->Add("query.client_self_ms", per_read_ms(r_sum.self_ns), "ms");
  report->Add("query.candidates_per_result",
              results == 0 ? 0 : candidates / results, "ratio");
  report->Add("filter.fanout_skew_ms", per_read_ms(r_sum.skew_ns), "ms");
  report->Add("filter.server_calls_per_read", r_sum.calls / reads, "count");
  report->Add("rpc.client_codec_ms",
              per_read_ms(r_sum.stub_ns - r_sum.channel_ns), "ms");
  report->Add("rpc.wait_ms", per_read_ms(r_sum.channel_ns - rs.filter_ns),
              "ms");
  report->Add("rpc.msgs_per_read", r_sum.messages / reads, "count");
  report->Add("rpc.server_requests_per_read",
              meter.requests(Bucket::kRead) / reads, "count");
  report->Add("rpc.queue_depth_peak", dep->QueueDepthPeak(), "count");
  report->Add("filter.server_ms", per_read_ms(rs.filter_ns), "ms");
  report->Add("filter.server_self_ms", per_read_ms(rs.filter_ns - store_ns),
              "ms");
  report->Add("storage.ms", per_read_ms(store_ns), "ms");
  report->Add("storage.rows_per_read", rs.rows / reads, "count");
  report->Add("storage.rows_per_result", results == 0 ? 0 : rs.rows / results,
              "ratio");
  uint64_t lookups = pool.hits + pool.misses;
  report->Add("storage.pool_hit_rate",
              lookups == 0 ? 0 : static_cast<double>(pool.hits) / lookups,
              "ratio");
  report->Add("storage.pool_misses_per_read", pool.misses / reads, "count");
  report->Add("storage.pool_evictions_per_read", pool.evictions / reads,
              "count");
  report->Add("storage.prepare_ms_per_write", ws.prepare_ns / 1e6 / writes,
              "ms");
  report->Add("storage.commit_ms_per_write", ws.commit_ns / 1e6 / writes,
              "ms");
  report->Add("encode.mutate_client_ms_per_write", w_sum.self_ns / 1e6 / writes,
              "ms");
  report->Add("encode.reshared_bytes_per_write", reshared / writes, "B");
  report->Add("colstore.file_bytes_per_blob_byte",
              dep->ColumnFileBytesPerBlobByte(), "ratio");
}

// Tracing must be transparent: the warm-up ops (the same op lists on a
// fresh deployment) give the same answers, round trips and wire bytes, and
// leave the same rows in every store.
Status CompareWarmup(const PhaseResult& plain, const PhaseResult& traced) {
  std::map<uint32_t, std::vector<const OpRecord*>> a, b;
  for (const OpRecord& r : plain.records) {
    if (r.warmup) a[r.client].push_back(&r);
  }
  for (const OpRecord& r : traced.records) {
    if (r.warmup) b[r.client].push_back(&r);
  }
  if (a.size() != b.size()) return Status::Internal("client count differs");
  for (const auto& [client, ops] : a) {
    const auto& other = b[client];
    if (ops.size() != other.size()) {
      return Status::Internal("warm-up op count differs");
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i]->digest != other[i]->digest || ops[i]->ok != other[i]->ok) {
        return Status::Internal("answer differs under tracing");
      }
      if (ops[i]->trips != other[i]->trips) {
        return Status::Internal("round trips differ under tracing");
      }
      if (ops[i]->bytes != other[i]->bytes) {
        return Status::Internal("wire bytes differ under tracing");
      }
    }
  }
  if (plain.warm_stats.size() != traced.warm_stats.size()) {
    return Status::Internal("slice count differs");
  }
  for (size_t i = 0; i < plain.warm_stats.size(); ++i) {
    const auto& x = plain.warm_stats[i];
    const auto& y = traced.warm_stats[i];
    if (x.node_count != y.node_count || x.payload_bytes != y.payload_bytes ||
        x.data_bytes != y.data_bytes || x.file_bytes != y.file_bytes ||
        x.structure_bytes != y.structure_bytes) {
      return Status::Internal("store rows differ under tracing");
    }
  }
  return Status::OK();
}

// Fails when any tag-map name appears as a word of the trace file.
Status ScanTrace(const std::string& path, const ssdb::mapping::TagMap& map) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::set<std::string> words;
  std::string word;
  char ch;
  while (in.get(ch)) {
    if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_') {
      word.push_back(ch);
    } else if (!word.empty()) {
      words.insert(word);
      word.clear();
    }
  }
  if (!word.empty()) words.insert(word);
  for (const auto& [name, value] : map.entries()) {
    if (words.count(name) != 0) {
      return Status::Internal("trace file carries a tag-map name");
    }
  }
  return Status::OK();
}

class WorkDirs {
 public:
  explicit WorkDirs(std::string root) : root_(std::move(root)) {}
  ~WorkDirs() {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }
  StatusOr<std::string> Next() {
    std::string dir = root_ + "/dep" + std::to_string(next_++);
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) return Status::IOError("cannot create " + dir);
    return dir;
  }
  static void Remove(const std::string& dir) {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

 private:
  std::string root_;
  int next_ = 0;
};

// One deployment and the work directory it lives in.
struct Live {
  std::unique_ptr<Deployment> dep;
  std::string dir;
  ~Live() {
    dep.reset();
    if (!dir.empty()) WorkDirs::Remove(dir);
  }
};

StatusOr<std::unique_ptr<Live>> Deploy(const Workload& w,
                                       const ssdb::mapping::TagMap& map,
                                       uint64_t seed, WorkDirs* dirs,
                                       bool traced) {
  auto live = std::make_unique<Live>();
  SSDB_ASSIGN_OR_RETURN(live->dir, dirs->Next());
  SSDB_ASSIGN_OR_RETURN(live->dep, Deployment::Create(w.deploy, map, seed,
                                                      live->dir, traced));
  return live;
}

StatusOr<Oracle> BuildOracle(const Workload& w, Deployment* dep) {
  std::vector<std::string> xmls;
  for (uint32_t d = 0; d < w.deploy.docs; ++d) xmls.push_back(dep->xml(d));
  return Oracle::Build(w, xmls);
}

// The whole process — clients, fan-out workers and servers — runs on one
// CPU. On a shared host every hand-off to a thread on an idle vCPU waits
// until the host schedules that vCPU again, and that wait swings with the
// neighbours' load: on a 4-vCPU VM, read p50 moved 2x between runs on two
// CPUs and about 1.2x on one. On one CPU the closed loop never leaves the
// vCPU idle, so a read costs the stack's CPU work, its context switches
// and its system calls, and slice fan-out runs interleaved, not parallel.
constexpr int kCpus = 1;

// Pins the calling thread, and so every thread it starts later, to the
// last kCpus CPUs it may run on (CPU 0 takes the device interrupts).
Status PinToCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::IOError("sched_getaffinity failed");
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < kCpus; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return Status::IOError("sched_setaffinity failed");
  }
  return Status::OK();
}

// Set-up is repeated this many times in an untraced run; setup_s is the
// median.
constexpr int kSetups = 5;
// Measured writes of a read-only workload's write phase, so that the
// write tail has twenty samples beyond p90.
constexpr size_t kWrites = 200;

int Main(int argc, char** argv) {
  StatusOr<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Args args = *parsed;
  StatusOr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *workload;
  Status pinned = PinToCpus();
  if (!pinned.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", pinned.ToString().c_str());
    return 1;
  }
  auto field = ssdb::gf::Field::Make(83);
  auto map = ssdb::core::EncryptedXmlDatabase::TagMapForDtd(
      ssdb::xmark::AuctionDtd(), *field, false);
  if (!map.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", map.status().ToString().c_str());
    return 1;
  }
  WorkDirs dirs(args.work_dir);
  Report report;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  auto fail = [](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  };

  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<Live> live;
    for (int i = 0; i < kSetups; ++i) {
      live.reset();
      auto next = Deploy(w, *map, args.seed, &dirs, /*traced=*/false);
      if (!next.ok()) return fail(next.status());
      live = std::move(*next);
      setups.push_back(live->dep->times().total());
    }
    Deployment* dep = live->dep.get();
    auto stored = dep->StoredBytes();
    if (!stored.ok()) return fail(stored.status());
    auto oracle = BuildOracle(w, dep);
    if (!oracle.ok()) return fail(oracle.status());
    Runner runner(w, *oracle, dep, /*traced=*/false);
    auto phase = runner.Run(args.seconds, kWrites);
    if (!phase.ok()) return fail(phase.status());
    report.Add("setup_s", Median(setups), "s");
    AddEndToEnd(w, phase->records, phase->read_wall_s, &report);
    report.Add("stored_bytes_per_xml_byte",
               static_cast<double>(*stored) / dep->xml_bytes(), "B/B");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    attempted = phase->records.size();
    failed = CountFailed(phase->records);
  } else {
    // Untraced half first, for the answers the traced half must repeat and
    // the read latency tracing is charged against.
    double half = args.seconds / 2.0;
    PhaseResult plain;
    {
      auto live = Deploy(w, *map, args.seed, &dirs, /*traced=*/false);
      if (!live.ok()) return fail(live.status());
      auto oracle = BuildOracle(w, (*live)->dep.get());
      if (!oracle.ok()) return fail(oracle.status());
      Runner runner(w, *oracle, (*live)->dep.get(), /*traced=*/false);
      auto phase = runner.Run(half, kWrites / 2);
      if (!phase.ok()) return fail(phase.status());
      plain = std::move(*phase);
    }
    Spans().set_enabled(true);
    auto live = Deploy(w, *map, args.seed, &dirs, /*traced=*/true);
    if (!live.ok()) return fail(live.status());
    Deployment* dep = (*live)->dep.get();
    auto oracle = BuildOracle(w, dep);
    if (!oracle.ok()) return fail(oracle.status());
    Runner runner(w, *oracle, dep, /*traced=*/true);
    auto phase = runner.Run(half, kWrites / 2);
    if (!phase.ok()) return fail(phase.status());
    Spans().set_enabled(false);

    const SetupTimes& times = dep->times();
    report.Add("xmark.generate_s", times.generate_s, "s");
    report.Add("encode.encode_s", times.encode_s, "s");
    report.Add("rpc.server_start_s", times.servers_s, "s");
    report.Add("shard.open_s", times.open_s, "s");
    AddPerLayer(phase->records, *runner.meter(), dep, &report);
    auto read_p50 = [](const std::vector<OpRecord>& records) {
      std::vector<double> reads;
      for (const OpRecord& r : records) {
        if (!r.warmup && r.measured_read()) reads.push_back(r.ns / 1e6);
      }
      return Median(reads);
    };
    report.Add("trace.read_p50_overhead_ms",
               read_p50(phase->records) - read_p50(plain.records), "ms");

    Status same = CompareWarmup(plain, *phase);
    report.Note(same.ok() ? "tracing is transparent: warm-up answers, round "
                            "trips, wire bytes and store rows match"
                          : "tracing is NOT transparent: " + same.ToString());
    correct = correct && same.ok();

    std::string trace_path = args.out_dir + "/trace-" + w.name + "-" +
                             std::to_string(args.seed) + ".tsv";
    std::error_code ignored;
    std::filesystem::create_directories(args.out_dir, ignored);
    Status written = Spans().WriteTsv(trace_path);
    Status clean = written.ok() ? ScanTrace(trace_path, *map) : written;
    report.Note("trace: " + std::to_string(Spans().recorded()) +
                " spans kept, " + std::to_string(Spans().dropped()) +
                " past the log's capacity, written to " + trace_path + ": " +
                (clean.ok() ? "no tag-map name found" : clean.ToString()));
    correct = correct && clean.ok();
    attempted = plain.records.size() + phase->records.size();
    failed = CountFailed(plain.records) + CountFailed(phase->records);
  }
  correct = correct && failed == 0;
  report.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
