// The benchmark's workloads: what each deploys, the seeded operation lists
// its clients run, and the plaintext oracle every answer is checked
// against. README.md records why each workload was chosen.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agg/aggregation.h"
#include "deploy.h"
#include "query/engine.h"
#include "query/xpath.h"
#include "util/statusor.h"
#include "xml/dom.h"

namespace perfbench {

// A two-phase mutation the benchmark issues. Writes come in pairs that
// restore the document's shape: a retag and its inverse, an insert of a
// small fragment and its deletion.
enum class WriteKind : uint8_t { kRetag, kRetagBack, kInsert, kDelete };

// The states the mutated document (document 0) moves between.
enum class DocState : uint8_t { kOriginal, kRetagged, kInserted, kCount };

DocState After(WriteKind kind);

struct ReadTemplate {
  std::string text;
  ssdb::query::MatchMode mode = ssdb::query::MatchMode::kEquality;
  ssdb::query::Query query;  // parsed from text
};

struct Op {
  bool write = false;
  WriteKind write_kind = WriteKind::kRetag;
  uint32_t read = 0;  // template index of a read
  // A read that only checks the preceding write became visible; it is
  // checked and counted as attempted, but is not a measured read.
  bool check_only = false;
};

struct Workload {
  std::string name;
  DeploySpec deploy;
  bool corpus = false;       // reads run through Router::QueryCorpus
  bool interleaved = false;  // writes are part of the measured op list
  std::vector<ReadTemplate> templates;
  uint32_t retag_check = 0;   // template showing a retag
  uint32_t insert_check = 0;  // template showing an insert or delete
  // Per client: the op list, run cyclically. Its first pass warms the
  // stack and supplies the count metrics.
  std::vector<std::vector<Op>> ops;
  // Read-only workloads: the writes client 0 runs after the read phase,
  // each followed by a check-only read (one pass; run cyclically).
  std::vector<Op> write_ops;
};

// The named workload with op lists drawn from `seed`; NotFound otherwise.
ssdb::StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// FNV-1a over the words' bytes: how the transparency test compares
// answers.
uint64_t Digest(const std::vector<uint64_t>& words);

// What a read returned, in a form the oracle can check and the
// transparency test can compare.
struct Answer {
  bool aggregate = false;
  ssdb::agg::Result result;
  std::vector<uint32_t> pres;  // fetch results, in pre order
  uint64_t Digest() const;
};

// The targets of the benchmark's writes in document 0.
struct WriteTargets {
  uint32_t retag_pre = 0;     // /site/regions/asia
  uint32_t host_pre = 0;      // /site/open_auctions
  uint32_t inserted_pre = 0;  // the fragment's root once inserted
};

extern const char kRetagFrom[];
extern const char kRetagTo[];
extern const char kFragment[];

// Plaintext ground truth: every template evaluated on every document and,
// for document 0, in every state its writes lead to.
class Oracle {
 public:
  static ssdb::StatusOr<Oracle> Build(const Workload& workload,
                                      const std::vector<std::string>& xmls);

  // OK, or why the answer is wrong.
  ssdb::Status Check(const Workload& workload, uint32_t read, DocState state,
                     const Answer& answer) const;
  const WriteTargets& targets() const { return targets_; }

 private:
  struct Truth {
    std::vector<uint32_t> pres;               // document order
    std::map<std::string, uint64_t> by_name;  // tag histogram of pres
  };
  // truth_[state][doc][template]; documents other than 0 are never
  // mutated and only have the original state.
  std::vector<std::vector<std::vector<Truth>>> truth_;
  WriteTargets targets_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
