#include "workload.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <utility>

#include "query/ground_truth.h"

namespace perfbench {

using ssdb::Status;
using ssdb::StatusOr;
using ssdb::query::MatchMode;

const char kRetagFrom[] = "asia";
const char kRetagTo[] = "australia";
const char kFragment[] =
    "<open_auction><initial/><bidder><increase/></bidder><seller/>"
    "</open_auction>";

namespace {

constexpr MatchMode kEq = MatchMode::kEquality;
constexpr MatchMode kContain = MatchMode::kContainment;

// Fisher-Yates with the benchmark's own draw, so an op list depends on the
// seed alone and not on the standard library's shuffle.
void Shuffle(std::vector<uint32_t>* v, std::mt19937_64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[(*rng)() % i]);
  }
}

Status AddTemplate(Workload* w, const std::string& text, MatchMode mode) {
  ReadTemplate t;
  t.text = text;
  t.mode = mode;
  SSDB_ASSIGN_OR_RETURN(t.query, ssdb::query::ParseQuery(text));
  w->templates.push_back(std::move(t));
  return Status::OK();
}

std::vector<Op> ReadOps(std::vector<uint32_t> reads, std::mt19937_64* rng) {
  Shuffle(&reads, rng);
  std::vector<Op> ops;
  for (uint32_t read : reads) {
    Op op;
    op.read = read;
    ops.push_back(op);
  }
  return ops;
}

// Retag pairs per insert/delete pair. A retag costs about half an insert
// or a delete, so with a quarter of the writes cheap, the write p50 lies
// well inside the insert/delete costs instead of on the step between the
// two kinds, where a small shift of either would move it a lot.
constexpr uint32_t kRetagPairs = 1;
constexpr uint32_t kInsertPairs = 3;

// `rounds` x (kRetagPairs retag pairs and kInsertPairs insert/delete
// pairs) in seeded order. Each write is followed by a read of the template
// that shows it, then by `extra_reads` reads drawn cyclically from a
// shuffled `reads`.
std::vector<Op> WriteOps(const Workload& w, uint32_t rounds,
                         std::vector<uint32_t> reads, uint32_t extra_reads,
                         bool check_only, std::mt19937_64* rng) {
  std::vector<uint32_t> order(rounds * (kRetagPairs + kInsertPairs), 1);
  std::fill(order.begin(), order.begin() + rounds * kRetagPairs, 0);
  Shuffle(&order, rng);
  Shuffle(&reads, rng);
  std::vector<Op> ops;
  size_t next_read = 0;
  for (uint32_t pair : order) {
    WriteKind kinds[2] = {WriteKind::kRetag, WriteKind::kRetagBack};
    if (pair == 1) {
      kinds[0] = WriteKind::kInsert;
      kinds[1] = WriteKind::kDelete;
    }
    for (WriteKind kind : kinds) {
      Op write;
      write.write = true;
      write.write_kind = kind;
      ops.push_back(write);
      Op check;
      check.read = pair == 0 ? w.retag_check : w.insert_check;
      check.check_only = check_only;
      ops.push_back(check);
      for (uint32_t i = 0; i < extra_reads && !reads.empty(); ++i) {
        Op read;
        read.read = reads[next_read++ % reads.size()];
        ops.push_back(read);
      }
    }
  }
  return ops;
}

Status MakeDocFetch(Workload* w, uint64_t seed) {
  w->deploy.docs = 1;
  w->deploy.slices = 2;
  w->deploy.clients = 1;
  w->deploy.doc_bytes = 256 << 10;
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site/people/person", kEq));       // 0
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site//person", kEq));             // 1
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "/site/open_auctions/open_auction/bidder", kEq));    // 2
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "//closed_auction/price", kEq));    // 3
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "/site/categories/category/name", kEq));             // 4
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site/regions//item", kEq));       // 5
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site//person", kContain));        // 6
  SSDB_RETURN_IF_ERROR(AddTemplate(
      w, "/site/open_auctions/open_auction/bidder", kContain));           // 7
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site/regions//*", kEq));          // 8
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "count(/site/regions/australia)", kEq));             // 9
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "count(/site/open_auctions/open_auction)", kEq));    // 10
  w->retag_check = 9;
  w->insert_check = 10;
  // Mostly equality, some containment, and the cursor-paged wildcard. The
  // weights put the read p50 in the middle of the one band of templates
  // that cost alike (0 and 3, 6 of 16 reads, above the 5 cheaper ones),
  // not on a step between two templates, where the document a seed
  // generates would move it a lot. The p99 lies among the dearest (2).
  const std::vector<uint32_t> mix = {6, 7, 8, 8, 4, 0, 0, 0,
                                     3, 3, 3, 1, 1, 5, 2, 2};
  for (uint32_t c = 0; c < w->deploy.clients; ++c) {
    std::mt19937_64 rng(seed * 16 + c);
    w->ops.push_back(ReadOps(mix, &rng));
  }
  std::mt19937_64 rng(seed * 16 + 15);
  w->write_ops = WriteOps(*w, 2, {}, 0, /*check_only=*/true, &rng);
  return Status::OK();
}

Status MakeCorpusAgg(Workload* w, uint64_t seed) {
  w->deploy.docs = 2;
  w->deploy.slices = 2;
  w->deploy.clients = 1;
  w->deploy.doc_bytes = 128 << 10;
  w->deploy.verify_aggregate = true;
  w->corpus = true;
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "count(/site//person)", kEq));      // 0
  SSDB_RETURN_IF_ERROR(AddTemplate(
      w, "count(/site/open_auctions/open_auction/bidder)", kEq));         // 1
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "sum(//open_auction/bidder)", kEq));  // 2
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "sum(/site/regions//item)", kEq));  // 3
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "exists(/site/regions/australia/item)", kEq));       // 4
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "exists(//closed_auction/annotation)", kEq));        // 5
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "count(//*)", kEq));                // 6
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "count(/site/regions/*)", kEq));    // 7
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "count(/site/regions/australia)", kEq));             // 8
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "count(/site/open_auctions/open_auction)", kEq));    // 9
  w->retag_check = 8;
  w->insert_check = 9;
  // The read p50 lies in the middle of template 4's band (4 of 16 reads,
  // above the 6 cheaper ones), as on doc_fetch.
  const std::vector<uint32_t> mix = {6, 6, 0, 3, 3, 7, 4, 4,
                                     4, 4, 5, 5, 1, 1, 2, 2};
  std::mt19937_64 rng(seed * 16);
  w->ops.push_back(ReadOps(mix, &rng));
  w->write_ops = WriteOps(*w, 2, {}, 0, /*check_only=*/true, &rng);
  return Status::OK();
}

Status MakeMutateDisk(Workload* w, uint64_t seed) {
  w->deploy.docs = 1;
  w->deploy.slices = 2;
  w->deploy.clients = 1;
  w->deploy.doc_bytes = 256 << 10;
  w->deploy.disk = true;
  w->deploy.pool_pages = 64;
  w->interleaved = true;
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "count(/site/regions/australia)", kEq));             // 0
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "count(/site/open_auctions/open_auction)", kEq));    // 1
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site/regions/australia/item", kEq));  // 2
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "/site/regions/australia", kEq));   // 3
  SSDB_RETURN_IF_ERROR(AddTemplate(
      w, "sum(/site/open_auctions/open_auction/bidder)", kEq));           // 4
  SSDB_RETURN_IF_ERROR(
      AddTemplate(w, "exists(/site/regions/australia/item)", kEq));       // 5
  SSDB_RETURN_IF_ERROR(AddTemplate(
      w, "/site/open_auctions/open_auction/seller", kContain));           // 6
  SSDB_RETURN_IF_ERROR(AddTemplate(w, "count(/site/regions/*)", kEq));    // 7
  w->retag_check = 0;
  w->insert_check = 1;
  // A fifth of the reads are the check reads (templates 0 and 1) and cost
  // the least. The extra reads keep 12 of 16 in the band of 2, 3, 5 and 6,
  // so the read p50 lies inside it; the p99 lies in template 4's.
  std::mt19937_64 rng(seed * 16);
  w->ops.push_back(WriteOps(*w, 2,
                            {0, 7, 2, 2, 2, 3, 3, 3, 5, 5, 5, 6, 6, 6, 4, 4},
                            4, /*check_only=*/false, &rng));
  return Status::OK();
}

ssdb::xml::Node* FindChild(ssdb::xml::Node* node, const std::string& name) {
  for (const auto& child : node->children) {
    if (child->IsElement() && child->name == name) return child.get();
  }
  return nullptr;
}

// Document 0 parsed, numbered, and brought into `state`.
StatusOr<ssdb::xml::Document> StateDom(const std::string& xml, DocState state,
                                       WriteTargets* targets) {
  SSDB_ASSIGN_OR_RETURN(ssdb::xml::Document doc,
                        ssdb::xml::ParseDocument(xml));
  ssdb::xml::Node* root = doc.root();
  ssdb::xml::Node* regions = FindChild(root, "regions");
  ssdb::xml::Node* region =
      regions == nullptr ? nullptr : FindChild(regions, kRetagFrom);
  ssdb::xml::Node* host = FindChild(root, "open_auctions");
  if (region == nullptr || host == nullptr) {
    return Status::FailedPrecondition(
        "generated document lacks a write target");
  }
  if (state == DocState::kRetagged) {
    region->name = kRetagTo;
  } else if (state == DocState::kInserted) {
    SSDB_ASSIGN_OR_RETURN(ssdb::xml::Document fragment,
                          ssdb::xml::ParseDocument(kFragment));
    auto node = std::make_unique<ssdb::xml::Node>(std::move(*fragment.root()));
    for (auto& child : node->children) child->parent = node.get();
    node->parent = host;
    host->children.push_back(std::move(node));
  }
  ssdb::xml::AnnotatePrePost(&doc);
  targets->retag_pre = region->pre;
  targets->host_pre = host->pre;
  if (state == DocState::kInserted) {
    targets->inserted_pre = host->children.back()->pre;
  }
  return doc;
}

}  // namespace

DocState After(WriteKind kind) {
  switch (kind) {
    case WriteKind::kRetag: return DocState::kRetagged;
    case WriteKind::kInsert: return DocState::kInserted;
    case WriteKind::kRetagBack:
    case WriteKind::kDelete: return DocState::kOriginal;
  }
  return DocState::kOriginal;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "doc_fetch") {
    SSDB_RETURN_IF_ERROR(MakeDocFetch(&w, seed));
  } else if (name == "corpus_agg") {
    SSDB_RETURN_IF_ERROR(MakeCorpusAgg(&w, seed));
  } else if (name == "mutate_disk") {
    SSDB_RETURN_IF_ERROR(MakeMutateDisk(&w, seed));
  } else {
    return Status::NotFound("no workload named '" + name + "'");
  }
  return w;
}

uint64_t Digest(const std::vector<uint64_t>& words) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t word : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

uint64_t Answer::Digest() const {
  std::vector<uint64_t> words = {aggregate};
  words.insert(words.end(), pres.begin(), pres.end());
  for (size_t g = 0; g < result.values.size(); ++g) {
    words.push_back(std::hash<std::string>{}(result.group_names[g]));
    words.push_back(result.values[g]);
  }
  return perfbench::Digest(words);
}

StatusOr<Oracle> Oracle::Build(const Workload& w,
                               const std::vector<std::string>& xmls) {
  Oracle oracle;
  oracle.truth_.resize(static_cast<size_t>(DocState::kCount));
  for (size_t s = 0; s < oracle.truth_.size(); ++s) {
    DocState state = static_cast<DocState>(s);
    for (size_t d = 0; d < xmls.size(); ++d) {
      if (d > 0 && state != DocState::kOriginal) {
        oracle.truth_[s].emplace_back();
        continue;
      }
      WriteTargets targets;
      SSDB_ASSIGN_OR_RETURN(ssdb::xml::Document dom,
                            StateDom(xmls[d], state, &targets));
      if (d == 0) {
        oracle.targets_.retag_pre = targets.retag_pre;
        oracle.targets_.host_pre = targets.host_pre;
        if (state == DocState::kInserted) {
          oracle.targets_.inserted_pre = targets.inserted_pre;
        }
      }
      std::map<uint32_t, std::string> names;
      ssdb::xml::ForEachElement(dom.root(), [&](const ssdb::xml::Node& n) {
        names[n.pre] = n.name;
      });
      std::vector<Truth> per_template;
      for (const ReadTemplate& t : w.templates) {
        ssdb::query::Query plain = t.query;
        plain.aggregate = ssdb::query::Aggregate::kNone;
        Truth truth;
        SSDB_ASSIGN_OR_RETURN(truth.pres,
                              ssdb::query::EvaluateGroundTruth(plain, dom));
        for (uint32_t pre : truth.pres) ++truth.by_name[names[pre]];
        per_template.push_back(std::move(truth));
      }
      oracle.truth_[s].push_back(std::move(per_template));
    }
  }
  return oracle;
}

Status Oracle::Check(const Workload& w, uint32_t read, DocState state,
                     const Answer& answer) const {
  const ReadTemplate& t = w.templates[read];
  const size_t docs = w.corpus ? truth_[0].size() : 1;
  if (t.query.aggregate == ssdb::query::Aggregate::kNone) {
    const Truth& truth = truth_[static_cast<size_t>(state)][0][read];
    if (answer.aggregate) return Status::Internal("fetch came back aggregated");
    bool ok = t.mode == MatchMode::kEquality
                  ? answer.pres == truth.pres
                  : std::includes(answer.pres.begin(), answer.pres.end(),
                                  truth.pres.begin(), truth.pres.end());
    if (!ok) {
      return Status::Internal(
          "fetch " + std::to_string(read) + " returned " +
          std::to_string(answer.pres.size()) + " nodes, ground truth has " +
          std::to_string(truth.pres.size()));
    }
    return Status::OK();
  }
  uint64_t total = 0;
  std::map<std::string, uint64_t> by_name;
  for (size_t d = 0; d < docs; ++d) {
    size_t s = d == 0 ? static_cast<size_t>(state) : 0;
    const Truth& truth = truth_[s][d][read];
    total += truth.pres.size();
    for (const auto& [name, count] : truth.by_name) by_name[name] += count;
  }
  if (!answer.aggregate) return Status::Internal("aggregate came back as fetch");
  const ssdb::agg::Result& r = answer.result;
  bool ok = true;
  if (r.group_by) {
    for (size_t g = 0; g < r.values.size(); ++g) {
      auto it = by_name.find(r.group_names[g]);
      ok = ok && r.values[g] == (it == by_name.end() ? 0 : it->second);
    }
    ok = ok && r.Total() == total;
  } else if (t.query.aggregate == ssdb::query::Aggregate::kExists) {
    ok = r.Exists() == (total > 0);
  } else {
    // count, and sum in equality mode, where every match contributes its
    // own single occurrence (DESIGN.md §8).
    ok = r.Total() == total;
  }
  if (w.deploy.verify_aggregate && !r.verified) ok = false;
  if (!ok) {
    return Status::Internal("aggregate " + std::to_string(read) +
                            " totals " + std::to_string(r.Total()) +
                            ", ground truth " + std::to_string(total));
  }
  return Status::OK();
}

}  // namespace perfbench
