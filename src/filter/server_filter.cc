#include "filter/server_filter.h"

#include <algorithm>

namespace ssdb::filter {

StatusOr<NodeMeta> LocalServerFilter::Root() {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(storage::NodeRow row, store_->GetRoot());
  return MetaOf(row);
}

StatusOr<NodeMeta> LocalServerFilter::GetNode(uint32_t pre) {
  CountTrip();
  NodeMeta meta;
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) { meta = MetaOf(row); }));
  return meta;
}

StatusOr<std::vector<std::vector<NodeMeta>>> LocalServerFilter::ChildrenBatch(
    const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<std::vector<NodeMeta>> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    std::vector<NodeMeta> metas;
    SSDB_RETURN_IF_ERROR(store_->VisitChildren(
        pre,
        [&](const storage::NodeRow& row) { metas.push_back(MetaOf(row)); }));
    out.push_back(std::move(metas));
  }
  return out;
}

StatusOr<gf::RingElem> LocalServerFilter::ReadShare(uint32_t pre) {
  StatusOr<gf::RingElem> share = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) {
        share = ring_.Deserialize(row.share);
      }));
  return share;
}

StatusOr<gf::Elem> LocalServerFilter::EvalRowAt(uint32_t pre, gf::Elem t) {
  StatusOr<gf::Elem> value = Status::Internal("unset");
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) {
        StatusOr<gf::RingElem> share = ring_.Deserialize(row.share);
        if (!share.ok()) {
          value = share.status();
          return;
        }
        value = ring_.Eval(*share, t);
      }));
  return value;
}

StatusOr<std::vector<gf::Elem>> LocalServerFilter::EvalAtBatch(
    const std::vector<uint32_t>& pres, gf::Elem t) {
  CountTrip();
  std::vector<gf::Elem> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(gf::Elem value, EvalRowAt(pre, t));
    out.push_back(value);
  }
  return out;
}

StatusOr<std::vector<gf::Elem>> LocalServerFilter::EvalPointsBatch(
    uint32_t pre, const std::vector<gf::Elem>& points) {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(gf::RingElem share, ReadShare(pre));
  std::vector<gf::Elem> out;
  out.reserve(points.size());
  for (gf::Elem t : points) {
    out.push_back(ring_.Eval(share, t));
  }
  return out;
}

StatusOr<std::vector<gf::RingElem>> LocalServerFilter::FetchShareBatch(
    const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<gf::RingElem> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(gf::RingElem share, ReadShare(pre));
    out.push_back(std::move(share));
  }
  return out;
}

StatusOr<std::vector<agg::Word>> LocalServerFilter::PartialAggregate(
    const agg::Spec& spec) {
  CountTrip();
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  std::vector<agg::Word> partials(spec.value_indexes.size(), 0);
  // Duplicate frontier entries would double-count; dedup defensively (the
  // client canonicalizes, but the server must not trust it for its own
  // arithmetic to stay meaningful).
  std::vector<uint32_t> pres = spec.pres;
  std::sort(pres.begin(), pres.end());
  pres.erase(std::unique(pres.begin(), pres.end()), pres.end());
  for (uint32_t pre : pres) {
    // Column blobs come through the store's dedicated path (DESIGN.md §12):
    // on the column-store layout the heap row no longer carries them.
    SSDB_ASSIGN_OR_RETURN(storage::ColumnBlobs cols, store_->GetColumns(pre));
    size_t value_count = agg::BlobValueCount(cols.agg);
    if (value_count == 0) {
      return Status::FailedPrecondition(
          "node has no aggregate columns (database encoded without "
          "them, DESIGN.md §8)");
    }
    for (size_t g = 0; g < spec.value_indexes.size(); ++g) {
      uint32_t index = spec.value_indexes[g];
      if (index >= value_count) {
        return Status::InvalidArgument(
            "aggregate value index " + std::to_string(index) +
            " out of range (store has " + std::to_string(value_count) +
            " mapped values)");
      }
      for (size_t c = 0; c < agg::kColCount; ++c) {
        if ((spec.columns & (1u << c)) == 0) continue;
        partials[g] += agg::BlobWord(
            cols.agg,
            agg::WordIndex(static_cast<agg::Col>(c), value_count, index));
      }
    }
  }
  return partials;
}

StatusOr<std::vector<agg::VerifiedPartial>>
LocalServerFilter::PartialAggregateVerified(const agg::Spec& spec) {
  CountTrip();
  SSDB_RETURN_IF_ERROR(agg::ValidateSpec(spec));
  agg::VerifiedPartial partial;
  partial.words.assign(spec.value_indexes.size(), 0);
  // Whether this store carries the verification track is decided by the
  // first frontier row: a slice either stores it for every node (slice 0 of
  // a --verify-agg database) or for none. Mixed stores are corruption.
  bool decided = false;
  bool has_track = false;
  std::vector<uint32_t> pres = spec.pres;
  std::sort(pres.begin(), pres.end());
  pres.erase(std::unique(pres.begin(), pres.end()), pres.end());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(storage::ColumnBlobs cols, store_->GetColumns(pre));
    size_t value_count = agg::BlobValueCount(cols.agg);
    if (value_count == 0) {
      return Status::FailedPrecondition(
          "node has no aggregate columns (database encoded without "
          "them, DESIGN.md §8)");
    }
    size_t verify_count = agg::VerifyBlobValueCount(cols.verify);
    if (!decided) {
      decided = true;
      has_track = verify_count > 0;
      if (has_track) {
        partial.wide.assign(spec.value_indexes.size(), 0);
        partial.proof.assign(spec.value_indexes.size(), 0);
      }
    }
    if (has_track && verify_count != value_count) {
      return Status::Corruption(
          "node verification track disagrees with its aggregate "
          "columns (DESIGN.md §9)");
    }
    for (size_t g = 0; g < spec.value_indexes.size(); ++g) {
      uint32_t index = spec.value_indexes[g];
      if (index >= value_count) {
        return Status::InvalidArgument(
            "aggregate value index " + std::to_string(index) +
            " out of range (store has " + std::to_string(value_count) +
            " mapped values)");
      }
      for (size_t c = 0; c < agg::kColCount; ++c) {
        if ((spec.columns & (1u << c)) == 0) continue;
        size_t w =
            agg::WordIndex(static_cast<agg::Col>(c), value_count, index);
        partial.words[g] += agg::BlobWord(cols.agg, w);
        if (has_track) {
          partial.wide[g] += agg::BlobWide(cols.verify, w);
          partial.proof[g] += agg::BlobProof(cols.verify, w);
        }
      }
    }
  }
  std::vector<agg::VerifiedPartial> out;
  out.push_back(std::move(partial));
  return out;
}

StatusOr<std::vector<storage::MutationState>>
LocalServerFilter::MutationStates() {
  CountTrip();
  SSDB_ASSIGN_OR_RETURN(storage::MutationState state,
                        store_->GetMutationState());
  return std::vector<storage::MutationState>{state};
}

Status LocalServerFilter::PrepareMutation(
    uint64_t txn, const std::vector<storage::MutationPlan>& plans) {
  CountTrip();
  if (plans.size() != 1) {
    return Status::InvalidArgument(
        "single-server filter expects exactly one mutation plan, got " +
        std::to_string(plans.size()));
  }
  return store_->PrepareMutation(txn, plans[0]);
}

Status LocalServerFilter::CommitMutation(uint64_t txn) {
  CountTrip();
  return store_->CommitMutation(txn);
}

Status LocalServerFilter::AbortMutation(uint64_t txn) {
  CountTrip();
  return store_->AbortMutation(txn);
}

StatusOr<std::vector<storage::ColumnBlobs>>
LocalServerFilter::FetchColumnsBatch(const std::vector<uint32_t>& pres) {
  CountTrip();
  std::vector<storage::ColumnBlobs> out;
  out.reserve(pres.size());
  for (uint32_t pre : pres) {
    SSDB_ASSIGN_OR_RETURN(storage::ColumnBlobs cols, store_->GetColumns(pre));
    out.push_back(std::move(cols));
  }
  return out;
}

StatusOr<std::string> LocalServerFilter::FetchSealed(uint32_t pre) {
  CountTrip();
  std::string sealed;
  SSDB_RETURN_IF_ERROR(store_->VisitByPre(
      pre, [&](const storage::NodeRow& row) { sealed = row.sealed; }));
  return sealed;
}

StatusOr<uint64_t> LocalServerFilter::NodeCount() {
  CountTrip();
  return store_->NodeCount();
}

}  // namespace ssdb::filter
