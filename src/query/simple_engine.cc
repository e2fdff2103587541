#include "query/simple_engine.h"

#include "util/stopwatch.h"

namespace ssdb::query {

using filter::NodeMeta;

StatusOr<std::vector<NodeMeta>> SimpleEngine::Execute(const Query& query,
                                                      MatchMode mode,
                                                      QueryStats* stats) {
  Stopwatch watch;
  filter::EvalStats before = filter_->stats();

  SSDB_ASSIGN_OR_RETURN(NodeMeta root, filter_->Root());
  // Steps run from the virtual document node, whose only child is the root.
  SSDB_ASSIGN_OR_RETURN(
      std::vector<NodeMeta> result,
      RunSteps(query.steps, {root}, /*from_document_root=*/true, mode,
               stats));

  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
    stats->result_size = result.size();
    // Delta of the filter's counters over this query.
    internal::FillStatsDelta(before, filter_->stats(), stats);
  }
  return result;
}

StatusOr<std::vector<NodeMeta>> SimpleEngine::RunSteps(
    const std::vector<Step>& steps, std::vector<NodeMeta> candidates,
    bool from_document_root, MatchMode mode, QueryStats* stats) {
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    bool first = (i == 0);

    // 1. Structural expansion.
    std::vector<NodeMeta> expanded;
    if (step.kind == Step::Kind::kParent) {
      for (const NodeMeta& node : candidates) {
        StatusOr<NodeMeta> parent = filter_->Parent(node);
        if (parent.ok()) expanded.push_back(*parent);
        // Root has no parent: it simply drops out.
      }
      internal::Canonicalize(&expanded);
      candidates = std::move(expanded);
      continue;  // no name filtering on '..'
    }
    if (first && from_document_root) {
      // From the virtual document node: '/x' sees only the root as a child;
      // '//x' sees the root and everything below it.
      if (step.axis == Step::Axis::kChild) {
        expanded = candidates;
      } else {
        // The root itself, then everything below it.
        SSDB_ASSIGN_OR_RETURN(expanded, filter_->Descendants(candidates));
        expanded.insert(expanded.end(), candidates.begin(), candidates.end());
      }
    } else if (step.axis == Step::Axis::kChild) {
      // One exchange expands the whole candidate set.
      SSDB_ASSIGN_OR_RETURN(std::vector<std::vector<NodeMeta>> child_lists,
                            filter_->ChildrenBatch(candidates));
      for (std::vector<NodeMeta>& children : child_lists) {
        expanded.insert(expanded.end(), children.begin(), children.end());
      }
    } else {
      // One exchange per tree level expands the whole candidate set.
      SSDB_ASSIGN_OR_RETURN(expanded, filter_->Descendants(candidates));
    }
    internal::Canonicalize(&expanded);
    if (stats != nullptr) stats->candidates_examined += expanded.size();

    // 2. Name filtering: one test per candidate (§5.3 SimpleQuery), issued
    // as a single step-level batch — one server exchange for the whole set.
    std::vector<NodeMeta> filtered;
    if (step.kind == Step::Kind::kWildcard) {
      filtered = std::move(expanded);
    } else {
      StatusOr<gf::Elem> value = map_->Lookup(step.name);
      if (!value.ok()) {
        // A name outside the map can never match (the map covers the DTD).
        candidates.clear();
        return candidates;
      }
      SSDB_ASSIGN_OR_RETURN(
          filtered,
          internal::TestNodes(filter_, std::move(expanded), *value, mode));
    }

    // 3. Predicate filtering (existence of the relative sub-path).
    if (!step.predicate.empty()) {
      std::vector<NodeMeta> kept;
      for (const NodeMeta& node : filtered) {
        SSDB_ASSIGN_OR_RETURN(
            std::vector<NodeMeta> sub,
            RunSteps(step.predicate, {node}, /*from_document_root=*/false,
                     mode, stats));
        if (!sub.empty()) kept.push_back(node);
      }
      filtered = std::move(kept);
    }

    candidates = std::move(filtered);
    if (candidates.empty()) break;
  }
  return candidates;
}

}  // namespace ssdb::query
