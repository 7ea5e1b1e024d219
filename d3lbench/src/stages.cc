#include "stages.h"

#include <algorithm>

#include "core/distance.h"
#include "embedding/subword_model.h"
#include "obs/trace.h"

namespace d3lbench {

using d3l::core::D3LEngine;
using d3l::core::Evidence;
using d3l::obs::ScopedSpan;

StagedQuery StagedSearch(const D3LEngine& engine, const d3l::Table& target, size_t k) {
  const d3l::core::D3LOptions& options = engine.options();
  const auto& mask = options.enabled;
  const d3l::core::D3LIndexes& indexes = engine.indexes();

  // ProfileTarget, one call per part.
  d3l::core::QueryTarget qt;
  {
    ScopedSpan span("core.profile");
    d3l::CachingEmbedder cache(&engine.wem());
    for (size_t c = 0; c < target.num_columns(); ++c) {
      d3l::core::AttributeProfile p;
      {
        ScopedSpan s("core.build_profile");
        p = d3l::core::BuildProfile(target, c, engine.wem(), &cache, options.profile);
      }
      {
        ScopedSpan s("lsh.sign");
        qt.sigs.push_back(indexes.Sign(p));
      }
      qt.profiles.push_back(std::move(p));
    }
    ScopedSpan s("core.subject_detect");
    qt.subject_col = engine.subject_detector().Detect(target);
  }

  // SearchTarget, one call per stage.
  const size_t m = std::max(options.candidates_per_attribute, k);
  d3l::core::CandidateDepthCounts depth_counts;
  {
    ScopedSpan s("lsh.depth_counts");
    depth_counts = engine.CollectDepthCounts(qt, mask, m);
  }
  d3l::core::CandidateStopDepths stops;
  d3l::core::CandidateLists lists;
  {
    ScopedSpan s("lsh.collect_candidates");
    stops = D3LEngine::ResolveStopDepths(depth_counts, m);
    lists = engine.CollectCandidates(qt, stops, m);
  }
  StagedQuery out;
  {
    ScopedSpan s("core.union");
    out.unions = D3LEngine::UnionCandidates(lists);
  }
  std::vector<d3l::core::PairDistances> rows;
  {
    ScopedSpan s("core.score");
    rows = engine.ScoreCandidates(qt, out.unions, mask);
  }
  out.counts.rows = rows.size();
  {
    ScopedSpan s("core.rank");
    d3l::core::EvidenceWeights weights = options.weights;
    for (size_t t = 0; t < d3l::core::kNumEvidence; ++t) {
      if (!mask[t]) weights.w[t] = 0;
    }
    out.result = D3LEngine::RankRows(
        std::move(rows), qt.sigs.size(), engine.lake()->size(),
        [&indexes](uint32_t id) { return indexes.profile(id).ref.table; }, weights, k);
    out.result.target_profiles = std::move(qt.profiles);
    out.result.target_sigs = std::move(qt.sigs);
  }
  out.subject_col = qt.subject_col;

  for (size_t c = 0; c < lists.ids.size(); ++c) {
    for (size_t e = 0; e < d3l::core::kNumEvidence; ++e) {
      out.counts.candidates += lists.ids[c][e].size();
      const std::vector<size_t>& v = depth_counts.counts[c][e];
      const size_t stop = stops.depths[c][e];
      if (stop > 0 && stop <= v.size() && v[stop - 1] > m) ++out.counts.truncated;
    }
  }
  out.counts.candidate_tables = out.result.candidate_alignments.size();
  out.counts.ranked_tables = out.result.ranked.size();
  return out;
}

std::vector<d3l::core::PairDistances> SplitScore(
    const D3LEngine& engine, const d3l::core::QueryTarget& target,
    const std::vector<std::vector<uint32_t>>& unions) {
  const d3l::core::D3LIndexes& indexes = engine.indexes();
  const auto& mask = engine.options().enabled;
  const auto enabled = [&](Evidence e) { return mask[static_cast<size_t>(e)]; };
  const d3l::core::AttributeSignatures* target_subject =
      target.subject_col >= 0 ? &target.sigs[static_cast<size_t>(target.subject_col)]
                              : nullptr;
  std::vector<d3l::core::PairDistances> rows;
  for (size_t c = 0; c < target.sigs.size(); ++c) {
    const std::vector<uint32_t>& candidates = unions[c];
    if (candidates.empty()) continue;
    const size_t first = rows.size();
    d3l::core::PrecomputedGuards guards;
    {
      ScopedSpan s("core.score.guards");
      guards = d3l::core::BuildGuards(indexes, target.sigs[c], target_subject);
    }
    {
      ScopedSpan s("core.score.estimate");
      for (uint32_t id : candidates) {
        d3l::core::PairDistances row;
        row.target_column = static_cast<uint32_t>(c);
        row.attribute_id = id;
        for (Evidence e : {Evidence::kName, Evidence::kValue, Evidence::kFormat,
                           Evidence::kEmbedding}) {
          row.d[static_cast<size_t>(e)] =
              enabled(e) ? indexes.EstimateDistance(e, target.sigs[c], id) : 1.0;
        }
        rows.push_back(row);
      }
    }
    if (!enabled(Evidence::kDistribution)) continue;
    ScopedSpan s("core.score.distribution");
    for (size_t i = first; i < rows.size(); ++i) {
      const uint32_t id = rows[i].attribute_id;
      const uint32_t src_subject =
          engine.subject_attribute_id(indexes.profile(id).ref.table);
      rows[i].d[static_cast<size_t>(Evidence::kDistribution)] =
          d3l::core::ComputeDistributionDistanceFast(indexes, target.profiles[c], id,
                                                     guards, src_subject);
    }
  }
  return rows;
}

}  // namespace d3lbench
