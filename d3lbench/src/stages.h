// D3LEngine::Search rebuilt stage by stage from the engine's public methods,
// each stage under an obs::ScopedSpan, so a traced run can attribute query
// time to the layers the north star names. With no trace installed on the
// thread every span is a no-op and the pipeline is the plain search.
#pragma once

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "table/table.h"

namespace d3lbench {

/// Deterministic work counts of one query.
struct StageCounts {
  uint64_t candidates = 0;  ///< ids retrieved over all (column, evidence) lookups
  uint64_t rows = 0;        ///< (column, candidate) rows scored
  uint64_t truncated = 0;   ///< lookups whose stop-depth bucket held more than m
  uint64_t candidate_tables = 0;
  uint64_t ranked_tables = 0;
  bool operator==(const StageCounts&) const = default;
};

struct StagedQuery {
  d3l::core::SearchResult result;
  StageCounts counts;
  int subject_col = -1;
  std::vector<std::vector<uint32_t>> unions;  ///< per-column scored candidates
};

/// Spans: core.profile {core.build_profile, lsh.sign, core.subject_detect},
/// lsh.depth_counts, lsh.collect_candidates, core.union, core.score, core.rank.
StagedQuery StagedSearch(const d3l::core::D3LEngine& engine, const d3l::Table& target,
                         size_t k);

/// ScoreCandidates split into its three parts, each timed over a whole target
/// column: core.score.guards (BuildGuards), core.score.estimate
/// (EstimateDistance) and core.score.distribution
/// (ComputeDistributionDistanceFast). Returns rows in ScoreCandidates order.
std::vector<d3l::core::PairDistances> SplitScore(const d3l::core::D3LEngine& engine,
                                                 const d3l::core::QueryTarget& target,
                                                 const std::vector<std::vector<uint32_t>>& unions);

}  // namespace d3lbench
