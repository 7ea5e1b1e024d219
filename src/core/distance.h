// The guarded D-relatedness computation of Algorithm 2.
//
// KS distribution evidence applies to a numeric pair (a, a') only when a
// guard passes: a' in IN.lookup(a), a' in IF.lookup(a), or the subject
// attributes of the two tables are related under any index (I*). Each is a
// threshold membership test for one known attribute, evaluated pairwise
// from stored signatures (D3LIndexes::ThresholdHit) rather than by
// enumerating threshold lookups.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/evidence.h"
#include "core/indexes.h"

namespace d3l::core {

/// \brief The query side of the Algorithm-2 guards for one target
/// attribute: band hashes (D3LIndexes::ThresholdBandHashes) computed once
/// and compared against every candidate.
struct PrecomputedGuards {
  /// IN / IF band hashes of the target attribute itself.
  std::vector<uint64_t> name_bands;
  std::vector<uint64_t> format_bands;
  /// Band hashes of the *target table's subject attribute* per evidence
  /// (indexed by Evidence, I* = any of the four); empty without a subject.
  std::array<std::vector<uint64_t>, 4> subject_bands;
};

/// \brief Hashes the guard bands for one target attribute.
/// \param target_subject signatures of the target table's subject attribute
///        (nullptr if the target has none).
PrecomputedGuards BuildGuards(const D3LIndexes& indexes,
                              const AttributeSignatures& target_sigs,
                              const AttributeSignatures* target_subject);

/// \brief DD(a, a') per Algorithm 2: KS over the two numeric samples if a
/// guard passes, 1 otherwise (and 1 unless both attributes are numeric with
/// non-empty samples). `source_subject_id` is the attribute id of the
/// candidate table's subject attribute (UINT32_MAX if none).
double ComputeDistributionDistanceFast(const D3LIndexes& indexes,
                                       const AttributeProfile& target_profile,
                                       uint32_t candidate_id,
                                       const PrecomputedGuards& guards,
                                       uint32_t source_subject_id);

}  // namespace d3l::core
