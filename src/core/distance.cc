#include "core/distance.h"

#include "stats/ks.h"

namespace d3l::core {

PrecomputedGuards BuildGuards(const D3LIndexes& indexes,
                              const AttributeSignatures& target_sigs,
                              const AttributeSignatures* target_subject) {
  PrecomputedGuards g;
  g.name_bands = indexes.ThresholdBandHashes(Evidence::kName, target_sigs);
  g.format_bands = indexes.ThresholdBandHashes(Evidence::kFormat, target_sigs);
  if (target_subject != nullptr) {
    for (size_t e = 0; e < g.subject_bands.size(); ++e) {
      g.subject_bands[e] =
          indexes.ThresholdBandHashes(static_cast<Evidence>(e), *target_subject);
    }
  }
  return g;
}

double ComputeDistributionDistanceFast(const D3LIndexes& indexes,
                                       const AttributeProfile& target_profile,
                                       uint32_t candidate_id,
                                       const PrecomputedGuards& guards,
                                       uint32_t source_subject_id) {
  const AttributeProfile& cand = indexes.profile(candidate_id);
  if (!target_profile.is_numeric || !cand.is_numeric) return 1.0;
  if (target_profile.numeric_sample.empty() || cand.numeric_sample.empty()) return 1.0;

  const auto subject_related = [&](Evidence e) {
    return source_subject_id != UINT32_MAX &&
           indexes.ThresholdHit(e, guards.subject_bands[static_cast<size_t>(e)],
                                source_subject_id);
  };
  // Algorithm 2, lines 4-6, cheapest test first: IE bands span rp_bits / 8
  // values, the MinHash bands of the other three the whole signature.
  const bool guard_passed =
      subject_related(Evidence::kEmbedding) ||
      indexes.ThresholdHit(Evidence::kName, guards.name_bands, candidate_id) ||
      indexes.ThresholdHit(Evidence::kFormat, guards.format_bands, candidate_id) ||
      subject_related(Evidence::kName) || subject_related(Evidence::kFormat) ||
      subject_related(Evidence::kValue);
  if (!guard_passed) return 1.0;  // line 7
  return KsStatistic(target_profile.numeric_sample, cand.numeric_sample);
}

}  // namespace d3l::core
