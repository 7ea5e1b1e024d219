// Classic banded LSH for threshold queries.
//
// A signature of n values is split into b bands of r rows; two items
// collide if any band matches exactly. The collision probability for
// Jaccard similarity s is 1 - (1 - s^r)^b, an S-curve whose inflection
// approximates (1/b)^(1/r). Given a target threshold tau (the paper uses
// 0.7), OptimalBandCount picks the b (and r = n/b) whose curve threshold is
// closest to tau.
//
// Membership of one item is a pairwise predicate: "id in Query(q)" holds
// exactly when some band b has BandHash(b, rows, q) == BandHash(b, rows,
// sig[id]). The Algorithm-2 guards evaluate that predicate directly over the
// stored signatures (core::D3LIndexes::ThresholdHit); a BandedLsh is only
// built where a threshold query must enumerate its hits, as the SA-join
// graph's tset-overlap evidence does (Section IV).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "lsh/minhash.h"

namespace d3l {

struct BandedLshOptions {
  double threshold = 0.7;  ///< target Jaccard similarity threshold tau
  size_t signature_size = 256;
};

/// \brief Chooses (bands, rows) for a signature size and threshold.
///
/// Scans divisors b of n and returns the b minimizing
/// |(1/b)^(1/(n/b)) - threshold|.
std::pair<size_t, size_t> OptimalBandsRows(size_t signature_size, double threshold);

/// \brief Expected collision probability 1 - (1 - s^r)^b.
double BandingCollisionProbability(double similarity, size_t bands, size_t rows);

/// \brief Bucket key of band `band` (of `rows` values each) of a signature
/// whose i-th value is `value_at(i)`: the key BandedLsh buckets items by.
/// The accessor form lets packed signatures (the byte sequence of a
/// BitSignature) be hashed without materializing them.
template <typename ValueAt>
uint64_t BandHash(size_t band, size_t rows, ValueAt value_at) {
  uint64_t h = Mix64(band + 0x51ed2701);
  for (size_t i = band * rows, end = i + rows; i < end; ++i) {
    h = HashCombine(h, value_at(i));
  }
  return h;
}

inline uint64_t BandHash(size_t band, size_t rows, const uint64_t* sig) {
  return BandHash(band, rows, [sig](size_t i) { return sig[i]; });
}

/// \brief Threshold-style LSH index over MinHash signatures.
class BandedLsh {
 public:
  using ItemId = uint32_t;

  explicit BandedLsh(BandedLshOptions options = {});

  size_t bands() const { return bands_; }
  size_t rows() const { return rows_; }

  void Insert(ItemId id, const Signature& signature);

  /// Span form for flat signature stores: `signature` points at `n` values.
  void Insert(ItemId id, const uint64_t* signature, size_t n);

  /// Items sharing at least one band with the query (candidates whose
  /// Jaccard similarity is likely >= threshold). Deduplicated.
  std::vector<ItemId> Query(const Signature& signature) const;

  size_t size() const { return num_items_; }
  size_t MemoryUsage() const;

 private:
  // Aborts (in all build types) if the signature is too short for BandHash.
  void CheckSignatureSize(size_t n) const;

  BandedLshOptions options_;
  size_t bands_;
  size_t rows_;
  // band index -> (band hash -> item ids)
  std::vector<std::unordered_map<uint64_t, std::vector<ItemId>>> buckets_;
  size_t num_items_ = 0;
};

}  // namespace d3l
