// Random-projection (sign-random-projection / SimHash, Charikar 2002)
// signatures for cosine-similarity LSH, used by evidence type E.
//
// A vector is reduced to B sign bits w.r.t. B random hyperplanes; the
// probability two vectors agree on a bit is 1 - theta/pi, so the angle (and
// hence cosine similarity) is estimated from the Hamming distance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "embedding/vector_ops.h"

namespace d3l {

/// \brief Bit signature packed into 64-bit words.
struct BitSignature {
  std::vector<uint64_t> words;
  size_t bits = 0;

  bool empty() const { return bits == 0; }
};

/// \brief Value `i` of a bit signature read as a hash sequence: byte i
/// (bits 8i .. 8i+7; the last byte keeps only the bits that exist).
inline uint64_t SignatureByte(const BitSignature& sig, size_t i) {
  const size_t first = i * 8;
  const size_t n = sig.bits - first < 8 ? sig.bits - first : 8;
  return (sig.words[first / 64] >> (first % 64)) & ((uint64_t{1} << n) - 1);
}

/// \brief Signs vectors against a fixed family of random hyperplanes.
///
/// Hyperplane components are deterministic Gaussians derived from
/// (seed, plane, component) hashes and materialized once at construction
/// (dim * bits floats), so signing is a dense dot-product sweep.
class RandomProjectionHasher {
 public:
  /// \param dim input vector dimensionality
  /// \param bits number of hyperplanes / signature bits (paper-scale: 256)
  RandomProjectionHasher(size_t dim, size_t bits, uint64_t seed);

  size_t bits() const { return bits_; }
  size_t dim() const { return dim_; }

  BitSignature Sign(const Vec& v) const;

  /// The signature reinterpreted as a sequence of small hash values for
  /// LSH-Forest insertion (each byte of the bit signature is one value,
  /// see SignatureByte).
  std::vector<uint64_t> SignatureAsHashSequence(const BitSignature& sig) const;

 private:
  size_t dim_;
  size_t bits_;
  std::vector<float> planes_;  // [plane * dim_ + component]
};

/// \brief Hamming distance between equal-length bit signatures.
size_t HammingDistance(const BitSignature& a, const BitSignature& b);

/// \brief Estimated cosine *similarity* from bit agreement:
/// cos(pi * hamming / bits).
double EstimateCosine(const BitSignature& a, const BitSignature& b);

/// \brief Estimated cosine distance 1 - EstimateCosine, clamped to [0, 1].
double EstimateCosineDistance(const BitSignature& a, const BitSignature& b);

}  // namespace d3l
