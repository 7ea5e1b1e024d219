#include "lsh/simhash.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/hash.h"

namespace d3l {

RandomProjectionHasher::RandomProjectionHasher(size_t dim, size_t bits, uint64_t seed)
    : dim_(dim), bits_(bits) {
  planes_.resize(dim * bits);
  for (size_t p = 0; p < bits_; ++p) {
    uint64_t plane_key = HashCombine(seed, p);
    for (size_t j = 0; j < dim_; ++j) {
      planes_[p * dim_ + j] =
          static_cast<float>(GaussianFromKey(HashCombine(plane_key, j)));
    }
  }
}

BitSignature RandomProjectionHasher::Sign(const Vec& v) const {
  assert(v.size() == dim_);
  BitSignature sig;
  sig.bits = bits_;
  sig.words.assign((bits_ + 63) / 64, 0);
  for (size_t p = 0; p < bits_; ++p) {
    double dot = 0;
    const float* plane = &planes_[p * dim_];
    for (size_t j = 0; j < dim_; ++j) {
      dot += static_cast<double>(v[j]) * plane[j];
    }
    if (dot >= 0) {
      sig.words[p / 64] |= (1ULL << (p % 64));
    }
  }
  return sig;
}

std::vector<uint64_t> RandomProjectionHasher::SignatureAsHashSequence(
    const BitSignature& sig) const {
  std::vector<uint64_t> seq((sig.bits + 7) / 8);
  for (size_t i = 0; i < seq.size(); ++i) seq[i] = SignatureByte(sig, i);
  return seq;
}

size_t HammingDistance(const BitSignature& a, const BitSignature& b) {
  assert(a.bits == b.bits);
  size_t d = 0;
  for (size_t i = 0; i < a.words.size(); ++i) {
    d += static_cast<size_t>(std::popcount(a.words[i] ^ b.words[i]));
  }
  return d;
}

double EstimateCosine(const BitSignature& a, const BitSignature& b) {
  if (a.bits == 0) return 0;
  double theta = M_PI * static_cast<double>(HammingDistance(a, b)) /
                 static_cast<double>(a.bits);
  return std::cos(theta);
}

double EstimateCosineDistance(const BitSignature& a, const BitSignature& b) {
  return std::clamp(1.0 - EstimateCosine(a, b), 0.0, 1.0);
}

}  // namespace d3l
