// Heap allocations made by the calling thread, counted by the global
// operator new replacement in alloc_count.cc (linked into the benchmark
// binary only). Per-thread, so the counts of one call on one thread do not
// depend on what idle service or server threads are doing meanwhile.
#pragma once

#include <cstdint>

namespace d3lbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

/// Allocations by the calling thread since it started.
AllocCounts ThreadAllocs();

}  // namespace d3lbench
