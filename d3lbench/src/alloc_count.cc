// Counting replacements of the global allocation functions. Every form of
// operator new funnels into Count + malloc/aligned_alloc, and every form of
// operator delete into free, so memory from any form is released by any
// matching delete.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t t_allocs = 0;
thread_local uint64_t t_bytes = 0;

void* Allocate(std::size_t n) {
  ++t_allocs;
  t_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  ++t_allocs;
  t_bytes += n;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace d3lbench {

AllocCounts ThreadAllocs() { return {t_allocs, t_bytes}; }

}  // namespace d3lbench

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return AllocateAligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return AllocateAligned(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
