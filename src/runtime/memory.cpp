#include "runtime/memory.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace remo {

namespace {

constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

const char* page_backing_name(PageBacking backing) {
  switch (backing) {
    case PageBacking::kThp: return "thp";
    case PageBacking::kPlain: return "plain";
    case PageBacking::kHeap: return "heap";
  }
  return "heap";
}

Arena::Arena() {
  // Map the first chunk eagerly so the achieved backing tier is known (and
  // reportable) before the first allocation.
  std::lock_guard<std::mutex> lock(mutex_);
  chunks_.push_back(map_chunk(kChunkBytes));
}

Arena::~Arena() {
  for (Chunk& chunk : chunks_) unmap_chunk(chunk);
}

Arena::Chunk Arena::map_chunk(std::size_t bytes) {
  Chunk chunk;
  chunk.size = round_up(bytes, kHugePageBytes);
#if defined(__linux__)
  void* base = mmap(nullptr, chunk.size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base != MAP_FAILED) {
    chunk.base = base;
    chunk.backing = madvise(base, chunk.size, MADV_HUGEPAGE) == 0
                        ? PageBacking::kThp
                        : PageBacking::kPlain;
  }
#endif
  if (chunk.base == nullptr) {
    // mmap refused (or non-Linux): the heap tier. Alignment to 2 MiB keeps
    // the bump math identical across tiers.
    chunk.base = ::operator new(chunk.size, std::align_val_t{kHugePageBytes});
    chunk.backing = PageBacking::kHeap;
  }
  // Nothing in a fresh chunk is handed out yet; allocate() unpoisons.
  ASAN_POISON_MEMORY_REGION(chunk.base, chunk.size);
  return chunk;
}

void Arena::unmap_chunk(Chunk& chunk) noexcept {
  if (chunk.base == nullptr) return;
  // The address range may be reused by the next mapping; leave its shadow
  // clean.
  ASAN_UNPOISON_MEMORY_REGION(chunk.base, chunk.size);
#if defined(__linux__)
  if (chunk.backing != PageBacking::kHeap) {
    munmap(chunk.base, chunk.size);
    chunk.base = nullptr;
    return;
  }
#endif
  ::operator delete(chunk.base, chunk.size,
                    std::align_val_t{kHugePageBytes});
  chunk.base = nullptr;
}

std::size_t Arena::class_log2(std::size_t bytes, std::size_t align) {
  // Over-aligned (> 4 KiB) or huge requests skip the free lists: a
  // recycled block only guarantees min(class, 4 KiB) alignment, and
  // anything past 64 MiB is a one-off table that will never be refilled.
  if (align > 4096) return 0;
  const std::size_t want = std::max({bytes, align, std::size_t{1} << kMinClassLog2});
  if (want > (std::size_t{1} << kMaxClassLog2)) return 0;
  return static_cast<std::size_t>(std::bit_width(std::bit_ceil(want) >> 1));
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  REMO_CHECK_MSG(align != 0 && (align & (align - 1)) == 0,
                 "arena alignment must be a power of two");
  if (bytes == 0) bytes = 1;
  const std::size_t requested = bytes;
  std::lock_guard<std::mutex> lock(mutex_);
  if (const std::size_t cls = class_log2(bytes, align); cls != 0) {
    if (void* head = free_lists_[cls]) {
      // Reuse beats fresh pages: the recycled block is cache-warm and
      // already faulted in.
      free_lists_[cls] = *static_cast<void**>(head);
      allocated_ += std::size_t{1} << cls;
      // deallocate() left the link word addressable; close it again.
      ASAN_POISON_MEMORY_REGION(head, sizeof(void*));
      ASAN_UNPOISON_MEMORY_REGION(head, requested);
      return head;
    }
    // Carve the full class size so the block can round-trip through the
    // free list; min(class, 4 KiB) alignment covers any eligible request.
    bytes = std::size_t{1} << cls;
    align = std::min(bytes, std::size_t{4096});
  }
  Chunk* chunk = &chunks_.back();
  std::size_t offset = round_up(chunk->used, align);
  if (offset + bytes > chunk->size) {
    // Exhausted: oversized requests get a dedicated chunk, normal ones a
    // fresh standard chunk. Old chunks keep their bump memory (live
    // container storage) until arena destruction.
    const std::size_t want = std::max(kChunkBytes, round_up(bytes, align));
    chunks_.push_back(map_chunk(want));
    chunk = &chunks_.back();
    offset = 0;
  }
  chunk->used = offset + bytes;
  allocated_ += bytes;
  void* p = static_cast<char*>(chunk->base) + offset;
  ASAN_UNPOISON_MEMORY_REGION(p, requested);
  return p;
}

void Arena::deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  const std::size_t cls = class_log2(bytes, align);
  std::lock_guard<std::mutex> lock(mutex_);
  if (cls == 0) {
    // Bump-path block: resident until ~Arena, but no longer addressable.
    ASAN_POISON_MEMORY_REGION(p, bytes);
    return;
  }
  ASAN_POISON_MEMORY_REGION(p, std::size_t{1} << cls);
  ASAN_UNPOISON_MEMORY_REGION(p, sizeof(void*));
  *static_cast<void**>(p) = free_lists_[cls];
  free_lists_[cls] = p;
}

PageBacking Arena::backing() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PageBacking worst = PageBacking::kThp;
  for (const Chunk& chunk : chunks_) worst = std::max(worst, chunk.backing);
  return worst;
}

std::size_t Arena::allocated_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_;
}

std::size_t Arena::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.size;
  return total;
}

}  // namespace remo
