// Per-rank memory arenas: THP-backed bump arenas with size-class free
// lists, and the allocator that hands a rank's storage shard and inbound
// mailbox rings an allocation handle.
//
// Backing tiers (strongest first), each attempted per chunk:
//   1. mmap + madvise(HUGEPAGE) — transparent huge pages (THP "madvise" mode)
//   2. plain anonymous mmap     — 4 KiB pages
//   3. operator new             — non-Linux / mmap-refused fallback
// The achieved tier is reported (Arena::backing, Engine::memory_json), so a
// host without THP shows up as "plain" in the stats instead of hiding.
//
// Arenas are chunked bump allocators with power-of-two size-class free
// lists: deallocate returns a block to its class for reuse, so the
// vector-growth / rehash churn of the ingest hot path recycles cache-hot
// buffers instead of bumping through cold pages forever (the heap gets
// this reuse from malloc; without it, arenas lose ~10% on single-node
// hosts). Chunk memory returns to the OS only at arena destruction. The
// engine therefore destroys its arenas *after* every container that
// holds arena memory (member order in Engine).
//
// Under AddressSanitizer, fresh chunks are poisoned and each allocation
// unpoisons exactly the bytes requested, so overflows of arena-backed
// arrays are reported just as heap overflows would be.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

namespace remo {

/// Page backing a chunk ended up with (tier actually achieved).
enum class PageBacking : std::uint8_t {
  kThp,    ///< plain mmap + madvise(MADV_HUGEPAGE) accepted
  kPlain,  ///< plain mmap, no huge-page hint honoured
  kHeap,   ///< operator new (mmap unavailable)
};

const char* page_backing_name(PageBacking backing);

/// Thread-safe bump allocator over mmap'd chunks with power-of-two
/// size-class free lists. Grows by mapping a new chunk on exhaustion;
/// oversized requests get a dedicated chunk. Freed class-sized blocks are
/// recycled (intrusive per-class lists); chunk memory is unmapped only at
/// destruction.
class Arena {
 public:
  /// Standard chunk reservation: four 2 MiB huge pages.
  static constexpr std::size_t kChunkBytes = std::size_t{8} << 20;

  Arena();
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Aligned allocation; never returns nullptr (operator-new tier throws
  /// std::bad_alloc like the heap would). `align` must be a power of two.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Returns class-eligible blocks (<= 64 MiB, align <= 4 KiB) to the
  /// matching free list for reuse; anything else stays resident until
  /// arena destruction (bump semantics). Pass the same size/alignment the
  /// block was allocated with, as std::allocator_traits guarantees.
  void deallocate(void* p, std::size_t bytes,
                  std::size_t align = alignof(std::max_align_t)) noexcept;

  /// Weakest backing tier any chunk landed on (the honest number to
  /// report: one plain-page chunk among huge ones still means TLB misses).
  PageBacking backing() const;

  /// Cumulative bytes handed out (class-rounded; reuse from a free list
  /// counts again — this is allocation traffic, not live bytes).
  std::size_t allocated_bytes() const;
  std::size_t reserved_bytes() const;  ///< bytes mapped in chunks

 private:
  struct Chunk {
    void* base = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
    PageBacking backing = PageBacking::kHeap;
  };

  // Free-list size classes: powers of two from 8 B (room for the
  // intrusive next pointer) to 64 MiB. Vector doubling and Robin Hood
  // rehash both free exact power-of-two blocks, so classes fit snugly.
  static constexpr std::size_t kMinClassLog2 = 3;
  static constexpr std::size_t kMaxClassLog2 = 26;
  /// Size-class index for a (bytes, align) request, or 0 when the request
  /// must take the raw bump path (huge or over-aligned).
  static std::size_t class_log2(std::size_t bytes, std::size_t align);

  static Chunk map_chunk(std::size_t bytes);
  static void unmap_chunk(Chunk& chunk) noexcept;

  mutable std::mutex mutex_;
  std::vector<Chunk> chunks_;
  void* free_lists_[kMaxClassLog2 + 1] = {};
  std::size_t allocated_ = 0;
};

/// Std-compatible allocator carrying an optional Arena. Null arena ==
/// plain heap (what standalone containers use). Propagates on
/// move/copy/swap so container moves — e.g. RobinHoodMap::rehash's
/// move-then-assign — stay O(1) pointer steals.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_)
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t{alignof(T)}));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_) {
      arena_->deallocate(p, n * sizeof(T), alignof(T));
      return;
    }
    ::operator delete(p, n * sizeof(T), std::align_val_t{alignof(T)});
  }

  Arena* arena() const noexcept { return arena_; }

  friend bool operator==(const ArenaAllocator& a,
                         const ArenaAllocator& b) noexcept {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a,
                         const ArenaAllocator& b) noexcept {
    return !(a == b);
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace remo
