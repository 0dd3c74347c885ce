// Per-rank arenas (runtime/memory.hpp): alignment guarantees, growth on
// exhaustion, the page-backing fallback, allocator propagation through
// container moves, storage-over-arena parity with the heap, the teardown
// ordering contract (arena outlives every container; ASan is the judge on
// the sanitizer CI lane), and ASan poisoning of unallocated arena bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/memory.hpp"
#include "storage/degaware_store.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo::test {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

TEST(Arena, RespectsAlignment) {
  Arena arena;
  for (const std::size_t align : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{4096}}) {
    // Odd-sized requests force the bump pointer off alignment between calls.
    void* a = arena.allocate(13, align);
    void* b = arena.allocate(7, align);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % align, 0u) << align;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % align, 0u) << align;
    EXPECT_NE(a, b);
  }
}

TEST(Arena, GrowsOnExhaustion) {
  Arena arena;
  const std::size_t first_reserved = arena.reserved_bytes();
  EXPECT_EQ(first_reserved, Arena::kChunkBytes);  // first chunk mapped eagerly
  // Overflow the first chunk with many sub-chunk allocations (never
  // touched, so nothing is faulted in).
  const std::size_t block = Arena::kChunkBytes / 32;
  for (int i = 0; i < 40; ++i) ASSERT_NE(arena.allocate(block, 64), nullptr);
  EXPECT_EQ(arena.reserved_bytes(), 2 * Arena::kChunkBytes);
  EXPECT_EQ(arena.allocated_bytes(), 40 * block);
  EXPECT_LE(arena.allocated_bytes(), arena.reserved_bytes());
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena arena;
  // 4x the chunk size (a power of two, so no class rounding) cannot fit
  // any normal chunk; the arena must map a dedicated one rather than fail.
  const std::size_t size = 4 * Arena::kChunkBytes;
  void* p = arena.allocate(size, 64);
  ASSERT_NE(p, nullptr);
  // Eager chunk + dedicated chunk of exactly the request.
  EXPECT_EQ(arena.reserved_bytes(), Arena::kChunkBytes + size);
  // The mapping is writable end to end.
  auto* bytes = static_cast<unsigned char*>(p);
  bytes[0] = 1;
  bytes[size - 1] = 2;
  EXPECT_EQ(bytes[0] + bytes[size - 1], 3);
}

TEST(Arena, HugePageFallbackIsExplicitNeverFatal) {
  // The arena must construct and serve allocations no matter what tier
  // the host supports; the achieved tier is reported, not hidden (THP
  // where madvise(MADV_HUGEPAGE) is accepted, plain pages otherwise).
  Arena arena;
  ASSERT_NE(arena.allocate(1024, 64), nullptr);
  const PageBacking got = arena.backing();
  EXPECT_TRUE(got == PageBacking::kThp || got == PageBacking::kPlain ||
              got == PageBacking::kHeap);
  EXPECT_STRNE(page_backing_name(got), "");
}

TEST(Arena, FreeListRecyclesClassSizedBlocks) {
  // Vector-growth churn must not consume fresh arena space forever: a
  // freed power-of-two block comes straight back on the next same-class
  // allocation (same pointer, no new reservation).
  Arena arena;
  void* a = arena.allocate(1024, 64);
  ASSERT_NE(a, nullptr);
  arena.deallocate(a, 1024, 64);
  void* b = arena.allocate(900, 8);  // same 1 KiB class, laxer alignment
  EXPECT_EQ(b, a);
  const std::size_t reserved = arena.reserved_bytes();
  // Alloc/free cycles at one size must not grow the reservation.
  for (int i = 0; i < 10000; ++i) {
    void* p = arena.allocate(4096, 64);
    ASSERT_NE(p, nullptr);
    arena.deallocate(p, 4096, 64);
  }
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(Arena, OverAlignedFreesSkipTheFreeList) {
  // A block freed with > 4 KiB alignment cannot be recycled (a reused
  // block only guarantees min(class, 4 KiB) alignment) — the next
  // allocation must come from fresh space, never a misaligned reuse.
  Arena arena;
  void* a = arena.allocate(1 << 16, 1 << 14);
  ASSERT_NE(a, nullptr);
  arena.deallocate(a, 1 << 16, 1 << 14);
  void* b = arena.allocate(1 << 16, 1 << 14);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b, a);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % (1 << 14), 0u);
}

TEST(ArenaAllocator, NullArenaIsPlainHeap) {
  // The default-constructed allocator must behave exactly like std::allocator
  // — this is what every standalone (engine-less) container uses.
  std::vector<int, ArenaAllocator<int>> v;
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  EXPECT_EQ(v[9999], 9999);
  EXPECT_TRUE(v.get_allocator() == ArenaAllocator<int>());
}

TEST(ArenaAllocator, PropagatesThroughContainerMoves) {
  Arena arena;
  const ArenaAllocator<int> alloc(&arena);
  std::vector<int, ArenaAllocator<int>> src(alloc);
  for (int i = 0; i < 1000; ++i) src.push_back(i);
  const int* data = src.data();
  // POCMA: the move-assign steals the buffer (and the allocator) in O(1) —
  // this is what keeps RobinHoodMap::rehash cheap.
  std::vector<int, ArenaAllocator<int>> dst;
  dst = std::move(src);
  EXPECT_EQ(dst.data(), data);
  EXPECT_EQ(dst.get_allocator().arena(), &arena);
  EXPECT_EQ(dst[999], 999);
}

TEST(RobinHoodMapArena, RehashStaysInsideArena) {
  Arena arena;
  RobinHoodMap<std::uint64_t, std::uint64_t> map(&arena);
  EXPECT_EQ(map.arena(), &arena);
  const std::size_t before = arena.allocated_bytes();
  // Enough inserts to force several rehash cycles.
  for (std::uint64_t k = 0; k < 20000; ++k) map.insert_or_assign(k, k * 3);
  EXPECT_GT(arena.allocated_bytes(), before);
  for (std::uint64_t k = 0; k < 20000; ++k) {
    const std::uint64_t* v = map.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 3);
  }
}

TEST(DegAwareStoreArena, ParityWithHeapStore) {
  // The same edge workload through an arena-backed store and a heap store
  // must produce identical observable state — the allocator is invisible
  // to storage semantics.
  Arena arena;
  StoreConfig cfg;
  cfg.promote_threshold = 3;  // both adjacency tiers in play
  DegAwareStore on_arena(cfg, &arena);
  DegAwareStore on_heap(cfg);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const VertexId u = i % 97, v = (i * 31) % 89;
    const Weight w = static_cast<Weight>(1 + i % 7);
    on_arena.insert_edge(u, v, w);
    on_heap.insert_edge(u, v, w);
    if (i % 5 == 0) {
      on_arena.erase_edge(v, u);
      on_heap.erase_edge(v, u);
    }
  }
  ASSERT_EQ(on_arena.edge_count(), on_heap.edge_count());
  ASSERT_EQ(on_arena.vertex_count(), on_heap.vertex_count());
  on_heap.for_each_vertex([&](const VertexId& u, const TwoTierAdjacency&) {
    ASSERT_EQ(on_arena.degree(u), on_heap.degree(u)) << u;
  });
}

TEST(DegAwareStoreArena, GenerationCountersSurviveArenaBacking) {
  // The ingest hot path holds adjacency handles across calls guarded by
  // generation(); arena-backed rehashes must bump it exactly like heap ones.
  Arena arena;
  DegAwareStore store(StoreConfig{}, &arena);
  store.insert_edge(1, 2, 1);
  const auto g0 = store.generation();
  // Distinct source vertices grow the vertex map until it rehashes.
  for (std::uint64_t v = 3; v < 3000; ++v) store.insert_edge(v, 1, 1);
  EXPECT_GT(store.generation(), g0);
  EXPECT_EQ(store.vertex_count(), 2998u);
  EXPECT_EQ(store.degree(1), 1u);
}

TEST(TeardownOrdering, StoreDiesBeforeArena) {
  // The engine's contract: containers first, arena last. A violation is an
  // ASan use-after-free on the sanitizer lane; here we at least assert the
  // scoped ordering runs clean and the arena keeps its accounting.
  Arena arena;
  {
    DegAwareStore store(StoreConfig{}, &arena);
    for (std::uint64_t i = 0; i < 2000; ++i)
      store.insert_edge(i % 50, (i * 7) % 50, 1);
  }
  // Frees went to the arena's free lists, not back to the OS;
  // allocated_bytes counts cumulative traffic and stays put.
  EXPECT_GT(arena.allocated_bytes(), 0u);
  ASSERT_NE(arena.allocate(64, 8), nullptr);  // still serviceable
}

TEST(Arena, AsanReportsOnePastTheEndWrite) {
  // Arena chunks are poisoned until handed out and each allocation opens
  // exactly the requested bytes, so an overflow into the rest of the
  // size class (or the next block) is reported like a heap overflow.
  if (!kAsan) GTEST_SKIP() << "needs AddressSanitizer";
  Arena arena;
  auto* fresh = static_cast<volatile unsigned char*>(arena.allocate(100, 8));
  fresh[99] = 1;
  EXPECT_DEATH(fresh[100] = 1, "AddressSanitizer");
  // A block recycled through the free list is re-poisoned the same way.
  arena.deallocate(const_cast<unsigned char*>(fresh), 100, 8);
  auto* reused = static_cast<volatile unsigned char*>(arena.allocate(100, 8));
  ASSERT_EQ(reused, fresh);
  reused[99] = 1;
  EXPECT_DEATH(reused[100] = 1, "AddressSanitizer");
}

}  // namespace
}  // namespace remo::test
