// LSD radix sort of (64-bit key, value) pairs on the key.
//
// One pass over the input builds the histograms of all eight key bytes;
// then each byte that varies gets one stable scatter pass, least
// significant first. A byte every key shares puts the whole input in one
// bucket and is skipped, so keys drawn from a small id space (rmat-18's
// 18-bit vertex ids) cost three scatters, not eight.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace remo {

/// Sorts `data` ascending by `first`; pairs with equal keys keep their
/// input order. `scratch` is working space whose capacity callers keep
/// across calls; its contents on return are unspecified. The two vectors'
/// buffers may be exchanged.
template <class V>
void radix_sort_by_key(std::vector<std::pair<std::uint64_t, V>>& data,
                       std::vector<std::pair<std::uint64_t, V>>& scratch) {
  constexpr int kBytes = 8;
  const std::size_t n = data.size();
  if (n < 2) return;

  std::array<std::array<std::size_t, 256>, kBytes> count{};
  for (const auto& e : data)
    for (int b = 0; b < kBytes; ++b) ++count[b][(e.first >> (8 * b)) & 0xff];

  scratch.resize(n);
  for (int b = 0; b < kBytes; ++b) {
    const std::uint8_t first_byte = (data.front().first >> (8 * b)) & 0xff;
    if (count[b][first_byte] == n) continue;  // every key shares this byte
    std::array<std::size_t, 256> offset;
    std::size_t sum = 0;
    for (int d = 0; d < 256; ++d) {
      offset[d] = sum;
      sum += count[b][d];
    }
    for (const auto& e : data) scratch[offset[(e.first >> (8 * b)) & 0xff]++] = e;
    data.swap(scratch);
  }
}

}  // namespace remo
