// LSD radix sort against std::sort on the key shapes its byte-skipping
// and scatter passes treat differently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/radix_sort.hpp"
#include "common/rng.hpp"

namespace remo::test {
namespace {

using Pair = std::pair<std::uint64_t, std::uint64_t>;

// Values record each pair's input position, so the comparison also checks
// that equal keys keep their input order.
std::vector<Pair> with_positions(const std::vector<std::uint64_t>& keys) {
  std::vector<Pair> out;
  for (std::uint64_t i = 0; i < keys.size(); ++i) out.emplace_back(keys[i], i);
  return out;
}

void expect_sorts_like_std(const std::vector<std::uint64_t>& keys) {
  std::vector<Pair> got = with_positions(keys);
  std::vector<Pair> want = got;
  std::sort(want.begin(), want.end());
  std::vector<Pair> scratch;
  radix_sort_by_key(got, scratch);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "at index " << i;
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  return keys;
}

TEST(RadixSort, EmptyAndSingleton) {
  expect_sorts_like_std({});
  expect_sorts_like_std({42});
}

TEST(RadixSort, AlreadySortedAndReversed) {
  std::vector<std::uint64_t> keys(5000);
  for (std::uint64_t i = 0; i < keys.size(); ++i) keys[i] = i * 977;
  expect_sorts_like_std(keys);
  std::reverse(keys.begin(), keys.end());
  expect_sorts_like_std(keys);
}

TEST(RadixSort, FullWidthRandomKeys) {
  expect_sorts_like_std(random_keys(10000, 1));
  expect_sorts_like_std(random_keys(257, 2));
}

TEST(RadixSort, KeysDifferingOnlyInTheTopByte) {
  std::vector<std::uint64_t> keys;
  for (const std::uint64_t top : {0xffu, 0x00u, 0x80u, 0x7fu, 0x01u, 0xfeu})
    keys.push_back((top << 56) | 0x0012345678abcdefULL);
  expect_sorts_like_std(keys);
}

TEST(RadixSort, KeysSharingEveryByteButOne) {
  for (int byte = 0; byte < 8; ++byte) {
    SCOPED_TRACE(byte);
    Xoshiro256 rng(100 + static_cast<std::uint64_t>(byte));
    std::vector<std::uint64_t> keys(3000);
    for (auto& k : keys) {
      const std::uint64_t b = rng() & 0xff;
      k = (0xa5a5a5a5a5a5a5a5ULL & ~(0xffULL << (8 * byte))) | (b << (8 * byte));
    }
    expect_sorts_like_std(keys);
  }
}

TEST(RadixSort, EqualKeysKeepInputOrderAndScratchIsReusable) {
  std::vector<std::uint64_t> keys = random_keys(2000, 3);
  for (auto& k : keys) k %= 64;  // many repeats
  expect_sorts_like_std(keys);

  std::vector<Pair> scratch(10, Pair{7, 7});  // stale contents are ignored
  std::vector<Pair> a = with_positions(random_keys(300, 4));
  std::vector<Pair> b = with_positions(random_keys(30, 5));
  for (std::vector<Pair>* data : {&a, &b}) {
    std::vector<Pair> want = *data;
    std::sort(want.begin(), want.end());
    radix_sort_by_key(*data, scratch);
    EXPECT_EQ(*data, want);
  }
}

}  // namespace
}  // namespace remo::test
