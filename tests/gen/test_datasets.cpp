#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/datasets.hpp"

namespace remo::test {
namespace {

TEST(Datasets, Table1RegistryHasFourEntries) {
  DatasetScale s;
  s.scale_shift = -4;  // tiny for the test
  const auto all = table1_datasets(s);
  ASSERT_EQ(all.size(), 4u);
  for (const Dataset& d : all) {
    EXPECT_FALSE(d.name.empty());
    EXPECT_FALSE(d.stands_for.empty());
    EXPECT_FALSE(d.edges.empty());
    EXPECT_TRUE(d.undirected);
  }
}

TEST(Datasets, ScaleShiftChangesSize) {
  DatasetScale small{.scale_shift = -5, .seed = 1};
  DatasetScale large{.scale_shift = -3, .seed = 1};
  EXPECT_LT(make_synth_twitter(small).edges.size(),
            make_synth_twitter(large).edges.size());
}

TEST(Datasets, RmatNameEncodesScale) {
  const Dataset d = make_rmat(8);
  EXPECT_EQ(d.name, "rmat-8");
  EXPECT_EQ(d.edges.size(), (1u << 8) * 16u);
}

TEST(Datasets, BenchScaleFromEnv) {
  setenv("REMO_BENCH_SCALE", "-2", 1);
  EXPECT_EQ(bench_scale_from_env().scale_shift, -2);
  setenv("REMO_BENCH_SCALE", "-14", 1);  // rmat-1, the smallest scale
  EXPECT_EQ(bench_scale_from_env().scale_shift, -14);
  setenv("REMO_BENCH_SCALE", "47", 1);
  EXPECT_EQ(bench_scale_from_env().scale_shift, 47);
  unsetenv("REMO_BENCH_SCALE");
  EXPECT_EQ(bench_scale_from_env().scale_shift, 0);
}

// The message of a rejected value, or "" when `f` did not throw.
template <typename F>
std::string rejection(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Datasets, BenchEnvRejectsMalformedValues) {
  // Non-integers, a scale whose rmat-(15 + shift) would be below rmat-1,
  // and one that would shift a vertex count past 64 bits.
  for (const char* bad : {"abc", "2x", "1.5", "-15", "-20", "48", "99999999999999999999"}) {
    setenv("REMO_BENCH_SCALE", bad, 1);
    EXPECT_NE(rejection(bench_scale_from_env).find("REMO_BENCH_SCALE"),
              std::string::npos)
        << bad;
  }
  unsetenv("REMO_BENCH_SCALE");

  for (const char* bad : {"abc", "0", "-3", "2.5"}) {
    setenv("REMO_BENCH_REPEATS", bad, 1);
    EXPECT_NE(rejection([] { bench_repeats_from_env(); }).find("REMO_BENCH_REPEATS"),
              std::string::npos)
        << bad;
  }
  unsetenv("REMO_BENCH_REPEATS");

  for (const char* bad : {"abc", "1 two 4", "0", "2 -1", " "}) {
    setenv("REMO_BENCH_RANKS", bad, 1);
    EXPECT_NE(rejection([] { bench_ranks_from_env(); }).find("REMO_BENCH_RANKS"),
              std::string::npos)
        << "'" << bad << "'";
  }
  unsetenv("REMO_BENCH_RANKS");
}

TEST(Datasets, BenchRanksAndRepeatsFromEnv) {
  unsetenv("REMO_BENCH_RANKS");
  unsetenv("REMO_BENCH_REPEATS");
  EXPECT_EQ(bench_ranks_from_env(), (std::vector<RankId>{1, 2, 4}));
  EXPECT_EQ(bench_ranks_from_env({2}), (std::vector<RankId>{2}));
  EXPECT_EQ(bench_repeats_from_env(), 3);
  setenv("REMO_BENCH_RANKS", "1 3", 1);
  setenv("REMO_BENCH_REPEATS", "5", 1);
  EXPECT_EQ(bench_ranks_from_env(), (std::vector<RankId>{1, 3}));
  EXPECT_EQ(bench_repeats_from_env(), 5);
  // An empty value counts as unset.
  setenv("REMO_BENCH_RANKS", "", 1);
  setenv("REMO_BENCH_REPEATS", "", 1);
  EXPECT_EQ(bench_ranks_from_env({2}), (std::vector<RankId>{2}));
  EXPECT_EQ(bench_repeats_from_env(), 3);
  unsetenv("REMO_BENCH_RANKS");
  unsetenv("REMO_BENCH_REPEATS");
}

}  // namespace
}  // namespace remo::test
