#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace remo::obs::test {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(TraceBuffer, RetainsEventsInOrder) {
  TraceBuffer buf(8);
  buf.emit("a", 100, 10);
  buf.emit("b", 200, 20, "count", 7);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].ts_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 10u);
  EXPECT_EQ(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[1].arg_name, "count");
  EXPECT_EQ(events[1].arg_value, 7u);
  EXPECT_EQ(buf.emitted(), 2u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBuffer, RingWrapKeepsNewestWindow) {
  TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 10; ++i) buf.emit("e", i * 100, 1, "i", i);
  EXPECT_EQ(buf.emitted(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg_value, 6 + i);  // the last four, oldest first
    EXPECT_EQ(events[i].ts_ns, (6 + i) * 100);
  }
}

TEST(TraceBuffer, ZeroCapacityClampsToOne) {
  TraceBuffer buf(0);
  buf.emit("x", 1, 1);
  buf.emit("y", 2, 1);
  EXPECT_EQ(buf.capacity(), 1u);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "y");
}

TEST(TraceWriter, EmitsParsableChromeTraceJson) {
  TraceTrack rank0{"rank 0", 0, {}};
  // Deliberately out of chronological order: the engine emits enclosing
  // slices after their nested children, so the writer must sort per track.
  rank0.events.push_back(TraceEvent{"drain", "events", 5000, 4000, 32});
  rank0.events.push_back(TraceEvent{"harvest", nullptr, 6000, 1000, 0});
  rank0.events.push_back(TraceEvent{"ingest", "events", 1000, 2000, 64});
  TraceTrack main{"main", 1, {}};
  main.events.push_back(TraceEvent{"collect", "vertices", 4000, 3000, 12});

  const std::string path = temp_path("remo_trace_test.json");
  ASSERT_TRUE(write_chrome_trace(path, "remo-test", {rank0, main}));

  std::string error;
  const Json doc = Json::parse(slurp(path), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.is_object());

  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Validate the format contract: metadata names the process and both
  // threads; every slice is a complete event with the required keys; and
  // within each (pid, tid) track the "X" timestamps never go backwards.
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  int slices = 0, metadata = 0;
  bool saw_process_name = false;
  std::map<std::string, bool> thread_names;
  for (const Json& ev : events->items()) {
    ASSERT_TRUE(ev.is_object());
    const Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") {
      ++metadata;
      const Json* name = ev.find("name");
      ASSERT_NE(name, nullptr);
      if (name->as_string() == "process_name") saw_process_name = true;
      if (name->as_string() == "thread_name") {
        const Json* args = ev.find("args");
        ASSERT_NE(args, nullptr);
        thread_names[args->find("name")->as_string()] = true;
      }
      continue;
    }
    ASSERT_EQ(ph->as_string(), "X");
    ++slices;
    for (const char* key : {"name", "pid", "tid", "ts", "dur"})
      EXPECT_TRUE(ev.contains(key)) << "slice missing " << key;
    const auto track = std::make_pair(ev.find("pid")->as_int(),
                                      ev.find("tid")->as_int());
    const double ts = ev.find("ts")->as_double();
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regress within a track";
    }
    last_ts[track] = ts;
  }
  EXPECT_EQ(slices, 4);
  EXPECT_GE(metadata, 3);  // process_name + one thread_name per track
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(thread_names["rank 0"]);
  EXPECT_TRUE(thread_names["main"]);

  // Timestamp unit conversion: ns -> us floats.
  bool saw_ingest = false;
  for (const Json& ev : events->items()) {
    if (const Json* name = ev.find("name");
        name && name->as_string() == "ingest") {
      saw_ingest = true;
      EXPECT_DOUBLE_EQ(ev.find("ts")->as_double(), 1.0);
      EXPECT_DOUBLE_EQ(ev.find("dur")->as_double(), 2.0);
      EXPECT_EQ(ev.find("args")->find("events")->as_uint(), 64u);
    }
  }
  EXPECT_TRUE(saw_ingest);
  std::remove(path.c_str());
}

TEST(TraceWriter, ExportAfterRingWraparoundIsValidAndOrdered) {
  // Fill a small ring well past capacity, then export: the file must still
  // be valid chrome-trace JSON, the retained window must be exactly the
  // newest `capacity` slices in chronological order, and the overwritten
  // prefix must be gone.
  TraceBuffer buf(16);
  for (std::uint64_t i = 0; i < 100; ++i) buf.emit("tick", i * 1000, 500, "i", i);
  EXPECT_EQ(buf.emitted(), 100u);
  EXPECT_EQ(buf.dropped(), 84u);

  const std::string path = temp_path("remo_trace_wrap.json");
  ASSERT_TRUE(write_chrome_trace(path, "remo-test",
                                 {TraceTrack{"rank 0", 0, buf.events()}}));

  std::string error;
  const Json doc = Json::parse(slurp(path), &error);
  ASSERT_TRUE(error.empty()) << error;
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::vector<std::uint64_t> retained;
  double last_ts = -1.0;
  for (const Json& ev : events->items()) {
    if (ev.find("ph")->as_string() != "X") continue;
    const double ts = ev.find("ts")->as_double();
    EXPECT_GE(ts, last_ts) << "timestamps regress after wraparound";
    last_ts = ts;
    retained.push_back(ev.find("args")->find("i")->as_uint());
  }
  ASSERT_EQ(retained.size(), 16u);
  for (std::size_t k = 0; k < retained.size(); ++k)
    EXPECT_EQ(retained[k], 84 + k);  // oldest slices dropped, newest kept
  std::remove(path.c_str());
}

TEST(TraceBuffer, RecentEventsReturnsNewestTail) {
  TraceBuffer buf(8);
  for (std::uint64_t i = 0; i < 20; ++i) buf.emit("e", i, 1, "i", i);
  const auto tail = buf.recent_events(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].arg_value, 17u);
  EXPECT_EQ(tail[2].arg_value, 19u);
  // Asking for more than the window yields the whole retained window.
  EXPECT_EQ(buf.recent_events(100).size(), 8u);
}

TEST(TraceWriter, EmptyTracksStillValid) {
  const std::string path = temp_path("remo_trace_empty.json");
  ASSERT_TRUE(write_chrome_trace(path, "remo-test", {}));
  std::string error;
  const Json doc = Json::parse(slurp(path), &error);
  ASSERT_TRUE(error.empty()) << error;
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only the process metadata record.
  for (const Json& ev : events->items())
    EXPECT_EQ(ev.find("ph")->as_string(), "M");
  std::remove(path.c_str());
}

TEST(TraceWriter, FailsOnUnwritablePath) {
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/trace.json", "p", {}));
}

TEST(TraceWriter, FlowContinuationsNeverOrphanedAfterWraparound) {
  // A cause's flow-begin lives on the ingesting rank's ring while its
  // continuations land on other ranks' rings; wraparound can overwrite the
  // begin while continuations survive. The export must never emit a flow
  // step/end ("t"/"f") whose begin ("s") is gone — viewers render those as
  // dangling arrows. Build exactly that shape: a tiny begin ring that
  // forgets most starts, a roomy ring that remembers every continuation.
  TraceBuffer begins(4), conts(64);
  for (std::uint64_t f = 1; f <= 20; ++f) {
    begins.emit_flow("cause", f * 1000, 100, f, FlowPhase::kStart, "cause", f);
    conts.emit_flow("cause", f * 1000 + 500, 100, f, FlowPhase::kStep);
    conts.emit_flow("cause", f * 1000 + 700, 100, f, FlowPhase::kEnd);
  }
  EXPECT_EQ(begins.dropped(), 16u);  // starts 1..16 overwritten

  const std::string path = temp_path("remo_trace_flow_wrap.json");
  ASSERT_TRUE(write_chrome_trace(path, "remo-test",
                                 {TraceTrack{"rank 0", 0, begins.events()},
                                  TraceTrack{"rank 1", 1, conts.events()}}));

  std::string error;
  const Json doc = Json::parse(slurp(path), &error);
  ASSERT_TRUE(error.empty()) << error;
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Round-trip check: every continuation id in the emitted JSON must have a
  // matching begin, and surviving flows keep their full s -> t -> f chain.
  std::map<std::uint64_t, int> begun, stepped, ended;
  for (const Json& ev : events->items()) {
    const std::string ph = ev.find("ph")->as_string();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    const std::uint64_t id = ev.find("id")->as_uint();
    if (ph == "s") ++begun[id];
    if (ph == "t") ++stepped[id];
    if (ph == "f") ++ended[id];
    if (ph != "s") {
      EXPECT_EQ(begun.count(id), 1u) << "flow " << id << " " << ph
                                     << " emitted without a begin";
      EXPECT_TRUE(ev.contains("bp")) << "continuation must bind to enclosing";
    }
  }
  ASSERT_EQ(begun.size(), 4u);  // the retained window: flows 17..20
  for (std::uint64_t f = 17; f <= 20; ++f) {
    EXPECT_EQ(begun[f], 1) << f;
    EXPECT_EQ(stepped[f], 1) << f;
    EXPECT_EQ(ended[f], 1) << f;
  }
  for (std::uint64_t f = 1; f <= 16; ++f) {
    EXPECT_EQ(stepped.count(f), 0u) << f;
    EXPECT_EQ(ended.count(f), 0u) << f;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace remo::obs::test
