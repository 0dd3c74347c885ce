#include <gtest/gtest.h>

#include <vector>

#include "runtime/comm.hpp"

namespace remo::test {
namespace {

Visitor basic(VertexId target, std::uint16_t epoch = 0) {
  Visitor v{};
  v.target = target;
  v.kind = VisitKind::kUpdate;
  v.epoch = epoch;
  return v;
}

Visitor control() {
  Visitor v{};
  v.kind = VisitKind::kControl;
  return v;
}

TEST(Comm, SendBuffersUntilFlush) {
  Comm comm(2, /*batch_size=*/16);
  comm.send(0, 1, basic(42));
  EXPECT_TRUE(comm.has_buffered(0));
  EXPECT_TRUE(comm.mailbox(1).empty());  // not yet delivered
  EXPECT_EQ(comm.in_flight_total(), 1);  // but already accounted

  comm.flush(0);
  EXPECT_FALSE(comm.has_buffered(0));
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].target, 42u);
}

TEST(Comm, BatchSizeTriggersAutoFlush) {
  Comm comm(2, /*batch_size=*/4);
  for (int i = 0; i < 4; ++i) comm.send(0, 1, basic(static_cast<VertexId>(i)));
  // Hitting the batch size flushed automatically.
  EXPECT_FALSE(comm.has_buffered(0));
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  EXPECT_EQ(out.size(), 4u);
}

TEST(Comm, InFlightAccountingByEpochParity) {
  Comm comm(2);
  comm.send(0, 1, basic(1, /*epoch=*/4));  // parity 0
  comm.send(0, 1, basic(2, /*epoch=*/5));  // parity 1
  comm.send(0, 1, basic(3, /*epoch=*/5));
  EXPECT_EQ(comm.in_flight(0), 1);
  EXPECT_EQ(comm.in_flight(1), 2);
  EXPECT_EQ(comm.in_flight_total(), 3);
  comm.note_processed(5);
  EXPECT_EQ(comm.in_flight(1), 1);
  comm.note_processed(4);
  comm.note_processed(5);
  EXPECT_EQ(comm.in_flight_total(), 0);
}

TEST(Comm, ControlMessagesAreNotAccounted) {
  Comm comm(2);
  comm.send(0, 1, control());
  EXPECT_EQ(comm.in_flight_total(), 0);
  comm.flush(0);
  std::vector<Visitor> out;
  EXPECT_TRUE(comm.mailbox(1).drain(out));
}

TEST(Comm, InjectedEventsPairWithProcessed) {
  Comm comm(1);
  comm.note_injected(0);
  comm.note_injected(1);
  EXPECT_EQ(comm.in_flight_total(), 2);
  comm.note_processed(0);
  comm.note_processed(1);
  EXPECT_EQ(comm.in_flight_total(), 0);
}

TEST(Comm, FifoAcrossFlushes) {
  Comm comm(2, /*batch_size=*/3);
  for (int i = 0; i < 10; ++i) comm.send(0, 1, basic(static_cast<VertexId>(i)));
  comm.flush(0);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].target,
                                         static_cast<VertexId>(i));
}

TEST(Comm, SelfSendTakesLoopbackFastPath) {
  Comm comm(1);
  comm.send(0, 0, basic(9));
  // The loop-back queue bypasses the send buffers and the mailbox entirely.
  EXPECT_FALSE(comm.has_buffered(0));
  EXPECT_TRUE(comm.mailbox(0).empty());
  EXPECT_TRUE(comm.local_pending(0));
  EXPECT_EQ(comm.in_flight_total(), 1);  // still accounted like any basic send

  std::vector<Visitor> out;
  ASSERT_TRUE(comm.drain(0, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].target, 9u);
  EXPECT_FALSE(comm.local_pending(0));
  EXPECT_FALSE(comm.drain(0, out));  // now fully empty
}

TEST(Comm, PublishTokensAreHeldUntilReleased) {
  Comm comm(1);
  Visitor token = basic(4);
  token.kind = VisitKind::kPublish;
  comm.send(0, 0, token);
  comm.send(0, 0, basic(5));
  token.target = 6;
  comm.send(0, 0, token);
  // Held tokens are in flight and in the backlog, but drain leaves them.
  EXPECT_EQ(comm.in_flight_total(), 3);
  EXPECT_EQ(comm.queue_depth(0), 3u);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.drain(0, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].target, 5u);
  EXPECT_TRUE(comm.has_held(0));
  EXPECT_TRUE(comm.local_pending(0));
  EXPECT_EQ(comm.queue_depth(0), 2u);
  EXPECT_FALSE(comm.drain(0, out));

  comm.release_held(0);
  EXPECT_FALSE(comm.has_held(0));
  EXPECT_EQ(comm.queue_depth(0), 2u);
  ASSERT_TRUE(comm.drain(0, out));
  ASSERT_EQ(out.size(), 2u);  // in send order
  EXPECT_EQ(out[0].target, 4u);
  EXPECT_EQ(out[1].target, 6u);
  EXPECT_FALSE(comm.local_pending(0));
  EXPECT_EQ(comm.queue_depth(0), 0u);
}

TEST(Comm, DrainMergesMailboxAndLoopback) {
  Comm comm(2);
  comm.send(1, 0, basic(1));  // remote: buffered, then mailbox
  comm.flush(1);
  comm.send(0, 0, basic(2));  // loop-back
  comm.send(0, 0, basic(3));
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.drain(0, out));
  ASSERT_EQ(out.size(), 3u);
  // Mailbox content first, then the loop-back queue, each FIFO.
  EXPECT_EQ(out[0].target, 1u);
  EXPECT_EQ(out[1].target, 2u);
  EXPECT_EQ(out[2].target, 3u);
}

TEST(Comm, DrainReplacesOutput) {
  Comm comm(1);
  std::vector<Visitor> out(5, basic(0));
  EXPECT_FALSE(comm.drain(0, out));
  EXPECT_TRUE(out.empty());  // stale content cleared even when idle
  comm.send(0, 0, basic(7));
  out.assign(3, basic(0));
  ASSERT_TRUE(comm.drain(0, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].target, 7u);
}

// ---------------------------------------------------------------------------
// Coalescing index + sharded accounting (DESIGN.md §6).

StateWord min_combine(const void*, StateWord a, StateWord b) {
  return a < b ? a : b;
}

Visitor update(VertexId target, VertexId other, StateWord value,
               std::uint16_t epoch = 0, std::uint8_t algo = 1) {
  Visitor v{};
  v.target = target;
  v.other = other;
  v.value = value;
  v.kind = VisitKind::kUpdate;
  v.epoch = epoch;
  v.algo = algo;
  return v;
}

TEST(CommCoalesce, SameKeyUpdatesMergeInTheSendBuffer) {
  Comm comm(2, /*batch_size=*/16);
  comm.register_combiner(1, nullptr, min_combine);

  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 10)));  // first: buffered
  EXPECT_TRUE(comm.send(0, 1, update(7, 3, 4)));    // merged away
  EXPECT_TRUE(comm.send(0, 1, update(7, 3, 9)));    // merged (dominated)
  // A coalesced visitor never existed for accounting purposes.
  EXPECT_EQ(comm.in_flight_total(), 1);

  comm.flush(0);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 4u);  // min over the three offers
}

TEST(CommCoalesce, DistinctKeysNeverMerge) {
  Comm comm(2, /*batch_size=*/32);
  comm.register_combiner(1, nullptr, min_combine);
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 10)));
  EXPECT_FALSE(comm.send(0, 1, update(8, 3, 10)));  // different target
  EXPECT_FALSE(comm.send(0, 1, update(7, 4, 10)));  // different sender
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 10, /*epoch=*/1)));  // epoch
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 10, 0, /*algo=*/2)));  // program
  EXPECT_EQ(comm.in_flight_total(), 5);
  comm.flush(0);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  EXPECT_EQ(out.size(), 5u);
}

TEST(CommCoalesce, FlushInvalidatesTheIndex) {
  // Same key across a flush boundary must NOT merge — the first copy is
  // already travelling.
  Comm comm(2, /*batch_size=*/16);
  comm.register_combiner(1, nullptr, min_combine);
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 10)));
  comm.flush(0);
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 4)));  // fresh buffer: appended
  comm.flush(0);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(comm.in_flight_total(), 2);
}

TEST(CommCoalesce, UnregisteredProgramsAndNonUpdatesPassThrough) {
  Comm comm(2, /*batch_size=*/16);
  comm.register_combiner(1, nullptr, min_combine);
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 10, 0, /*algo=*/5)));  // no hook
  EXPECT_FALSE(comm.send(0, 1, update(7, 3, 4, 0, /*algo=*/5)));
  Visitor add = update(7, 3, 1);
  add.kind = VisitKind::kAdd;  // topology events never coalesce
  EXPECT_FALSE(comm.send(0, 1, add));
  Visitor add2 = add;
  EXPECT_FALSE(comm.send(0, 1, add2));
  EXPECT_EQ(comm.in_flight_total(), 4);
}

TEST(CommCoalesce, SelfSendsSkipTheIndex) {
  Comm comm(2, /*batch_size=*/16);
  comm.register_combiner(1, nullptr, min_combine);
  EXPECT_FALSE(comm.send(0, 0, update(7, 3, 10)));
  EXPECT_FALSE(comm.send(0, 0, update(7, 3, 4)));  // loop-back: not merged
  EXPECT_EQ(comm.in_flight_total(), 2);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.drain(0, out));
  EXPECT_EQ(out.size(), 2u);
}

TEST(CommShards, RankShardsAndExternalShardSumGlobally) {
  Comm comm(3);
  comm.note_injected(0, /*shard=*/0);
  comm.note_injected(0, /*shard=*/2);
  comm.note_injected(0);  // external shard (main thread / tests)
  EXPECT_EQ(comm.in_flight(0), 3);
  // Processing may retire on any shard — the sums are global.
  comm.note_processed(0, /*shard=*/1);
  comm.note_processed(0, /*shard=*/2);
  comm.note_processed(0);
  EXPECT_EQ(comm.in_flight(0), 0);
  EXPECT_EQ(comm.in_flight_total(), 0);
}

TEST(CommShards, ParitiesStaySeparatePerShard) {
  Comm comm(2);
  comm.note_injected(4, /*shard=*/0);   // parity 0
  comm.note_injected(5, /*shard=*/1);   // parity 1
  EXPECT_EQ(comm.in_flight(0), 1);
  EXPECT_EQ(comm.in_flight(1), 1);
  EXPECT_EQ(comm.in_flight_total(), 2);
  comm.note_processed(4, /*shard=*/1);  // cross-shard retirement
  EXPECT_EQ(comm.in_flight(0), 0);
  comm.note_processed(5, /*shard=*/0);
  EXPECT_EQ(comm.in_flight_total(), 0);
}

TEST(CommDirty, FlushTouchesOnlyDirtyDestinations) {
  Comm comm(4, /*batch_size=*/16);
  comm.send(0, 2, basic(1));
  EXPECT_TRUE(comm.has_buffered(0));
  comm.flush(0);
  EXPECT_FALSE(comm.has_buffered(0));
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(2).drain(out));
  EXPECT_TRUE(comm.mailbox(1).empty());
  EXPECT_TRUE(comm.mailbox(3).empty());
  // Repeated flush with nothing dirty is a no-op (and cheap).
  comm.flush(0);
  EXPECT_FALSE(comm.mailbox(2).drain(out));
}

TEST(CommGauges, RingAndOverflowDepthsAreVisible) {
  Comm comm(2, /*batch_size=*/4, /*ring_capacity=*/8);
  for (int i = 0; i < 4; ++i)
    comm.send(0, 1, basic(static_cast<VertexId>(i)));  // auto-flush at 4
  EXPECT_EQ(comm.ring_depth(1), 4u);
  EXPECT_EQ(comm.overflow_depth(1), 0u);
  for (int i = 0; i < 8; ++i)
    comm.send(0, 1, basic(static_cast<VertexId>(i)));  // two more batches
  // Ring capacity 8: the third batch spilled.
  EXPECT_GT(comm.overflow_depth(1), 0u);
  EXPECT_GT(comm.overflows(1), 0u);
  std::vector<Visitor> out;
  ASSERT_TRUE(comm.mailbox(1).drain(out));
  ASSERT_EQ(out.size(), 12u);
  // FIFO across the spill: 0..3 (first batch), then 0..7 again.
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].target, static_cast<VertexId>(i < 4 ? i : i - 4));
}

}  // namespace
}  // namespace remo::test
