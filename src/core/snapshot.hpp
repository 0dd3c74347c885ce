// Snapshot: discretised global algorithm state (Section II-C / III-D).
//
// A snapshot holds, for one program, every vertex whose state differs from
// the program's identity at the discretisation point. Produced either by
// Engine::collect_quiescent (drain, then gather) or by
// Engine::collect_versioned (Chandy-Lamport-style epoch split — ingestion
// keeps running while the previous epoch drains).
//
// The state is kept as one run per rank, each sorted by vertex id on the
// rank that owns it, so no cut ever sorts or merges the whole state on one
// thread. A lookup goes straight to the owner's run through a copy of the
// engine's Partitioner.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "runtime/partitioner.hpp"

namespace remo {

/// A moved-from Snapshot may only be assigned to or destroyed.
class Snapshot {
 public:
  using Entry = std::pair<VertexId, StateWord>;
  using Run = std::vector<Entry>;

  Snapshot() : runs_(1), part_(1) {}

  /// `runs[r]` holds the entries whose owner under `part` is rank r, in
  /// ascending id order with no repeated id.
  Snapshot(std::vector<Run> runs, Partitioner part, StateWord identity)
      : runs_(std::move(runs)), part_(part), identity_(identity) {
    REMO_CHECK(runs_.size() == part_.num_ranks());
    for (const Run& run : runs_) size_ += run.size();
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// State of `v` at the snapshot point; identity when untouched.
  StateWord at(VertexId v) const noexcept {
    const Entry* e = find(v);
    return e ? e->second : identity_;
  }

  StateWord identity() const noexcept { return identity_; }

  /// Engine epoch in force when this snapshot's cut was taken (stamped by
  /// the collect paths; metadata only — not part of value equality).
  /// collect_versioned stamps the post-cut epoch, so snapshots from
  /// successive cuts carry strictly increasing epochs (mod 2^16); the
  /// serving plane's read-epoch pin (docs/SERVING.md) is built on this.
  std::uint16_t epoch() const noexcept { return epoch_; }
  void set_epoch(std::uint16_t e) noexcept { epoch_ = e; }

  /// Walks the runs owner-major: rank 0's entries in ascending id order,
  /// then rank 1's, and so on. Not globally sorted unless there is one rank.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;
    reference operator*() const noexcept { return *pos_; }
    pointer operator->() const noexcept { return pos_; }
    const_iterator& operator++() noexcept {
      ++pos_;
      skip_exhausted();
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) noexcept {
      return a.run_ == b.run_ && a.pos_ == b.pos_;
    }

   private:
    friend class Snapshot;
    const_iterator(const Run* run, const Run* last, const Entry* pos) noexcept
        : run_(run), last_(last), pos_(pos) {
      skip_exhausted();
    }
    // Moves off the end of a run onto the next non-empty one; the end
    // iterator is the end of the last run.
    void skip_exhausted() noexcept {
      while (run_ != last_ && pos_ == run_->data() + run_->size()) {
        ++run_;
        pos_ = run_->data();
      }
    }
    const Run* run_ = nullptr;
    const Run* last_ = nullptr;
    const Entry* pos_ = nullptr;
  };

  const_iterator begin() const noexcept {
    return {runs_.data(), &runs_.back(), runs_.front().data()};
  }
  const_iterator end() const noexcept {
    const Run& last = runs_.back();
    return {&last, &last, last.data() + last.size()};
  }

  /// Same entries and identity, whatever the rank count or partitioning
  /// the two snapshots were cut under. Epochs are not compared.
  friend bool operator==(const Snapshot& a, const Snapshot& b) noexcept {
    if (a.size_ != b.size_ || a.identity_ != b.identity_) return false;
    for (const Entry& e : a) {
      const Entry* other = b.find(e.first);
      if (!other || other->second != e.second) return false;
    }
    return true;
  }

 private:
  const Entry* find(VertexId v) const noexcept {
    const Run& run = runs_[part_.owner(v)];
    auto it = std::lower_bound(run.begin(), run.end(), v,
                               [](const Entry& e, VertexId key) { return e.first < key; });
    return (it != run.end() && it->first == v) ? &*it : nullptr;
  }

  std::vector<Run> runs_;  // runs_[r]: rank r's entries, ascending by id
  Partitioner part_;
  std::size_t size_ = 0;
  StateWord identity_ = kInfiniteState;
  std::uint16_t epoch_ = 0;
};

}  // namespace remo
