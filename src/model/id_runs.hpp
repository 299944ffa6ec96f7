// IdRuns: an ascending list of distinct non-negative ids, stored as runs
// of consecutive ids.
//
// The encoding: a lone id is one entry, and a run of two or more ids is
// two entries, its first id and then the bitwise complement of its last
// (a negative number, so it can never be mistaken for a first).  No list
// stores more entries than it has ids, and a contiguous list takes at
// most two: every path of a line network does.
//
// Problem keeps both of its sorted id lists in this encoding: the routing
// path of every instance (global edge ids) and the bucket of every edge
// (instance ids).  IdRuns is the read-only view the two accessors return.
// Iterating it yields the ids themselves, in ascending order; runs()
// yields the [first, last] runs, for walks that take a run at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

namespace treesched {

class IdRuns {
 public:
  using Id = std::int32_t;
  struct Run {
    Id first = 0;
    Id last = 0;  // inclusive
  };

  // The ids, one at a time, reading each entry once: a first id yields
  // itself, and a complement yields the rest of its run.  Like
  // for_each_id, stepping onto the complement of a run of two costs no
  // branch on the entry's sign.
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::forward_iterator_tag;
    using value_type = Id;
    using difference_type = std::ptrdiff_t;
    using pointer = const Id*;
    using reference = Id;

    iterator() = default;
    iterator(const Id* p, const Id* end) : p_(p), end_(end) {
      if (p_ != end_) id_ = last_ = *p_;
    }

    Id operator*() const { return id_; }
    iterator& operator++() {
      if (id_ != last_) {
        ++id_;
      } else if (++p_ == end_) {
        id_ = last_ = 0;
      } else {
        // The entry's own id, as in for_each_id; only the complement of a
        // run of three or more starts at the interior, after the run's
        // first id, which id_ holds.
        const Id x = *p_;
        last_ = x ^ (x >> 31);
        id_ = x < ~(id_ + 1) ? id_ + 1 : last_;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.p_ == b.p_ && a.id_ == b.id_;
    }

   private:
    const Id* p_ = nullptr;  // the entry that yielded id_
    const Id* end_ = nullptr;
    Id id_ = 0;
    Id last_ = 0;  // the last id p_ yields
  };

  // The runs, one at a time.
  class RunIterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::forward_iterator_tag;
    using value_type = Run;
    using difference_type = std::ptrdiff_t;
    using pointer = const Run*;
    using reference = Run;

    RunIterator() = default;
    RunIterator(const Id* p, const Id* end) : p_(p), end_(end) {}

    Run operator*() const {
      return p_ + 1 != end_ && p_[1] < 0 ? Run{p_[0], ~p_[1]}
                                          : Run{p_[0], p_[0]};
    }
    RunIterator& operator++() {
      p_ += p_ + 1 != end_ && p_[1] < 0 ? 2 : 1;
      return *this;
    }
    RunIterator operator++(int) {
      RunIterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const RunIterator& a, const RunIterator& b) {
      return a.p_ == b.p_;
    }

   private:
    const Id* p_ = nullptr;
    const Id* end_ = nullptr;
  };

  struct Runs {
    RunIterator b, e;
    RunIterator begin() const { return b; }
    RunIterator end() const { return e; }
  };

  IdRuns() = default;
  explicit IdRuns(std::span<const Id> entries) : entries_(entries) {}

  iterator begin() const {
    return {entries_.data(), entries_.data() + entries_.size()};
  }
  iterator end() const {
    const Id* end = entries_.data() + entries_.size();
    return {end, end};
  }
  Runs runs() const {
    const Id* end = entries_.data() + entries_.size();
    return {{entries_.data(), end}, {end, end}};
  }
  // The stored entries themselves.
  std::span<const Id> entries() const { return entries_; }

  // Calls f(id) for every id in ascending order, reading each entry once.
  // An entry's own id is the lone id or, for a complement, its run's last;
  // a run of three or more ids has an interior between its first and last,
  // visited before the last.  So the common entries, a lone id or the
  // complement of a run of two, cost what a plain id does, with no branch
  // on the entry's sign: on a tree path, where runs of two turn up at
  // random among lone ids, such a branch would mispredict once per run.
  template <typename F>
  void for_each_id(F&& f) const {
    Id prev = 0;  // the previous entry
    for (const Id x : entries_) {
      const Id id = x ^ (x >> 31);  // x, or ~x for a complement
      // Only the complement of a run [prev, id] with id > prev + 1 is
      // below ~(prev + 1): every first id lies above it.
      if (x < ~(prev + 1)) [[unlikely]]
        for (Id e = prev + 1; e < id; ++e) f(e);
      f(id);
      prev = x;
    }
  }

  bool empty() const { return entries_.empty(); }
  Id front() const { return entries_.front(); }
  Id back() const {
    const Id x = entries_.back();
    return x < 0 ? ~x : x;
  }
  // The number of ids: O(entries).
  std::size_t size() const {
    std::size_t n = 0;
    Id prev = 0;
    for (const Id x : entries_) {
      n += x >= 0 ? 1 : static_cast<std::size_t>(~x - prev);
      prev = x;
    }
    return n;
  }
  // True iff the ids are one run [front(), back()] (every line path).
  bool single_run() const {
    return entries_.size() == 1 ||
           (entries_.size() == 2 && entries_[1] < 0);
  }
  bool contains(Id id) const {
    for (const Run r : runs()) {
      if (id < r.first) return false;
      if (id <= r.last) return true;
    }
    return false;
  }

 private:
  std::span<const Id> entries_;
};

// Appends `runs` (ascending, disjoint, non-negative) to `out` in the
// encoding above, as a list of its own: the first run never merges into
// entries already in `out`.  Id-adjacent runs merge, so every stored run
// is maximal.
inline void append_runs(std::span<const IdRuns::Run> runs,
                        std::vector<IdRuns::Id>& out) {
  // Each run's first id and the complement of its last go to the cursor;
  // the cursor passes the complement only when the run has two or more
  // ids, so a lone id's complement is overwritten.  Selects, not
  // branches: on a tree path a run of two turns up at random.
  std::size_t w = out.size();
  out.resize(w + 2 * runs.size());
  IdRuns::Id* const dst = out.data();
  for (std::size_t k = 0; k < runs.size();) {
    const IdRuns::Id first = runs[k].first;
    IdRuns::Id last = runs[k].last;
    for (++k; k < runs.size() && runs[k].first == last + 1; ++k)
      last = runs[k].last;
    dst[w] = first;
    dst[w + 1] = ~last;
    w += 1 + (last != first);
  }
  out.resize(w);
}

}  // namespace treesched
