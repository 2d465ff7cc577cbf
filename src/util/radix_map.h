// PersistentRadixMap: a persistent map from dense uint32 keys to values,
// implemented as a radix tree with fanout 16 whose nodes are shared between
// copies.
//
// This is the "space-efficient encoding of the parent relationship" from §3.1 of
// the paper: sharing a snapshot's page map costs O(1) (bump a root refcount), a
// point update copies only the *shared* part of the key's spine — at most
// height nodes, none when this map owns the whole path — and a diff between
// two maps skips whole subtrees that are pointer-equal, so restoring to a
// nearby snapshot touches only the pages that actually differ. A copy taken
// before an update never observes it.
//
// Thread affinity: Set and ReleaseInto decide "uniquely owned" from
// shared_ptr::use_count(), which is only meaningful while no other thread can
// concurrently copy or drop this map's nodes. Every copy of a map (and so
// every holder of its nodes) must be driven by one thread at a time — true for
// snapshot maps, which are session-thread-affine.
//
// Requirements on T: default-constructible, copyable, equality-comparable. The
// default value is treated as "absent" for iteration purposes.

#ifndef LWSNAP_SRC_UTIL_RADIX_MAP_H_
#define LWSNAP_SRC_UTIL_RADIX_MAP_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace lw {

template <typename T>
class PersistentRadixMap {
 public:
  static constexpr uint32_t kFanout = 16;
  static constexpr uint32_t kBitsPerLevel = 4;
  // Levels needed to cover every uint32 key.
  static constexpr int kMaxHeight = 32 / kBitsPerLevel;

  // A map covering keys [0, capacity). All maps that interoperate (Diff/assignment)
  // must share the same capacity.
  explicit PersistentRadixMap(uint32_t capacity = 0) : capacity_(capacity) {
    height_ = HeightFor(capacity);
  }

  uint32_t capacity() const { return capacity_; }

  // Borrowed value at `key`; a shared default-constructed T if never set. The
  // reference stays valid until the next Set/ReleaseInto/assignment on this
  // map (a later Set may mutate the slot in place).
  const T& Peek(uint32_t key) const {
    LW_CHECK(key < capacity_);
    const Node* node = root_.get();
    for (int level = height_ - 1; level >= 1 && node != nullptr; --level) {
      node = node->children[SlotAt(key, level)].get();
    }
    if (node == nullptr) {
      return DefaultValue();
    }
    return node->values[SlotAt(key, 0)];
  }

  // Sets `key` to `value`, copying only the shared part of the spine (see
  // MutableSlot). The rvalue overload moves `value` into the leaf, so
  // refcounted T (PageRef) pays zero bump/drop pairs on the materialize path.
  void Set(uint32_t key, const T& value) { MutableSlot(key) = value; }
  void Set(uint32_t key, T&& value) { MutableSlot(key) = std::move(value); }

  // Explicit O(spine) release: tears down only the nodes this map uniquely
  // owns (use_count() == 1, see "Thread affinity" above), moving their
  // non-default leaf values into `*drain`; subtrees shared with other maps are
  // dropped with a single child refcount decrement and never descended.
  // Afterwards the map is empty (every Peek returns T()). Returns the number
  // of nodes actually visited (torn down), so callers can assert the
  // O(delta · height) bound. Iterative over a fixed frame stack (one frame per
  // interior level): no recursion and no allocation beyond `*drain`'s growth.
  size_t ReleaseInto(std::vector<T>* drain) {
    size_t visited = 0;
    struct Frame {
      NodePtr node;
      int level = 0;
      uint32_t slot = 0;
    };
    Frame stack[kMaxHeight];
    int depth = 0;
    auto visit = [&](NodePtr&& node, int level) {
      if (node == nullptr) {
        return;
      }
      if (node.use_count() > 1) {
        node.reset();  // shared subtree: one decrement, no descent
        return;
      }
      ++visited;
      if (level == 0) {
        for (uint32_t slot = 0; slot < kFanout; ++slot) {
          if (!(node->values[slot] == T())) {
            drain->push_back(std::move(node->values[slot]));
          }
        }
        node.reset();
        return;
      }
      stack[depth++] = Frame{std::move(node), level};
    };
    visit(std::move(root_), height_ - 1);
    root_ = nullptr;
    while (depth > 0) {
      Frame& frame = stack[depth - 1];
      if (frame.slot == kFanout) {
        frame.node.reset();
        --depth;
        continue;
      }
      NodePtr child = std::move(frame.node->children[frame.slot]);
      ++frame.slot;
      visit(std::move(child), frame.level - 1);
    }
    return visited;
  }

  // Invokes fn(key, value) for every key whose value differs from T().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachRec(root_.get(), 0, height_ - 1, fn);
  }

  // Invokes fn(key, this_value, other_value) for every key where the two maps
  // disagree. Pointer-equal subtrees are skipped without descent — the payoff of
  // structural sharing.
  template <typename Fn>
  void Diff(const PersistentRadixMap& other, Fn&& fn) const {
    LW_CHECK(capacity_ == other.capacity_);
    DiffRec(root_.get(), other.root_.get(), 0, height_ - 1, fn);
  }

  // Number of heap nodes reachable from this map's root (for memory accounting;
  // counts shared nodes once per call, not deduplicated across maps).
  size_t CountNodes() const { return CountRec(root_.get(), height_ - 1); }

  // Nodes reachable from this root that are not already in `seen` (adds them).
  // Calling this over a family of maps yields the family's true structural
  // residency — shared subtrees are counted exactly once. The walk stops at
  // nodes already in `seen`, so accumulate without a Set in between: an
  // in-place Set can hang new nodes below a node `seen` already holds.
  size_t CountUniqueNodes(std::unordered_set<const void*>* seen) const {
    return CountUniqueRec(root_.get(), height_ - 1, seen);
  }

  bool RootEquals(const PersistentRadixMap& other) const { return root_ == other.root_; }

  // True when ReleaseInto would tear down at least the root: the map is
  // non-empty and no other copy shares its root (see "Thread affinity").
  bool OwnsRoot() const { return root_ != nullptr && root_.use_count() == 1; }

 private:
  struct Node {
    // Interior levels use children; the leaf level (level 0) uses values.
    std::shared_ptr<Node> children[kFanout];
    T values[kFanout];
  };
  using NodePtr = std::shared_ptr<Node>;

  static int HeightFor(uint32_t capacity) {
    if (capacity == 0) {
      return 1;
    }
    int height = 1;
    uint64_t span = kFanout;
    while (span < capacity) {
      span *= kFanout;
      ++height;
    }
    return height;
  }

  static uint32_t SlotAt(uint32_t key, int level) {
    return (key >> (kBitsPerLevel * level)) & (kFanout - 1);
  }

  // Walks the spine root to leaf and returns the leaf slot for `key`. A node
  // is copied only while it is shared (use_count() > 1) and mutated in place
  // otherwise: the first update after a share copies height nodes, later
  // updates on the same path copy none. Once a node is uniquely owned its
  // children's counts are exact, so the test is sound level by level.
  T& MutableSlot(uint32_t key) {
    LW_CHECK(key < capacity_);
    NodePtr* slot = &root_;
    for (int level = height_ - 1;; --level) {
      NodePtr& node = *slot;
      if (node == nullptr) {
        node = std::make_shared<Node>();
      } else if (node.use_count() > 1) {
        node = std::make_shared<Node>(*node);  // drops this map's share of the original
      }
      if (level == 0) {
        return node->values[SlotAt(key, 0)];
      }
      slot = &node->children[SlotAt(key, level)];
    }
  }

  static const T& DefaultValue() {
    static const T kDefault{};
    return kDefault;
  }

  template <typename Fn>
  static void ForEachRec(const Node* node, uint32_t prefix, int level, Fn&& fn) {
    if (node == nullptr) {
      return;
    }
    if (level == 0) {
      for (uint32_t slot = 0; slot < kFanout; ++slot) {
        if (!(node->values[slot] == T())) {
          fn(prefix * kFanout + slot, node->values[slot]);
        }
      }
      return;
    }
    for (uint32_t slot = 0; slot < kFanout; ++slot) {
      ForEachRec(node->children[slot].get(), prefix * kFanout + slot, level - 1, fn);
    }
  }

  template <typename Fn>
  static void DiffRec(const Node* a, const Node* b, uint32_t prefix, int level, Fn&& fn) {
    if (a == b) {
      return;  // Shared subtree: identical by construction.
    }
    if (level == 0) {
      // Hand leaf values to fn by reference: refcounted T (PageRef) would
      // otherwise pay an atomic bump/drop pair per differing page on every
      // restore diff. Absent slots reference one shared default instance.
      for (uint32_t slot = 0; slot < kFanout; ++slot) {
        const T& av = a != nullptr ? a->values[slot] : DefaultValue();
        const T& bv = b != nullptr ? b->values[slot] : DefaultValue();
        if (!(av == bv)) {
          fn(prefix * kFanout + slot, av, bv);
        }
      }
      return;
    }
    for (uint32_t slot = 0; slot < kFanout; ++slot) {
      const Node* ac = a != nullptr ? a->children[slot].get() : nullptr;
      const Node* bc = b != nullptr ? b->children[slot].get() : nullptr;
      DiffRec(ac, bc, prefix * kFanout + slot, level - 1, fn);
    }
  }

  static size_t CountRec(const Node* node, int level) {
    if (node == nullptr) {
      return 0;
    }
    size_t n = 1;
    if (level > 0) {
      for (uint32_t slot = 0; slot < kFanout; ++slot) {
        n += CountRec(node->children[slot].get(), level - 1);
      }
    }
    return n;
  }

  static size_t CountUniqueRec(const Node* node, int level,
                               std::unordered_set<const void*>* seen) {
    if (node == nullptr || !seen->insert(node).second) {
      return 0;
    }
    size_t n = 1;
    if (level > 0) {
      for (uint32_t slot = 0; slot < kFanout; ++slot) {
        n += CountUniqueRec(node->children[slot].get(), level - 1, seen);
      }
    }
    return n;
  }

  uint32_t capacity_;
  int height_;
  NodePtr root_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_UTIL_RADIX_MAP_H_
