#include "src/vfs/dir_tree.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace protego {

namespace {

constexpr uint32_t kHashBits = 64;

// The slot bit of `hash` at the level that takes its bits from `shift`.
uint32_t SlotBit(uint64_t hash, uint32_t shift) {
  return 1u << ((hash >> shift) & (DirNode::kSlots - 1));
}

// The index, among the slots `map` marks, of the slot `bit`.
uint32_t Rank(uint32_t map, uint32_t bit) { return std::popcount(map & (bit - 1)); }

// The index of the entry named `name` in a bucket, or its size.
uint32_t BucketPos(const DirNode* bucket, std::string_view name) {
  const DirEntry* entries = bucket->entries();
  uint32_t i = 0;
  while (i < bucket->entry_count() && *entries[i].name != name) {
    ++i;
  }
  return i;
}

// Copies `from[0..n)` to `to` with `splice` applied.
template <typename T, typename Splice>
void Put(const T* from, uint32_t n, const Splice& splice, T* to) {
  to = std::copy(from, from + splice.at, to);
  if (splice.add != nullptr) {
    *to++ = *splice.add;
  }
  std::copy(from + splice.at + splice.drop, from + n, to);
}

[[noreturn]] void TooDeep() {
  std::fprintf(stderr, "DirEdit: more nodes than one edit can change\n");
  std::abort();
}

}  // namespace

const DirEntry* DirFind(const DirNode* node, uint64_t hash, std::string_view name) {
  for (uint32_t shift = 0; node != nullptr; shift += DirNode::kBits) {
    if (shift >= kHashBits) {
      const uint32_t i = BucketPos(node, name);
      return i < node->entry_count() ? &node->entries()[i] : nullptr;
    }
    const uint32_t bit = SlotBit(hash, shift);
    if ((node->entry_map() & bit) != 0) {
      const DirEntry& entry = node->entries()[Rank(node->entry_map(), bit)];
      return entry.hash == hash && *entry.name == name ? &entry : nullptr;
    }
    node = (node->child_map() & bit) != 0 ? node->children()[Rank(node->child_map(), bit)]
                                          : nullptr;
  }
  return nullptr;
}

void DirFree(const DirNode* node) {
  if (node == nullptr) {
    return;
  }
  for (uint32_t i = 0; i < node->child_count(); ++i) {
    DirFree(node->children()[i]);
  }
  delete node;
}

DirNode* DirEdit::Make(uint32_t entry_map, uint32_t child_map, uint32_t n_entries,
                       uint32_t n_children) {
  if (n_made_ == kMaxNodes) {
    TooDeep();
  }
  void* raw = ::operator new(sizeof(DirNode) + n_entries * sizeof(DirEntry) +
                             n_children * sizeof(const DirNode*));
  DirNode* node = new (raw) DirNode(entry_map, child_map, n_entries, n_children);
  made_[n_made_++] = node;
  return node;
}

void DirEdit::Drop(const DirNode* old) {
  const DirNode** made_end = made_ + n_made_;
  const DirNode** it = std::find(made_, made_end, old);
  if (it != made_end) {
    *it = made_[--n_made_];
    delete old;
    return;
  }
  if (n_replaced_ == kMaxNodes) {
    TooDeep();
  }
  replaced_[n_replaced_++] = old;
}

const DirNode* DirEdit::Rebuild(const DirNode* node, uint32_t entry_map, uint32_t child_map,
                                Splice<DirEntry> entries, Splice<const DirNode*> children) {
  const uint32_t n_entries = node->entry_count() - entries.drop + (entries.add != nullptr);
  const uint32_t n_children = node->child_count() - children.drop + (children.add != nullptr);
  DirNode* made = nullptr;
  if (n_entries + n_children > 0) {
    made = Make(entry_map, child_map, n_entries, n_children);
    Put(node->entries(), node->entry_count(), entries, made->entry_slots());
    Put(node->children(), node->child_count(), children, made->child_slots());
  }
  Drop(node);
  return made;
}

const DirNode* DirEdit::Pair(const DirEntry& a, const DirEntry& b, uint32_t shift) {
  if (shift >= kHashBits) {  // one hash: a bucket
    DirNode* bucket = Make(0, 0, 2, 0);
    bucket->entry_slots()[0] = a;
    bucket->entry_slots()[1] = b;
    return bucket;
  }
  const uint32_t bit_a = SlotBit(a.hash, shift);
  const uint32_t bit_b = SlotBit(b.hash, shift);
  if (bit_a == bit_b) {
    const DirNode* child = Pair(a, b, shift + DirNode::kBits);
    DirNode* node = Make(0, bit_a, 0, 1);
    node->child_slots()[0] = child;
    return node;
  }
  DirNode* node = Make(bit_a | bit_b, 0, 2, 0);
  node->entry_slots()[bit_a < bit_b ? 0 : 1] = a;
  node->entry_slots()[bit_a < bit_b ? 1 : 0] = b;
  return node;
}

const DirNode* DirEdit::InsertIn(const DirNode* node, uint32_t shift, const DirEntry& entry) {
  if (node == nullptr) {
    DirNode* made = Make(SlotBit(entry.hash, shift), 0, 1, 0);
    made->entry_slots()[0] = entry;
    return made;
  }
  const uint32_t entry_map = node->entry_map();
  const uint32_t child_map = node->child_map();
  if (shift >= kHashBits) {  // over the entry of that name, or after the others
    const uint32_t i = BucketPos(node, *entry.name);
    return Rebuild(node, 0, 0, {i, i < node->entry_count(), &entry}, {});
  }
  const uint32_t bit = SlotBit(entry.hash, shift);
  if ((entry_map & bit) != 0) {
    const uint32_t i = Rank(entry_map, bit);
    const DirEntry& there = node->entries()[i];
    if (there.hash == entry.hash && *there.name == *entry.name) {
      return Rebuild(node, entry_map, child_map, {i, 1, &entry}, {});
    }
    // Two entries share the slot: they move down into a child.
    const DirNode* child = Pair(there, entry, shift + DirNode::kBits);
    return Rebuild(node, entry_map & ~bit, child_map | bit, {i, 1, nullptr},
                   {Rank(child_map, bit), 0, &child});
  }
  if ((child_map & bit) != 0) {
    const uint32_t i = Rank(child_map, bit);
    const DirNode* child = InsertIn(node->children()[i], shift + DirNode::kBits, entry);
    return Rebuild(node, entry_map, child_map, {}, {i, 1, &child});
  }
  return Rebuild(node, entry_map | bit, child_map, {Rank(entry_map, bit), 0, &entry}, {});
}

bool DirEdit::Erase(uint64_t hash, std::string_view name) {
  const DirNode* old = root_;
  if (old == nullptr) {
    return false;
  }
  root_ = EraseIn(old, 0, hash, name);
  return root_ != old;
}

const DirNode* DirEdit::EraseIn(const DirNode* node, uint32_t shift, uint64_t hash,
                                std::string_view name) {
  const uint32_t entry_map = node->entry_map();
  const uint32_t child_map = node->child_map();
  if (shift >= kHashBits) {
    const uint32_t i = BucketPos(node, name);
    return i == node->entry_count() ? node : Rebuild(node, 0, 0, {i, 1, nullptr}, {});
  }
  const uint32_t bit = SlotBit(hash, shift);
  if ((entry_map & bit) != 0) {
    const uint32_t i = Rank(entry_map, bit);
    const DirEntry& there = node->entries()[i];
    if (there.hash != hash || *there.name != name) {
      return node;
    }
    return Rebuild(node, entry_map & ~bit, child_map, {i, 1, nullptr}, {});
  }
  if ((child_map & bit) == 0) {
    return node;
  }
  const uint32_t i = Rank(child_map, bit);
  const DirNode* child = node->children()[i];
  const DirNode* below = EraseIn(child, shift + DirNode::kBits, hash, name);
  if (below == child) {
    return node;
  }
  // A child holds two entries or more, so one is left at least; when only
  // one is, it moves up into the child's slot.
  if (below->entry_count() == 1 && below->child_count() == 0) {
    const DirEntry moved = below->entries()[0];
    Drop(below);
    return Rebuild(node, entry_map | bit, child_map & ~bit, {Rank(entry_map, bit), 0, &moved},
                   {i, 1, nullptr});
  }
  return Rebuild(node, entry_map, child_map, {}, {i, 1, &below});
}

}  // namespace protego
