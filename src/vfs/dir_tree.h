// A directory's entries: a copy-on-write hash trie of immutable nodes.
//
// A node has 32 slots, one for each value of five bits of the Fnv1a name
// hash: the root takes the hash's lowest five bits, each level below the
// next five. A used slot holds an entry, or a child node for the entries
// whose hashes agree on every bit taken so far. Past the hash's 64 bits,
// the entries of one hash share a bucket, a node that lists just them. A
// lookup hashes its name once and follows one slot per level; it compares
// a name only with an entry of its own hash.
//
// Nodes are immutable once published, and each is sized to what it holds.
// A change copies the one root-to-slot path it touches and yields one new
// root. An entry never moves between siblings, so the trie needs no
// rebalancing; a child left with one entry hands it back to its parent, so
// the trie's shape depends only on the names it holds. A DirEdit collects
// every node it replaced: the owner publishes the root with one release
// store, then retires the replaced nodes through its grace period. Several
// changes in one edit (a rename's unlink and link) publish as one root; a
// node made and replaced within one edit was never published and is freed
// at once.

#ifndef SRC_VFS_DIR_TREE_H_
#define SRC_VFS_DIR_TREE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace protego {

class Vnode;

// One directory entry. `name` is the name object its vnode owned when the
// entry was made, so each name is stored once; a rename links an entry to
// the new name object and retires the old one with the replaced nodes.
struct DirEntry {
  uint64_t hash;  // Fnv1a(*name)
  const std::string* name;
  Vnode* node;
};

// A node of the trie: its entries, then its children, each in slot order.
class DirNode {
 public:
  static constexpr uint32_t kBits = 5;  // hash bits a level takes
  static constexpr uint32_t kSlots = 1u << kBits;
  // Levels a 64-bit hash fills; a node below them is a bucket.
  static constexpr uint32_t kLevels = (64 + kBits - 1) / kBits;

  // The slots that hold an entry, and those that hold a child. A bucket
  // has neither: it only lists its entries.
  uint32_t entry_map() const { return entry_map_; }
  uint32_t child_map() const { return child_map_; }
  uint32_t entry_count() const { return n_entries_; }
  uint32_t child_count() const { return n_children_; }
  const DirEntry* entries() const { return reinterpret_cast<const DirEntry*>(this + 1); }
  const DirNode* const* children() const {
    return reinterpret_cast<const DirNode* const*>(entries() + n_entries_);
  }

  // Nodes come from DirEdit; deleting one frees its slots with it.
  static void operator delete(void* p) { ::operator delete(p); }

 private:
  friend class DirEdit;
  DirNode(uint32_t entry_map, uint32_t child_map, uint32_t n_entries, uint32_t n_children)
      : entry_map_(entry_map),
        child_map_(child_map),
        n_entries_(n_entries),
        n_children_(n_children) {}
  DirEntry* entry_slots() { return reinterpret_cast<DirEntry*>(this + 1); }
  const DirNode** child_slots() {
    return reinterpret_cast<const DirNode**>(entry_slots() + n_entries_);
  }

  uint32_t entry_map_;
  uint32_t child_map_;
  uint32_t n_entries_;
  uint32_t n_children_;
};
static_assert(sizeof(DirNode) % alignof(DirEntry) == 0, "entries follow the header");

// The entry named `name` whose hash is `hash` under `root`, or null.
const DirEntry* DirFind(const DirNode* root, uint64_t hash, std::string_view name);

// Calls fn(entry) for every entry under `node`, in no particular order.
template <typename Fn>
void DirForEach(const DirNode* node, Fn&& fn) {
  if (node == nullptr) {
    return;
  }
  for (uint32_t i = 0; i < node->entry_count(); ++i) {
    fn(node->entries()[i]);
  }
  for (uint32_t i = 0; i < node->child_count(); ++i) {
    DirForEach(node->children()[i], fn);
  }
}

// Frees every node under `root`. Only for a trie no reader can reach.
void DirFree(const DirNode* root);

// A change to one trie, under the owner's writer lock. Every edit must be
// published: the nodes it made belong to root() from then on.
class DirEdit {
 public:
  explicit DirEdit(const DirNode* root) : root_(root) {}
  DirEdit(const DirEdit&) = delete;
  DirEdit& operator=(const DirEdit&) = delete;

  // Adds `entry`, replacing the entry of the same name if there is one.
  void Insert(const DirEntry& entry) { root_ = InsertIn(root_, 0, entry); }
  // Removes the entry named `name` (hash `hash`); false when there is none.
  bool Erase(uint64_t hash, std::string_view name);

  // The trie with every change applied.
  const DirNode* root() const { return root_; }

  // Hands each replaced node that was published before the edit to
  // retire(node), after root() has been published in the old root's place.
  template <typename Retire>
  void Release(Retire&& retire) {
    for (size_t i = 0; i < n_replaced_; ++i) {
      retire(replaced_[i]);
    }
    n_replaced_ = 0;
    n_made_ = 0;
  }

 private:
  // One array's change in a copied node: at slot `at`, `drop` (0 or 1) old
  // slots give way to *add, if given. The default keeps every slot.
  template <typename T>
  struct Splice {
    uint32_t at = 0;
    uint32_t drop = 0;
    const T* add = nullptr;
  };

  // `node`, at the level that takes the hash bits from `shift`, with
  // `entry` in it; null `node` is an empty trie.
  const DirNode* InsertIn(const DirNode* node, uint32_t shift, const DirEntry& entry);
  // `node` with the entry removed (null when nothing is left), or `node`
  // itself when it holds no such entry.
  const DirNode* EraseIn(const DirNode* node, uint32_t shift, uint64_t hash,
                         std::string_view name);
  // A new node, at `shift`, holding two entries whose hashes agree below it.
  const DirNode* Pair(const DirEntry& a, const DirEntry& b, uint32_t shift);
  // A copy of `node` under the new maps, its entries and children spliced;
  // null when it would hold nothing. `node` leaves the trie.
  const DirNode* Rebuild(const DirNode* node, uint32_t entry_map, uint32_t child_map,
                         Splice<DirEntry> entries, Splice<const DirNode*> children);
  // A node with room for the given slots, left for the caller to fill.
  DirNode* Make(uint32_t entry_map, uint32_t child_map, uint32_t n_entries,
                uint32_t n_children);
  // `old` leaves the trie: freed now when this edit made it, else kept for
  // Release.
  void Drop(const DirNode* old);

  // A path holds at most kLevels nodes and a bucket. A change makes at most
  // one node and drops at most one for each of them, and one edit makes at
  // most two changes.
  static constexpr size_t kMaxNodes = 2 * (DirNode::kLevels + 1);

  const DirNode* root_;
  const DirNode* made_[kMaxNodes];
  size_t n_made_ = 0;
  const DirNode* replaced_[kMaxNodes];
  size_t n_replaced_ = 0;
};

}  // namespace protego

#endif  // SRC_VFS_DIR_TREE_H_
