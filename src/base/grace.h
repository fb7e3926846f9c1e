// GraceDomain: one grace period for memory that lock-free readers may still
// hold. Epoch-based reclamation, the user-space form of Linux RCU.
//
// A reader opens a Section around every load of a published pointer and
// every use of what it reaches. Sections nest. Opening the outermost costs
// one exchange on the thread's own shard line (ThreadShards), closing it
// one plain store: a reader writes no line another thread writes. A writer
// unpublishes an object (swaps its successor in) and hands it to Retire();
// the object is freed once no section that may have loaded it is open.
//
// The epoch. The domain keeps one epoch counter. A section announces the
// epoch it read on entry; Retire stamps the object with the epoch it reads
// after the unpublish. The epoch moves from e to e+1 only while every open
// section announced e. A section that loaded the object announced at most
// its stamp s, so while that section is open the epoch stays at most s+1;
// the object is freed once the epoch has reached s+2.
//
// Ordering. The announcement is a seq_cst exchange, and Retire makes a
// seq_cst read-modify-write between the caller's unpublish and the stamp:
// on each side the store is visible before the next load (on x86 both are
// locked instructions, full barriers), which is what makes "a section that
// loaded the object announced at most its stamp" hold. Announcements and
// closes are release stores that the advancing scan reads with acquire, so
// every read inside a section happens before the free, and ThreadSanitizer
// sees it so.
//
// Nothing waits. Reclaim() advances the epoch as far as the open sections
// allow (at most two steps) and frees what is safe on every thread; the
// rest stays pending for a later pass. Retire() runs a pass itself every
// kBatch retirements of its thread, freeing only that thread's
// retirements, so memory goes back to the allocator of the thread that
// (usually) allocated it. A thread's retirements sit on its own shard,
// under a mutex only that thread and Reclaim() take, and pending() counts
// those not yet freed. The destructor frees everything still pending; no
// section may be open then. A section should not span a blocking wait or a
// scheduler yield: it would hold reclamation back, though never stop it.
// One does on purpose: a Protego hook that authenticates keeps its section
// open across the authentication service's nested syscalls, so the one
// policy snapshot it decides on stays valid. Reclamation then waits for the
// round trip, but nothing blocks.
//
// A kernel has one domain, the Vfs's (Kernel::grace()): path walks, the
// packet path and every Published snapshot (src/base/published.h) share
// it. ThreadShards' one-entry cache is per
// shard type, so a second domain used alternately with the first on one
// thread would miss it and take the registry lock on every section.

#ifndef SRC_BASE_GRACE_H_
#define SRC_BASE_GRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/base/thread_shards.h"

namespace protego {

class GraceDomain {
 private:
  struct Shard;

 public:
  GraceDomain() = default;
  ~GraceDomain();
  GraceDomain(const GraceDomain&) = delete;
  GraceDomain& operator=(const GraceDomain&) = delete;

  // A read section on the calling thread, for the scope of the object.
  class Section {
   public:
    explicit Section(GraceDomain& domain) : shard_(domain.Enter()) {}
    ~Section() {
      if (--shard_.depth == 0) {
        shard_.active.store(0, std::memory_order_release);
      }
    }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    Shard& shard_;
  };

  // Frees `object` with `delete` once no section open now can still read
  // it. The caller has already unpublished it. Null is ignored.
  template <typename T>
  void Retire(const T* object) {
    RetireRaw(object, [](const void* p) { delete static_cast<const T*>(p); });
  }

  // Advances the epoch as far as open sections allow and frees every
  // retirement no section can still reach. Never waits for a section.
  void Reclaim();

  // Retired and not yet freed.
  uint64_t pending() const;

  // Retirements per thread between the reclaim passes Retire() runs.
  static constexpr size_t kBatch = 64;

 private:
  struct Retired {
    const void* object;
    void (*free)(const void*);
    uint64_t epoch;
  };
  struct Shard {
    std::atomic<uint64_t> active{0};   // epoch announced by the open section; 0 = none
    uint32_t depth = 0;                // open sections (owner only)
    std::atomic<uint64_t> pending{0};  // retirements not yet freed
    std::mutex mu;                     // guards retired
    std::vector<Retired> retired;
  };

  Shard& Enter() {
    Shard& shard = shards_.Mine();
    if (shard.depth++ == 0) {
      shard.active.exchange(epoch_.load(std::memory_order_seq_cst), std::memory_order_seq_cst);
    }
    return shard;
  }
  void RetireRaw(const void* object, void (*free)(const void*));
  // Moves the epoch one step if every open section announced the current
  // one.
  bool TryAdvance();
  // Advances, then frees what is safe on `shard` (every shard when null).
  void Collect(Shard* only);

  ThreadShards<Shard> shards_;
  // Read by every outermost section, written once per advance: a line of
  // its own.
  alignas(64) std::atomic<uint64_t> epoch_{1};
};

}  // namespace protego

#endif  // SRC_BASE_GRACE_H_
