// Published<T>: one immutable snapshot behind an atomic pointer, read inside
// a read section of a grace period (src/base/grace.h). The user-space form
// of rcu_assign_pointer and rcu_dereference.
//
// A reader opens a GraceDomain::Section on grace(), calls Read() once and
// uses that one snapshot for the rest of the section: it never changes
// underneath the reader, and a replaced snapshot is freed only once every
// section that may have loaded it has closed. Reading writes no shared
// line. A writer serializes on a lock of its own (Published takes none),
// then Publish() swaps in a successor and retires the old snapshot through
// the domain, or Update() copies the current snapshot, edits the copy and
// publishes it. Under that lock a writer may Read() without a section,
// since only writers replace the snapshot.
//
// Ordering: Publish's exchange is a release, Read's load an acquire, so a
// reader sees the snapshot fully built; the domain's Retire orders the
// unpublish before the retirement stamp.

#ifndef SRC_BASE_PUBLISHED_H_
#define SRC_BASE_PUBLISHED_H_

#include <atomic>
#include <utility>

#include "src/base/grace.h"

namespace protego {

template <typename T>
class Published {
 public:
  explicit Published(GraceDomain& grace, T initial = T())
      : grace_(grace), current_(new T(std::move(initial))) {}
  // Nothing reads a snapshot once its owner dies.
  ~Published() { delete current_.load(std::memory_order_relaxed); }
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  // The current snapshot: inside a section of grace(), or under the
  // writer's lock.
  const T& Read() const { return *current_.load(std::memory_order_acquire); }

  // Replaces the snapshot (under the writer's lock). The old one is freed
  // once no section that may have loaded it is open.
  void Publish(T next) {
    grace_.Retire(current_.exchange(new T(std::move(next)), std::memory_order_acq_rel));
  }

  // Copies the snapshot, applies `edit` to the copy and publishes it (under
  // the writer's lock).
  template <typename Edit>
  void Update(Edit&& edit) {
    T next = Read();
    edit(next);
    Publish(std::move(next));
  }

  GraceDomain& grace() const { return grace_; }

 private:
  GraceDomain& grace_;
  std::atomic<const T*> current_;
};

}  // namespace protego

#endif  // SRC_BASE_PUBLISHED_H_
