// Published<T>: one immutable snapshot behind an atomic pointer, read inside
// a read section of a grace period (src/base/grace.h), and the mutex its
// writers serialize on. The user-space form of rcu_assign_pointer,
// rcu_dereference and the update-side lock beside them.
//
// A reader opens a GraceDomain::Section on grace(), calls Read() once and
// uses that one snapshot for the rest of the section: it never changes
// underneath the reader, and a replaced snapshot is freed only once every
// section that may have loaded it has closed. Reading takes no lock and
// writes no shared line.
//
// Writers serialize on the Published's own mutex, so a table needs no lock
// beside it. Replace() hands the writer the current snapshot; the writer
// builds the successor, which is published and the old snapshot retired
// through the domain, or declines and publishes nothing. Update() is the
// copy-edit-publish form and Publish() replaces the snapshot outright. A
// check-then-edit writer (EEXIST on a duplicate, a failed compile) checks
// and declines inside its Replace or Update.
//
// Ordering: the publishing exchange is a release, Read's load an acquire,
// so a reader sees the snapshot fully built; the domain's Retire orders the
// unpublish before the retirement stamp.

#ifndef SRC_BASE_PUBLISHED_H_
#define SRC_BASE_PUBLISHED_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <type_traits>
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

  // The current snapshot, inside a section of grace().
  const T& Read() const { return *current_.load(std::memory_order_acquire); }

  // The write path. Under the writers' mutex, build(current) returns the
  // successor, or std::nullopt to decline; a successor is published and the
  // old snapshot freed once no section that may have loaded it is open.
  // Returns whether it published. `build` must not write this Published.
  template <typename Build>
  bool Replace(Build&& build) {
    std::lock_guard<std::mutex> lk(mu_);
    std::optional<T> next = build(*current_.load(std::memory_order_relaxed));
    if (!next) {
      return false;
    }
    grace_.Retire(current_.exchange(new T(std::move(*next)), std::memory_order_acq_rel));
    return true;
  }

  // Copies the current snapshot, applies `edit` to the copy and publishes
  // it, unless `edit` returns false. Returns whether it published.
  template <typename Edit>
  bool Update(Edit&& edit) {
    return Replace([&](const T& current) -> std::optional<T> {
      T next = current;
      if constexpr (std::is_void_v<std::invoke_result_t<Edit&, T&>>) {
        edit(next);
      } else if (!edit(next)) {
        return std::nullopt;
      }
      return next;
    });
  }

  // Replaces the snapshot with `next`.
  void Publish(T next) {
    Replace([&](const T&) -> std::optional<T> { return std::move(next); });
  }

  GraceDomain& grace() const { return grace_; }

 private:
  GraceDomain& grace_;
  std::atomic<const T*> current_;
  std::mutex mu_;  // serializes writers; no reader takes it
};

}  // namespace protego

#endif  // SRC_BASE_PUBLISHED_H_
