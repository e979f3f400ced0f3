// Annotated synchronization primitives.
//
// Thin wrappers over std::mutex that carry the Clang capability attributes
// from thread_annotations.h. libstdc++'s std::mutex is not annotated, so
// the analysis cannot see through it; the wrappers give every lock in the
// codebase a capability identity that GUARDED_BY / REQUIRES annotations
// can reference. Zero overhead: the methods are inline forwarding calls.
//
// Usage discipline (checked by tools/bftreg_lint): every Mutex member has
// at least one GUARDED_BY companion field in the same file, so the lock's
// protectorate is written down.
#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace bftreg {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  // bftreg-lint: allow(unguarded-mutex) -- the wrapper *is* the capability.
  std::mutex mu_;
};

/// RAII lock.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace bftreg
