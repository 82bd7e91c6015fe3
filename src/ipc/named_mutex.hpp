// Named mutex backed by an open-file-description fcntl(2) lock.  Paper
// Section 2.2: when multiple user processes open the same active file,
// multiple sentinels start and "synchronize amongst themselves … using
// semaphores, shared memory or other forms of IPC".  NamedMutex is that
// synchronization primitive; the locking-log sentinel serializes appends
// with it.  The lock belongs to this object's own descriptor, not to the
// process, so two NamedMutex on one name exclude each other whether they
// live in two processes or in two threads of one (the thread, direct and
// loop strategies run several sentinels in one process).
#pragma once

#include <string>

#include "common/status.hpp"

namespace afs::ipc {

class NamedMutex {
 public:
  // The name is materialized as a lock file at `<dir>/<name>.lock`.
  NamedMutex(std::string directory, std::string name);
  ~NamedMutex();

  NamedMutex(const NamedMutex&) = delete;
  NamedMutex& operator=(const NamedMutex&) = delete;
  NamedMutex(NamedMutex&& other) noexcept;
  NamedMutex& operator=(NamedMutex&& other) noexcept;

  // Blocks until the lock is acquired.  Acquiring through a second
  // NamedMutex on the same name while this one holds it deadlocks by
  // design (matching a non-recursive mutex).
  Status Lock();

  // Returns kBusy without blocking when another holder has the lock.
  Status TryLock();

  Status Unlock();

  bool held() const noexcept { return held_; }
  const std::string& path() const noexcept { return path_; }

 private:
  Status EnsureOpen();
  void CloseFd() noexcept;

  std::string path_;
  int fd_ = -1;
  bool held_ = false;
};

// RAII guard.
class NamedMutexGuard {
 public:
  explicit NamedMutexGuard(NamedMutex& mutex) : mutex_(mutex) {
    status_ = mutex_.Lock();
  }
  ~NamedMutexGuard() {
    // afs-lint: allow(status-discard: destructors cannot propagate; Lock succeeded)
    if (status_.ok()) (void)mutex_.Unlock();
  }
  NamedMutexGuard(const NamedMutexGuard&) = delete;
  NamedMutexGuard& operator=(const NamedMutexGuard&) = delete;

  const Status& status() const noexcept { return status_; }

 private:
  NamedMutex& mutex_;
  Status status_;
};

}  // namespace afs::ipc
