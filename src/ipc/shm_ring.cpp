#include "ipc/shm_ring.hpp"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstring>
#include <new>
#include <string>

#include "common/faultpoint.hpp"
#include "obs/metrics.hpp"

namespace afs::ipc {
namespace {

constexpr std::uint32_t kMagic = 0x4D534641u;  // "AFSM" in memory (LE)
constexpr std::uint32_t kLayoutVersion = 1;
constexpr std::size_t kMinRingBytes = 4 * 1024;
constexpr std::size_t kMaxRingBytes = 64 * 1024 * 1024;

// Longest single futex park: even a wait with no deadline stays a chain of
// bounded parks, so a vanished peer is re-checked, never slept on forever.
constexpr Micros kWaitSlice{200'000};

Status Errno(const char* what) {
  return IoError(std::string(what) + ": " + std::strerror(errno));
}

long Futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t value,
           const timespec* ts) {
  // No FUTEX_PRIVATE_FLAG: the word lives in a MAP_SHARED region and the
  // waiter/waker are in different processes.
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, value,
                 ts, nullptr, 0);
}

// Eventcount park: sleeps until the word moves past `expected`, a wake
// arrives, or `slice` elapses.  Callers re-validate their condition after
// every return (spurious wakeups are fine, lost wakeups are not — the
// waker bumps the word before waking, so a state change between the
// caller's load of `expected` and this wait returns immediately).
void FutexWaitSlice(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                    Micros slice) {
  static obs::Counter& waits =
      obs::Registry::Global().GetCounter("ipc.shm.futex_waits");
  waits.Add(1);
  timespec ts;
  ts.tv_sec = static_cast<time_t>(slice.count() / 1'000'000);
  ts.tv_nsec = static_cast<long>((slice.count() % 1'000'000) * 1000);
  (void)Futex(word, FUTEX_WAIT, expected, &ts);
}

void FutexWakeAll(std::atomic<std::uint32_t>* word) {
  (void)Futex(word, FUTEX_WAKE, INT_MAX, nullptr);
}

}  // namespace

// One direction's control block, padded to its own cache line so the two
// directions (and the data region) never false-share.
struct alignas(64) DirState {
  std::atomic<std::uint64_t> tail;  // bytes ever produced (writer-owned)
  std::atomic<std::uint64_t> head;  // bytes ever consumed (reader-owned)
  // Eventcount word both sides futex-wait on: bumped (and woken) by every
  // head/tail advance and by close, in either role.
  std::atomic<std::uint32_t> seq;
  std::atomic<std::uint32_t> closed;
};
static_assert(sizeof(DirState) == 64);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared-memory ring needs address-free atomics");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "futex word must be a plain 32-bit atomic");

struct ShmRing::Region {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t ring_bytes;  // per direction; power of two
  DirState dir[2];
  // 2 * ring_bytes of payload data follow the header.

  std::uint8_t* data(int d) noexcept {
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
    return reinterpret_cast<std::uint8_t*>(this + 1) +
           static_cast<std::size_t>(d) * ring_bytes;
  }
};

ShmRing::Region* ShmRing::region() const noexcept {
  return static_cast<Region*>(map_);
}

Result<std::shared_ptr<ShmRing>> ShmRing::Create(std::size_t ring_bytes) {
  // Any failure below this point (including the injected one) is a setup
  // failure the link layer answers with pipe fallback, never a dead open.
  AFS_FAULT_POINT("ipc.shm.map_fail");
  std::size_t cap = kMinRingBytes;
  while (cap < ring_bytes && cap < kMaxRingBytes) cap <<= 1;
  const std::size_t total = sizeof(Region) + 2 * cap;

  // The descriptor must survive both fork and exec (no CLOEXEC): it is the
  // only name the region has, and the sentinel child attaches by fd.
  int fd = static_cast<int>(memfd_create("afs-shm-ring", 0));
  if (fd < 0) {
    // Pre-memfd kernels: POSIX shared memory, unlinked immediately so the
    // descriptor is again the region's only name.
    static std::atomic<std::uint64_t> counter{0};
    const std::string name = "/afs-ring-" + std::to_string(getpid()) + "-" +
                             std::to_string(counter.fetch_add(1));
    fd = shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (fd < 0) return Errno("shm ring create");
    (void)shm_unlink(name.c_str());
    (void)fcntl(fd, F_SETFD, 0);  // glibc opens POSIX shm close-on-exec
  }
  if (ftruncate(fd, static_cast<off_t>(total)) != 0) {
    const Status status = Errno("shm ring size");
    close(fd);
    return status;
  }
  void* map =
      mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    const Status status = Errno("shm ring map");
    close(fd);
    return status;
  }
  auto* r = new (map) Region{};
  r->magic = kMagic;
  r->version = kLayoutVersion;
  r->ring_bytes = cap;
  return std::shared_ptr<ShmRing>(new ShmRing(fd, map, total));
}

Result<std::shared_ptr<ShmRing>> ShmRing::Attach(int fd) {
  AFS_FAULT_POINT("ipc.shm.map_fail");
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    const Status status = Errno("shm ring stat");
    close(fd);
    return status;
  }
  const auto total = static_cast<std::size_t>(st.st_size);
  if (total < sizeof(Region)) {
    close(fd);
    return ProtocolError("shm ring region too small");
  }
  void* map =
      mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    const Status status = Errno("shm ring map");
    close(fd);
    return status;
  }
  auto* r = static_cast<Region*>(map);
  const std::size_t cap = static_cast<std::size_t>(r->ring_bytes);
  const bool pow2 = cap != 0 && (cap & (cap - 1)) == 0;
  if (r->magic != kMagic || r->version != kLayoutVersion || !pow2 ||
      total != sizeof(Region) + 2 * cap) {
    munmap(map, total);
    close(fd);
    return ProtocolError("shm ring header mismatch");
  }
  return std::shared_ptr<ShmRing>(new ShmRing(fd, map, total));
}

ShmRing::~ShmRing() {
  if (map_ != nullptr) {
    CloseAll();  // wake any cross-process waiter before the mapping goes
    munmap(map_, map_len_);
  }
  if (fd_ >= 0) close(fd_);
}

std::size_t ShmRing::ring_bytes() const noexcept {
  return static_cast<std::size_t>(region()->ring_bytes);
}

Status ShmRing::Write(int dir, ByteSpan bytes, Deadline deadline) {
  static obs::Counter& shm_bytes =
      obs::Registry::Global().GetCounter("ipc.shm.bytes");
  static obs::Counter& shm_ops =
      obs::Registry::Global().GetCounter("ipc.shm.ops");
  Region* r = region();
  DirState& d = r->dir[dir];
  const std::size_t cap = static_cast<std::size_t>(r->ring_bytes);
  std::uint8_t* data = r->data(dir);

  // Torn-write injection: the copy loop stops after `allowed` bytes and
  // reports IoError — the shape of a writer dying mid-transfer with the
  // announcing control frame already consumed.
  const std::size_t allowed = AFS_FAULT_TRUNCATE("ipc.shm.torn_write",
                                                 bytes.size());
  std::size_t done = 0;
  shm_ops.Add(1);
  while (done < allowed) {
    if (d.closed.load(std::memory_order_acquire) != 0) {
      shm_bytes.Add(done);
      return ClosedError("shm ring closed");
    }
    const std::uint64_t head = d.head.load(std::memory_order_acquire);
    // Single writer per direction: our own tail needs no ordering.
    const std::uint64_t tail = d.tail.load(std::memory_order_relaxed);
    const std::size_t free_space = cap - static_cast<std::size_t>(tail - head);
    if (free_space == 0) {
      const std::uint32_t seq = d.seq.load(std::memory_order_acquire);
      // Eventcount re-check: a consume (or close) between the loads above
      // and here bumped seq, so the futex wait returns immediately.
      if (d.head.load(std::memory_order_acquire) == head &&
          d.closed.load(std::memory_order_acquire) == 0) {
        const Micros slice = deadline.Slice(kWaitSlice);
        if (slice.count() <= 0) {
          shm_bytes.Add(done);
          return TimeoutError("shm ring full: peer stopped draining");
        }
        FutexWaitSlice(&d.seq, seq, slice);
      }
      continue;
    }
    const std::size_t n = std::min(allowed - done, free_space);
    const std::size_t at = static_cast<std::size_t>(tail) & (cap - 1);
    const std::size_t first = std::min(n, cap - at);
    std::memcpy(data + at, bytes.data() + done, first);
    if (n > first) std::memcpy(data, bytes.data() + done + first, n - first);
    d.tail.store(tail + n, std::memory_order_release);
    d.seq.fetch_add(1, std::memory_order_release);
    FutexWakeAll(&d.seq);
    done += n;
  }
  shm_bytes.Add(done);
  if (allowed < bytes.size()) {
    return IoError("shm ring write torn after " + std::to_string(done) +
                   " of " + std::to_string(bytes.size()) + " bytes");
  }
  return Status::Ok();
}

Result<std::size_t> ShmRing::ReadSome(int dir, MutableByteSpan out,
                                      Deadline deadline) {
  static obs::Counter& shm_ops =
      obs::Registry::Global().GetCounter("ipc.shm.ops");
  if (out.empty()) return std::size_t{0};
  // A consumer that stalls is indistinguishable from a dead one to the
  // producer; this site simulates it — delay rules park the reader here
  // (the writer eventually fills the ring and times out), error rules
  // surface as this read's status.
  AFS_FAULT_POINT("ipc.shm.peer_stall");
  Region* r = region();
  DirState& d = r->dir[dir];
  const std::size_t cap = static_cast<std::size_t>(r->ring_bytes);
  const std::uint8_t* data = r->data(dir);

  while (true) {
    const std::uint64_t tail = d.tail.load(std::memory_order_acquire);
    // Single reader per direction: our own head needs no ordering.
    const std::uint64_t head = d.head.load(std::memory_order_relaxed);
    const std::size_t avail = static_cast<std::size_t>(tail - head);
    if (avail > 0) {
      const std::size_t n = std::min(avail, out.size());
      const std::size_t at = static_cast<std::size_t>(head) & (cap - 1);
      const std::size_t first = std::min(n, cap - at);
      std::memcpy(out.data(), data + at, first);
      if (n > first) std::memcpy(out.data() + first, data, n - first);
      d.head.store(head + n, std::memory_order_release);
      d.seq.fetch_add(1, std::memory_order_release);
      FutexWakeAll(&d.seq);
      shm_ops.Add(1);
      return n;
    }
    // Closed is checked only after the ring drained: a writer that closes
    // right after producing must not truncate the stream.
    if (d.closed.load(std::memory_order_acquire) != 0) return std::size_t{0};
    const std::uint32_t seq = d.seq.load(std::memory_order_acquire);
    if (d.tail.load(std::memory_order_acquire) != tail ||
        d.closed.load(std::memory_order_acquire) != 0) {
      continue;  // produced or closed while capturing the eventcount
    }
    const Micros slice = deadline.Slice(kWaitSlice);
    if (slice.count() <= 0) {
      return TimeoutError("shm ring empty: peer stopped producing");
    }
    FutexWaitSlice(&d.seq, seq, slice);
  }
}

Status ShmRing::ReadExact(int dir, MutableByteSpan out, Deadline deadline) {
  std::size_t done = 0;
  while (done < out.size()) {
    AFS_ASSIGN_OR_RETURN(
        std::size_t n,
        ReadSome(dir, out.subspan(done, out.size() - done), deadline));
    if (n == 0) return ClosedError("shm ring ended mid-message");
    done += n;
  }
  return Status::Ok();
}

void ShmRing::CloseDir(int dir) {
  DirState& d = region()->dir[dir];
  d.closed.store(1, std::memory_order_release);
  d.seq.fetch_add(1, std::memory_order_release);
  FutexWakeAll(&d.seq);
}

void ShmRing::CloseAll() {
  CloseDir(kToSentinel);
  CloseDir(kToApp);
}

bool ShmRing::dir_closed(int dir) const {
  return region()->dir[dir].closed.load(std::memory_order_acquire) != 0;
}

std::size_t ShmRing::buffered(int dir) const {
  const DirState& d = region()->dir[dir];
  const std::uint64_t tail = d.tail.load(std::memory_order_acquire);
  const std::uint64_t head = d.head.load(std::memory_order_acquire);
  return static_cast<std::size_t>(tail - head);
}

}  // namespace afs::ipc
