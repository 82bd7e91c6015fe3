#include "core/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace afs::core {

namespace {

// Loop instrumentation, aggregated across shards (docs/OBSERVABILITY.md).
struct LoopMetrics {
  obs::Counter& wakeups;
  obs::Counter& dispatches;
  obs::Histogram& batch;
  obs::Gauge& queue_depth;

  LoopMetrics()
      : wakeups(obs::Registry::Global().GetCounter("core.loop.wakeups")),
        dispatches(obs::Registry::Global().GetCounter("core.loop.dispatches")),
        batch(obs::Registry::Global().GetHistogram("core.loop.batch")),
        queue_depth(obs::Registry::Global().GetGauge("core.loop.queue_depth")) {
  }

  static LoopMetrics& Global() {
    static LoopMetrics metrics;
    return metrics;
  }
};

std::uint32_t ToEpollMask(std::uint32_t events) {
  std::uint32_t mask = 0;
  if (events & EventLoop::kReadable) mask |= EPOLLIN;
  if (events & EventLoop::kWritable) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

EventLoop::EventLoop(Options options) : options_(options) {
  if (options_.batch_limit < 1) options_.batch_limit = 1;
}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  if (running_.load()) return Status::Ok();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return IoError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return IoError(std::string("eventfd: ") + std::strerror(err));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const int err = errno;
    ::close(wake_fd_);
    ::close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return IoError(std::string("epoll_ctl add wakeup: ") + std::strerror(err));
  }
  {
    MutexLock lock(mu_);
    stop_ = false;
  }
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  Ring();
  if (thread_.joinable()) thread_.join();
  // Final drain: teardown tasks posted while the loop wound down (implicit
  // closes, connection unregisters) still run, on the stopping thread.
  std::vector<std::function<void()>> leftover;
  {
    MutexLock lock(mu_);
    leftover.swap(queue_);
    timers_.clear();
    fds_.clear();
  }
  LoopMetrics::Global().queue_depth.Add(
      -static_cast<std::int64_t>(leftover.size()));
  for (auto& task : leftover) task();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

void EventLoop::Ring() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // afs-lint: allow(nonblocking: eventfd doorbell; an 8-byte counter write never parks)
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void EventLoop::Post(std::function<void()> task) {
  bool run_inline = false;
  {
    MutexLock lock(mu_);
    if (stop_ && !running_.load()) {
      // Loop already gone: run the task in the caller (teardown paths post
      // cleanup work after Stop; dropping it would leak sessions).
      run_inline = true;
    } else {
      queue_.push_back(std::move(task));
    }
  }
  if (run_inline) {
    task();
    return;
  }
  LoopMetrics::Global().queue_depth.Add(1);
  Ring();
}

std::uint64_t EventLoop::AddTimer(Micros delay, std::function<void()> fn) {
  const auto due = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(std::max<std::int64_t>(
                       0, delay.count()));
  std::uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_timer_id_++;
    timers_.push_back(Timer{due, id, std::move(fn)});
  }
  Ring();  // the new deadline may be nearer than the current epoll timeout
  return id;
}

void EventLoop::CancelTimer(std::uint64_t id) {
  MutexLock lock(mu_);
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [id](const Timer& t) { return t.id == id; }),
                timers_.end());
}

Status EventLoop::RegisterFd(int fd, std::uint32_t events,
                             std::function<void(std::uint32_t)> callback) {
  if (fd < 0) return InvalidArgumentError("RegisterFd: bad descriptor");
  if (epoll_fd_ < 0) return ClosedError("event loop not started");
  {
    MutexLock lock(mu_);
    fds_[fd] = std::move(callback);
  }
  epoll_event ev{};
  ev.events = ToEpollMask(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    const int err = errno;
    MutexLock lock(mu_);
    fds_.erase(fd);
    return IoError(std::string("epoll_ctl add: ") + std::strerror(err));
  }
  return Status::Ok();
}

Status EventLoop::ModifyFd(int fd, std::uint32_t events) {
  if (epoll_fd_ < 0) return ClosedError("event loop not started");
  epoll_event ev{};
  ev.events = ToEpollMask(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return IoError(std::string("epoll_ctl mod: ") + std::strerror(errno));
  }
  return Status::Ok();
}

void EventLoop::UnregisterFd(int fd) {
  if (epoll_fd_ >= 0) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  MutexLock lock(mu_);
  fds_.erase(fd);
}

int EventLoop::NextTimeoutMsLocked() {
  if (!queue_.empty()) return 0;  // posted work pending: poll, don't park
  if (timers_.empty()) return 1000;  // idle heartbeat; the doorbell wakes us
  auto soonest = timers_.front().due;
  for (const Timer& t : timers_) soonest = std::min(soonest, t.due);
  const auto now = std::chrono::steady_clock::now();
  if (soonest <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      soonest - now)
                      .count() +
                  1;
  return static_cast<int>(std::min<long long>(ms, 1000));
}

void EventLoop::FireDueTimers() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::function<void()>> due;
  {
    MutexLock lock(mu_);
    auto it = timers_.begin();
    while (it != timers_.end()) {
      if (it->due <= now) {
        due.push_back(std::move(it->fn));
        it = timers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& fn : due) fn();
}

std::size_t EventLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    MutexLock lock(mu_);
    const std::size_t take = std::min(
        queue_.size(), static_cast<std::size_t>(options_.batch_limit));
    batch.assign(std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.begin() + take));
    queue_.erase(queue_.begin(), queue_.begin() + take);
  }
  if (!batch.empty()) {
    LoopMetrics& metrics = LoopMetrics::Global();
    metrics.queue_depth.Add(-static_cast<std::int64_t>(batch.size()));
    metrics.dispatches.Add(batch.size());
    metrics.batch.Record(batch.size());
  }
  for (auto& task : batch) task();
  return batch.size();
}

void EventLoop::Run() {
  thread_id_.store(std::this_thread::get_id());
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  LoopMetrics& metrics = LoopMetrics::Global();
  while (true) {
    int timeout_ms;
    {
      MutexLock lock(mu_);
      if (stop_) return;
      timeout_ms = NextTimeoutMsLocked();
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) return;  // epoll fd gone: shutting down
    metrics.wakeups.Add(1);
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t count = 0;
        // afs-lint: allow(nonblocking: EFD_NONBLOCK drain of the doorbell counter)
        while (::read(wake_fd_, &count, sizeof(count)) < 0 && errno == EINTR) {
        }
        continue;
      }
      std::function<void(std::uint32_t)> callback;
      {
        MutexLock lock(mu_);
        auto it = fds_.find(fd);
        if (it != fds_.end()) callback = it->second;
      }
      std::uint32_t ready = 0;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ready |= kReadable;
      }
      if (events[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) {
        ready |= kWritable;
      }
      if (callback) callback(ready);
    }
    FireDueTimers();
    DrainPosted();
  }
}

// ---------------------------------------------------------------------
// EventLoopPool

EventLoopPool::EventLoopPool(int shards, EventLoop::Options options) {
  if (shards < 1) shards = 1;
  loops_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(options));
  }
}

Status EventLoopPool::Start() {
  for (auto& loop : loops_) AFS_RETURN_IF_ERROR(loop->Start());
  return Status::Ok();
}

void EventLoopPool::Stop() {
  for (auto& loop : loops_) loop->Stop();
}

EventLoop& EventLoopPool::Shard(int pin) { return ShardAt(PickShard(pin)); }

std::size_t EventLoopPool::PickShard(int pin) {
  const std::size_t count = loops_.size();
  if (pin >= 0) return static_cast<std::size_t>(pin) % count;
  return cursor_.fetch_add(1, std::memory_order_relaxed) % count;
}

}  // namespace afs::core
