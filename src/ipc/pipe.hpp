// RAII POSIX pipe endpoints.  The paper's process-based strategies attach
// anonymous pipes to the sentinel's standard input/output (Section 4.1);
// Pipe/PipeEnd are the equivalent, with the read/write-exact helpers every
// strategy needs.  One transfer loop serves blocking and non-blocking ends:
// it makes the syscall and waits for readiness only on EAGAIN.
#pragma once

#include <cstddef>
#include <utility>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/status.hpp"

namespace afs::ipc {

// One end (read or write) of a pipe; owns the file descriptor.
class PipeEnd {
 public:
  PipeEnd() noexcept = default;
  explicit PipeEnd(int fd) noexcept : fd_(fd) {}
  ~PipeEnd() { Close(); }

  PipeEnd(PipeEnd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  PipeEnd& operator=(PipeEnd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  PipeEnd(const PipeEnd&) = delete;
  PipeEnd& operator=(const PipeEnd&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  // Releases ownership of the descriptor to the caller.
  int Release() noexcept { return std::exchange(fd_, -1); }

  void Close() noexcept;

  // Marks the descriptor close-on-exec.  Application-side ends must not
  // leak into exec'd sentinel children, or EOF never propagates.
  Status SetCloexec();

  // Reads at least one byte, or 0 at EOF (peer closed).  On a
  // non-blocking end an empty pipe waits for data up to `timeout`
  // (kTimeout when it passes first); a non-positive timeout waits forever.
  // On a blocking end the read(2) itself waits.
  Result<std::size_t> ReadSome(MutableByteSpan out, Micros timeout = Micros{0});

  // Blocks until the descriptor is readable (data or EOF pending).  A
  // non-positive timeout waits forever; kTimeout when the deadline passes
  // first.  This is the deadline primitive under every bounded read path —
  // a wedged sentinel must cost the application a timeout, never a hang.
  Status WaitReadable(Micros timeout) const;

  // Non-blocking readability probe: true when data (or EOF) is already
  // pending, false when a read would block.  Lets a monitor thread drain
  // heartbeat frames without ever stalling on an idle pipe.
  Result<bool> Poll() const;

  // Blocks until the descriptor accepts bytes without blocking (POLLOUT).
  // A non-positive timeout waits forever; kTimeout when the deadline
  // passes first — the writer-side twin of WaitReadable, and the deadline
  // primitive under every bounded write path.
  Status WaitWritable(Micros timeout) const;

  // Sets O_NONBLOCK.  The flag lives on the open file description, so it
  // survives fork and exec.  Link pipes and client sockets run this way:
  // a full or empty pipe surfaces as EAGAIN, and the transfer helpers
  // below turn that into a bounded wait instead of a parked thread.
  Status SetNonblocking();

  // Reads exactly out.size() bytes or fails (kClosed on premature EOF).
  // On a non-blocking end each wait for more bytes is capped by `timeout`
  // (non-positive = unbounded).
  Status ReadExact(MutableByteSpan out, Micros timeout = Micros{0});

  // Writes all bytes, retrying on short writes and EINTR.  On a
  // non-blocking end every EAGAIN waits at most `timeout` for POLLOUT
  // (non-positive = unbounded); kTimeout means the peer stopped draining —
  // a wedged sentinel must cost the writer a timeout, never a hang.
  Status WriteAll(ByteSpan bytes, Micros timeout = Micros{0});

 private:
  int fd_ = -1;
};

// An anonymous pipe pair.
struct Pipe {
  PipeEnd read_end;
  PipeEnd write_end;

  static Result<Pipe> Create();
};

// True while at least one read end of the pipe whose write end is `write_fd`
// remains open (POLLERR on a pipe write end means every reader is gone).
// Instant, non-blocking; false on a bad descriptor.  This disambiguates the
// stream strategy's EOF: a finished pump still holds the app->sentinel read
// end, while a killed sentinel loses every descriptor at once.
bool PipeWriterHasReader(int write_fd) noexcept;

}  // namespace afs::ipc
