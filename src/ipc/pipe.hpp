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

// Bound on a transfer leg that no earlier op deadline covers: legs take
// microseconds while the peer is alive, so ten seconds of a full or empty
// pipe, ring or socket means the peer is gone — kTimeout, not a hang.
inline constexpr Micros kStallTimeout{10'000'000};

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
  // non-blocking end an empty pipe waits for data until `deadline`
  // (kTimeout when it passes first).  On a blocking end the read(2)
  // itself waits.
  Result<std::size_t> ReadSome(MutableByteSpan out,
                               Deadline deadline = Deadline::Never());

  // Blocks until the descriptor is readable (data or EOF pending);
  // kTimeout when the deadline passes first.  This is the deadline
  // primitive under every bounded read path — a wedged sentinel must cost
  // the application a timeout, never a hang.
  Status WaitReadable(Deadline deadline) const;

  // Non-blocking readability probe: true when data (or EOF) is already
  // pending, false when a read would block.
  Result<bool> Poll() const;

  // Blocks until the descriptor accepts bytes without blocking (POLLOUT);
  // kTimeout when the deadline passes first — the writer-side twin of
  // WaitReadable, and the deadline primitive under every bounded write
  // path.
  Status WaitWritable(Deadline deadline) const;

  // Sets O_NONBLOCK.  The flag lives on the open file description, so it
  // survives fork and exec.  Link pipes and client sockets run this way:
  // a full or empty pipe surfaces as EAGAIN, and the transfer helpers
  // below turn that into a bounded wait instead of a parked thread.
  Status SetNonblocking();

  // Reads exactly out.size() bytes or fails (kClosed on premature EOF).
  // On a non-blocking end the whole read ends by `deadline`: a peer that
  // trickles bytes cannot stretch it.
  Status ReadExact(MutableByteSpan out, Deadline deadline = Deadline::Never());

  // Writes all bytes, retrying on short writes and EINTR.  On a
  // non-blocking end the whole write ends by `deadline`; kTimeout means
  // the peer stopped draining — a wedged sentinel must cost the writer a
  // timeout, never a hang.
  Status WriteAll(ByteSpan bytes, Deadline deadline = Deadline::Never());

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
