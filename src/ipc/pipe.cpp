#include "ipc/pipe.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "common/faultpoint.hpp"

namespace afs::ipc {

namespace {

// poll(2) on one descriptor until `deadline`.
Status WaitFor(int fd, short events, Deadline deadline,
               const char* timeout_msg) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    const int rc = ::poll(&pfd, 1, deadline.PollMillis());
    // Ready, EOF, or error — the transfer that follows sees which.
    if (rc > 0) return Status::Ok();
    if (rc == 0) return TimeoutError(timeout_msg);
    if (errno == EINTR) continue;
    return IoError(std::string("pipe poll: ") + std::strerror(errno));
  }
}

}  // namespace

void PipeEnd::Close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status PipeEnd::SetCloexec() {
  if (!valid()) return ClosedError("cloexec on closed pipe end");
  const int flags = ::fcntl(fd_, F_GETFD);
  if (flags < 0 || ::fcntl(fd_, F_SETFD, flags | FD_CLOEXEC) != 0) {
    return IoError(std::string("fcntl FD_CLOEXEC: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Result<std::size_t> PipeEnd::ReadSome(MutableByteSpan out,
                                      Deadline deadline) {
  if (!valid()) return ClosedError("read on closed pipe end");
  AFS_FAULT_POINT("ipc.pipe.read");
  // A truncate fault shortens the transfer; truncating to zero makes the
  // caller observe a premature EOF, the classic dead-peer shape.
  out = out.first(AFS_FAULT_TRUNCATE("ipc.pipe.read", out.size()));
  while (true) {
    const ssize_t n = ::read(fd_, out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      AFS_RETURN_IF_ERROR(WaitReadable(deadline));
      continue;
    }
    return IoError(std::string("pipe read: ") + std::strerror(errno));
  }
}

Status PipeEnd::WaitReadable(Deadline deadline) const {
  if (!valid()) return ClosedError("wait on closed pipe end");
  return WaitFor(fd_, POLLIN, deadline, "pipe read timed out");
}

Status PipeEnd::WaitWritable(Deadline deadline) const {
  if (!valid()) return ClosedError("wait on closed pipe end");
  return WaitFor(fd_, POLLOUT, deadline, "pipe write timed out");
}

Status PipeEnd::SetNonblocking() {
  if (!valid()) return ClosedError("fcntl on closed pipe end");
  const int flags = ::fcntl(fd_, F_GETFL);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return IoError(std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
  }
  return Status::Ok();
}

bool PipeWriterHasReader(int write_fd) noexcept {
  if (write_fd < 0) return false;
  pollfd pfd{};
  pfd.fd = write_fd;
  pfd.events = 0;  // POLLERR is reported regardless of the event mask
  while (true) {
    const int rc = ::poll(&pfd, 1, 0);
    if (rc >= 0) return (pfd.revents & (POLLERR | POLLNVAL)) == 0;
    if (errno == EINTR) continue;
    return false;
  }
}

Result<bool> PipeEnd::Poll() const {
  if (!valid()) return ClosedError("poll on closed pipe end");
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  while (true) {
    const int rc = ::poll(&pfd, 1, 0);
    if (rc > 0) return true;  // readable, EOF, or error — a read resolves it
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return IoError(std::string("pipe poll: ") + std::strerror(errno));
  }
}

Status PipeEnd::ReadExact(MutableByteSpan out, Deadline deadline) {
  std::size_t done = 0;
  while (done < out.size()) {
    AFS_ASSIGN_OR_RETURN(std::size_t n, ReadSome(out.subspan(done), deadline));
    if (n == 0) return ClosedError("pipe peer closed mid-message");
    done += n;
  }
  return Status::Ok();
}

Status PipeEnd::WriteAll(ByteSpan bytes, Deadline deadline) {
  if (!valid()) return ClosedError("write on closed pipe end");
  AFS_FAULT_POINT("ipc.pipe.write");
  // A truncate fault ships a partial payload and then fails as if the
  // peer vanished mid-message — the receiver sees a torn frame.
  const std::size_t keep = AFS_FAULT_TRUNCATE("ipc.pipe.write", bytes.size());
  const bool torn = keep < bytes.size();
  if (torn) bytes = bytes.first(keep);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      AFS_RETURN_IF_ERROR(WaitWritable(deadline));
      continue;
    }
    if (errno == EPIPE) return ClosedError("pipe peer closed");
    return IoError(std::string("pipe write: ") + std::strerror(errno));
  }
  if (torn) return ClosedError("pipe peer closed mid-write (fault)");
  return Status::Ok();
}

Result<Pipe> Pipe::Create() {
  int fds[2];
  if (::pipe(fds) != 0) {
    return IoError(std::string("pipe: ") + std::strerror(errno));
  }
  Pipe p;
  p.read_end = PipeEnd(fds[0]);
  p.write_end = PipeEnd(fds[1]);
  return p;
}

}  // namespace afs::ipc
