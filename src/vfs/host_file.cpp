#include "vfs/host_file.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

namespace afs::vfs {
namespace {

Result<int> OpenFlags(const OpenOptions& options) {
  int flags = 0;
  switch (options.mode) {
    case OpenMode::kRead: flags = O_RDONLY; break;
    case OpenMode::kWrite: flags = O_WRONLY; break;
    case OpenMode::kReadWrite: flags = O_RDWR; break;
    default:
      return InvalidArgumentError("bad open mode");
  }
  switch (options.disposition) {
    case Disposition::kOpenExisting: break;
    case Disposition::kCreateNew: flags |= O_CREAT | O_EXCL; break;
    case Disposition::kCreateAlways: flags |= O_CREAT | O_TRUNC; break;
    case Disposition::kOpenAlways: flags |= O_CREAT; break;
    case Disposition::kTruncateExisting: flags |= O_TRUNC; break;
    default:
      return InvalidArgumentError("bad disposition");
  }
  if (options.append) flags |= O_APPEND;
  return flags;
}

Status Errno(const char* what) {
  const int err = errno;
  if (err == ENOENT) return NotFoundError(std::string(what) + ": no such file");
  if (err == EEXIST) {
    return AlreadyExistsError(std::string(what) + ": file exists");
  }
  if (err == EACCES || err == EPERM) {
    return PermissionDeniedError(std::string(what) + ": " +
                                 std::strerror(err));
  }
  return IoError(std::string(what) + ": " + std::strerror(err));
}

}  // namespace

Result<std::unique_ptr<FileHandle>> HostFileHandle::Open(
    const std::string& host_path, const OpenOptions& options) {
  AFS_ASSIGN_OR_RETURN(int flags, OpenFlags(options));
  const int fd = ::open(host_path.c_str(), flags, 0644);
  if (fd < 0) return Errno("open");
  return std::unique_ptr<FileHandle>(new HostFileHandle(fd));
}

HostFileHandle::~HostFileHandle() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::size_t> HostFileHandle::Read(MutableByteSpan out) {
  if (fd_ < 0) return ClosedError("read on closed handle");
  while (true) {
    const ssize_t n = ::read(fd_, out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    return Errno("read");
  }
}

Result<std::size_t> HostFileHandle::Write(ByteSpan data) {
  if (fd_ < 0) return ClosedError("write on closed handle");
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    done += static_cast<std::size_t>(n);
  }
  return done;
}

Result<std::uint64_t> HostFileHandle::Seek(std::int64_t offset,
                                           SeekOrigin origin) {
  if (fd_ < 0) return ClosedError("seek on closed handle");
  int whence = SEEK_SET;
  if (origin == SeekOrigin::kCurrent) whence = SEEK_CUR;
  if (origin == SeekOrigin::kEnd) whence = SEEK_END;
  const off_t pos = ::lseek(fd_, offset, whence);
  if (pos < 0) {
    if (errno == EINVAL) return OutOfRangeError("seek before start of file");
    return Errno("lseek");
  }
  return static_cast<std::uint64_t>(pos);
}

Result<std::uint64_t> HostFileHandle::Size() {
  if (fd_ < 0) return ClosedError("size on closed handle");
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Errno("fstat");
  return static_cast<std::uint64_t>(st.st_size);
}

Status HostFileHandle::SetEndOfFile() {
  if (fd_ < 0) return ClosedError("truncate on closed handle");
  const off_t pos = ::lseek(fd_, 0, SEEK_CUR);
  if (pos < 0) return Errno("lseek");
  if (::ftruncate(fd_, pos) != 0) return Errno("ftruncate");
  return Status::Ok();
}

Status HostFileHandle::Flush() {
  if (fd_ < 0) return ClosedError("flush on closed handle");
  if (::fsync(fd_) != 0) return Errno("fsync");
  return Status::Ok();
}

Result<std::size_t> HostFileHandle::ReadScatter(
    std::span<MutableByteSpan> segments) {
  if (fd_ < 0) return ClosedError("readv on closed handle");
  std::vector<iovec> iov;
  iov.reserve(segments.size());
  for (auto& seg : segments) {
    iov.push_back(iovec{seg.data(), seg.size()});
  }
  while (true) {
    const ssize_t n = ::readv(fd_, iov.data(), static_cast<int>(iov.size()));
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    return Errno("readv");
  }
}

// Open-file-description locks (F_OFD_*): owned by this handle's
// descriptor, so two handles on one file exclude each other even inside
// one process, and closing one never drops the other's lock.  l_pid must
// be 0.
Status HostFileHandle::LockRange(std::uint64_t offset, std::uint64_t length) {
  struct flock fl {};
  fl.l_type = F_WRLCK;
  fl.l_whence = SEEK_SET;
  fl.l_start = static_cast<off_t>(offset);
  fl.l_len = static_cast<off_t>(length);
  fl.l_pid = 0;
  while (::fcntl(fd_, F_OFD_SETLKW, &fl) != 0) {
    if (errno == EINTR) continue;
    return Errno("lock");
  }
  return Status::Ok();
}

Status HostFileHandle::UnlockRange(std::uint64_t offset,
                                   std::uint64_t length) {
  struct flock fl {};
  fl.l_type = F_UNLCK;
  fl.l_whence = SEEK_SET;
  fl.l_start = static_cast<off_t>(offset);
  fl.l_len = static_cast<off_t>(length);
  fl.l_pid = 0;
  if (::fcntl(fd_, F_OFD_SETLK, &fl) != 0) return Errno("unlock");
  return Status::Ok();
}

Status HostFileHandle::Close() {
  if (fd_ < 0) return Status::Ok();
  const int r = ::close(fd_);
  fd_ = -1;
  if (r != 0) return Errno("close");
  return Status::Ok();
}

}  // namespace afs::vfs
