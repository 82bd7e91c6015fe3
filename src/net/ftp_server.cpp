#include "net/ftp_server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ipc/process.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace afs::net {
namespace {

Status FillSockaddr(const std::string& path, sockaddr_un& addr) {
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path too long: " + path);
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

bool WriteAllFd(int fd, ByteSpan data) {
  std::size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-transfer must surface as EPIPE,
    // not a process-fatal SIGPIPE.
    const ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool WriteLineFd(int fd, const std::string& line) {
  return WriteAllFd(fd, AsBytes(line + "\n"));
}

// Reads a '\n'-terminated line byte-by-byte (server side; simplicity over
// throughput — commands are tiny).
bool ReadLineFd(int fd, std::string& line) {
  line.clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (c == '\n') return true;
    line.push_back(c);
    if (line.size() > 4096) return false;  // malformed flood
  }
}

bool ReadExactFd(int fd, MutableByteSpan out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

FtpServer::FtpServer(std::string socket_path, FileServer& store)
    : path_(std::move(socket_path)), store_(store) {}

FtpServer::~FtpServer() { Stop(); }

Status FtpServer::Start() {
  if (running_.load()) return Status::Ok();
  ipc::IgnoreSigpipe();
  sockaddr_un addr;
  AFS_RETURN_IF_ERROR(FillSockaddr(path_, addr));
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path_.c_str());
  // sockaddr_un -> sockaddr is the POSIX-sanctioned sockets-API pun.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return IoError("bind/listen " + path_ + ": " + std::strerror(err));
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void FtpServer::Stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    MutexLock lock(conn_mu_);
    threads.swap(conn_threads_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock lock(conn_mu_);
    conn_fds_.clear();
  }
  ::unlink(path_.c_str());
}

void FtpServer::AcceptLoop() {
  std::int64_t backoff_us = 10'000;  // EMFILE recovery: 10ms doubling to 500ms
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion is a load condition, not a dead listener:
        // sleep (instead of hot-spinning accept) and retry.
        static obs::Counter& emfile =
            obs::Registry::Global().GetCounter("net.accept.emfile");
        emfile.Add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        if (backoff_us < 500'000) backoff_us *= 2;
        continue;
      }
      return;
    }
    backoff_us = 10'000;
    MutexLock lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void FtpServer::ServeConnection(int fd) {
  WriteLineFd(fd, "220 afs ftp ready");
  std::string line;
  while (ReadLineFd(fd, line)) {
    commands_served_.fetch_add(1, std::memory_order_relaxed);
    const auto [verb_raw, rest] = SplitOnce(TrimWhitespace(line), ' ');
    const std::string verb = ToLowerAscii(verb_raw);
    if (verb == "quit") {
      WriteLineFd(fd, "221 bye");
      break;
    }
    if (verb == "retr") {
      const std::string path = TrimWhitespace(rest);
      auto data = store_.Get(path);
      if (!data.ok()) {
        WriteLineFd(fd, "550 " + data.status().ToString());
        continue;
      }
      if (!WriteLineFd(fd, "150 " + std::to_string(data->size()))) break;
      if (!WriteAllFd(fd, ByteSpan(*data))) break;
      continue;
    }
    if (verb == "stor") {
      const auto [path, size_text] = SplitOnce(TrimWhitespace(rest), ' ');
      std::uint64_t size = 0;
      if (path.empty() || !ParseU64(TrimWhitespace(size_text), size) ||
          size > 64 * 1024 * 1024) {
        WriteLineFd(fd, "501 bad STOR arguments");
        continue;
      }
      Buffer data(static_cast<std::size_t>(size));
      if (!ReadExactFd(fd, MutableByteSpan(data))) break;
      const Status stored = store_.Put(path, ByteSpan(data));
      WriteLineFd(fd, stored.ok() ? "226 stored"
                                  : "550 " + stored.ToString());
      continue;
    }
    if (verb == "size") {
      const FileStat stat = store_.Stat(TrimWhitespace(rest));
      if (!stat.exists) {
        WriteLineFd(fd, "550 no such file");
        continue;
      }
      WriteLineFd(fd, "213 " + std::to_string(stat.size));
      continue;
    }
    if (verb == "dele") {
      const Status deleted = store_.Delete(TrimWhitespace(rest));
      WriteLineFd(fd, deleted.ok() ? "250 deleted"
                                   : "550 " + deleted.ToString());
      continue;
    }
    if (verb == "list") {
      const auto names = store_.List(TrimWhitespace(rest));
      if (!WriteLineFd(fd, "150 " + std::to_string(names.size()))) break;
      bool io_ok = true;
      for (const auto& name : names) {
        if (!WriteLineFd(fd, name)) {
          io_ok = false;
          break;
        }
      }
      if (!io_ok) break;
      continue;
    }
    WriteLineFd(fd, "500 unknown command");
  }
  ::close(fd);
}

FtpClient::FtpClient(std::string socket_path)
    : path_(std::move(socket_path)) {
  ipc::IgnoreSigpipe();
}

FtpClient::~FtpClient() { Disconnect(); }

Status FtpClient::EnsureConnected() {
  if (fd_ >= 0) return Status::Ok();
  sockaddr_un addr;
  AFS_RETURN_IF_ERROR(FillSockaddr(path_, addr));
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return IoError(std::string("socket: ") + std::strerror(errno));
  // sockaddr_un -> sockaddr is the POSIX-sanctioned sockets-API pun.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    Disconnect();
    return IoError("connect " + path_ + ": " + std::strerror(err));
  }
  // Greeting.
  AFS_ASSIGN_OR_RETURN(auto greeting, ReadReply());
  if (greeting.first != 220) {
    Disconnect();
    return ProtocolError("unexpected ftp greeting");
  }
  return Status::Ok();
}

void FtpClient::Disconnect() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();
}

Status FtpClient::SendLine(const std::string& line) {
  if (!WriteAllFd(fd_, AsBytes(line + "\n"))) {
    Disconnect();
    return IoError("ftp send failed");
  }
  return Status::Ok();
}

Result<std::string> FtpClient::ReadLine() {
  std::string line;
  while (true) {
    // Drain buffered bytes first.
    std::size_t i = 0;
    for (; i < pending_.size(); ++i) {
      if (pending_[i] == '\n') {
        // uint8_t buffer viewed as chars; same object representation.
        // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
        line.append(reinterpret_cast<const char*>(pending_.data()), i);
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<long>(i) + 1);
        return line;
      }
    }
    Buffer chunk(512);
    const ssize_t n = ::read(fd_, chunk.data(), chunk.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Disconnect();
      return ClosedError("ftp connection closed");
    }
    pending_.insert(pending_.end(), chunk.begin(), chunk.begin() + n);
  }
}

Status FtpClient::ReadExact(MutableByteSpan out) {
  std::size_t done = 0;
  const std::size_t from_pending = std::min(out.size(), pending_.size());
  // An empty buffer or span may have a null pointer, which memcpy may not
  // take.
  if (from_pending > 0) {
    std::memcpy(out.data(), pending_.data(), from_pending);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<long>(from_pending));
  done += from_pending;
  while (done < out.size()) {
    const ssize_t n = ::read(fd_, out.data() + done, out.size() - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Disconnect();
      return ClosedError("ftp connection closed mid-transfer");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Result<std::pair<int, std::string>> FtpClient::ReadReply() {
  AFS_ASSIGN_OR_RETURN(std::string line, ReadLine());
  const auto [code_text, rest] = SplitOnce(line, ' ');
  std::uint64_t code = 0;
  if (!ParseU64(code_text, code) || code < 100 || code > 599) {
    return ProtocolError("bad ftp reply: " + line);
  }
  if (code >= 500) {
    return RemoteError(rest.empty() ? line : rest);
  }
  return std::make_pair(static_cast<int>(code), rest);
}

Result<Buffer> FtpClient::Retr(const std::string& path) {
  AFS_RETURN_IF_ERROR(EnsureConnected());
  AFS_RETURN_IF_ERROR(SendLine("RETR " + path));
  AFS_ASSIGN_OR_RETURN(auto reply, ReadReply());
  if (reply.first != 150) return ProtocolError("unexpected RETR reply");
  std::uint64_t size = 0;
  if (!ParseU64(reply.second, size) || size > 64 * 1024 * 1024) {
    return ProtocolError("bad RETR size");
  }
  Buffer data(static_cast<std::size_t>(size));
  AFS_RETURN_IF_ERROR(ReadExact(MutableByteSpan(data)));
  return data;
}

Status FtpClient::Stor(const std::string& path, ByteSpan data) {
  AFS_RETURN_IF_ERROR(EnsureConnected());
  AFS_RETURN_IF_ERROR(
      SendLine("STOR " + path + " " + std::to_string(data.size())));
  if (!WriteAllFd(fd_, data)) {
    Disconnect();
    return IoError("ftp stor payload failed");
  }
  AFS_ASSIGN_OR_RETURN(auto reply, ReadReply());
  if (reply.first != 226) return ProtocolError("unexpected STOR reply");
  return Status::Ok();
}

Result<std::uint64_t> FtpClient::Size(const std::string& path) {
  AFS_RETURN_IF_ERROR(EnsureConnected());
  AFS_RETURN_IF_ERROR(SendLine("SIZE " + path));
  AFS_ASSIGN_OR_RETURN(auto reply, ReadReply());
  std::uint64_t size = 0;
  if (reply.first != 213 || !ParseU64(reply.second, size)) {
    return ProtocolError("unexpected SIZE reply");
  }
  return size;
}

Status FtpClient::Dele(const std::string& path) {
  AFS_RETURN_IF_ERROR(EnsureConnected());
  AFS_RETURN_IF_ERROR(SendLine("DELE " + path));
  AFS_ASSIGN_OR_RETURN(auto reply, ReadReply());
  if (reply.first != 250) return ProtocolError("unexpected DELE reply");
  return Status::Ok();
}

Result<std::vector<std::string>> FtpClient::List(const std::string& prefix) {
  AFS_RETURN_IF_ERROR(EnsureConnected());
  AFS_RETURN_IF_ERROR(SendLine("LIST " + prefix));
  AFS_ASSIGN_OR_RETURN(auto reply, ReadReply());
  std::uint64_t count = 0;
  if (reply.first != 150 || !ParseU64(reply.second, count) || count > 65536) {
    return ProtocolError("unexpected LIST reply");
  }
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    AFS_ASSIGN_OR_RETURN(std::string name, ReadLine());
    names.push_back(std::move(name));
  }
  return names;
}

Status FtpClient::Quit() {
  if (fd_ < 0) return Status::Ok();
  AFS_RETURN_IF_ERROR(SendLine("QUIT"));
  AFS_ASSIGN_OR_RETURN(auto reply, ReadReply());
  (void)reply;
  Disconnect();
  return Status::Ok();
}

}  // namespace afs::net
