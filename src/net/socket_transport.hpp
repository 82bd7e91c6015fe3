// Unix-domain-socket transport.
//
// The process-based strategies fork the sentinel into its own address
// space, where SimNet (whose state lives in the parent) is unreachable.
// SocketServer exposes the same RpcHandler over a real socket so a forked
// sentinel can talk to remote sources exactly like the in-process ones do.
// An optional per-request service delay models network service time, so the
// remote-path benchmark can present all strategies with the same remote
// cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "core/event_loop.hpp"
#include "ipc/framing.hpp"
#include "net/rpc.hpp"

namespace afs::net {

// Event-loop-hosted server: one core::EventLoop multiplexes the listening
// socket and every connection (non-blocking accept/recv/send, per-
// connection FrameDecoder reassembly, readiness-driven response flushing).
// Replaces the former thread-per-connection model — idle connections cost
// an epoll registration, not a parked thread.
class SocketServer {
 public:
  struct Options {
    // Artificial delay added to every request before the handler runs;
    // models propagation + service time of a remote source.  Implemented
    // as a loop timer, so a delayed request never blocks the other
    // connections sharing the loop.
    Micros service_delay{0};
    // Per-connection cap on buffered unflushed response bytes.  A reader
    // that stops draining while responses keep queueing is a slow
    // consumer; at the cap the server disconnects it instead of letting
    // one connection's outbuf grow without bound.  0 disables the cap.
    std::size_t max_outbuf_bytes = 8 * 1024 * 1024;
  };

  // Does not take ownership of the handler; it must outlive the server.
  SocketServer(std::string socket_path, RpcHandler& handler);
  SocketServer(std::string socket_path, RpcHandler& handler, Options options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds, listens, and registers the listening socket on the loop.
  Status Start();

  // Stops the loop, closes active connections, unlinks the socket path.
  // Idempotent.
  void Stop();

  const std::string& socket_path() const noexcept { return path_; }
  std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  // Per-connection state; loop-thread confined.  `gen` disambiguates a
  // recycled descriptor number from the connection a delayed-service timer
  // was armed for.
  struct Connection {
    std::uint64_t gen = 0;
    ipc::FrameDecoder decoder;
    // Framed responses not yet flushed; capped at max_outbuf_bytes by
    // RunRequest (slow readers are disconnected at the cap).
    // afs-lint: allow(bounded-queue: capped by Options::max_outbuf_bytes)
    Buffer outbuf;
    std::size_t out_off = 0;     // flushed prefix of outbuf
    bool want_write = false;     // write-readiness interest currently armed
  };

  // Loop-thread entries.
  void OnListenReady();
  // EMFILE/ENFILE recovery: parks the listening socket (unregisters it
  // from the loop) and re-arms it from a timer, so a level-triggered
  // always-readable listener cannot hot-spin the loop while the process
  // is out of descriptors.
  void BackOffAccept();
  void OnConnReady(int fd, std::uint32_t ready);
  void HandleFrame(int fd, std::uint64_t gen, Buffer request);
  void RunRequest(int fd, const Buffer& request);
  // Returns false when the connection died and was closed.
  bool FlushConn(int fd, Connection& conn);
  void CloseConn(int fd);

  const std::string path_;
  RpcHandler& handler_;
  const Options options_;
  // afs-lint: allow(guarded-member: written by Start/Stop on the owner thread)
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  // afs-lint: allow(guarded-member: EventLoop is internally synchronized)
  core::EventLoop loop_;
  // afs-lint: allow(guarded-member: loop-thread confined; Stop() drains after join)
  std::map<int, Connection> conns_;
  // afs-lint: allow(guarded-member: loop-thread confined; Stop() drains after join)
  std::uint64_t next_gen_ = 1;
};

// Client transport: one connection, frames one request and blocks for one
// response per Call.  Connects lazily on first Call and reconnects after
// transport errors, so a handle is usable immediately after fork.
//
// Transient transport failures (kIoError, kClosed: server restarting, a
// connection the server dropped between calls) are retried on a fresh
// connection with bounded exponential backoff.  Timeouts are never retried:
// the request may have executed, and at-most-once is the only safe default
// for a write-capable transport.
class SocketClient final : public Transport {
 public:
  struct Options {
    // Retries per Call after the initial attempt; 0 disables retry.
    int max_retries = 2;
    Micros retry_backoff{1000};      // initial delay, doubles per retry
    Micros retry_backoff_cap{50000};
    // Per-call deadline covering connect, send and receive; non-positive
    // leaves the receive unbounded.
    Micros call_timeout{0};
  };

  explicit SocketClient(std::string socket_path);
  SocketClient(std::string socket_path, Options options);
  ~SocketClient() override;

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  Result<Buffer> Call(ByteSpan request) override;

 private:
  Status EnsureConnected(Deadline deadline);
  void Disconnect() noexcept;
  // One request/response exchange on the current (or a fresh) connection.
  // One connect+send+bounded-receive attempt (Call adds retry/backoff
  // around it), all of it ending by one options_.call_timeout deadline.
  Result<Buffer> CallOnce(ByteSpan request) AFS_NONBLOCKING;

  std::string path_;
  Options options_;
  int fd_ = -1;
};

}  // namespace afs::net
