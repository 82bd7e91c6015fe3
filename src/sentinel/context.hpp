// SentinelContext: everything a sentinel can touch while serving an active
// file — the local data part (its cache), the sentinel spec's configuration,
// a resolver for reaching remote information sources, and the file-pointer
// position maintained across operations.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/rpc.hpp"

namespace afs::sentinel {

// The "data part" of an active file, as seen by the sentinel.  Positional
// (pread/pwrite-style) so concurrent pump threads never race a shared file
// pointer.  Implementations: MemoryDataStore (Figure 5 path 3) and
// core::BundleDataStore (path 2, the on-disk data region of the bundle).
class DataStore {
 public:
  virtual ~DataStore() = default;

  // Short reads only at EOF; returns 0 at/past EOF.
  virtual Result<std::size_t> ReadAt(std::uint64_t offset,
                                     MutableByteSpan out) = 0;

  // Extends the store as needed (sparse gaps zero-filled).
  virtual Result<std::size_t> WriteAt(std::uint64_t offset, ByteSpan data) = 0;

  virtual Result<std::uint64_t> Size() = 0;

  virtual Status Truncate(std::uint64_t size) = 0;

  virtual Status Flush() { return Status::Ok(); }
};

class MemoryDataStore final : public DataStore {
 public:
  MemoryDataStore() = default;
  explicit MemoryDataStore(Buffer initial) : data_(std::move(initial)) {}

  Result<std::size_t> ReadAt(std::uint64_t offset,
                             MutableByteSpan out) override;
  Result<std::size_t> WriteAt(std::uint64_t offset, ByteSpan data) override;
  Result<std::uint64_t> Size() override;
  Status Truncate(std::uint64_t size) override;

  const Buffer& contents() const noexcept { return data_; }
  Buffer& contents() noexcept { return data_; }

 private:
  Buffer data_;
};

// Maps a remote-source URL from the sentinel spec to a connected transport.
//   "sock:<unix-socket-path>"    — real socket (works across fork)
//   "sim:<node>:<service>"       — SimNet service (in-process only)
class RemoteResolver {
 public:
  virtual ~RemoteResolver() = default;
  virtual Result<std::unique_ptr<net::Transport>> Connect(
      const std::string& url) = 0;
};

// The sentinel side of the client-cache lease protocol (docs/CACHING.md).
// A sentinel that wants to let its client cache blocks sets `read`/`write`
// at open (grant policy) and bumps `epoch` + sets `recall` whenever the
// content it proxies changes underneath the client; the dispatch glue
// stamps these fields into every response's cache fields and clears
// `recall` when the client acknowledges the drop.  Default: deny (no
// lease, the client stays uncached).
struct CacheGrant {
  bool read = false;
  bool write = false;
  std::uint32_t lease_ms = 0;
  std::uint32_t epoch = 0;
  bool recall = false;
};

struct SentinelContext;
void InitCacheGrantFromConfig(SentinelContext& ctx);
void RecallCacheGrant(SentinelContext& ctx);

struct SentinelContext {
  // Null when the active file has no usable data part (cache=none).
  DataStore* cache = nullptr;

  // Client-cache lease state (see CacheGrant above); owned by the sentinel,
  // published by the dispatch glue.
  CacheGrant cache_grant;

  // Sentinel-specific configuration from the active part.
  std::map<std::string, std::string> config;

  // Null when no remote environment was configured.
  RemoteResolver* resolver = nullptr;

  // Directory for cross-sentinel NamedMutex files (multi-open sync).
  std::string lock_dir;

  // VFS path of the active file being served.
  std::string path;

  // Current file pointer.  The dispatch glue advances it by the byte count
  // a sentinel's OnRead/OnWrite returns; OnSeek replaces it.
  std::uint64_t position = 0;

  std::string config_or(const std::string& key,
                        const std::string& fallback) const {
    auto it = config.find(key);
    return it == config.end() ? fallback : it->second;
  }

  Result<std::unique_ptr<net::Transport>> ConnectRemote(
      const std::string& url) const {
    if (resolver == nullptr) {
      return UnsupportedError("no remote resolver configured");
    }
    return resolver->Connect(url);
  }
};

// Standard grant policy for sentinels that can support a client cache
// (docs/CACHING.md): cache=read grants a read lease, cache=write a
// read+write lease, anything else leaves the default deny.  `lease_ms`
// configures the duration (default 1000); epoch starts at 1 so clients
// can tell "granted" from the all-zero cache fields of an uncached sentinel.
// Call from OnOpen after the sentinel knows it holds a revalidatable copy.
inline void InitCacheGrantFromConfig(SentinelContext& ctx) {
  const std::string mode = ctx.config_or("cache", "none");
  if (mode != "read" && mode != "write") return;
  ctx.cache_grant.read = true;
  ctx.cache_grant.write = mode == "write";
  const unsigned long ms =
      std::strtoul(ctx.config_or("lease_ms", "").c_str(), nullptr, 10);
  ctx.cache_grant.lease_ms =
      ms > 0 ? static_cast<std::uint32_t>(ms) : 1000u;
  ctx.cache_grant.epoch = 1;
}

// The content this sentinel proxies changed underneath the client: bump
// the epoch and raise the recall flag (cleared by the dispatch glue when
// the client acks the drop).  No-op when no lease was ever granted.
inline void RecallCacheGrant(SentinelContext& ctx) {
  if (ctx.cache_grant.epoch == 0) return;
  ++ctx.cache_grant.epoch;
  ctx.cache_grant.recall = true;
}

}  // namespace afs::sentinel
