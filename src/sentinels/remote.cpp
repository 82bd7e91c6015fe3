#include "sentinels/remote.hpp"

#include <algorithm>
#include <cstring>

#include "util/strings.hpp"

namespace afs::sentinels {

Status RemoteFileSentinel::OnOpen(sentinel::SentinelContext& ctx) {
  const std::string url = ctx.config_or("url", "");
  remote_path_ = ctx.config_or("file", "");
  if (url.empty() || remote_path_.empty()) {
    return InvalidArgumentError("remote: needs 'url' and 'file' config");
  }
  const std::string consistency = ctx.config_or("consistency", "open");
  if (consistency == "open") {
    consistency_ = Consistency::kOpen;
  } else if (consistency == "always") {
    consistency_ = Consistency::kAlways;
  } else if (consistency == "never") {
    consistency_ = Consistency::kNever;
  } else {
    return InvalidArgumentError("remote: bad consistency '" + consistency +
                                "'");
  }
  write_through_ = ctx.config_or("write_through", "0") == "1";
  cached_ = ctx.cache != nullptr;

  AFS_ASSIGN_OR_RETURN(transport_, ctx.ConnectRemote(url));
  client_ = std::make_unique<net::FileClient>(*transport_);

  if (cached_) {
    // Populate/refresh the local cache: every open revalidates, fulfilling
    // "reflects the latest … every time the file is opened".
    AFS_ASSIGN_OR_RETURN(net::FileClient::GetResult fetched,
                         client_->Get(remote_path_));
    AFS_RETURN_IF_ERROR(ctx.cache->Truncate(fetched.data.size()));
    if (!fetched.data.empty()) {
      AFS_ASSIGN_OR_RETURN(std::size_t n,
                           ctx.cache->WriteAt(0, ByteSpan(fetched.data)));
      (void)n;
    }
    revision_ = fetched.revision;
    // Holding a revalidatable copy is what lets this sentinel extend a
    // client-side block-cache lease (cache=read|write, docs/CACHING.md).
    sentinel::InitCacheGrantFromConfig(ctx);
  }
  return Status::Ok();
}

Status RemoteFileSentinel::Revalidate(sentinel::SentinelContext& ctx) {
  AFS_ASSIGN_OR_RETURN(auto refreshed,
                       client_->GetIfModified(remote_path_, revision_));
  if (!refreshed.has_value()) return Status::Ok();  // cache still fresh
  AFS_RETURN_IF_ERROR(ctx.cache->Truncate(refreshed->data.size()));
  if (!refreshed->data.empty()) {
    AFS_ASSIGN_OR_RETURN(std::size_t n,
                         ctx.cache->WriteAt(0, ByteSpan(refreshed->data)));
    (void)n;
  }
  revision_ = refreshed->revision;
  // The upstream moved under the client: recall its cached blocks.
  sentinel::RecallCacheGrant(ctx);
  return Status::Ok();
}

Result<std::size_t> RemoteFileSentinel::OnRead(sentinel::SentinelContext& ctx,
                                               MutableByteSpan out) {
  if (!cached_) {
    // Figure 5 path 1: no cache anywhere; ask the service directly.
    AFS_ASSIGN_OR_RETURN(
        net::FileClient::GetResult got,
        client_->GetRange(remote_path_, ctx.position,
                          static_cast<std::uint32_t>(out.size())));
    const std::size_t n = std::min(out.size(), got.data.size());
    // An empty range has a null data pointer, which memcpy may not take.
    if (n > 0) std::memcpy(out.data(), got.data.data(), n);
    return n;
  }
  if (consistency_ == Consistency::kAlways && !dirty_) {
    AFS_RETURN_IF_ERROR(Revalidate(ctx));
  }
  return ctx.cache->ReadAt(ctx.position, out);
}

Result<std::size_t> RemoteFileSentinel::OnWrite(sentinel::SentinelContext& ctx,
                                                ByteSpan data) {
  if (!cached_) {
    AFS_ASSIGN_OR_RETURN(std::uint64_t rev,
                         client_->PutRange(remote_path_, ctx.position, data));
    revision_ = rev;
    return data.size();
  }
  AFS_ASSIGN_OR_RETURN(std::size_t n,
                       ctx.cache->WriteAt(ctx.position, data));
  if (write_through_) {
    AFS_ASSIGN_OR_RETURN(
        std::uint64_t rev,
        client_->PutRange(remote_path_, ctx.position, data.first(n)));
    revision_ = rev;
  } else {
    dirty_ = true;
  }
  return n;
}

Result<std::uint64_t> RemoteFileSentinel::OnSeek(sentinel::SentinelContext& ctx,
                                                 std::int64_t offset,
                                                 sentinel::SeekOrigin origin) {
  // Lease renewals arrive as cheap Seek(0, kCurrent) crossings; under
  // consistency=always the renewal also revalidates against the service,
  // so a freshly renewed lease vouches for fresh content.
  if (cached_ && consistency_ == Consistency::kAlways && !dirty_) {
    AFS_RETURN_IF_ERROR(Revalidate(ctx));
  }
  return Sentinel::OnSeek(ctx, offset, origin);
}

Result<std::uint64_t> RemoteFileSentinel::OnGetSize(
    sentinel::SentinelContext& ctx) {
  if (!cached_) {
    AFS_ASSIGN_OR_RETURN(net::FileStat stat, client_->Stat(remote_path_));
    if (!stat.exists) return NotFoundError("remote: " + remote_path_);
    return stat.size;
  }
  return ctx.cache->Size();
}

Status RemoteFileSentinel::WriteBack(sentinel::SentinelContext& ctx) {
  if (!cached_ || !dirty_) return Status::Ok();
  AFS_ASSIGN_OR_RETURN(std::uint64_t size, ctx.cache->Size());
  Buffer content(static_cast<std::size_t>(size));
  AFS_ASSIGN_OR_RETURN(std::size_t n,
                       ctx.cache->ReadAt(0, MutableByteSpan(content)));
  content.resize(n);
  AFS_ASSIGN_OR_RETURN(std::uint64_t rev,
                       client_->Put(remote_path_, ByteSpan(content)));
  revision_ = rev;
  dirty_ = false;
  return Status::Ok();
}

Status RemoteFileSentinel::OnFlush(sentinel::SentinelContext& ctx) {
  AFS_RETURN_IF_ERROR(WriteBack(ctx));
  return cached_ ? ctx.cache->Flush() : Status::Ok();
}

Status RemoteFileSentinel::OnClose(sentinel::SentinelContext& ctx) {
  return WriteBack(ctx);
}

Status MergeSentinel::OnOpen(sentinel::SentinelContext& ctx) {
  const std::string url = ctx.config_or("url", "");
  const std::string files = ctx.config_or("files", "");
  if (url.empty() || files.empty()) {
    return InvalidArgumentError("merge: needs 'url' and 'files' config");
  }
  const std::string sep = ctx.config_or("sep", "");

  AFS_ASSIGN_OR_RETURN(auto transport, ctx.ConnectRemote(url));
  net::FileClient client(*transport);

  merged_.clear();
  bool first = true;
  for (const auto& part : Split(files, ',')) {
    const std::string name = TrimWhitespace(part);
    if (name.empty()) continue;
    if (!first && !sep.empty()) {
      merged_.insert(merged_.end(), sep.begin(), sep.end());
    }
    first = false;
    AFS_ASSIGN_OR_RETURN(net::FileClient::GetResult got, client.Get(name));
    merged_.insert(merged_.end(), got.data.begin(), got.data.end());
  }
  // Mirror the merged view into the data part when one exists, so the
  // local cache file matches what the application reads.
  if (ctx.cache != nullptr) {
    AFS_RETURN_IF_ERROR(ctx.cache->Truncate(merged_.size()));
    if (!merged_.empty()) {
      AFS_ASSIGN_OR_RETURN(std::size_t n,
                           ctx.cache->WriteAt(0, ByteSpan(merged_)));
      (void)n;
    }
  }
  return Status::Ok();
}

Result<std::size_t> MergeSentinel::OnRead(sentinel::SentinelContext& ctx,
                                          MutableByteSpan out) {
  if (ctx.position >= merged_.size()) return std::size_t{0};
  const std::size_t n = std::min<std::size_t>(
      out.size(), merged_.size() - static_cast<std::size_t>(ctx.position));
  std::memcpy(out.data(), merged_.data() + ctx.position, n);
  return n;
}

Result<std::size_t> MergeSentinel::OnWrite(sentinel::SentinelContext& ctx,
                                           ByteSpan data) {
  (void)ctx;
  (void)data;
  return PermissionDeniedError("merge: aggregated view is read-only");
}

Result<std::uint64_t> MergeSentinel::OnGetSize(sentinel::SentinelContext& ctx) {
  (void)ctx;
  return merged_.size();
}

std::unique_ptr<sentinel::Sentinel> MakeRemoteFileSentinel(
    const sentinel::SentinelSpec& spec) {
  (void)spec;
  return std::make_unique<RemoteFileSentinel>();
}

std::unique_ptr<sentinel::Sentinel> MakeMergeSentinel(
    const sentinel::SentinelSpec& spec) {
  (void)spec;
  return std::make_unique<MergeSentinel>();
}

}  // namespace afs::sentinels
