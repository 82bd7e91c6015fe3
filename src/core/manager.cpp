#include "core/manager.hpp"

#include <filesystem>

#include "common/faultpoint.hpp"
#include "core/bundle.hpp"
#include "core/cache.hpp"
#include "vfs/paths.hpp"

namespace afs::core {

ActiveFileManager::ActiveFileManager(vfs::FileApi& api,
                                     sentinel::SentinelRegistry& registry,
                                     ManagerOptions options)
    : api_(api), registry_(registry), options_(std::move(options)) {
  if (options_.lock_dir.empty()) {
    options_.lock_dir = api_.root_dir() + "/.afs-locks";
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.lock_dir, ec);
}

ActiveFileManager::~ActiveFileManager() { Uninstall(); }

void ActiveFileManager::Install() {
  if (installed_) return;
  api_.InstallInterceptor(this);
  installed_ = true;
}

void ActiveFileManager::Uninstall() {
  if (!installed_) return;
  api_.RemoveInterceptor(this);
  installed_ = false;
}

Status ActiveFileManager::CreateActiveFile(const std::string& path,
                                           const sentinel::SentinelSpec& spec,
                                           ByteSpan initial_data) {
  if (!vfs::IsActiveFilePath(path)) {
    return InvalidArgumentError("active files need the '" +
                                std::string(vfs::kActiveFileExtension) +
                                "' extension: " + path);
  }
  if (!registry_.Has(spec.name)) {
    return NotFoundError("no sentinel registered as '" + spec.name + "'");
  }
  if (spec.config.count("cache") != 0) {
    AFS_RETURN_IF_ERROR(ParseCacheMode(spec.config.at("cache")).status());
  }
  if (spec.config.count("strategy") != 0) {
    AFS_RETURN_IF_ERROR(ParseStrategy(spec.config.at("strategy")).status());
  }
  AFS_ASSIGN_OR_RETURN(std::string host, api_.HostPath(path));
  return WriteBundle(host, spec, initial_data);
}

Result<sentinel::SentinelSpec> ActiveFileManager::ReadSpec(
    const std::string& path) const {
  AFS_ASSIGN_OR_RETURN(std::string host, api_.HostPath(path));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<BundleFile> bundle,
                       BundleFile::Open(host));
  return bundle->spec();
}

Result<Buffer> ActiveFileManager::ReadDataPart(const std::string& path) const {
  AFS_ASSIGN_OR_RETURN(std::string host, api_.HostPath(path));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<BundleFile> bundle,
                       BundleFile::Open(host));
  return bundle->ReadAllData();
}

Status ActiveFileManager::WriteDataPart(const std::string& path,
                                        ByteSpan data) {
  AFS_ASSIGN_OR_RETURN(std::string host, api_.HostPath(path));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<BundleFile> bundle,
                       BundleFile::Open(host));
  return bundle->ReplaceData(data);
}

Result<Buffer> ActiveFileManager::Control(vfs::HandleId handle,
                                          ByteSpan request) {
  vfs::FileHandle* raw = api_.RawHandle(handle);
  if (raw == nullptr) {
    return InvalidArgumentError("bad handle " + std::to_string(handle));
  }
  auto* active = dynamic_cast<ActiveHandle*>(raw);
  if (active == nullptr) {
    return UnsupportedError(
        "handle has no control channel (passive file or plain process "
        "strategy)");
  }
  return active->Control(request);
}

Result<std::unique_ptr<vfs::FileHandle>> ActiveFileManager::TryOpen(
    vfs::FileApi& api, const std::string& path,
    const vfs::OpenOptions& options) {
  (void)options;  // sentinels define their own open semantics
  // The stub's test (paper A.2): is this an active file?  Non-.af paths
  // and .af files that are not bundles fall through to the passive path.
  if (!vfs::IsActiveFilePath(path)) {
    return std::unique_ptr<vfs::FileHandle>();
  }
  AFS_ASSIGN_OR_RETURN(std::string host, api.HostPath(path));
  if (!SniffBundle(host)) {
    return std::unique_ptr<vfs::FileHandle>();
  }
  AFS_FAULT_POINT("core.manager.open");

  AFS_ASSIGN_OR_RETURN(std::unique_ptr<BundleFile> bundle,
                       BundleFile::Open(host));
  OpenRequest request;
  request.vfs_path = path;
  request.host_path = host;
  request.spec = bundle->spec();
  request.resolver = options_.resolver;
  request.lock_dir = options_.lock_dir;
  bundle.reset();  // strategies reopen as needed per cache mode

  Strategy strategy = options_.default_strategy;
  auto it = request.spec.config.find("strategy");
  if (it != request.spec.config.end()) {
    AFS_ASSIGN_OR_RETURN(strategy, ParseStrategy(it->second));
  }

  // Client-side block cache (cache=read|write, docs/CACHING.md): the
  // channel rides the OpenRequest so every link incarnation — including
  // supervised restarts — observes grants into it, and the stub gets
  // wrapped in the lease-consuming CachedHandle below.  The plain process
  // strategy cannot seek, which the block cache's flush path requires, so
  // it stays uncached (its spec parse also rejects non-legacy modes only
  // here, keeping old bundles valid).
  const ClientCacheOptions cache_options =
      ClientCacheOptionsFromSpec(request.spec.config);
  const bool client_cache = cache_options.mode != ClientCacheMode::kOff &&
                            strategy != Strategy::kProcess;
  if (client_cache) {
    request.cache_channel = std::make_shared<CacheLeaseChannel>();
  }

  // Bundles that opt in ("supervise=1") get the crash-recovering wrapper;
  // everybody else keeps the classic handle and its fail-fast semantics.
  AFS_ASSIGN_OR_RETURN(RestartPolicy policy,
                       RestartPolicy::FromSpec(request.spec.config));
  Result<std::unique_ptr<vfs::FileHandle>> opened =
      policy.supervised ? OpenSupervised(registry_, strategy, request, policy)
                        : OpenWithStrategy(strategy, registry_, request);
  if (!opened.ok() || !client_cache) return opened;
  return WrapCached(std::move(*opened), request.cache_channel, cache_options);
}

}  // namespace afs::core
