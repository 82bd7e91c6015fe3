// ActiveFileManager: the public entry point of the library.
//
// Installing a manager on a vfs::FileApi is the moral equivalent of the
// paper's DLL injection + IAT rewrite: from that moment, any CreateFile on
// a ".af" path whose content is a valid bundle spawns/injects the
// configured sentinel, and the application receives a handle
// indistinguishable from a passive file's.  Everything else falls through
// untouched.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "core/strategies.hpp"
#include "core/supervisor.hpp"
#include "sentinel/registry.hpp"
#include "vfs/file_api.hpp"

namespace afs::core {

struct ManagerOptions {
  // Used when a bundle's config carries no "strategy" key.
  Strategy default_strategy = Strategy::kThread;

  // Directory (host path) for cross-sentinel lock files; defaults to
  // "<root>/.afs-locks" of the FileApi.
  std::string lock_dir;

  // How sentinels reach remote sources; may be null for purely local
  // active files.  Not owned; must outlive the manager.
  sentinel::RemoteResolver* resolver = nullptr;
};

class ActiveFileManager final : public vfs::OpenInterceptor {
 public:
  ActiveFileManager(vfs::FileApi& api, sentinel::SentinelRegistry& registry,
                    ManagerOptions options = ManagerOptions());
  ~ActiveFileManager() override;

  ActiveFileManager(const ActiveFileManager&) = delete;
  ActiveFileManager& operator=(const ActiveFileManager&) = delete;

  // Installs/removes this manager as an interceptor on the FileApi.
  // Idempotent; the destructor uninstalls automatically.
  void Install();
  void Uninstall();
  bool installed() const noexcept { return installed_; }

  // Authoring: writes a bundle at `path` (which must carry the ".af"
  // extension) with the given sentinel spec and initial data part.
  Status CreateActiveFile(const std::string& path,
                          const sentinel::SentinelSpec& spec,
                          ByteSpan initial_data = {});

  // Reads back the spec of an existing active file.
  Result<sentinel::SentinelSpec> ReadSpec(const std::string& path) const;

  // Reads/replaces the data part without running the sentinel (authoring
  // and test staging).
  Result<Buffer> ReadDataPart(const std::string& path) const;
  Status WriteDataPart(const std::string& path, ByteSpan data);

  // Sends an application-specific command to the sentinel behind an open
  // handle (kUnsupported for the plain process strategy).
  Result<Buffer> Control(vfs::HandleId handle, ByteSpan request);

  // vfs::OpenInterceptor.
  Result<std::unique_ptr<vfs::FileHandle>> TryOpen(
      vfs::FileApi& api, const std::string& path,
      const vfs::OpenOptions& options) override;

 private:
  vfs::FileApi& api_;
  sentinel::SentinelRegistry& registry_;
  ManagerOptions options_;
  bool installed_ = false;
};

}  // namespace afs::core
