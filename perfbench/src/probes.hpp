// Per-layer probes of the traced run: each times one layer's public call
// in isolation (README.md, "Per-layer metrics").
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ProbeContext {
  std::vector<std::size_t> sizes;  // the workload's op payload sizes
  std::string dir;                 // directory for the probes' sockets
  afs::core::ActiveFileManager* manager = nullptr;
  afs::vfs::FileApi* api = nullptr;
  Tracer* tracer = nullptr;
};

// Appends ipc.*, core.rendezvous_rtt_us, core.loop.*, net.*,
// sentinel.codec_us, ipc.spawn_us and core.bundle.* to `out`.  Fails when
// a probe's own echo comes back wrong.
afs::Status RunProbes(const ProbeContext& ctx, Metrics& out);

}  // namespace perfbench
