// The four workloads.  Each owns a sandbox (FileApi + installed
// ActiveFileManager, plus a Unix-socket file server for remote-zipf), one
// target per series, and a shadow copy of every file it reads back.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// One timed op.  start_ns/end_ns bracket the library calls only; the
// byte-exact check against the shadow copy runs after end_ns.
struct OpRecord {
  bool ok = true;
  const char* kind = "";
  std::uint64_t offset = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string error;
};

class Sandbox;

class Workload {
 public:
  virtual ~Workload();

  // One set-up round: a fresh sandbox under `dir`, staged bundles and
  // remote files, opened targets, untimed warm-up.  A warm-up op that
  // fails fails the round.
  virtual afs::Status SetUp(const std::string& dir) = 0;
  // Closes every target and removes the sandbox.
  virtual void TearDown() = 0;

  // Runs the next op of `series`.  With a tracer (traced slices only),
  // sub-spans of the op use `trace` and hang off `op_span`.
  virtual OpRecord RunOp(int series, Tracer* tracer, std::uint64_t trace,
                         std::uint64_t op_span) = 0;

  // Length of one round-robin slice of `series`.
  virtual std::int64_t slice_ns(int series) const = 0;
  // Payload sizes the workload's ops move, for the size-matched probes.
  virtual std::vector<std::size_t> op_sizes() const = 0;

  // OpenFile/CloseHandle durations per series, in µs: the set-up opens and
  // tear-down closes, or (open-churn) the traced sessions' split.
  const std::vector<double>& open_us(int series) const {
    return open_us_[series];
  }
  const std::vector<double>& close_us(int series) const {
    return close_us_[series];
  }

  afs::vfs::FileApi& api();
  afs::core::ActiveFileManager& manager();

 protected:
  std::unique_ptr<Sandbox> box_;
  std::array<std::vector<double>, kSeriesCount> open_us_;
  std::array<std::vector<double>, kSeriesCount> close_us_;
};

// memory-small, disk-bulk, remote-zipf or open-churn; null when unknown.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed);

}  // namespace perfbench
