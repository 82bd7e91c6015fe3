// afsbench: the repo benchmark program.
//
//   afsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process, one client thread, closed loop with one client.  The five
// series of a workload (four strategies and the Baseline) run the same
// seeded op stream in interleaved round-robin slices until --seconds have
// passed.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced rounds, then runs the layer probes, and prints the
// per-layer metrics.  The last stdout line is the JSON result.  See
// README.md for the metric definitions.
#include <dlfcn.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "ipc/process.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRounds = 3;
constexpr std::size_t kSpanCapacity = 400'000;
constexpr std::uint64_t kSpansPerSlice = 256;
constexpr std::uint64_t kWindowOps = 1000;
constexpr std::size_t kMinWindows = 3;
constexpr std::size_t kFailuresListed = 50;

// Relative to the working directory, which run.py sets to the checkout
// root.  Relative paths also keep the socket names short.
constexpr const char* kWorkDir = ".bench_work";
constexpr const char* kOutDir = ".bench_out";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

// The counter page of the preloaded afs_syscount shim (README.md), or
// none when the shim is not loaded.
class Syscalls {
 public:
  Syscalls() {
    using PageFn = const std::uint64_t* (*)();
    using SizeFn = int (*)();
    using NamesFn = const char* const* (*)();
    auto page = reinterpret_cast<PageFn>(dlsym(RTLD_DEFAULT, "afs_syscount_page"));
    auto size = reinterpret_cast<SizeFn>(dlsym(RTLD_DEFAULT, "afs_syscount_size"));
    auto names =
        reinterpret_cast<NamesFn>(dlsym(RTLD_DEFAULT, "afs_syscount_names"));
    if (page != nullptr && size != nullptr && names != nullptr) {
      page_ = page();
      size_ = page_ != nullptr ? static_cast<std::size_t>(size()) : 0;
      names_ = names();
    }
  }
  bool loaded() const { return page_ != nullptr; }
  std::size_t size() const { return size_; }
  const char* name(std::size_t i) const { return names_[i]; }
  std::vector<std::uint64_t> Read() const {
    std::vector<std::uint64_t> counts(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      counts[i] = __atomic_load_n(&page_[i], __ATOMIC_RELAXED);
    }
    return counts;
  }

 private:
  const std::uint64_t* page_ = nullptr;
  std::size_t size_ = 0;
  const char* const* names_ = nullptr;
};

std::uint64_t ThreadContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

std::uint64_t RegistryCounter(const afs::obs::Snapshot& snapshot,
                              const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double PerOp(std::uint64_t count, std::uint64_t ops) {
  return ops > 0 ? static_cast<double>(count) / static_cast<double>(ops) : 0;
}

struct Failure {
  int series = 0;
  std::string kind;
  std::uint64_t offset = 0;
  std::string error;
};

// What one series did during the timed phase; index 1 is traced rounds.
//
// Two estimators keep the figures steady on a shared host.  The p50 is a
// smoothed median, the mean of the 40th-60th percentile band, because
// some series are multimodal (CPU placement) with modes near 50% each,
// where the plain median flips between modes from run to run.  The p99
// is the median over windows of consecutive slices holding at least
// kWindowOps ops, so a burst of host noise moves a few windows and not
// the result; with fewer than kMinWindows windows it is the whole run's.
struct SeriesStats {
  Histogram latency[2];
  Histogram window[2];
  std::vector<double> window_p99[2];
  std::int64_t wall_ns[2] = {0, 0};
  std::uint64_t completed[2] = {0, 0};
  std::uint64_t syscalls = 0;
  std::uint64_t context_switches = 0;
  std::vector<std::uint64_t> by_call;

  void Add(int traced, std::int64_t ns, bool ok) {
    latency[traced].Add(ns);
    window[traced].Add(ns);
    if (ok) ++completed[traced];
  }

  void EndSlice(int traced, std::int64_t slice_wall_ns) {
    wall_ns[traced] += slice_wall_ns;
    if (window[traced].count() < kWindowOps) return;
    window_p99[traced].push_back(window[traced].PercentileUs(0.99));
    window[traced] = Histogram();
  }

  double P50Us(int traced) const {
    return latency[traced].MeanBetweenUs(0.4, 0.6);
  }
  double P99Us(int traced) const {
    return window_p99[traced].size() >= kMinWindows
               ? Median(window_p99[traced])
               : latency[traced].PercentileUs(0.99);
  }
  double OpsPerSecond(int traced) const {
    return wall_ns[traced] > 0 ? static_cast<double>(completed[traced]) * 1e9 /
                                     static_cast<double>(wall_ns[traced])
                               : 0;
  }
};

struct Phase {
  std::array<SeriesStats, kSeriesCount> stats;
  std::vector<Failure> failures;
  std::uint64_t attempted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// The timed phase: rounds of one slice per series, rotating which series
// goes first, until `seconds` have passed.  With --trace 1 the odd rounds
// are traced: they record spans and syscall and context-switch counts.
Phase RunTimedPhase(Workload& workload, const Args& args,
                    const Syscalls& syscalls, Tracer& tracer) {
  Phase phase;
  for (SeriesStats& s : phase.stats) s.by_call.assign(syscalls.size(), 0);
  const afs::obs::Snapshot before = afs::obs::Registry::Global().TakeSnapshot();
  const std::uint64_t root_trace = args.trace ? tracer.NewId() : 0;
  const std::uint32_t slice_name = tracer.Name("slice");
  const std::int64_t phase_end =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (int round = 0; round == 0 || NowNs() < phase_end; ++round) {
    const int traced = args.trace && round % 2 == 1 ? 1 : 0;
    Tracer* tr = traced ? &tracer : nullptr;
    for (int k = 0; k < kSeriesCount; ++k) {
      const int series = (k + round) % kSeriesCount;
      SeriesStats& st = phase.stats[series];
      std::vector<std::uint64_t> calls_before;
      std::uint64_t switches_before = 0;
      if (traced) {
        calls_before = syscalls.Read();
        switches_before = ThreadContextSwitches();
      }
      const std::uint64_t slice_span = tr != nullptr ? tr->NewId() : 0;
      const std::int64_t slice_start = NowNs();
      const std::int64_t slice_end = slice_start + workload.slice_ns(series);
      std::int64_t now = slice_start;
      std::uint64_t ops = 0;
      while (now < slice_end) {
        // Op spans are sampled: the first kSpansPerSlice ops of a slice.
        Tracer* op_tr = ops < kSpansPerSlice ? tr : nullptr;
        const std::uint64_t op_span = op_tr != nullptr ? op_tr->NewId() : 0;
        OpRecord r = workload.RunOp(series, op_tr, op_span, op_span);
        ++ops;
        st.Add(traced, r.end_ns - r.start_ns, r.ok);
        if (!r.ok) {
          phase.failures.push_back(Failure{series, r.kind, r.offset, r.error});
        }
        if (op_tr != nullptr) {
          op_tr->Record(Span{op_tr->Name(r.kind), series, op_span, op_span,
                             slice_span, r.start_ns, r.end_ns});
        }
        now = NowNs();
      }
      st.EndSlice(traced, now - slice_start);
      phase.attempted += ops;
      if (traced) {
        const std::vector<std::uint64_t> calls_after = syscalls.Read();
        for (std::size_t i = 0; i < calls_after.size(); ++i) {
          st.by_call[i] += calls_after[i] - calls_before[i];
          st.syscalls += calls_after[i] - calls_before[i];
        }
        st.context_switches += ThreadContextSwitches() - switches_before;
        tr->Record(Span{slice_name, series, root_trace, slice_span, 0,
                        slice_start, now});
      }
    }
  }
  const afs::obs::Snapshot after = afs::obs::Registry::Global().TakeSnapshot();
  phase.cache_hits = RegistryCounter(after, "core.cache.hits") -
                     RegistryCounter(before, "core.cache.hits");
  phase.cache_misses = RegistryCounter(after, "core.cache.misses") -
                       RegistryCounter(before, "core.cache.misses");
  return phase;
}

void Add(Metrics& out, const std::string& name, double value, const char* unit,
         std::uint64_t samples) {
  out.push_back(Metric{name, value, unit, samples});
}

void EndToEndMetrics(const Phase& phase, const std::vector<double>& setup_s,
                     Metrics& out) {
  const auto& stats = phase.stats;
  for (int s = 0; s < kSeriesCount; ++s) {
    Add(out, "op_p50_us." + SeriesName(s), stats[s].P50Us(0), "us",
        stats[s].latency[0].count());
  }
  for (int s = 0; s < kStrategyCount; ++s) {
    Add(out, "op_p99_us." + SeriesName(s), stats[s].P99Us(0), "us",
        stats[s].latency[0].count());
  }
  for (int s = 0; s < kStrategyCount; ++s) {
    Add(out, "ops_per_s." + SeriesName(s), stats[s].OpsPerSecond(0), "1/s",
        stats[s].completed[0]);
  }
  Add(out, "setup_s", Median(setup_s), "s", setup_s.size());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Add(out, "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1);
}

// The per-layer metrics the timed phase and the workload's opens and
// closes give; RunProbes gives the rest.
void LayerMetrics(const Phase& phase, const Workload& workload, Metrics& out) {
  const auto& stats = phase.stats;
  for (int s = 0; s < kSeriesCount; ++s) {
    const std::uint64_t ops = stats[s].latency[1].count();
    Add(out, "syscalls_per_op." + SeriesName(s), PerOp(stats[s].syscalls, ops),
        "count/op", ops);
    Add(out, "client_ctxsw_per_op." + SeriesName(s),
        PerOp(stats[s].context_switches, ops), "count/op", ops);
  }
  const std::uint64_t lookups = phase.cache_hits + phase.cache_misses;
  Add(out, "core.cache.hit_ratio", PerOp(phase.cache_hits, lookups), "ratio",
      lookups);
  Add(out, "core.cache.hits", static_cast<double>(phase.cache_hits), "count", 1);
  Add(out, "core.cache.misses", static_cast<double>(phase.cache_misses), "count",
      1);
  for (int s = 0; s < kSeriesCount; ++s) {
    Add(out, "core.open_us." + SeriesName(s), Median(workload.open_us(s)), "us",
        workload.open_us(s).size());
    Add(out, "core.close_us." + SeriesName(s), Median(workload.close_us(s)),
        "us", workload.close_us(s).size());
  }
  const double direct_p50 = stats[kDirect].P50Us(1);
  std::vector<double> overhead;
  for (int s = 0; s < kSeriesCount; ++s) {
    if (s != kDirect) {
      Add(out, "strategy_overhead_us." + SeriesName(s),
          stats[s].P50Us(1) - direct_p50, "us", stats[s].latency[1].count());
    }
    const double traced_rate = stats[s].OpsPerSecond(1);
    if (traced_rate > 0) {
      overhead.push_back(stats[s].OpsPerSecond(0) / traced_rate - 1);
    }
  }
  Add(out, "tracing_overhead", Median(overhead), "ratio", overhead.size());
}

void PrintReport(const Metrics& metrics, const Phase& phase) {
  std::printf("%-36s %14s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-36s %14s %-8s %llu\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("%-36s %14s %-8s %llu\n", "fail_ratio",
              Num(PerOp(phase.failures.size(), phase.attempted)).c_str(),
              "ratio", static_cast<unsigned long long>(phase.attempted));
  for (std::size_t i = 0; i < phase.failures.size() && i < kFailuresListed; ++i) {
    const Failure& f = phase.failures[i];
    std::printf("FAIL series=%s op=%s offset=%llu: %s\n",
                SeriesName(f.series).c_str(), f.kind.c_str(),
                static_cast<unsigned long long>(f.offset), f.error.c_str());
  }
  if (phase.failures.size() > kFailuresListed) {
    std::printf("FAIL ... and %zu more\n",
                phase.failures.size() - kFailuresListed);
  }
}

std::string DetailJson(const Args& args, const std::string& host,
                       const Metrics& metrics, const Phase& phase,
                       const Syscalls& syscalls) {
  std::string out = "{\"workload\": " + Quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + Num(args.seconds) +
                    ", \"host\": " + host +
                    ", \"attempted\": " + std::to_string(phase.attempted) +
                    ", \"failed\": " + std::to_string(phase.failures.size()) +
                    ",\n \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += std::string(i ? "," : "") + "\n  {\"name\": " + Quote(m.name) +
           ", \"value\": " + Num(m.value) + ", \"unit\": " + Quote(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  out += "],\n \"failures\": [";
  for (std::size_t i = 0; i < phase.failures.size() && i < kFailuresListed; ++i) {
    const Failure& f = phase.failures[i];
    out += std::string(i ? ", " : "") + "{\"series\": " +
           Quote(SeriesName(f.series)) + ", \"op\": " + Quote(f.kind) +
           ", \"offset\": " + std::to_string(f.offset) +
           ", \"error\": " + Quote(f.error) + "}";
  }
  out += "]";
  if (args.trace) {
    out += ",\n \"syscalls_per_op_by_call\": {";
    for (int s = 0; s < kSeriesCount; ++s) {
      const SeriesStats& st = phase.stats[s];
      out += std::string(s ? ", " : "") + Quote(SeriesName(s)) + ": {";
      bool first = true;
      for (std::size_t i = 0; i < syscalls.size(); ++i) {
        if (st.by_call[i] == 0) continue;
        out += std::string(first ? "" : ", ") + Quote(syscalls.name(i)) + ": " +
               Num(PerOp(st.by_call[i], st.latency[1].count()));
        first = false;
      }
      out += "}";
    }
    out += "}";
  }
  return out + "}\n";
}

std::string ResultJson(const Metrics& metrics, const Phase& phase) {
  std::string out = "{\"correct\": " +
                    std::string(phase.failures.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(phase.attempted) +
                    ", \"failed\": " + std::to_string(phase.failures.size()) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += std::string(i ? ", " : "") + Quote(metrics[i].name) +
           ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

void WriteOrWarn(const std::string& path, const std::string& text) {
  if (afs::Status s = WriteText(path, text); !s.ok()) {
    std::fprintf(stderr, "afsbench: %s\n", s.ToString().c_str());
  }
}

int Run(const Args& args) {
  const std::int64_t process_start_ns = NowNs();
  afs::ipc::IgnoreSigpipe();
  afs::sentinels::RegisterBuiltinSentinels();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "afsbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Syscalls syscalls;
  if (args.trace && !syscalls.loaded()) {
    std::fprintf(stderr, "afsbench: --trace 1 needs libafs_syscount preloaded\n");
    return 2;
  }
  Tracer tracer(args.trace ? kSpanCapacity : 0);
  const std::string host = HostJson();
  std::printf("host: %s\n", host.c_str());
  std::printf("workload: %s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0);
  std::fflush(stdout);

  // Set-up, several times: the median is setup_s.  The last round's
  // sandbox is the one the timed phase runs in.
  const std::string sandbox = std::string(kWorkDir) + "/" + args.workload +
                              "-" + std::to_string(getpid());
  std::vector<double> setup_s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const std::int64_t start = NowNs();
    afs::Status status = workload->SetUp(sandbox);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok() || round + 1 < kSetupRounds) workload->TearDown();
    if (!status.ok()) {
      std::printf("FAIL set-up round %d: %s\n", round,
                  status.ToString().c_str());
      return 1;
    }
  }
  std::printf("start_to_first_op_s: %s\n",
              Num(static_cast<double>(NowNs() - process_start_ns) / 1e9).c_str());

  const Phase phase = RunTimedPhase(*workload, args, syscalls, tracer);

  Metrics metrics;
  afs::Status probe_status;
  if (args.trace) {
    ProbeContext probe;
    probe.sizes = workload->op_sizes();
    probe.dir = sandbox + "-probe";
    probe.manager = &workload->manager();
    probe.api = &workload->api();
    probe.tracer = &tracer;
    std::error_code ec;
    std::filesystem::create_directories(probe.dir, ec);
    probe_status = RunProbes(probe, metrics);
    std::filesystem::remove_all(probe.dir, ec);
  }
  // Closes the targets: the last samples of core.close_us.
  workload->TearDown();
  if (!probe_status.ok()) {
    std::printf("FAIL %s\n", probe_status.ToString().c_str());
    return 1;
  }
  if (args.trace) {
    LayerMetrics(phase, *workload, metrics);
  } else {
    EndToEndMetrics(phase, setup_s, metrics);
  }
  PrintReport(metrics, phase);

  const std::string stem = std::string(kOutDir) + "/" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  WriteOrWarn(stem + ".json", DetailJson(args, host, metrics, phase, syscalls));
  std::printf("detail: %s.json\n", stem.c_str());
  if (args.trace) {
    WriteOrWarn(stem + "-spans.jsonl", SpansJsonl(tracer, process_start_ns));
    std::printf("spans: %s-spans.jsonl (%zu kept, %llu dropped)\n",
                stem.c_str(), tracer.spans().size(),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  std::printf("%s\n", ResultJson(metrics, phase).c_str());
  std::fflush(stdout);
  return phase.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: afsbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
