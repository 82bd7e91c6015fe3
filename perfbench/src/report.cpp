#include "report.hpp"

#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>

namespace perfbench {

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string HostJson() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu_model = line.substr(colon + 2);
      break;
    }
  }
  utsname uts{};
  const std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus =
      sched_getaffinity(0, sizeof allowed, &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpus_allowed\": " + std::to_string(cpus) +
         ", \"cpu_model\": " + Quote(cpu_model) +
         ", \"kernel\": " + Quote(kernel) +
         ", \"compiler\": " + Quote(__VERSION__) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) + "}";
}

std::string SpansJsonl(const Tracer& tracer, std::int64_t epoch_ns) {
  std::string out;
  for (const Span& span : tracer.spans()) {
    out += "{\"name\": " + Quote(tracer.name(span.name)) +
           ", \"series\": " +
           (span.series < 0 ? std::string("null") : Quote(SeriesName(span.series))) +
           ", \"trace\": " + std::to_string(span.trace) +
           ", \"span\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"start_ns\": " + std::to_string(span.start_ns - epoch_ns) +
           ", \"end_ns\": " + std::to_string(span.end_ns - epoch_ns) + "}\n";
  }
  return out;
}

afs::Status WriteText(const std::string& path, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream file(path, std::ios::trunc);
  file << text;
  file.close();
  if (!file) return afs::IoError("cannot write " + path);
  return afs::Status::Ok();
}

}  // namespace perfbench
