// Output side of afsbench: host fingerprint, JSON text, files.
#pragma once

#include <string>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

// nproc, CPUs this process may run on, CPU model, kernel, compiler and
// build type, as one JSON object; printed and stored with every result so
// that results from different hosts are never compared.
std::string HostJson();

// Shortest text that reads back as the same double; non-finite as 0.
std::string Num(double value);
std::string Quote(std::string_view text);

// One span per line: name, series, trace, span, parent, start and end in
// ns since `epoch_ns`.
std::string SpansJsonl(const Tracer& tracer, std::int64_t epoch_ns);

afs::Status WriteText(const std::string& path, const std::string& text);

}  // namespace perfbench
