// Appends the machine-readable benchmark results in the working directory
// (every BENCH_*.json emitted by bench_build, bench_access, ...) to
// BENCH_trajectory.json as one entry stamped with the current git commit.
// Run it after a benchmark sweep to grow a performance trajectory across
// commits:
//
//   ./build/bench/bench_build && ./build/bench/bench_access
//   ./build/bench/bench_trajectory
//
// BENCH_trajectory.json stays a valid JSON array; each entry is
// {sha, dirty, recorded_at_unix_s, results: {<bench name>: <its JSON>}}.
// Appending splices before the closing bracket, so earlier entries are
// never reparsed or rewritten.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_common.h"

namespace fs = std::filesystem;

namespace {

using wg::bench::RunCommand;

constexpr const char* kTrajectoryFile = "BENCH_trajectory.json";

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "bench_trajectory: cannot read %s\n",
                 path.string().c_str());
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string Trimmed(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

// Re-indents an embedded JSON document so the trajectory file stays
// readable: every line of `doc` gains `indent`.
std::string Indented(const std::string& doc, const std::string& indent) {
  std::string out;
  std::istringstream lines(Trimmed(doc));
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (!first) out += "\n";
    out += indent + line;
    first = false;
  }
  return out;
}

}  // namespace

int main() {
  // Sorted for a deterministic entry layout run-to-run.
  std::map<std::string, std::string> results;
  for (const auto& entry : fs::directory_iterator(fs::current_path())) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || name == kTrajectoryFile) continue;
    if (entry.path().extension() != ".json") continue;
    std::string body = Trimmed(ReadFileOrDie(entry.path()));
    // A result file may be a single object (bench_access) or a top-level
    // array of rows (bench_scale's per-size frontier); both embed cleanly
    // as the value of the "<bench name>" key.
    if (body.empty() || (body.front() != '{' && body.front() != '[')) {
      std::fprintf(stderr, "bench_trajectory: skipping %s (not JSON)\n",
                   name.c_str());
      continue;
    }
    results.emplace(name.substr(6, name.size() - 6 - 5), std::move(body));
  }
  if (results.empty()) {
    std::fprintf(stderr,
                 "bench_trajectory: no BENCH_*.json in %s -- run the "
                 "benchmark binaries first\n",
                 fs::current_path().string().c_str());
    return 1;
  }

  std::string sha = RunCommand("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) sha = "unknown";
  bool dirty = !RunCommand("git status --porcelain 2>/dev/null").empty();

  std::ostringstream entry;
  entry << "  {\n";
  entry << "    \"sha\": \"" << sha << "\",\n";
  entry << "    \"dirty\": " << (dirty ? "true" : "false") << ",\n";
  entry << "    \"recorded_at_unix_s\": " << static_cast<long long>(
      std::time(nullptr)) << ",\n";
  entry << "    \"results\": {\n";
  size_t i = 0;
  for (const auto& [bench, body] : results) {
    entry << "      \"" << bench << "\": " << Indented(body, "      ").substr(6)
          << (++i < results.size() ? "," : "") << "\n";
  }
  entry << "    }\n";
  entry << "  }";

  std::string out;
  if (fs::exists(kTrajectoryFile)) {
    std::string existing = Trimmed(ReadFileOrDie(kTrajectoryFile));
    size_t close = existing.find_last_of(']');
    if (close == std::string::npos) {
      std::fprintf(stderr, "bench_trajectory: %s is not a JSON array\n",
                   kTrajectoryFile);
      return 1;
    }
    std::string prefix = Trimmed(existing.substr(0, close));
    bool empty_array = prefix.empty() || prefix.back() == '[';
    out = prefix + (empty_array ? "\n" : ",\n") + entry.str() + "\n]\n";
  } else {
    out = "[\n" + entry.str() + "\n]\n";
  }

  std::ofstream file(kTrajectoryFile, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file.good()) {
    std::fprintf(stderr, "bench_trajectory: failed writing %s\n",
                 kTrajectoryFile);
    return 1;
  }
  std::printf("bench_trajectory: appended %zu result file(s) at %s%s -> %s\n",
              results.size(), sha.c_str(), dirty ? " (dirty)" : "",
              kTrajectoryFile);
  return 0;
}
