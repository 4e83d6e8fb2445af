// netclus_perf — the benchmark-of-record harness.
//
//   netclus_perf --workload adhoc-cold|serve-live --seed N --seconds S
//                --trace 0|1 --work-dir DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is the result object; `record:` lines carry the
// op digest and exact counters the determinism self-test compares.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

extern char** environ;

namespace {

/// The environment knobs the program reads, pinned to their documented
/// defaults. Every other NETCLUS_* variable is cleared; the page budget
/// stays unset (unlimited) except where serve-live sets it for its load,
/// and the scheduler pool size resolves from the hardware.
const std::pair<const char*, const char*> kPinnedEnv[] = {
    {"NETCLUS_SIMD", "auto"},       {"NETCLUS_SPF", "dijkstra"},
    {"NETCLUS_THREADS", "1"},       {"NETCLUS_COVER_CACHE", "1"},
    {"NETCLUS_CARRYOVER", "1"},     {"NETCLUS_INDEX_MMAP", "1"},
    {"NETCLUS_TRACE_SAMPLE", "0.01"}, {"NETCLUS_LOG", "warning"},
};

void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("NETCLUS_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  for (const auto& [name, value] : kPinnedEnv) setenv(name, value, 1);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "netclus_perf: %s\nusage: netclus_perf --workload "
               "adhoc-cold|serve-live --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  netclus::perf::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (args.workload != "adhoc-cold" && args.workload != "serve-live") {
    return Usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  PinEnvironment();
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  netclus::perf::PrintResolvedConfig();
  netclus::perf::Report report;
  if (args.workload == "adhoc-cold") {
    netclus::perf::RunAdhocCold(args, &report);
  } else {
    netclus::perf::RunServeLive(args, &report);
  }
  report.Print(args.workload);
  return report.correct() ? 0 : 1;
}
