// perfbench_driver: runs one repetition of one benchmark workload and
// prints one JSON document on stdout.
//
//   perfbench_driver --workload=NAME --seed=N [--sim-threads=N] [--traced]
//                    [--tiny] [--corrupt-expectation]
//
// Exit codes: 0 all checks passed, 1 a correctness check failed (wrong
// result, failed request, or VOP conservation violated), 2 bad usage,
// 4 refused build (Debug or sanitizer: its timings would mislead).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/driver/bench.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

std::string Pairs(const std::vector<std::pair<std::string, double>>& kv) {
  perfbench::Json j;
  for (const auto& [k, v] : kv) {
    j.Num(k, v);
  }
  return j.Dump();
}

bool Flag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (Flag(argv[i], "--workload", &v)) {
      opt.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (Flag(argv[i], "--sim-threads", &v)) {
      opt.sim_threads = std::max(1, std::atoi(v));
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      opt.traced = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      opt.tiny = true;
    } else if (std::strcmp(argv[i], "--corrupt-expectation") == 0) {
      opt.corrupt_expectation = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type == "Debug" || kAssertsOn || kSanitized) {
    std::fprintf(stderr,
                 "refusing to benchmark a %s build (asserts %s, sanitizer "
                 "%s): configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), kAssertsOn ? "on" : "off",
                 kSanitized ? "on" : "off");
    return 4;
  }

  perfbench::Report rep;
  if (!perfbench::RunWorkload(opt, &rep)) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  rep.host.emplace_back("cpu_s", cpu_s);
  rep.host.emplace_back("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  perfbench::Json meta;
  meta.Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  meta.Str("compiler", PERFBENCH_COMPILER);
  meta.Str("build_type", build_type);
  meta.Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  meta.Int("sim_threads", static_cast<uint64_t>(opt.sim_threads));

  perfbench::Json out;
  out.Str("workload", opt.workload);
  out.Int("seed", opt.seed);
  out.Str("mode", opt.traced ? "traced" : "plain");
  out.Raw("meta", meta.Dump());
  out.Raw("config", rep.config_json);
  out.Int("attempted", rep.attempted);
  out.Int("failed", rep.failed);
  out.Int("wrong", rep.wrong);
  out.Int("conservation_cells", rep.conservation_cells);
  out.Int("conservation_violations", rep.conservation_violations);
  out.Raw("virtual", Pairs(rep.virt));
  out.Raw("host", Pairs(rep.host));
  out.Raw("layer_virtual", Pairs(rep.layer_virt));
  out.Raw("layer_host", Pairs(rep.layer_host));
  out.Raw("series", rep.series_json);
  std::printf("%s\n", out.Dump().c_str());

  const bool ok = rep.failed == 0 && rep.wrong == 0 &&
                  rep.conservation_violations == 0;
  return ok ? 0 : 1;
}
