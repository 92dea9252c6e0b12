// perfbench — one benchmark invocation: one workload, one seed, one time
// budget, traced or not. Prints detail lines prefixed with '#', then the
// result as one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload paper_sweep|scale_population|netio_loopback
//             [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//             [--spans-out FILE]
//
// Exit status 0 whenever the workload ran to the end (failed operations
// are counted in the result, not in the status); 1 when it aborted outside
// any operation; 2 on bad arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper_sweep|scale_population|"
               "netio_loopback [--seed N] [--seconds S] [--trace 0|1] "
               "[--threads N] [--spans-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opts.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else if (flag == "--threads") {
      opts.threads = static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0')
      return usage(("bad value for " + flag + ": " + value).c_str());
  }
  if (opts.threads == 0 || !(opts.seconds > 0))
    return usage("--threads and --seconds must be positive");

  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (opts.workload == "paper_sweep") {
    run = perfbench::run_paper_sweep;
  } else if (opts.workload == "scale_population") {
    run = perfbench::run_scale_population;
  } else if (opts.workload == "netio_loopback") {
    run = perfbench::run_netio_loopback;
  } else {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  perfbench::Report report;
  const double t0 = perfbench::now_s();
  try {
    run(opts, report);
  } catch (const std::exception& e) {
    // Outside any operation (trace preparation, say): nothing was measured.
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }

  std::cout << "# perfbench " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace
            << " threads=" << opts.threads << '\n'
            << "# host " << perfbench::host_description() << '\n';
  for (const auto& line : report.lines) std::cout << "# " << line << '\n';
  std::cout << "# operations attempted=" << report.attempted
            << " failed=" << report.failed
            << " correct=" << (report.correct ? "true" : "false")
            << " wall_s=" << perfbench::fmt_num(perfbench::now_s() - t0)
            << '\n';
  for (const auto& [name, vu] : report.metrics)
    std::cout << "# metric " << name << " = " << perfbench::fmt_num(vu.first)
              << ' ' << vu.second << '\n';
  std::cout << report.json() << std::endl;
  return 0;
}
