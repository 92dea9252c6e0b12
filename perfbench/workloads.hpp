// workloads.hpp — the three benchmark workloads. Each fills a Report with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run); per-layer metrics a workload does not exercise are left out and
// reported as 0 by run.py.
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Closed batch: prepare the 14 Table-1 traces, run the 28 SRM + CESRM
/// jobs on `threads` workers, compute every figure.
void run_paper_sweep(const Options& opts, Report& report);

/// CESRM at 10^5 receivers in 100-member blocks over `threads` shards.
void run_scale_population(const Options& opts, Report& report);

/// Open loop: a loopback UDP group (a source and 4 receivers) per protocol
/// at a fixed rate.
void run_netio_loopback(const Options& opts, Report& report);

}  // namespace perfbench
