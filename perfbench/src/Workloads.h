//===- perfbench/src/Workloads.h - The three benchmark workloads ----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the trace and the result file go (inside the build tree).
  std::string OutDir;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  uint64_t Attempted = 0;
  /// Campaigns with a violation or a table that differs from (or is
  /// missing in) the goldens; submissions that errored, were refused or
  /// served such a table.
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  /// The end-to-end metrics (untraced) or the per-layer metrics (traced).
  std::vector<Metric> Metrics;
  /// The resolved library defaults the run used, as a JSON object.
  std::string Settings;

  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 16)
      Failures.push_back(std::move(Why));
  }
};

/// fig10-prune (Recover false) and fig10-recover (Recover true).
Outcome runSweep(const RunArgs &A, const GoldenTables &G, bool Recover);
/// serve-mix: closed-loop clients against an in-process server.
Outcome runServeMix(const RunArgs &A, const GoldenTables &G);

/// Regenerates every golden table the three workloads compare against,
/// with the oracle configuration (reference engine; converge, lanes and
/// prune off), and writes them to \p Path.
bool makeGoldens(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
