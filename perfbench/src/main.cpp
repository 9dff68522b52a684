//===- perfbench/src/main.cpp - The end-to-end certification benchmark ----===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload fig10-prune|fig10-recover|serve-mix --seed N
//             --seconds S --trace 0|1 --golden FILE [--out-dir DIR]
//   perfbench --make-golden FILE
//
// Runs one workload for about S seconds and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Every verdict table is compared against the goldens; a mismatch or a
// table with no golden counts as a failed operation. With --out-dir the
// result (with its provenance) and, when traced, the spans are written
// there. --make-golden regenerates the goldens with the oracle
// configuration. Exit status: 0 when the run completed (even with failed
// operations, which the result reports), 2 on bad arguments or goldens
// that cannot be read.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "serve/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/utsname.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End && *End == '\0' && End != S;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig10-prune|fig10-recover|"
               "serve-mix --seed N --seconds S --trace 0|1 --golden FILE "
               "[--out-dir DIR]\n"
               "       perfbench --make-golden FILE\n");
  return 2;
}

#ifdef __clang__
const char *CompilerId = "clang " __clang_version__;
#else
const char *CompilerId = "gcc " __VERSION__;
#endif

std::string provenanceJson(const RunArgs &A, const Outcome &O) {
  utsname U{};
  uname(&U);
  return talft::formatv(
      "{\"host\": %s, \"os\": %s, \"machine\": %s, \"nproc\": %u, "
      "\"compiler\": %s, \"build_type\": %s, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %s, \"settings\": %s}",
      talft::serve::jsonQuote(U.nodename).c_str(),
      talft::serve::jsonQuote(std::string(U.sysname) + " " + U.release)
          .c_str(),
      talft::serve::jsonQuote(U.machine).c_str(),
      std::thread::hardware_concurrency(),
      talft::serve::jsonQuote(CompilerId).c_str(),
      talft::serve::jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
      talft::serve::jsonQuote(A.Workload).c_str(),
      (unsigned long long)A.Seed, jsonNumber(A.Seconds).c_str(),
      A.Trace ? "true" : "false", O.Settings.empty() ? "{}" : O.Settings.c_str());
}

std::string resultLine(const Outcome &O) {
  std::string S = talft::formatv(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      O.Failed == 0 && O.Attempted > 0 ? "true" : "false",
      (unsigned long long)std::max<uint64_t>(O.Attempted, 1),
      (unsigned long long)O.Failed);
  for (size_t I = 0; I != O.Metrics.size(); ++I)
    S += talft::formatv("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        I ? ", " : "", O.Metrics[I].Name.c_str(),
                        jsonNumber(O.Metrics[I].Value).c_str(),
                        O.Metrics[I].Unit.c_str());
  return S + "}}";
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  std::string Golden, MakeGolden;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    double N = 0;
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--golden")
      Golden = V;
    else if (Flag == "--out-dir")
      A.OutDir = V;
    else if (Flag == "--make-golden")
      MakeGolden = V;
    else if (Flag == "--seed" && parseNumber(V, N) && N >= 0)
      A.Seed = (uint64_t)N, HaveSeed = true;
    else if (Flag == "--seconds" && parseNumber(V, N) && N > 0)
      A.Seconds = N, HaveSeconds = true;
    else if (Flag == "--trace" && (std::strcmp(V, "0") == 0 ||
                                   std::strcmp(V, "1") == 0))
      A.Trace = V[0] == '1', HaveTrace = true;
    else
      return usage();
  }

  if (!MakeGolden.empty())
    return makeGoldens(MakeGolden) ? 0 : 1;

  if (!HaveSeed || !HaveSeconds || !HaveTrace || Golden.empty())
    return usage();
  GoldenTables G;
  std::string Err;
  if (!G.load(Golden, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }

  Outcome O;
  if (A.Workload == "fig10-prune")
    O = runSweep(A, G, /*Recover=*/false);
  else if (A.Workload == "fig10-recover")
    O = runSweep(A, G, /*Recover=*/true);
  else if (A.Workload == "serve-mix")
    O = runServeMix(A, G);
  else
    return usage();

  for (const std::string &F : O.Failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());
  std::fprintf(stderr, "perfbench: %s seed %llu: %llu operations, %llu "
                       "failed (error_rate %.6f)\n",
               A.Workload.c_str(), (unsigned long long)A.Seed,
               (unsigned long long)O.Attempted, (unsigned long long)O.Failed,
               O.Attempted ? double(O.Failed) / double(O.Attempted) : 1.0);
  for (const Metric &M : O.Metrics)
    std::fprintf(stderr, "  %-36s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());

  std::string Line = resultLine(O);
  if (!A.OutDir.empty()) {
    std::string Path = talft::formatv(
        "%s/result-%s-seed%llu-trace%d.json", A.OutDir.c_str(),
        A.Workload.c_str(), (unsigned long long)A.Seed, int(A.Trace));
    std::ofstream Out(Path);
    Out << "{\"provenance\": " << provenanceJson(A, O)
        << ", \"error_rate\": "
        << jsonNumber(O.Attempted ? double(O.Failed) / double(O.Attempted)
                                  : 1.0)
        << ", \"result\": " << Line << "}\n";
  }
  std::printf("provenance %s\n%s\n", provenanceJson(A, O).c_str(),
              Line.c_str());
  return 0;
}
