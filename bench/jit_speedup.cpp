//===- bench/jit_speedup.cpp - Native JIT tier payoff ---------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the native x86-64 tier (vm/JitEngine.h) buys on the hot
// path the campaigns actually pay for: the fault-free reference run of
// every Figure 10 kernel is timed on the vm interpreter and on the JIT,
// and the harness reports steps per second for both. Because the JIT is
// only admissible if it is observationally bit-identical, each kernel is
// also swept once per engine on the Theorem 4 single-fault campaign and
// the verdict tables, violation lists and reference step counts are
// compared — any divergence fails the run.
//
//   jit_speedup [--threads N] [--no-prune] [--min-seconds S] [--json [FILE]]
//
//   --threads N      worker threads for the campaign cross-check
//                    (default 1; 0 = hardware concurrency).
//   --no-prune       keep statically-dead sites in the campaign sweep.
//   --min-seconds S  minimum measured wall time per engine per kernel
//                    (default 0.05; reps are derived from a vm warmup).
//   --json [FILE]    emit a machine-readable report (schema talft-bench-v1;
//                    the nightly workflow uploads it as BENCH_jit.json) to
//                    FILE (written atomically) or stdout, with the human
//                    table on stderr.
//
// On non-x86-64 hosts (or under a hardened W^X policy refusing PROT_EXEC)
// the JIT engine delegates to the vm interpreter; the report then carries
// "native": false and a ~1x speedup instead of failing, mirroring the
// campaign JSON fallback contract.
//
// Exit status is nonzero if any kernel's reference run or campaign
// diverged between the engines.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "fault/Campaign.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

struct Cli {
  unsigned Threads = 1;
  bool Prune = true;
  double MinSeconds = 0.05;
  bool Json = false;
  std::string JsonPath;
};

bool parseCli(int Argc, char **Argv, Cli &C) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--threads") == 0) {
      uint64_t N;
      if (!cli::numArg(Argc, Argv, I, N))
        return false;
      C.Threads = (unsigned)N;
    } else if (std::strcmp(A, "--no-prune") == 0) {
      C.Prune = false;
    } else if (std::strcmp(A, "--min-seconds") == 0) {
      if (I + 1 >= Argc)
        return false;
      C.MinSeconds = std::atof(Argv[++I]);
      if (C.MinSeconds <= 0)
        return false;
    } else if (std::strcmp(A, "--json") == 0) {
      C.Json = true;
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        C.JsonPath = Argv[++I];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", A);
      return false;
    }
  }
  return true;
}

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct KernelRow {
  std::string Name;
  std::string Suite;
  uint64_t RefSteps = 0;
  uint64_t Stride = 1;
  uint64_t Injections = 0;
  uint64_t Reps = 1;
  double VmSeconds = 0;
  double JitSeconds = 0;
  bool Identical = false;
};

/// Times \p Reps cold reference runs (fresh initial state each rep, the
/// shape every campaign task pays) and returns total wall seconds.
double timeRuns(const ExecEngine &E, const Program &Prog,
                const MachineState &S0, uint64_t Reps) {
  TheoremConfig Probe;
  Clock::time_point T0 = Clock::now();
  for (uint64_t I = 0; I != Reps; ++I) {
    MachineState S = S0;
    RunResult RR = E.run(S, Prog.exitAddress(), Probe.MaxSteps, Probe.Policy);
    if (RR.Status != RunStatus::Halted)
      return -1;
  }
  return secondsSince(T0);
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--no-prune] [--min-seconds S] "
                 "[--json [FILE]]\n",
                 Argv[0]);
    return 2;
  }
  FILE *Out = (C.Json && C.JsonPath.empty()) ? stderr : stdout;

  bool Native = false;
  uint64_t BlocksTotal = 0, BytesTotal = 0, ExitsTotal = 0;

  std::fprintf(Out, "Native JIT tier speedup on the Figure 10 kernels\n");
  std::fprintf(Out,
               "(fault-free reference runs, fresh state per rep; identical = "
               "campaign verdict table,\nviolations and reference steps match "
               "the vm engine bit-for-bit; %u thread%s, %s sites)\n\n",
               C.Threads, C.Threads == 1 ? "" : "s",
               C.Prune ? "pruned" : "all");
  std::fprintf(Out, "%-12s %8s %6s %11s %11s %8s %7s %6s %10s\n", "kernel",
               "steps", "reps", "vm steps/s", "jit steps/s", "speedup",
               "blocks", "bytes", "identical");
  std::fprintf(Out, "%.*s\n", 88,
               "------------------------------------------------------------"
               "-----------------------------------");

  std::vector<KernelRow> Rows;
  bool AllIdentical = true;
  double VmTotal = 0, JitTotal = 0;
  uint64_t StepsTotal = 0;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    if (!CP) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), CP.message().c_str());
      return 1;
    }
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(CP->Prog.code());
    std::unique_ptr<ExecEngine> Jit = vm::createJitEngine(CP->Prog.code());
    const auto &JE = static_cast<const vm::JitEngine &>(*Jit);
    Native = JE.native();
    BlocksTotal += JE.blocksCompiled();
    BytesTotal += JE.codeBytes();

    Expected<MachineState> S0 = CP->Prog.initialState();
    if (Error Err = S0.takeError()) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), Err.message().c_str());
      return 1;
    }

    // Reference runs must agree on status and step count before any
    // timing is worth reporting.
    TheoremConfig Probe;
    MachineState SV = *S0, SJ = *S0;
    RunResult RV =
        Vm->run(SV, CP->Prog.exitAddress(), Probe.MaxSteps, Probe.Policy);
    RunResult RJ =
        Jit->run(SJ, CP->Prog.exitAddress(), Probe.MaxSteps, Probe.Policy);
    if (RV.Status != RunStatus::Halted || RJ.Status != RV.Status ||
        RJ.Steps != RV.Steps) {
      std::fprintf(stderr, "%s: reference run diverged (vm %s/%llu, jit "
                           "%s/%llu)\n",
                   K.Name.c_str(), runStatusName(RV.Status),
                   (unsigned long long)RV.Steps, runStatusName(RJ.Status),
                   (unsigned long long)RJ.Steps);
      return 1;
    }

    KernelRow Row;
    Row.Name = K.Name;
    Row.Suite = K.Suite;
    Row.RefSteps = RV.Steps;

    // Reps from a vm warmup so both engines are measured over at least
    // --min-seconds of wall time.
    double Warmup = timeRuns(*Vm, CP->Prog, *S0, 1);
    Row.Reps = Warmup > 0
                   ? (uint64_t)std::ceil(C.MinSeconds / Warmup)
                   : (uint64_t)(C.MinSeconds * 1e6);
    if (Row.Reps == 0)
      Row.Reps = 1;
    Row.VmSeconds = timeRuns(*Vm, CP->Prog, *S0, Row.Reps);
    Row.JitSeconds = timeRuns(*Jit, CP->Prog, *S0, Row.Reps);
    if (Row.VmSeconds < 0 || Row.JitSeconds < 0) {
      std::fprintf(stderr, "%s: timed run did not halt\n", K.Name.c_str());
      return 1;
    }

    // Campaign cross-check: same adaptive stride rule as fault_coverage
    // --fig10 (derived from the engine-independent reference length).
    Row.Stride = std::max<uint64_t>(1, RV.Steps / 12);
    TheoremConfig Config;
    Config.InjectionStride = Row.Stride;
    CampaignOptions Opts;
    Opts.Threads = C.Threads;
    Opts.Prune = C.Prune;
    Opts.Engine = Vm.get();
    CampaignResult OnVm = runSingleFaultCampaign(CP->Prog, Config, Opts);
    Opts.Engine = Jit.get();
    CampaignResult OnJit = runSingleFaultCampaign(CP->Prog, Config, Opts);
    ExitsTotal += OnJit.Stats.JitSideExits;
    Row.Injections = OnVm.Table.total();
    Row.Identical = OnVm.Table == OnJit.Table &&
                    OnVm.Violations == OnJit.Violations &&
                    OnVm.ReferenceSteps == OnJit.ReferenceSteps &&
                    OnVm.Ok == OnJit.Ok;
    AllIdentical &= Row.Identical;

    VmTotal += Row.VmSeconds;
    JitTotal += Row.JitSeconds;
    StepsTotal += Row.RefSteps * Row.Reps;
    double VmRate =
        Row.VmSeconds > 0 ? (double)(Row.RefSteps * Row.Reps) / Row.VmSeconds
                          : 0;
    double JitRate =
        Row.JitSeconds > 0 ? (double)(Row.RefSteps * Row.Reps) / Row.JitSeconds
                           : 0;
    std::fprintf(Out, "%-12s %8llu %6llu %11.0f %11.0f %7.2fx %7llu %6llu "
                      "%10s\n",
                 Row.Name.c_str(), (unsigned long long)Row.RefSteps,
                 (unsigned long long)Row.Reps, VmRate, JitRate,
                 Row.JitSeconds > 0 ? Row.VmSeconds / Row.JitSeconds : 0.0,
                 (unsigned long long)JE.blocksCompiled(),
                 (unsigned long long)JE.codeBytes(),
                 Row.Identical ? "yes" : "NO");
    Rows.push_back(std::move(Row));
  }

  double Overall = JitTotal > 0 ? VmTotal / JitTotal : 0.0;
  std::fprintf(Out, "%.*s\n", 88,
               "------------------------------------------------------------"
               "-----------------------------------");
  std::fprintf(Out, "%-12s %8s %6s %11.0f %11.0f %7.2fx\n", "total", "", "",
               VmTotal > 0 ? (double)StepsTotal / VmTotal : 0.0,
               JitTotal > 0 ? (double)StepsTotal / JitTotal : 0.0, Overall);
  std::fprintf(Out, "\njit tier: native=%s\n",
               Native ? "yes" : "no (vm fallback)");
  std::fprintf(Out, "%s\n",
               AllIdentical
                   ? "All JIT campaign verdict tables are bit-identical to "
                     "the vm baselines."
                   : "MISMATCH: a JIT campaign diverged from its vm "
                     "baseline.");

  if (C.Json) {
    std::string S = "{\n";
    S += "  \"schema\": \"talft-bench-v1\",\n";
    S += "  \"benchmark\": \"jit_speedup\",\n";
    S += "  \"unit\": \"steps_per_second\",\n";
    S += "  \"engine\": \"jit\",\n";
    S += "  \"baseline_engine\": \"vm\",\n";
    S += "  \"threads\": " + std::to_string(C.Threads) + ",\n";
    S += "  \"prune\": " + std::string(C.Prune ? "true" : "false") + ",\n";
    S += "  \"native\": " + std::string(Native ? "true" : "false") + ",\n";
    S += "  \"tables_identical\": " +
         std::string(AllIdentical ? "true" : "false") + ",\n";
    S += "  \"kernels\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const KernelRow &R = Rows[I];
      double VmRate =
          R.VmSeconds > 0 ? (double)(R.RefSteps * R.Reps) / R.VmSeconds : 0;
      double JitRate =
          R.JitSeconds > 0 ? (double)(R.RefSteps * R.Reps) / R.JitSeconds : 0;
      char Buf[640];
      std::snprintf(
          Buf, sizeof(Buf),
          "    {\"name\": \"%s\", \"suite\": \"%s\", \"ref_steps\": %llu, "
          "\"reps\": %llu, \"stride\": %llu, \"injections\": %llu, "
          "\"vm_seconds\": %.6f, \"jit_seconds\": %.6f, "
          "\"vm_steps_per_second\": %.0f, \"jit_steps_per_second\": %.0f, "
          "\"speedup\": %.2f, \"tables_identical\": %s}%s\n",
          R.Name.c_str(), R.Suite.c_str(), (unsigned long long)R.RefSteps,
          (unsigned long long)R.Reps, (unsigned long long)R.Stride,
          (unsigned long long)R.Injections, R.VmSeconds, R.JitSeconds, VmRate,
          JitRate, R.JitSeconds > 0 ? R.VmSeconds / R.JitSeconds : 0.0,
          R.Identical ? "true" : "false", I + 1 != Rows.size() ? "," : "");
      S += Buf;
    }
    S += "  ],\n";
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"totals\": {\"vm_seconds\": %.6f, \"jit_seconds\": %.6f, "
                  "\"vm_steps_per_second\": %.0f, "
                  "\"jit_steps_per_second\": %.0f, \"speedup\": %.2f, "
                  "\"blocks_compiled\": %llu, \"code_bytes\": %llu, "
                  "\"side_exits\": %llu}\n",
                  VmTotal, JitTotal,
                  VmTotal > 0 ? (double)StepsTotal / VmTotal : 0.0,
                  JitTotal > 0 ? (double)StepsTotal / JitTotal : 0.0, Overall,
                  (unsigned long long)BlocksTotal,
                  (unsigned long long)BytesTotal,
                  (unsigned long long)ExitsTotal);
    S += Buf;
    S += "}\n";
    if (C.JsonPath.empty()) {
      std::fputs(S.c_str(), stdout);
    } else {
      if (!cli::writeFileAtomic(C.JsonPath, S)) {
        std::fprintf(stderr, "cannot write %s\n", C.JsonPath.c_str());
        return 2;
      }
      std::fprintf(Out, "JSON report written to %s\n", C.JsonPath.c_str());
    }
  }
  return AllIdentical ? 0 : 1;
}
