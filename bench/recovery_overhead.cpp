//===- bench/recovery_overhead.cpp - Checkpoint-interval cost curve -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The recovery layer (recover/RecoveringEngine.h) buys fail-operational
// execution with checkpoint copies at verified commit points. This
// harness measures what that costs when nothing goes wrong: each Figure
// 10 kernel runs fault-free on a bare engine and then under the recovery
// layer at several checkpoint intervals, and the table reports the
// overhead ratio per interval. Along the way it asserts the layer is
// observationally transparent — the recovering run must emit the exact
// output trace and step count of the bare run, or the harness fails.
//
//   recovery_overhead [--engine reference|vm|jit] [--intervals CSV]
//                     [--repeat N] [--json [FILE]]
//
//   --intervals CSV checkpoint intervals to measure (default 1,4,16,64).
//   --repeat N      timing repetitions; the fastest is reported
//                   (default 3).
//   --json [FILE]   machine-readable report (schema talft-bench-v1),
//                   written atomically when FILE is given.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "recover/RecoveringEngine.h"
#include "vm/Engine.h"
#include "wile/Codegen.h"
#include "wile/Kernels.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

using Clock = std::chrono::steady_clock;

struct Cli {
  std::string Engine = vm::DefaultEngineName;
  std::vector<uint64_t> Intervals = {1, 4, 16, 64};
  uint64_t Repeat = 3;
  bool Json = false;
  std::string JsonPath;
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine reference|vm|jit] [--intervals CSV] "
               "[--repeat N] [--json [FILE]]\n",
               Argv0);
}

bool parseCli(int Argc, char **Argv, Cli &C) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--engine") == 0) {
      if (!cli::engineArg(Argc, Argv, I, C.Engine))
        return false;
    } else if (std::strcmp(A, "--intervals") == 0) {
      if (I + 1 >= Argc || !cli::parseU64List(Argv[++I], C.Intervals))
        return false;
      for (uint64_t N : C.Intervals)
        if (N == 0)
          return false;
    } else if (std::strcmp(A, "--repeat") == 0) {
      if (!cli::numArg(Argc, Argv, I, C.Repeat) || C.Repeat == 0)
        return false;
    } else if (std::strcmp(A, "--json") == 0) {
      C.Json = true;
      if (I + 1 < Argc && Argv[I + 1][0] != '-')
        C.JsonPath = Argv[++I];
    } else if (std::strcmp(A, "--help") == 0) {
      usage(Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", A);
      return false;
    }
  }
  return true;
}

constexpr uint64_t MaxSteps = 200000;

struct IntervalRun {
  uint64_t Interval = 0;
  double Seconds = 0;
  uint64_t Checkpoints = 0;
  double Overhead = 0; // Seconds / bare Seconds
};

struct KernelRow {
  std::string Name;
  uint64_t Steps = 0;
  uint64_t Outputs = 0;
  double BareSeconds = 0;
  std::vector<IntervalRun> Runs;
};

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

} // namespace

int main(int Argc, char **Argv) {
  Cli C;
  if (!parseCli(Argc, Argv, C)) {
    usage(Argv[0]);
    return 2;
  }
  FILE *Out = (C.Json && C.JsonPath.empty()) ? stderr : stdout;

  std::fprintf(Out, "Fault-free cost of the checkpoint/rollback layer\n");
  std::fprintf(Out, "(overhead = recovering wall / bare wall, best of %llu; "
                    "%s engine)\n\n",
               (unsigned long long)C.Repeat, C.Engine.c_str());
  std::fprintf(Out, "%-14s %8s %8s", "kernel", "steps", "bare");
  for (uint64_t I : C.Intervals)
    std::fprintf(Out, "   ival=%-4llu", (unsigned long long)I);
  std::fprintf(Out, "\n");

  std::vector<KernelRow> Rows;
  bool Ok = true;
  for (const wile::Kernel &K : wile::benchmarkKernels()) {
    TypeContext TC;
    DiagnosticEngine Diags;
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        TC, K.Source.c_str(), wile::CodegenMode::FaultTolerant, Diags);
    if (!CP) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), CP.message().c_str());
      Ok = false;
      continue;
    }
    std::unique_ptr<ExecEngine> Eng =
        vm::createEngineByName(C.Engine, CP->Prog.code());
    const ExecEngine *E = Eng ? Eng.get() : &referenceEngine();
    Expected<MachineState> S0 = CP->Prog.initialState();
    if (Error Err = S0.takeError()) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(), Err.message().c_str());
      Ok = false;
      continue;
    }
    Addr ExitAddr = CP->Prog.exitAddress();

    KernelRow Row;
    Row.Name = K.Name;
    RunResult Bare;
    Row.BareSeconds = 1e300;
    for (uint64_t Rep = 0; Rep != C.Repeat; ++Rep) {
      MachineState S = *S0;
      Clock::time_point T0 = Clock::now();
      Bare = E->run(S, ExitAddr, MaxSteps, StepPolicy());
      Row.BareSeconds = std::min(Row.BareSeconds, secondsSince(T0));
    }
    if (Bare.Status != RunStatus::Halted) {
      std::fprintf(stderr, "%s: bare run did not halt (%s)\n", K.Name.c_str(),
                   runStatusName(Bare.Status));
      Ok = false;
      continue;
    }
    Row.Steps = Bare.Steps;
    Row.Outputs = Bare.Trace.size();

    for (uint64_t Interval : C.Intervals) {
      RecoveryPolicy RP;
      RP.Enabled = true;
      RP.CheckpointInterval = Interval;
      RecoveringEngine RE(*E, RP);
      IntervalRun IR;
      IR.Interval = Interval;
      IR.Seconds = 1e300;
      RecoveryResult RR;
      OutputTrace Trace;
      for (uint64_t Rep = 0; Rep != C.Repeat; ++Rep) {
        MachineState S = *S0;
        Trace.clear();
        RecoveringEngine::RunSpec Spec;
        Spec.ExitAddr = ExitAddr;
        Spec.Budget = MaxSteps;
        Spec.OnOutput = [&Trace](const QueueEntry &Q) { Trace.push_back(Q); };
        Clock::time_point T0 = Clock::now();
        RR = RE.run(S, Spec);
        IR.Seconds = std::min(IR.Seconds, secondsSince(T0));
      }
      // Transparency check: fault-free recovery must be observationally
      // invisible.
      if (RR.Status != RecoveryStatus::Halted || RR.Steps != Bare.Steps ||
          !(Trace == Bare.Trace) || RR.Stats.Rollbacks != 0) {
        std::fprintf(stderr,
                     "%s: recovering run diverged from bare run "
                     "(status %s, %llu steps, %zu outputs)\n",
                     K.Name.c_str(), recoveryStatusName(RR.Status),
                     (unsigned long long)RR.Steps, Trace.size());
        Ok = false;
      }
      IR.Checkpoints = RR.Stats.Checkpoints;
      IR.Overhead = Row.BareSeconds > 0 ? IR.Seconds / Row.BareSeconds : 0;
      Row.Runs.push_back(IR);
    }

    std::fprintf(Out, "%-14s %8llu %7.3fs", Row.Name.c_str(),
                 (unsigned long long)Row.Steps, Row.BareSeconds);
    for (const IntervalRun &IR : Row.Runs)
      std::fprintf(Out, "   %6.2fx  ", IR.Overhead);
    std::fprintf(Out, "\n");
    Rows.push_back(std::move(Row));
  }

  if (C.Json) {
    std::string S = "{\n";
    S += "  \"schema\": \"talft-bench-v1\",\n";
    S += "  \"benchmark\": \"recovery_overhead\",\n";
    S += "  \"engine\": \"" + C.Engine + "\",\n";
    S += "  \"ok\": " + std::string(Ok ? "true" : "false") + ",\n";
    S += "  \"kernels\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const KernelRow &Row = Rows[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"name\": \"%s\", \"steps\": %llu, "
                    "\"outputs\": %llu, \"bare_seconds\": %.6f, \"runs\": [",
                    Row.Name.c_str(), (unsigned long long)Row.Steps,
                    (unsigned long long)Row.Outputs, Row.BareSeconds);
      S += Buf;
      for (size_t J = 0; J != Row.Runs.size(); ++J) {
        const IntervalRun &IR = Row.Runs[J];
        std::snprintf(Buf, sizeof(Buf),
                      "%s{\"interval\": %llu, \"seconds\": %.6f, "
                      "\"checkpoints\": %llu, \"overhead\": %.3f}",
                      J ? ", " : "", (unsigned long long)IR.Interval,
                      IR.Seconds, (unsigned long long)IR.Checkpoints,
                      IR.Overhead);
        S += Buf;
      }
      S += "]}";
      S += I + 1 != Rows.size() ? ",\n" : "\n";
    }
    S += "  ]\n}\n";
    if (C.JsonPath.empty()) {
      std::fputs(S.c_str(), stdout);
    } else if (!cli::writeFileAtomic(C.JsonPath, S)) {
      std::fprintf(stderr, "cannot write %s\n", C.JsonPath.c_str());
      return 2;
    } else {
      std::fprintf(Out, "JSON report written to %s\n", C.JsonPath.c_str());
    }
  }
  return Ok ? 0 : 1;
}
