//===- bench/ablation_double_fault.cpp - The SEU assumption, probed -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The paper's guarantees are proven under the Single Event Upset model
// ("we will work under the standard assumption of a single upset event").
// This ablation shows the assumption is load-bearing: on the well-typed
// paired-store program we inject *pairs* of faults and classify outcomes.
//
//   - two faults in the SAME color: still always masked or detected — one
//     intact computation suffices for the cross-checks (the zap-tag
//     argument extends to any amount of same-color corruption);
//   - one fault in EACH color: correlated corruptions can now satisfy the
//     hardware comparisons with corrupt data, producing silent output
//     corruption — exactly what the formal model rules out by assuming a
//     single event.
//
// The pairs run as explicit injection plans on the campaign engine
// (fault/Campaign.h), so the sweep parallelizes: pass --threads N. The
// plans replay on the native JIT tier by default; --engine vm selects the
// decoded interpreter and --engine reference the structural one
// (identical tallies by construction). Plan campaigns never use the
// differential replay (earlier injections have already diverged the
// state from the reference), so every continuation runs concretely.
//
//===----------------------------------------------------------------------===//

#include "CliUtils.h"
#include "fault/Campaign.h"
#include "tal/Parser.h"
#include "vm/Engine.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

const char *Source = R"(
entry main
exit done
data { 256: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 5
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

/// Every (step1 <= step2, value, regA, regB) pair plan: corrupt A at step1
/// and B at step2 with the same correlated value.
std::vector<InjectionPlan> makePlans(uint64_t RefSteps,
                                     const std::vector<Reg> &First,
                                     const std::vector<Reg> &Second,
                                     const std::vector<int64_t> &Values) {
  std::vector<InjectionPlan> Plans;
  for (uint64_t S1 = 0; S1 <= RefSteps; ++S1)
    for (uint64_t S2 = S1; S2 <= RefSteps; ++S2)
      for (int64_t V : Values)
        for (Reg A : First)
          for (Reg B : Second)
            Plans.push_back({{S1, FaultSite::reg(A), V},
                             {S2, FaultSite::reg(B), V}});
  return Plans;
}

void report(const char *Label, const CampaignResult &R) {
  uint64_t Detected = R.Table[Verdict::Detected] +
                      R.Table[Verdict::DetectedBadPrefix];
  uint64_t Masked =
      R.Table[Verdict::Masked] + R.Table[Verdict::DissimilarState];
  uint64_t Other =
      R.Table[Verdict::Stuck] + R.Table[Verdict::BudgetExhausted];
  std::printf("%-28s %10llu %9llu %7llu %7llu %6llu\n", Label,
              (unsigned long long)R.Table.total(),
              (unsigned long long)Detected, (unsigned long long)Masked,
              (unsigned long long)R.Table[Verdict::SilentCorruption],
              (unsigned long long)Other);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Threads = 1;
  std::string Engine = vm::DefaultEngineName;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--threads") == 0) {
      uint64_t N;
      if (!cli::numArg(Argc, Argv, I, N)) {
        std::fprintf(stderr, "--threads needs a number\n");
        return 2;
      }
      Threads = (unsigned)N;
    } else if (std::strcmp(Argv[I], "--engine") == 0) {
      if (!cli::engineArg(Argc, Argv, I, Engine))
        return 2;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--threads N] "
                   "[--engine reference|vm|jit]\n",
                   Argv[I], Argv[0]);
      return 2;
    }
  }

  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> Prog = parseAndLayoutTalProgram(TC, Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  // A first, plan-free campaign run just resolves the reference length the
  // plan grid quantifies over.
  PlanCampaign Probe;
  Probe.Prog = &*Prog;
  CampaignOptions Opts;
  Opts.Threads = Threads;
  std::unique_ptr<ExecEngine> Eng =
      vm::createEngineByName(Engine, Prog->code());
  Opts.Engine = Eng.get();
  CampaignResult Ref = runInjectionPlans(Probe, Opts);
  if (!Ref.Ok) {
    std::fprintf(stderr, "reference run failed\n");
    return 1;
  }

  std::vector<Reg> GreenRegs = {Reg::general(1), Reg::general(2),
                                Reg::general(5)};
  std::vector<Reg> BlueRegs = {Reg::general(3), Reg::general(4),
                               Reg::general(6)};
  std::vector<int64_t> Values = {99, 260, 0};

  PlanCampaign Same = Probe;
  Same.Plans = makePlans(Ref.ReferenceSteps, GreenRegs, GreenRegs, Values);
  CampaignResult SameColor = runInjectionPlans(Same, Opts);

  PlanCampaign Cross = Probe;
  Cross.Plans = makePlans(Ref.ReferenceSteps, GreenRegs, BlueRegs, Values);
  CampaignResult CrossColor = runInjectionPlans(Cross, Opts);

  std::printf("Ablation D: double faults vs. the Single Event Upset model\n");
  std::printf("(paired-store program; correlated value pairs; 'silent' = "
              "completed with wrong output; %u thread%s; %s engine)\n\n",
              Threads, Threads == 1 ? "" : "s", Engine.c_str());
  std::printf("%-28s %10s %9s %7s %7s %6s\n", "fault pair", "injections",
              "detected", "masked", "silent", "other");
  std::printf("%.*s\n", 72,
              "------------------------------------------------------------"
              "------------");
  report("green + green (same color)", SameColor);
  report("green + blue (cross color)", CrossColor);
  std::printf("\nSame-color double faults never corrupt silently (one "
              "intact computation\nstill gates every observable action); "
              "cross-color pairs can — the single-\nevent assumption is "
              "essential, as the paper states.\n");
  // The experiment *expects* silent corruption in the cross-color row and
  // none in the same-color row.
  return (SameColor.Table[Verdict::SilentCorruption] == 0 &&
          CrossColor.Table[Verdict::SilentCorruption] > 0)
             ? 0
             : 1;
}
