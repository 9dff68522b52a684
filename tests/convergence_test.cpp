//===- tests/convergence_test.cpp - Differential replay fold oracle -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// The campaign's differential replay (CampaignOptions::Converge) is only
// allowed to change wall-clock time, never a verdict. This suite pins the
// load-bearing contract: whole campaigns fold bit-identically with and
// without the replay, across engines, thread counts, resume modes and
// pruning.
//
//===----------------------------------------------------------------------===//

#include "check/ProgramChecker.h"
#include "fault/Campaign.h"
#include "tal/Parser.h"
#include "vm/Engine.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace talft;

namespace {

struct NamedProgram {
  const char *Name;
  const char *Source;
  /// False for programs the checker rejects (they still run raw).
  bool WellTyped;
};

const std::vector<NamedProgram> &allPrograms() {
  static const std::vector<NamedProgram> Programs = {
      {"PairedStore", progs::PairedStore, true},
      {"CseBroken", progs::CseBroken, false},
      {"IndirectJump", progs::IndirectJump, true},
      {"CountdownLoop", progs::CountdownLoop, true},
      {"QueueForwarding", progs::QueueForwarding, true},
      {"PendingStoreAcrossJump", progs::PendingStoreAcrossJump, true},
  };
  return Programs;
}

Program parseOrDie(TypeContext &TC, const NamedProgram &NP) {
  DiagnosticEngine Diags;
  Expected<Program> P = parseAndLayoutTalProgram(TC, NP.Source, Diags);
  EXPECT_TRUE(bool(P)) << NP.Name << ": " << Diags.str();
  return std::move(*P);
}

// Replayed campaigns fold bit-identically to unreplayed ones — same
// verdict table, violations, reference run and Ok — across engines (the
// default jit among them), thread counts and resume modes
// (runSingleFaultCampaign covers raw-semantics programs including the
// ill-typed one).
TEST(ReplayFold, SingleFaultCampaignsBitIdentical) {
  uint64_t TotalDischarged = 0;
  for (const NamedProgram &NP : allPrograms()) {
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    std::unique_ptr<ExecEngine> Jit =
        vm::createEngineByName(vm::DefaultEngineName, P.code());
    TheoremConfig Config;
    Config.InjectionStride = 2; // keep the exhaustive sweep unit-sized

    CampaignOptions Base;
    Base.Converge = false;
    CampaignResult Baseline = runSingleFaultCampaign(P, Config, Base);
    EXPECT_FALSE(Baseline.Stats.Converge) << NP.Name;

    struct Combo {
      const ExecEngine *E;
      unsigned Threads;
      ResumeMode Resume;
    };
    const Combo Combos[] = {
        {nullptr, 1, ResumeMode::Snapshot},
        {nullptr, 8, ResumeMode::Replay},
        {Vm.get(), 1, ResumeMode::Replay},
        {Vm.get(), 8, ResumeMode::Snapshot},
        {Jit.get(), 1, ResumeMode::Snapshot},
        {Jit.get(), 8, ResumeMode::Replay},
    };
    for (const Combo &C : Combos) {
      CampaignOptions Opts;
      Opts.Converge = true;
      Opts.Engine = C.E;
      Opts.Threads = C.Threads;
      Opts.Resume = C.Resume;
      CampaignResult R = runSingleFaultCampaign(P, Config, Opts);
      std::string At = std::string(NP.Name) + " engine=" +
                       R.Stats.Engine + " threads=" +
                       std::to_string(C.Threads);
      EXPECT_EQ(R.Ok, Baseline.Ok) << At;
      EXPECT_EQ(R.ReferenceSteps, Baseline.ReferenceSteps) << At;
      EXPECT_EQ(R.ReferenceTrace, Baseline.ReferenceTrace) << At;
      EXPECT_EQ(R.Table, Baseline.Table) << At;
      EXPECT_EQ(R.Violations, Baseline.Violations) << At;
      EXPECT_TRUE(R.Stats.Converge) << At;
      TotalDischarged += R.Stats.LockstepSkips;
    }
  }
  // The replay actually engaged somewhere in the sweep.
  EXPECT_GT(TotalDischarged, 0u);
}

// Same fold oracle for the typed-program entry point, plus pruning: a
// pruned replayed campaign must equal a pruned unreplayed one (the
// Masked/StaticallyMasked split depends on pruning, so the baselines
// pair up by Prune flag). Both entry points share one sweep driver, so
// the raw-semantics campaign on the same well-typed program must match
// the checked one field for field, strategy counters included.
TEST(ReplayFold, FaultToleranceAndPrunedCampaignsBitIdentical) {
  for (const NamedProgram &NP : allPrograms()) {
    if (!NP.WellTyped)
      continue;
    TypeContext TC;
    Program P = parseOrDie(TC, NP);
    DiagnosticEngine Diags;
    Expected<CheckedProgram> CP = checkProgram(TC, P, Diags);
    ASSERT_TRUE(bool(CP)) << NP.Name << ": " << Diags.str();
    std::unique_ptr<ExecEngine> Vm = vm::createEngine(P.code());
    std::unique_ptr<ExecEngine> Jit =
        vm::createEngineByName(vm::DefaultEngineName, P.code());
    TheoremConfig Config;
    Config.InjectionStride = 2;

    for (bool Prune : {false, true}) {
      CampaignOptions Base;
      Base.Converge = false;
      Base.Prune = Prune;
      CampaignResult Baseline =
          runFaultToleranceCampaign(TC, *CP, Config, Base);
      EXPECT_NE(Baseline.ProgramHash, 0u) << NP.Name;

      for (const ExecEngine *E : {Vm.get(), Jit.get()}) {
        CampaignOptions Opts;
        Opts.Converge = true;
        Opts.Prune = Prune;
        Opts.CfiCheck = true;
        Opts.Engine = E;
        Opts.Threads = 8;
        CampaignResult R = runFaultToleranceCampaign(TC, *CP, Config, Opts);

        std::string At = std::string(NP.Name) +
                         (Prune ? "/pruned" : "/unpruned") + " engine=" +
                         E->name();
        EXPECT_EQ(R.Ok, Baseline.Ok) << At;
        EXPECT_EQ(R.ReferenceSteps, Baseline.ReferenceSteps) << At;
        EXPECT_EQ(R.ReferenceTrace, Baseline.ReferenceTrace) << At;
        EXPECT_EQ(R.Table, Baseline.Table) << At;
        EXPECT_EQ(R.Violations, Baseline.Violations) << At;
        EXPECT_EQ(R.ProgramHash, Baseline.ProgramHash) << At;
        EXPECT_TRUE(R.Ok) << At;
        EXPECT_EQ(R.Stats.CfiViolations, 0u) << At;

        CampaignResult Raw = runSingleFaultCampaign(P, Config, Opts);
        EXPECT_EQ(Raw.Ok, R.Ok) << At;
        EXPECT_EQ(Raw.ReferenceSteps, R.ReferenceSteps) << At;
        EXPECT_EQ(Raw.ReferenceTrace, R.ReferenceTrace) << At;
        EXPECT_EQ(Raw.Table, R.Table) << At;
        EXPECT_EQ(Raw.Violations, R.Violations) << At;
        EXPECT_EQ(Raw.ProgramHash, R.ProgramHash) << At;
        EXPECT_EQ(Raw.Stats.LockstepSkips, R.Stats.LockstepSkips) << At;
        EXPECT_EQ(Raw.Stats.LockstepSteps, R.Stats.LockstepSteps) << At;
        EXPECT_EQ(Raw.Stats.CfiCommits, R.Stats.CfiCommits) << At;
      }
    }
  }
}

} // namespace
