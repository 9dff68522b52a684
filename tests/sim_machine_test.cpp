//===- tests/sim_machine_test.cpp - Run driver tests ----------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "sim/Machine.h"
#include "tal/Parser.h"

#include <gtest/gtest.h>

using namespace talft;

namespace {

TEST(TracePrefixTest, Basics) {
  OutputTrace Empty;
  OutputTrace One = {{100, 1}};
  OutputTrace Two = {{100, 1}, {200, 2}};
  OutputTrace TwoOther = {{100, 1}, {200, 3}};
  EXPECT_TRUE(isTracePrefix(Empty, Two));
  EXPECT_TRUE(isTracePrefix(One, Two));
  EXPECT_TRUE(isTracePrefix(Two, Two));
  EXPECT_FALSE(isTracePrefix(Two, One));
  EXPECT_FALSE(isTracePrefix(TwoOther, Two));
}

TEST(RunTest, HaltsAtExitBlock) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P =
      parseAndLayoutTalProgram(TC, progs::PairedStore, Diags);
  ASSERT_TRUE(P) << P.message();
  Expected<MachineState> S = P->initialState();
  ASSERT_TRUE(S) << S.message();
  RunResult R = run(*S, P->exitAddress(), 100);
  EXPECT_EQ(R.Status, RunStatus::Halted);
  // 10 instructions in main, each a fetch + execute.
  EXPECT_EQ(R.Steps, 20u);
  EXPECT_TRUE(atExit(*S, P->exitAddress()));
}

TEST(RunTest, OutOfStepsWhenBudgetTooSmall) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P =
      parseAndLayoutTalProgram(TC, progs::PairedStore, Diags);
  ASSERT_TRUE(P) << P.message();
  Expected<MachineState> S = P->initialState();
  ASSERT_TRUE(S) << S.message();
  RunResult R = run(*S, P->exitAddress(), 3);
  EXPECT_EQ(R.Status, RunStatus::OutOfSteps);
  EXPECT_EQ(R.Steps, 3u);
}

TEST(RunTest, ZeroExitAddressDisablesHaltDetection) {
  TypeContext TC;
  DiagnosticEngine Diags;
  Expected<Program> P =
      parseAndLayoutTalProgram(TC, progs::PairedStore, Diags);
  ASSERT_TRUE(P) << P.message();
  Expected<MachineState> S = P->initialState();
  ASSERT_TRUE(S) << S.message();
  // Without halt detection, the exit self-loop spins until the budget runs
  // out — but never faults or gets stuck.
  RunResult R = run(*S, 0, 200);
  EXPECT_EQ(R.Status, RunStatus::OutOfSteps);
}

TEST(RunStatusTest, Names) {
  EXPECT_STREQ(runStatusName(RunStatus::Halted), "halted");
  EXPECT_STREQ(runStatusName(RunStatus::FaultDetected), "fault-detected");
  EXPECT_STREQ(runStatusName(RunStatus::Stuck), "stuck");
  EXPECT_STREQ(runStatusName(RunStatus::OutOfSteps), "out-of-steps");
}

} // namespace
