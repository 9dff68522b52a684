//===- sim/Machine.cpp ----------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "support/Unreachable.h"

using namespace talft;

const char *talft::runStatusName(RunStatus St) {
  switch (St) {
  case RunStatus::Halted:
    return "halted";
  case RunStatus::FaultDetected:
    return "fault-detected";
  case RunStatus::Stuck:
    return "stuck";
  case RunStatus::OutOfSteps:
    return "out-of-steps";
  }
  talft_unreachable("unknown run status");
}

bool talft::atExit(const MachineState &S, Addr ExitAddr) {
  if (S.isFault() || S.IR || ExitAddr == 0)
    return false;
  return S.pcG().N == ExitAddr && S.pcB().N == ExitAddr;
}

RunResult talft::run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
                     const StepPolicy &Policy) {
  RunResult Result;
  while (Result.Steps < MaxSteps) {
    if (atExit(S, ExitAddr)) {
      Result.Status = RunStatus::Halted;
      return Result;
    }
    StepResult SR = step(S, Policy);
    if (SR.Status == StepStatus::Stuck) {
      Result.Status = RunStatus::Stuck;
      return Result;
    }
    ++Result.Steps;
    if (SR.Output)
      Result.Trace.push_back(*SR.Output);
    if (SR.Status == StepStatus::Fault) {
      Result.Status = RunStatus::FaultDetected;
      return Result;
    }
  }
  Result.Status = RunStatus::OutOfSteps;
  return Result;
}

ReplayResult talft::replaySteps(MachineState &S, uint64_t NSteps,
                                OutputTrace &Trace,
                                const StepPolicy &Policy) {
  ReplayResult Result;
  while (Result.Taken < NSteps) {
    StepResult SR = step(S, Policy);
    if (SR.Status == StepStatus::Stuck) {
      Result.Last = StepStatus::Stuck;
      return Result;
    }
    ++Result.Taken;
    if (SR.Output)
      Trace.push_back(*SR.Output);
    if (SR.Status == StepStatus::Fault) {
      Result.Last = StepStatus::Fault;
      return Result;
    }
  }
  return Result;
}

bool talft::isTracePrefix(const OutputTrace &Prefix, const OutputTrace &Full) {
  if (Prefix.size() > Full.size())
    return false;
  for (size_t I = 0, E = Prefix.size(); I != E; ++I)
    if (!(Prefix[I] == Full[I]))
      return false;
  return true;
}
