//===- sim/ExecEngine.cpp -------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "sim/ExecEngine.h"

using namespace talft;

namespace {

/// Wraps the structural interpreter's free functions. The continuation
/// loop mirrors the campaign classifier's historical control flow exactly
/// (exit check, then budget check, then step).
class ReferenceEngine final : public ExecEngine {
public:
  const char *name() const override { return "reference"; }

  StepResult step(MachineState &S, const StepPolicy &Policy) const override {
    return talft::step(S, Policy);
  }

  RunResult run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
                const StepPolicy &Policy) const override {
    return talft::run(S, ExitAddr, MaxSteps, Policy);
  }

  ReplayResult replaySteps(MachineState &S, uint64_t NSteps,
                           OutputTrace &Trace,
                           const StepPolicy &Policy) const override {
    return talft::replaySteps(S, NSteps, Trace, Policy);
  }

  RunStatus runContinuation(MachineState &S, Addr ExitAddr, uint64_t Budget,
                            const StepPolicy &Policy,
                            const OutputSink &OnOutput) const override {
    uint64_t Taken = 0;
    while (true) {
      if (atExit(S, ExitAddr))
        return RunStatus::Halted;
      if (Taken >= Budget)
        return RunStatus::OutOfSteps;
      StepResult SR = talft::step(S, Policy);
      ++Taken;
      if (SR.Output && OnOutput)
        OnOutput(*SR.Output);
      if (SR.Status == StepStatus::Stuck)
        return RunStatus::Stuck;
      if (SR.Status == StepStatus::Fault)
        return RunStatus::FaultDetected;
    }
  }
};

} // namespace

const ExecEngine &talft::referenceEngine() {
  static const ReferenceEngine Engine;
  return Engine;
}
