//===- fault/TrackedRun.h - Execution with typing-substitution tracking ---===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TrackedRun executes a checked program while maintaining the closing
/// substitution that witnesses the existential of the machine-state typing
/// judgment (Figure 8): it starts from the entry block's instantiation and
/// composes the checker's recorded per-transfer substitutions at every
/// committed jump and block fall-through. This turns the metatheory
/// (Progress, Preservation, No False Positives) into directly executable
/// checks: at any point, checkTyped() re-verifies ⊢Z S.
///
/// When the harness injects a fault (rules reg-zap / Q-zap), it sets the
/// run's zap tag to the corrupted color; the typing anchor then follows
/// the unzapped program counter, as in rule R-t.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_FAULT_TRACKEDRUN_H
#define TALFT_FAULT_TRACKEDRUN_H

#include "check/StateTyping.h"
#include "fault/FaultInjector.h"
#include "sim/Machine.h"

namespace talft {

/// Drives one execution of a checked program with typing tracking.
class TrackedRun {
public:
  TrackedRun(TypeContext &TC, const CheckedProgram &CP,
             StepPolicy Policy = StepPolicy())
      : TC(TC), CP(CP), Policy(Policy) {}

  /// Builds the initial state and closing substitution.
  Error start();

  MachineState &state() { return S; }
  const MachineState &state() const { return S; }
  const Subst &closing() const { return Closing; }
  ZapTag zapTag() const { return Z; }
  const OutputTrace &trace() const { return Trace; }
  uint64_t steps() const { return Steps; }

  /// True when the machine is about to fetch from the exit block.
  bool atExitBlock() const {
    return atExit(S, CP.Prog->exitAddress());
  }

  /// One transition, with substitution tracking.
  StepResult stepOnce();

  /// Applies a fault (a k=1 transition) and switches to the matching zap
  /// tag. Only one fault may be injected per run (the SEU model).
  void injectSingleFault(const FaultSite &Site, int64_t NewValue);

  /// Re-checks ⊢Z S for the current state.
  Error checkTyped() const { return checkStateTyped(TC, CP, S, Z, Closing); }

  /// A resumable copy of the run's dynamic state (used by the exhaustive
  /// fault sweep to branch one reference execution into many faulty
  /// continuations).
  struct Snapshot {
    MachineState S;
    Subst Closing;
    OutputTrace Trace;
    uint64_t Steps = 0;
  };

  Snapshot snapshot() const { return {S, Closing, Trace, Steps}; }

  /// Restores a snapshot and clears any zap tag / injection marker.
  void restore(Snapshot Snap) {
    S = std::move(Snap.S);
    Closing = std::move(Snap.Closing);
    Trace = std::move(Snap.Trace);
    Steps = Snap.Steps;
    Z = ZapTag::none();
    Injected = false;
  }

private:
  TypeContext &TC;
  const CheckedProgram &CP;
  StepPolicy Policy;
  MachineState S;
  Subst Closing;
  ZapTag Z = ZapTag::none();
  OutputTrace Trace;
  uint64_t Steps = 0;
  bool Injected = false;

  /// The instruction address typing is anchored at (the unzapped pc).
  Addr anchor() const {
    return Z.is(Color::Green) ? S.pcB().N : S.pcG().N;
  }
};

} // namespace talft

#endif // TALFT_FAULT_TRACKEDRUN_H
