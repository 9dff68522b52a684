//===- sim/Machine.h - Multi-step execution driver ------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the small-step semantics for whole runs: collects the observable
/// output trace, counts steps, and recognizes the halting convention.
///
/// TALFT has no halt instruction (well-typed programs never get stuck, so
/// a finished program must keep running). By convention a program halts by
/// transferring control to a designated *exit block* — a well-typed
/// self-loop — and the driver reports Halted when a fetch is about to
/// execute from the exit address.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SIM_MACHINE_H
#define TALFT_SIM_MACHINE_H

#include "sim/Step.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace talft {

/// The observable output trace: the sequence s of committed stores.
using OutputTrace = std::vector<QueueEntry>;

/// Why a run stopped.
enum class RunStatus : uint8_t {
  /// Reached the exit block with both program counters agreeing.
  Halted,
  /// The hardware detected a fault (transition to the fault state).
  FaultDetected,
  /// No rule fired (never happens for well-typed programs).
  Stuck,
  /// The step budget ran out.
  OutOfSteps,
};

/// Human-readable status name.
const char *runStatusName(RunStatus St);

/// The result of a whole run.
struct RunResult {
  RunStatus Status = RunStatus::OutOfSteps;
  /// Number of transitions taken (fetches count as steps, as in the
  /// paper's n-step relation).
  uint64_t Steps = 0;
  /// The observable output trace s.
  OutputTrace Trace;
};

/// Executes \p S until halt / fault / stuck or \p MaxSteps transitions.
/// \p ExitAddr is the entry address of the exit block (0 disables halt
/// detection).
RunResult run(MachineState &S, Addr ExitAddr, uint64_t MaxSteps,
              const StepPolicy &Policy = StepPolicy());

/// True when \p S is an ordinary state about to fetch from \p ExitAddr
/// with agreeing program counters (the halt condition).
bool atExit(const MachineState &S, Addr ExitAddr);

/// The outcome of replaySteps: the status of the last transition taken and
/// how many transitions were actually taken.
struct ReplayResult {
  StepStatus Last = StepStatus::Ok;
  uint64_t Taken = 0;
};

/// Executes exactly \p NSteps transitions in place, stopping early only
/// when a transition faults or gets stuck, and appending observable
/// outputs to \p Trace. Deterministic semantics make this an exact
/// substitute for restoring a step-\p NSteps snapshot of the same run.
ReplayResult replaySteps(MachineState &S, uint64_t NSteps, OutputTrace &Trace,
                         const StepPolicy &Policy = StepPolicy());

/// True when \p Prefix is a prefix of \p Full (the fault-tolerance
/// theorem's output condition for detected faults).
bool isTracePrefix(const OutputTrace &Prefix, const OutputTrace &Full);

} // namespace talft

#endif // TALFT_SIM_MACHINE_H
