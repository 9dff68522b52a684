//===- sim/LaneGroup.h - The lane-group task handoff contract -------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-agnostic handoff between the fault campaign's work list and a
/// batched lane executor (vm/LaneEngine.h): the campaign collects faulty
/// continuations that share one resume point — same reference step, hence
/// the same program counters and step budget — and hands the whole batch
/// over as one lane group. The executor advances every lane through the
/// shared instruction stream and reports, per lane, the same RunStatus the
/// scalar ExecEngine::runContinuation contract defines, so the caller's
/// verdict logic is oblivious to how the continuation was executed.
///
/// The output callback mirrors ExecEngine::OutputSink with a lane index
/// threaded through, so outputs feed per-lane prefix trackers.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_SIM_LANEGROUP_H
#define TALFT_SIM_LANEGROUP_H

#include "sim/Machine.h"

#include <functional>

namespace talft {

/// One lane group's execution parameters — the runContinuation arguments,
/// shared by every lane (the grouping invariant: all lanes resume from the
/// same reference step).
struct LaneGroupSpec {
  Addr ExitAddr = 0;
  uint64_t Budget = 0;
  StepPolicy Policy;
  /// Invoked for each committed store, tagged with the emitting lane.
  std::function<void(unsigned Lane, const QueueEntry &)> OnOutput;
  /// When set, the caller guarantees every lane's value memory equals
  /// *SharedMem at entry and passes the lane states with an *empty* Mem
  /// field; the executor reads the shared memory and gives a lane its own
  /// copy only on its first store (fault continuations rarely live long
  /// enough to commit one, so most lanes never pay the copy). The pointee
  /// must outlive the run. Lane states handed back always carry a
  /// materialized memory.
  const ValueMemory *SharedMem = nullptr;
};

/// Per-lane outcome: the RunStatus the scalar classifier would have seen,
/// plus bookkeeping for the campaign's lane statistics.
struct LaneOutcome {
  RunStatus Status = RunStatus::Halted;
  /// True when the lane left the lockstep group (control-flow divergence)
  /// and finished on the scalar fallback engine.
  bool Deviated = false;
  /// Transitions the lane spent inside the lockstep group.
  uint64_t GroupSteps = 0;
};

} // namespace talft

#endif // TALFT_SIM_LANEGROUP_H
