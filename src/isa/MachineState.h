//===- isa/MachineState.h - Abstract machine states S (Figure 1) ----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An abstract machine state S is either the distinguished `fault` state —
/// the hardware has *detected* a transient fault — or an ordinary state
/// (R, C, M, Q, ir) where ir is the instruction register: either a fetched
/// instruction awaiting execution, or empty (the paper's ·), meaning the
/// next step is a fetch.
///
/// Code memory is referenced, not owned: it is immutable during execution
/// and shared by the many states materialized by the fault enumerator.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_MACHINESTATE_H
#define TALFT_ISA_MACHINESTATE_H

#include "isa/Fingerprint.h"
#include "isa/Memory.h"
#include "isa/RegisterFile.h"
#include "isa/StoreQueue.h"

#include <optional>

namespace talft {

/// An ordinary (non-fault) machine state, plus a flag representing the
/// distinguished `fault` state.
struct MachineState {
  RegisterFile Regs;
  const CodeMemory *Code = nullptr;
  ValueMemory Mem;
  StoreQueue Queue;
  /// The instruction register ir: a fetched instruction, or empty (·).
  std::optional<Inst> IR;
  /// True for the terminal `fault` state (hardware-detected fault). The
  /// other fields are meaningless when set.
  bool Faulted = false;

  MachineState() = default;
  MachineState(const CodeMemory &Code, Addr Entry)
      : Regs(Entry), Code(&Code) {}

  /// Builds the distinguished fault state.
  static MachineState faultState() {
    MachineState S;
    S.Faulted = true;
    return S;
  }

  bool isFault() const { return Faulted; }

  /// Both program counters as colored values.
  Value pcG() const { return Regs.get(Reg::pcG()); }
  Value pcB() const { return Regs.get(Reg::pcB()); }

  /// Full structural equality (code memory by identity — campaign states
  /// share one immutable CodeMemory).
  bool operator==(const MachineState &O) const = default;
};

/// The 64-bit fingerprint of \p S in O(|state|), walking every component
/// through its public API: a function of the state's contents only. Code
/// memory is immutable and shared, so it does not participate. The program
/// content hash (isa/ProgramHash.h) folds in the initial state's
/// fingerprint, so this function's value is part of the memo-key format.
inline uint64_t recomputeFingerprint(const MachineState &S) {
  if (S.Faulted)
    return fp::FaultedState;
  uint64_t Regs = 0;
  for (unsigned I = 0; I != Reg::NumRegs; ++I)
    Regs ^= fp::regCell(I, S.Regs.get(Reg::fromDenseIndex(I)));
  uint64_t Mem = 0;
  for (const auto &[A, V] : S.Mem)
    Mem ^= fp::memCell(A, V);
  uint64_t Queue = 0;
  // Horner from the front: the front entry (highest degree, farthest from
  // the back) accumulates the most QueueBase factors.
  for (const QueueEntry &E : S.Queue)
    Queue = Queue * fp::QueueBase + fp::queueEntry(E.Address, E.Val);
  return fp::composeState(Regs, Mem, Queue,
                          S.IR ? fp::instHash(*S.IR) : fp::EmptyIR);
}

} // namespace talft

#endif // TALFT_ISA_MACHINESTATE_H
