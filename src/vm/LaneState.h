//===- vm/LaneState.h - Structure-of-arrays lane machine states -----------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched counterpart of MachineState: N faulty continuations resumed
/// from the same reference step, transposed into structure-of-arrays form
/// so the lockstep dispatch loop in LaneEngine touches one register row for
/// all lanes at once. The data registers (the 64 general registers plus the
/// intention register d) are split into a lane-major payload array and a
/// lane-major color array (both indexed [dense * Width + lane], with dense
/// indices straight from MicroOp operands); store queues stay per-lane
/// objects — they are tiny and mutate nearly every step. Value memories
/// are copy-on-write against an optional shared base (shareMemory):
/// campaign lanes start from one reference state and most retire before
/// committing a store, so they never own a memory at all.
///
/// The program counters are *group* state, not lane state: lanes advance in
/// lockstep precisely while their pcs agree, so one (pcG, pcB) pair serves
/// the whole group and R++ costs O(1) per group step instead of O(lanes).
/// A lane whose control transfer disagrees with the group's leaves the
/// group (LaneEngine hands it to the scalar engine) before the group pc
/// moves, so the shared pair always matches every member's pc.
///
/// Lanes retire in place (detection, deviation): the retired lane leaves
/// the dense active-index list and the dispatch loops skip it; take()
/// moves its memory and queue out into an ordinary MachineState for the
/// scalar verdict logic.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_VM_LANESTATE_H
#define TALFT_VM_LANESTATE_H

#include "isa/MachineState.h"

#include <cassert>
#include <utility>
#include <vector>

namespace talft::vm {

/// N machine states in structure-of-arrays form with a shared pc pair.
/// Width is fixed at construction; lanes load from ordinary MachineStates
/// and unload back into them when they leave the group.
class LaneState {
public:
  /// Dense indices of the special registers, resolved once. The data bank
  /// covers [0, NumDataRegs); the pcs live in the shared group pair.
  static constexpr unsigned DestIdx = NumGeneralRegs;
  static constexpr unsigned PcGIdx = NumGeneralRegs + 1;
  static constexpr unsigned PcBIdx = NumGeneralRegs + 2;
  static constexpr unsigned NumDataRegs = NumGeneralRegs + 1;

  explicit LaneState(unsigned Width)
      : Width(Width), RegV(size_t(NumDataRegs) * Width, 0),
        RegC(size_t(NumDataRegs) * Width, Color::Green),
        Mems(Width), MemDirty(Width, 0), Queues(Width), Live(Width, 0) {
    Act.reserve(Width);
  }

  unsigned width() const { return Width; }

  /// Transposes \p S into lane \p L and marks the lane active. \p S must
  /// be an ordinary (non-fault) state with an empty instruction register —
  /// the group owns in-flight instruction bookkeeping. The memory and
  /// queue are moved out of \p S. The first lane loaded installs the group
  /// pc pair; later lanes must agree with it.
  void load(unsigned L, MachineState &&S) {
    assert(L < Width && "lane index out of range");
    assert(!S.isFault() && "loading the fault state into a lane");
    assert(!S.IR && "lane loads take states with an empty IR");
    for (unsigned I = 0; I != NumDataRegs; ++I) {
      const Value &V = S.Regs.get(Reg::fromDenseIndex(I));
      RegV[size_t(I) * Width + L] = V.N;
      RegC[size_t(I) * Width + L] = V.C;
    }
    const Value &G = S.Regs.get(Reg::pcG());
    const Value &B = S.Regs.get(Reg::pcB());
    if (Act.empty()) {
      PcG = G;
      PcB = B;
    } else {
      assert(G == PcG && B == PcB && "lane group mixes program counters");
    }
    // An empty incoming memory under a shared base means "the base": the
    // lane stays copy-on-write clean. Anything else becomes the lane's own
    // memory.
    if (BaseMem && S.Mem.size() == 0) {
      MemDirty[L] = 0;
    } else {
      Mems[L] = std::move(S.Mem);
      MemDirty[L] = 1;
    }
    Queues[L] = std::move(S.Queue);
    Live[L] = 1;
    Act.push_back(L);
  }

  /// Declares that every lane's value memory equals \p M at load time and
  /// that lane states arrive with an empty Mem field (see
  /// LaneGroupSpec::SharedMem). Lanes read the shared base and materialize
  /// a private copy only on their first store. Must be set before any lane
  /// loads; the pointee must outlive the group.
  void shareMemory(const ValueMemory *M) {
    assert(Act.empty() && "shareMemory after lanes were loaded");
    BaseMem = M;
  }

  /// Transposes lane \p L back into an ordinary MachineState (IR empty)
  /// and retires the lane. The lane's memory and queue are moved out.
  MachineState take(unsigned L, const CodeMemory &Code) {
    assert(active(L) && "taking an inactive lane");
    MachineState S;
    S.Code = &Code;
    for (unsigned I = 0; I != NumDataRegs; ++I)
      S.Regs.set(Reg::fromDenseIndex(I),
                 Value(RegC[size_t(I) * Width + L], RegV[size_t(I) * Width + L]));
    S.Regs.set(Reg::pcG(), PcG);
    S.Regs.set(Reg::pcB(), PcB);
    if (BaseMem && !MemDirty[L])
      S.Mem = *BaseMem;
    else
      S.Mem = std::move(Mems[L]);
    S.Queue = std::move(Queues[L]);
    retire(L);
    return S;
  }

  bool active(unsigned L) const { return Live[L] != 0; }

  /// Retires lane \p L: clears its live bit and swap-removes it from the
  /// dense active list (O(active) scan; retirement is rare next to steps).
  void retire(unsigned L) {
    assert(active(L) && "retiring an inactive lane");
    Live[L] = 0;
    for (size_t I = 0; I != Act.size(); ++I)
      if (Act[I] == L) {
        Act[I] = Act.back();
        Act.pop_back();
        return;
      }
    assert(false && "active lane missing from the active list");
  }

  /// The dense active-lane list the dispatch loops iterate. Retiring a
  /// lane swap-removes it, so callers that retire mid-iteration must
  /// re-read numActive() and not advance past a removed slot.
  size_t numActive() const { return Act.size(); }
  unsigned act(size_t I) const { return Act[I]; }

  /// Register payload / color / full value of dense data register \p I
  /// (general or d) in lane \p L.
  int64_t val(unsigned I, unsigned L) const {
    return RegV[size_t(I) * Width + L];
  }
  Color col(unsigned I, unsigned L) const {
    return RegC[size_t(I) * Width + L];
  }
  Value get(unsigned I, unsigned L) const {
    return Value(col(I, L), val(I, L));
  }

  /// SoA register write.
  void set(unsigned I, unsigned L, Value V) {
    size_t Slot = size_t(I) * Width + L;
    RegV[Slot] = V.N;
    RegC[Slot] = V.C;
  }

  /// True when the dense active set covers the entire bank, i.e. every
  /// slot in [0, width()) is live. Row-at-a-time dispatch (LaneSimd.h) is
  /// only valid then: a full-row write touches all Width cells, which is
  /// observationally the per-active-lane write exactly when there are no
  /// dead cells to clobber bookkeeping for.
  bool fullWidthActive() const { return Act.size() == Width; }

  /// Raw storage of data-register row \p I ([I * Width, (I + 1) * Width)).
  int64_t *rowV(unsigned I) { return &RegV[size_t(I) * Width]; }
  const int64_t *rowV(unsigned I) const { return &RegV[size_t(I) * Width]; }
  Color *rowC(unsigned I) { return &RegC[size_t(I) * Width]; }
  const Color *rowC(unsigned I) const { return &RegC[size_t(I) * Width]; }

  /// The shared group program counters.
  const Value &pcG() const { return PcG; }
  const Value &pcB() const { return PcB; }

  /// R++ for the whole group: one pair of payload bumps per step.
  void incrementPCs() {
    PcG.N += 1;
    PcB.N += 1;
  }

  /// Control transfer commit for the whole group (jmpB / bzB-taken).
  void setPCs(Value G, Value B) {
    PcG = G;
    PcB = B;
  }

  /// Lane L's value memory for reading: the shared base while the lane is
  /// copy-on-write clean, its private copy once it has stored.
  const ValueMemory &memRead(unsigned L) const {
    return BaseMem && !MemDirty[L] ? *BaseMem : Mems[L];
  }
  /// Lane L's value memory for writing; materializes the private copy on
  /// the lane's first store under a shared base.
  ValueMemory &memWrite(unsigned L) {
    if (BaseMem && !MemDirty[L]) {
      Mems[L] = *BaseMem;
      MemDirty[L] = 1;
    }
    return Mems[L];
  }
  StoreQueue &queue(unsigned L) { return Queues[L]; }

private:
  unsigned Width;
  /// Lane-major payloads and colors: data register row I occupies
  /// [I * Width, (I + 1) * Width).
  std::vector<int64_t> RegV;
  std::vector<Color> RegC;
  Value PcG, PcB;
  /// Copy-on-write backing: when BaseMem is set, MemDirty[L] == 0 means
  /// lane L still reads *BaseMem and Mems[L] is meaningless; a first store
  /// (or a reload with a materialized memory) flips the lane to Mems[L].
  const ValueMemory *BaseMem = nullptr;
  std::vector<ValueMemory> Mems;
  std::vector<uint8_t> MemDirty;
  std::vector<StoreQueue> Queues;
  std::vector<uint8_t> Live;
  /// Dense indices of the live lanes, unordered (swap-remove).
  std::vector<unsigned> Act;
};

} // namespace talft::vm

#endif // TALFT_VM_LANESTATE_H
