//===- isa/RegisterFile.h - The register bank R (Figure 1) ----------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register bank R: a total function from register names to colored
/// values. Provides the paper's notational helpers:
///
///   R(a)        -> get(a)
///   Rval(a)     -> val(a)
///   Rcol(a)     -> col(a)
///   R[a |-> v]  -> set(a, v)      (in place)
///   R++         -> incrementPCs() (adds 1 to both program counters)
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_REGISTERFILE_H
#define TALFT_ISA_REGISTERFILE_H

#include "isa/Reg.h"
#include "isa/Value.h"

#include <array>

namespace talft {

/// The machine's register bank.
class RegisterFile {
public:
  /// Initializes every general register to G 0, d to G 0 and both program
  /// counters to the given entry address (pcG green, pcB blue).
  explicit RegisterFile(Addr Entry = 0) {
    for (Value &V : Regs)
      V = Value::green(0);
    Regs[Reg::pcB().denseIndex()] = Value::blue(Entry);
    Regs[Reg::pcG().denseIndex()] = Value::green(Entry);
  }

  /// R(a): the full colored value in register \p A.
  const Value &get(Reg A) const { return Regs[A.denseIndex()]; }
  /// Rval(a): the integer payload of register \p A.
  int64_t val(Reg A) const { return get(A).N; }
  /// Rcol(a): the color tag of register \p A.
  Color col(Reg A) const { return get(A).C; }

  /// R[a |-> v].
  void set(Reg A, Value V) { Regs[A.denseIndex()] = V; }

  /// R++: increments both program counters by one (preserving colors).
  void incrementPCs() {
    Regs[Reg::pcG().denseIndex()].N += 1;
    Regs[Reg::pcB().denseIndex()].N += 1;
  }

  /// Raw dense-cell access for execution tiers that read and write the
  /// bank natively (the JIT addresses cells by dense index).
  Value *rawCells() { return Regs.data(); }

  bool operator==(const RegisterFile &O) const = default;

private:
  std::array<Value, Reg::NumRegs> Regs;
};

} // namespace talft

#endif // TALFT_ISA_REGISTERFILE_H
