//===- isa/Fingerprint.h - State and program hash primitives --------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Primitives for the 64-bit machine-state fingerprint
/// (recomputeFingerprint in isa/MachineState.h) and the hashes built on it:
/// the whole-program content hash that keys the serve memo
/// (isa/ProgramHash.h) and the serve options digest.
///
///   - register and value-memory cells each hash to one pseudorandom word
///     (a mix of the slot salt and the unbounded cell value), XORed
///     together in Zobrist style;
///   - the store queue is a polynomial hash in an odd base over positions
///     counted from the back, so it depends on the queue *contents* and
///     their order.
///
/// Every constant here is part of the memo-key format: changing one moves
/// every program hash.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_FINGERPRINT_H
#define TALFT_ISA_FINGERPRINT_H

#include "isa/Inst.h"
#include "isa/Value.h"

#include <cstdint>

namespace talft::fp {

/// The splitmix64 finalizer: a cheap bijective 64-bit mixer with good
/// avalanche behavior, the workhorse of every hash below.
constexpr uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Domain-separation salts so a register cell, a memory cell and a queue
/// entry holding the same integers never share a hash by construction.
inline constexpr uint64_t RegDomain = 0x517cc1b727220a95ull;
inline constexpr uint64_t MemDomain = 0x2b2f159e1ad6f4dbull;
inline constexpr uint64_t QueueDomain = 0x9ae16a3b2f90404full;
inline constexpr uint64_t IrDomain = 0xc2b2ae3d27d4eb4full;

/// Fingerprint of the distinguished fault state (whose other fields are
/// meaningless and excluded from hashing).
inline constexpr uint64_t FaultedState = mix(0xdeadfa0317ull);
/// Contribution of an empty instruction register (the paper's ·).
inline constexpr uint64_t EmptyIR = mix(IrDomain);

/// Hash of a colored value in register slot \p DenseIdx.
constexpr uint64_t regCell(unsigned DenseIdx, const Value &V) {
  return mix(mix(RegDomain + DenseIdx) ^ mix((uint64_t)V.N) ^
             (V.C == Color::Blue ? 0x94d049bb133111ebull : 0));
}

/// Hash of a defined value-memory cell.
constexpr uint64_t memCell(Addr A, int64_t V) {
  return mix(mix(MemDomain + (uint64_t)A) ^ mix((uint64_t)V));
}

/// Hash of one store-queue (address, value) pair, position-independent;
/// the polynomial base supplies the position weighting.
constexpr uint64_t queueEntry(Addr A, int64_t V) {
  return mix(mix(QueueDomain + (uint64_t)A) ^ mix((uint64_t)V));
}

/// The polynomial base for the store-queue hash.
inline constexpr uint64_t QueueBase = 0x2545f4914f6cdd1dull;

/// Hash of a fetched instruction sitting in the instruction register.
inline uint64_t instHash(const Inst &I) {
  uint64_t H = mix(IrDomain + (uint64_t)I.Op);
  H = mix(H ^ ((uint64_t)(I.C == Color::Blue) | ((uint64_t)I.HasImm << 1)));
  H = mix(H ^ (uint64_t)I.Rd.denseIndex());
  H = mix(H ^ (uint64_t)I.Rs.denseIndex());
  H = mix(H ^ (uint64_t)I.Rt.denseIndex());
  H = mix(H ^ mix((uint64_t)I.Imm.N) ^
          (I.Imm.C == Color::Blue ? 0xbf58476d1ce4e5b9ull : 0));
  return H;
}

/// Composes the component fingerprints of an ordinary (non-fault) state.
/// The chain is deliberately asymmetric so swapping two equal component
/// hashes (or cancelling one against another) changes the result.
constexpr uint64_t composeState(uint64_t Regs, uint64_t Mem, uint64_t Queue,
                                uint64_t Ir) {
  uint64_t F = mix(Regs + 0x6a09e667f3bcc909ull);
  F = mix(F ^ Mem);
  F = mix(F ^ Queue);
  return F ^ Ir;
}

} // namespace talft::fp

#endif // TALFT_ISA_FINGERPRINT_H
