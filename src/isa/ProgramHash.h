//===- isa/ProgramHash.h - Whole-program content hash ---------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic 64-bit content hash of a laid-out program: the ordered
/// (address, instruction) pairs of its code memory, its entry and exit
/// addresses, and the initial machine state (which folds in the data
/// section and the precondition registers). Built from the same Zobrist
/// primitives as the state fingerprint (isa/Fingerprint.h), so
/// one instruction, one data cell or one precondition value changing
/// changes the hash.
///
/// The hash is the identity half of the certification server's memo key —
/// (program hash × campaign-options digest) addresses a cached verdict
/// table — and every campaign JSON report records it as provenance, batch
/// and served alike. It is stable across processes and runs: no pointers,
/// no iteration-order dependence (CodeMemory iterates in ascending address
/// order), no ASLR leakage.
///
//===----------------------------------------------------------------------===//

#ifndef TALFT_ISA_PROGRAMHASH_H
#define TALFT_ISA_PROGRAMHASH_H

#include "isa/Value.h"

#include <cstdint>
#include <string>

namespace talft {

class CodeMemory;
struct MachineState;

/// The 64-bit content hash of a program: code memory (in ascending address
/// order), entry/exit addresses and the initial state's fingerprint,
/// chained asymmetrically so reordered or swapped components cannot cancel.
uint64_t programContentHash(const CodeMemory &Code, Addr Entry, Addr Exit,
                            const MachineState &Initial);

/// Renders a hash the way reports and the serve protocol spell it:
/// "0x" + 16 lowercase hex digits.
std::string programHashString(uint64_t Hash);

/// Parses programHashString's format (the "0x" prefix is optional).
/// Returns false on anything else.
bool parseProgramHash(const std::string &Text, uint64_t &Hash);

} // namespace talft

#endif // TALFT_ISA_PROGRAMHASH_H
