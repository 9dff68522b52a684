//===- isa/ProgramHash.cpp - Whole-program content hash -------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramHash.h"

#include "isa/Fingerprint.h"
#include "isa/MachineState.h"
#include "isa/Memory.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace talft;

uint64_t talft::programContentHash(const CodeMemory &Code, Addr Entry,
                                   Addr Exit, const MachineState &Initial) {
  // A distinct domain constant so a program hash can never collide with a
  // state fingerprint of the same components by construction.
  uint64_t H = fp::mix(0x70726f6768617368ull); // "proghash"
  for (const auto &[A, I] : Code) {
    H = fp::mix(H ^ fp::mix((uint64_t)A));
    H = fp::mix(H ^ fp::instHash(I));
  }
  H = fp::mix(H ^ fp::mix((uint64_t)Entry));
  H = fp::mix(H ^ fp::mix((uint64_t)Exit));
  return fp::mix(H ^ recomputeFingerprint(Initial));
}

std::string talft::programHashString(uint64_t Hash) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx", (unsigned long long)Hash);
  return Buf;
}

bool talft::parseProgramHash(const std::string &Text, uint64_t &Hash) {
  const char *S = Text.c_str();
  if (Text.size() >= 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X'))
    S += 2;
  if (*S == '\0' || *S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(S, &End, 16);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Hash = N;
  return true;
}
