//===- perfbench/src/Bench.h - Shared pieces of the certification benchmark ===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parts of the benchmark that its self-test pins down: the seeded
/// random source, the percentile rule, the serve-mix key sequence, the
/// golden verdict tables and the benchmark corpus. Everything here is
/// deterministic given its inputs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "fault/Campaign.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using talft::VerdictTable;

/// splitmix64: a portable seeded stream (std:: distributions differ
/// between standard libraries, and the same seed must give the same
/// inputs on every host).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N must be nonzero.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Fisher-Yates shuffle driven by \p R.
template <class T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Nearest-rank percentile: the value at 1-based rank ceil(P/100 * N) of
/// the ascending sort, clamped to [1, N]. P = 50 on an even count gives
/// the lower middle value. Returns 0 for an empty sample.
double percentile(std::vector<double> V, double P);

/// One serve-mix key: a Figure 10 kernel at one stride variant (the
/// variant multiplies the kernel's adaptive stride by Variant + 1).
struct MixKey {
  unsigned Kernel = 0;
  unsigned Variant = 0;
  bool operator==(const MixKey &) const = default;
};

/// The request sequence of one serve-mix pass over \p Kernels x
/// \p Variants keys: every key once, plus \p Repeats draws skewed by a
/// Zipf(1) law over a seeded ranking of the keys, shuffled together. The
/// first submission of a key is therefore cold and the rest repeat it.
std::vector<MixKey> serveMixSequence(uint64_t Seed, unsigned Kernels,
                                     unsigned Variants, unsigned Repeats);

/// A verdict table folded the way the goldens store it: the statically
/// discharged verdicts added into their simulated twins, so pruned and
/// unpruned campaigns compare equal.
VerdictTable foldTable(const VerdictTable &T);

/// The golden-table key: the program's content hash plus every
/// TheoremConfig field that can change a verdict. A recovery campaign is
/// only ever run on fig10-recover's sample (RecoverSlices), which the key
/// names too.
std::string goldenKey(uint64_t ProgramHash, const talft::TheoremConfig &C);

/// Golden verdict tables by key, stored folded.
class GoldenTables {
public:
  /// Loads \p Path; false (with \p Err) when it cannot be read or parsed.
  bool load(const std::string &Path, std::string &Err);
  /// Writes every table to \p Path as JSON.
  bool save(const std::string &Path, std::string &Err) const;
  void put(const std::string &Key, const std::string &Name,
           const VerdictTable &Folded);

  /// Compares \p Got (folded here) against the golden for \p Key. Empty
  /// when it matches; otherwise why not (unknown key or which counts).
  std::string compare(const std::string &Key, const VerdictTable &Got) const;

  size_t size() const { return Tables.size(); }

private:
  struct Entry {
    std::string Name;
    VerdictTable Table;
  };
  std::map<std::string, Entry> Tables;
};

/// One program of the sweep corpus.
struct CorpusProgram {
  std::string Name;
  /// "tal" (parsed TAL), "wile-typed" (Wile compiled and type-checked,
  /// swept by runFaultToleranceCampaign) or "fig10" (a Figure 10 kernel
  /// swept on the raw semantics by runSingleFaultCampaign).
  std::string Kind;
  std::string Source;
  /// The injection stride fault_coverage uses for this program; 0 means
  /// the adaptive rule (adaptiveStride of the reference length).
  uint64_t FixedStride = 0;
};

/// The 3 TAL-level programs and the 15 Figure 10 kernels, in the order
/// `fault_coverage --fig10` sweeps them.
const std::vector<CorpusProgram> &corpus();

/// fault_coverage's adaptive rule for the Figure 10 kernels: about twelve
/// injection points over the reference run.
inline uint64_t adaptiveStride(uint64_t ReferenceSteps) {
  return ReferenceSteps / 12 ? ReferenceSteps / 12 : 1;
}

/// The fixed factor fig10-recover coarsens every stride by. With it
/// each Figure 10 kernel is injected at step 0 only: full-length
/// continuations under recovery, 14 to 27 s for the whole corpus on one
/// thread.
inline constexpr uint64_t RecoverStrideFactor = 16;

/// The systematic sample of every recovery campaign fig10-recover
/// classifies: the task list is cut into RecoverSlices contiguous slices
/// (CampaignOptions::ShardCount) and every RecoverSliceStep-th slice is
/// run, starting from slice RecoverSliceStep - 1, then folded. One eighth
/// of the injections, spread over every kind of fault site, so that a
/// pass takes about 3 s and a run holds a dozen of them.
inline constexpr unsigned RecoverSlices = 64;
inline constexpr unsigned RecoverSliceStep = 8;

/// The serve-mix keys per kernel (stride variants 1..ServeMixVariants)
/// and the skewed repeats one pass draws over them.
inline constexpr unsigned ServeMixVariants = 2;
inline constexpr unsigned ServeMixRepeats = 270;

/// A JSON number with all its digits (round-trips the double).
std::string jsonNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
