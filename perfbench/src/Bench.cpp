//===- perfbench/src/Bench.cpp - Shared pieces of the certification benchmark //
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/Json.h"
#include "support/StringUtils.h"
#include "wile/Kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace talft;

namespace perfbench {

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * double(V.size()));
  size_t R = (size_t)std::clamp(Rank, 1.0, double(V.size()));
  return V[R - 1];
}

std::vector<MixKey> serveMixSequence(uint64_t Seed, unsigned Kernels,
                                     unsigned Variants, unsigned Repeats) {
  Rng R(Seed);
  std::vector<MixKey> Keys;
  for (unsigned K = 0; K != Kernels; ++K)
    for (unsigned V = 0; V != Variants; ++V)
      Keys.push_back({K, V});
  if (Keys.empty())
    return {};

  // Zipf(1) over a seeded ranking: rank r is drawn with weight 1/(r+1).
  std::vector<MixKey> Ranked = Keys;
  shuffle(Ranked, R);
  std::vector<double> Cdf(Ranked.size());
  double Sum = 0;
  for (size_t I = 0; I != Ranked.size(); ++I)
    Cdf[I] = Sum += 1.0 / double(I + 1);

  std::vector<MixKey> Seq = Keys;
  for (unsigned I = 0; I != Repeats; ++I) {
    double U = R.unit() * Sum;
    size_t Rank = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    Seq.push_back(Ranked[std::min(Rank, Ranked.size() - 1)]);
  }
  shuffle(Seq, R);
  return Seq;
}

VerdictTable foldTable(const VerdictTable &T) {
  VerdictTable F = T;
  F[Verdict::Masked] += F[Verdict::StaticallyMasked];
  F[Verdict::Detected] += F[Verdict::StaticallyDetected];
  F[Verdict::StaticallyMasked] = 0;
  F[Verdict::StaticallyDetected] = 0;
  return F;
}

std::string goldenKey(uint64_t ProgramHash, const TheoremConfig &C) {
  std::string K = formatv(
      "%016llx|stride=%llu|max_steps=%llu|extra_steps=%llu|mentioned=%d|"
      "typed_states=%d|wild_load=%d|garbage=%lld|recover=%d",
      (unsigned long long)ProgramHash, (unsigned long long)C.InjectionStride,
      (unsigned long long)C.MaxSteps, (unsigned long long)C.ExtraSteps,
      (int)C.OnlyMentionedRegisters, (int)C.TypeCheckFaultyStates,
      (int)C.Policy.WildLoad, (long long)C.Policy.GarbageValue,
      (int)C.Recovery.Enabled);
  if (C.Recovery.Enabled)
    K += formatv("|checkpoint_interval=%llu|retry_budget=%llu"
                 "|slices=every%u/%u",
                 (unsigned long long)C.Recovery.CheckpointInterval,
                 (unsigned long long)C.Recovery.RetryBudget, RecoverSliceStep,
                 RecoverSlices);
  return K;
}

bool GoldenTables::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<serve::JsonValue> Doc = serve::JsonValue::parse(SS.str());
  const serve::JsonValue *List = Doc ? Doc->get("tables") : nullptr;
  if (!List || !List->isArray()) {
    Err = Path + ": no \"tables\" array";
    return false;
  }
  for (const serve::JsonValue &T : List->items()) {
    const serve::JsonValue *Counts = T.get("verdicts");
    std::string Key = T.stringAt("key", "");
    if (Key.empty() || !Counts || !Counts->isObject()) {
      Err = Path + ": table without a key or verdicts";
      return false;
    }
    VerdictTable Table;
    for (const auto &[Name, Count] : Counts->members()) {
      size_t V = 0;
      while (V != NumVerdicts && Name != verdictJsonKey((Verdict)V))
        ++V;
      if (V == NumVerdicts) {
        Err = Path + ": unknown verdict \"" + Name + "\"";
        return false;
      }
      Table.Counts[V] = Count.asU64();
    }
    put(Key, T.stringAt("name", ""), Table);
  }
  return true;
}

bool GoldenTables::save(const std::string &Path, std::string &Err) const {
  std::string S = "{\n  \"schema\": \"talft-perfbench-golden-v1\",\n"
                  "  \"oracle\": {\"engine\": \"reference\", \"converge\": "
                  "false, \"lanes\": false, \"prune\": false},\n"
                  "  \"tables\": [\n";
  size_t I = 0;
  for (const auto &[Key, E] : Tables) {
    S += "    {\"key\": " + serve::jsonQuote(Key) +
         ", \"name\": " + serve::jsonQuote(E.Name) + ", \"verdicts\": {";
    bool First = true;
    for (size_t V = 0; V != NumVerdicts; ++V) {
      if (!E.Table.Counts[V])
        continue;
      S += formatv("%s\"%s\": %llu", First ? "" : ", ",
                   verdictJsonKey((Verdict)V),
                   (unsigned long long)E.Table.Counts[V]);
      First = false;
    }
    S += ++I == Tables.size() ? "}}\n" : "}},\n";
  }
  S += "  ]\n}\n";
  std::ofstream Out(Path);
  if (!(Out << S)) {
    Err = "cannot write " + Path;
    return false;
  }
  return true;
}

void GoldenTables::put(const std::string &Key, const std::string &Name,
                       const VerdictTable &Folded) {
  Tables[Key] = {Name, foldTable(Folded)};
}

std::string GoldenTables::compare(const std::string &Key,
                                  const VerdictTable &Got) const {
  auto It = Tables.find(Key);
  if (It == Tables.end())
    return "no golden table for " + Key;
  VerdictTable F = foldTable(Got);
  std::string Diff;
  for (size_t V = 0; V != NumVerdicts; ++V)
    if (F.Counts[V] != It->second.Table.Counts[V])
      Diff += formatv(" %s: %llu != golden %llu;", verdictJsonKey((Verdict)V),
                      (unsigned long long)F.Counts[V],
                      (unsigned long long)It->second.Table.Counts[V]);
  return Diff.empty() ? "" : It->second.Name + " table differs:" + Diff;
}

namespace {

// The Section 2.2 paired-store example.
const char *PairedStore = R"(
entry main
exit done
data { 256: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 5
  mov r4, B 256
  stB r4, r3
  mov r5, G @done
  mov r6, B @done
  jmpG r5
  jmpB r6
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

// A loop with branches, stores and forwarding.
const char *CountdownLoop = R"(
entry main
exit done
data { 500: int = 0 }
block main {
  pre { forall m: mem; queue []; mem m }
  mov r1, G 4
  mov r2, B 4
  mov r10, G @loop
  mov r11, B @loop
  jmpG r10
  jmpB r11
}
block loop {
  pre { forall n: int, m: mem;
        r1: (G, int, n); r2: (B, int, n);
        queue []; mem m }
  mov r20, G @done
  mov r21, B @done
  bzG r1, r20
  bzB r2, r21
  mov r3, G 500
  stG r3, r1
  mov r4, B 500
  stB r4, r2
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r10, G @loop
  mov r11, B @loop
  jmpG r10
  jmpB r11
}
block done {
  pre { forall m: mem; queue []; mem m }
  mov r60, G @done
  mov r61, B @done
  jmpG r60
  jmpB r61
}
)";

const char *SumSquares = R"(
var n = 3; var acc = 0;
while (n != 0) { acc = acc + n * n; n = n - 1; }
output(acc);
)";

} // namespace

const std::vector<CorpusProgram> &corpus() {
  static const std::vector<CorpusProgram> Programs = [] {
    // fault_coverage's defaults: stride 1 for the TAL programs, 7 for the
    // compiled kernel, the adaptive rule for the Figure 10 kernels.
    std::vector<CorpusProgram> P = {
        {"paired-store", "tal", PairedStore, 1},
        {"countdown-loop", "tal", CountdownLoop, 1},
        {"wile-sum-squares", "wile-typed", SumSquares, 7},
    };
    for (const wile::Kernel &K : wile::benchmarkKernels())
      P.push_back({K.Name, "fig10", K.Source, 0});
    return P;
  }();
  return Programs;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace perfbench
