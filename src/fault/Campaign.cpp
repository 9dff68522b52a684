//===- fault/Campaign.cpp -------------------------------------------------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "fault/Campaign.h"

#include "analysis/ZapCoverage.h"
#include "isa/ProgramHash.h"
#include "support/StringUtils.h"
#include "support/Unreachable.h"
#include "vm/JitEngine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

using namespace talft;

const char *talft::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Masked:
    return "masked";
  case Verdict::Detected:
    return "detected";
  case Verdict::SilentCorruption:
    return "silent corruption";
  case Verdict::DissimilarState:
    return "dissimilar state";
  case Verdict::DetectedBadPrefix:
    return "detected (bad prefix)";
  case Verdict::BudgetExhausted:
    return "budget exhausted";
  case Verdict::Stuck:
    return "stuck";
  case Verdict::IllTyped:
    return "ill-typed";
  case Verdict::Recovered:
    return "recovered";
  case Verdict::RecoveryEscalated:
    return "recovery escalated";
  case Verdict::StaticallyMasked:
    return "statically masked";
  case Verdict::StaticallyDetected:
    return "statically detected";
  }
  talft_unreachable("unknown verdict");
}

const char *talft::verdictJsonKey(Verdict V) {
  switch (V) {
  case Verdict::Masked:
    return "masked";
  case Verdict::Detected:
    return "detected";
  case Verdict::SilentCorruption:
    return "silent_corruption";
  case Verdict::DissimilarState:
    return "dissimilar_state";
  case Verdict::DetectedBadPrefix:
    return "detected_bad_prefix";
  case Verdict::BudgetExhausted:
    return "budget_exhausted";
  case Verdict::Stuck:
    return "stuck";
  case Verdict::IllTyped:
    return "ill_typed";
  case Verdict::Recovered:
    return "recovered";
  case Verdict::RecoveryEscalated:
    return "recovery_escalated";
  case Verdict::StaticallyMasked:
    return "statically_masked";
  case Verdict::StaticallyDetected:
    return "statically_detected";
  }
  talft_unreachable("unknown verdict");
}

uint64_t VerdictTable::total() const {
  uint64_t N = 0;
  for (uint64_t C : Counts)
    N += C;
  return N;
}

uint64_t VerdictTable::benign() const {
  return (*this)[Verdict::Masked] + (*this)[Verdict::Detected] +
         (*this)[Verdict::Recovered] + (*this)[Verdict::RecoveryEscalated] +
         (*this)[Verdict::StaticallyMasked] +
         (*this)[Verdict::StaticallyDetected];
}

void VerdictTable::merge(const VerdictTable &O) {
  for (size_t I = 0; I != NumVerdicts; ++I) {
    uint64_t &C = Counts[I];
    C = (O.Counts[I] > UINT64_MAX - C) ? UINT64_MAX : C + O.Counts[I];
  }
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

bool isBenign(Verdict V) {
  return V == Verdict::Masked || V == Verdict::Detected ||
         V == Verdict::Recovered || V == Verdict::RecoveryEscalated ||
         V == Verdict::StaticallyMasked || V == Verdict::StaticallyDetected;
}

/// The violation text for an abnormal single-fault verdict, matching the
/// wording the serial checker has always produced.
const char *abnormalMessage(Verdict V) {
  switch (V) {
  case Verdict::SilentCorruption:
    return "completed with a DIFFERENT output trace (silent data corruption)";
  case Verdict::DissimilarState:
    return "completed but the final state is not similar to the reference "
           "final state";
  case Verdict::DetectedBadPrefix:
    return "detected, but the faulty output is not a prefix of the "
           "reference output";
  case Verdict::BudgetExhausted:
    return "faulty run exceeded its step budget without detection or "
           "completion";
  case Verdict::Stuck:
    return "faulty run got stuck";
  default:
    talft_unreachable("verdict has no violation message");
  }
}

std::string describeInjection(const FaultSite &Site, int64_t Value,
                              uint64_t AtStep, const char *What) {
  return formatv("inject %s := %lld at step %llu: %s", Site.str().c_str(),
                 (long long)Value, (unsigned long long)AtStep, What);
}

/// Runs \p RunUnit over every work unit in [0, Units) across \p Threads
/// workers (0 = hardware concurrency) and returns the number of workers
/// that ran, the calling thread included (1 when there is no work). A
/// unit is one task or a block of them: RunUnit returns how many tasks it
/// classified, and Opts.Progress hears completed tasks out of
/// \p TotalTasks. Workers pull fixed-size chunks off an atomic cursor;
/// because each unit writes only its own result slots, the schedule
/// cannot affect results.
unsigned dispatchTasks(unsigned Threads, uint64_t Units, uint64_t TotalTasks,
                       const std::function<uint64_t(uint64_t)> &RunUnit,
                       const CampaignOptions &Opts) {
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  Threads = (unsigned)std::min<uint64_t>(Threads, std::max<uint64_t>(1, Units));
  if (Units == 0)
    return Threads;
  uint64_t Chunk =
      std::max<uint64_t>(1, std::min<uint64_t>(64, Units / (uint64_t(Threads) * 8)));

  uint64_t Interval = Opts.Progress ? Opts.ProgressInterval : 0;
  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Completed{0};
  std::mutex ProgressMu;
  auto Work = [&] {
    while (true) {
      uint64_t Begin = Next.fetch_add(Chunk, std::memory_order_relaxed);
      if (Begin >= Units)
        return;
      uint64_t End = std::min(Units, Begin + Chunk);
      uint64_t N = 0;
      for (uint64_t I = Begin; I != End; ++I)
        N += RunUnit(I);
      uint64_t Prev = Completed.fetch_add(N, std::memory_order_acq_rel);
      uint64_t Done = Prev + N;
      if (Interval &&
          (Done == TotalTasks || Done / Interval != Prev / Interval)) {
        std::lock_guard<std::mutex> Lock(ProgressMu);
        Opts.Progress({Done, TotalTasks});
      }
    }
  };

  if (Threads == 1) {
    Work();
    return 1;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Threads - 1);
  for (unsigned T = 0; T + 1 < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &Th : Pool)
    Th.join();
  return Threads;
}

/// Records which engine classifies a campaign: its name and the JIT tier's
/// compile stats, which are per-program constants, then through finish()
/// the campaign's share of the JIT's lifetime side-exit counter.
class EngineProvenance {
public:
  EngineProvenance(const ExecEngine &E, CampaignStats &Stats)
      : JE(dynamic_cast<const vm::JitEngine *>(&E)), Stats(Stats) {
    Stats.Engine = E.name();
    if (!JE)
      return;
    ExitsBefore = JE->sideExits();
    Stats.JitNative = JE->native();
    Stats.JitBlocksCompiled = JE->blocksCompiled();
    Stats.JitCodeBytes = JE->codeBytes();
  }

  void finish() {
    if (JE)
      Stats.JitSideExits = JE->sideExits() - ExitsBefore;
  }

private:
  const vm::JitEngine *JE;
  CampaignStats &Stats;
  uint64_t ExitsBefore = 0;
};

/// Registers the program mentions anywhere, plus the specials.
std::set<unsigned> mentionedRegisters(const Program &Prog) {
  std::set<unsigned> Used;
  for (const Block &B : Prog.blocks()) {
    for (const ProgInst &PI : B.Insts) {
      const Inst &I = PI.I;
      Used.insert(I.Rd.denseIndex());
      Used.insert(I.Rs.denseIndex());
      if (!I.HasImm)
        Used.insert(I.Rt.denseIndex());
    }
  }
  Used.insert(Reg::dest().denseIndex());
  Used.insert(Reg::pcG().denseIndex());
  Used.insert(Reg::pcB().denseIndex());
  return Used;
}

/// The reference state at one injection step, without typing bookkeeping.
struct UntypedSnapshot {
  MachineState S;
  uint64_t Steps = 0;
  size_t TraceLen = 0;
};

/// One (step, site, corruption) triple of the work list.
struct InjectionTask {
  uint32_t SnapIdx = 0;
  FaultSite Site;
  int64_t Value = 0;
};

/// Tracks whether a faulty run's outputs are still the prefix
/// RefTrace[0, MatchPos): one mismatched output makes both the prefix and
/// equality checks fail forever, so no faulty trace needs materializing.
struct PrefixTracker {
  const OutputTrace &RefTrace;
  size_t MatchPos;
  bool Diverged = false;

  void track(const QueueEntry &Out) {
    if (!Diverged && MatchPos < RefTrace.size() && Out == RefTrace[MatchPos])
      ++MatchPos;
    else
      Diverged = true;
  }
};

/// Phase-1 record of which reference transitions may touch each register.
/// Transition k (1-based: the step that produces reference state k) is
/// recorded against a *superset* of the registers whose payload or color
/// can influence its behavior or be written by it: the executed
/// instruction's named operands, plus d for control flow (jmp and bz read
/// and write it). Fetch transitions read only the pcs, which every
/// execute transition also touches (incrementPCs or an explicit set), so
/// the pcs are treated as always-accessed instead of being recorded.
/// Over-approximating the access set only shrinks the skippable prefix;
/// missing a genuine access would be unsound, so the superset property is
/// what the forced-collision and differential tests pin down.
struct AccessLog {
  static constexpr uint64_t None = ~uint64_t{0};
  std::array<std::vector<uint64_t>, Reg::NumRegs> Access;

  void record(Reg R, uint64_t K) {
    std::vector<uint64_t> &V = Access[R.denseIndex()];
    if (V.empty() || V.back() != K)
      V.push_back(K);
  }

  /// Records transition \p K given the pre-step state \p S.
  void recordTransition(const MachineState &S, uint64_t K) {
    if (!S.IR)
      return; // fetch reads only the (always-accessed) pcs
    const Inst &I = *S.IR;
    record(I.Rd, K);
    record(I.Rs, K);
    if (!I.HasImm)
      record(I.Rt, K);
    if (I.Op == Opcode::Jmp || I.Op == Opcode::Bz)
      record(Reg::dest(), K);
  }

  /// First transition index > \p Step that may access \p R, or None when
  /// the reference never touches it again. The pcs are read by the very
  /// next transition, whatever it is.
  uint64_t firstAccessAfter(Reg R, uint64_t Step) const {
    if (R.isPC())
      return Step + 1;
    const std::vector<uint64_t> &V = Access[R.denseIndex()];
    auto It = std::upper_bound(V.begin(), V.end(), Step);
    return It == V.end() ? None : *It;
  }
};

/// Phase-1 record of one executed reference instruction with its read
/// operand values and its result, the raw material of the sparse
/// differential replay. Fetch and execute transitions strictly alternate
/// (step() fetches into the empty IR, executing resets it), so execute
/// transitions are exactly the even step indices and the record of
/// execute step k lives at index k/2 - 1.
struct ExecRec {
  Inst I;
  /// Pre-step val(Rs) — the ALU first operand, the Ld/St address/value
  /// source, or the Bz test register (rz == Rs).
  int64_t SrcRs = 0;
  /// Pre-step val(Rt), or the immediate payload under HasImm.
  int64_t SrcRt = 0;
  /// Post-step val(Rd) (the written result for Alu/Mov/Ld; stale
  /// otherwise).
  int64_t Result = 0;
};

/// The faulty payloads of a differential replay: (dense register index,
/// value) pairs for exactly the registers whose payload differs from the
/// reference. Taint never touches color tags (injectFault preserves them
/// and instruction results take their colors from operand colors, which
/// are payload-independent), so "reference state with these payloads
/// patched in" describes the faulty state completely. The set stays tiny
/// (usually one to three registers), so linear scans beat any map.
struct TaintMap {
  std::vector<std::pair<unsigned, int64_t>> V;

  const int64_t *find(unsigned R) const {
    for (const auto &P : V)
      if (P.first == R)
        return &P.second;
    return nullptr;
  }
  void set(unsigned R, int64_t Val) {
    for (auto &P : V)
      if (P.first == R) {
        P.second = Val;
        return;
      }
    V.push_back({R, Val});
  }
  void erase(unsigned R) {
    for (size_t I = 0; I != V.size(); ++I)
      if (V[I].first == R) {
        V[I] = V.back();
        V.pop_back();
        return;
      }
  }
  bool empty() const { return V.empty(); }
};

/// Writes the taint payloads into \p S, keeping every color tag.
void patchTaint(MachineState &S, const TaintMap &T) {
  for (const auto &P : T.V) {
    Reg R = Reg::fromDenseIndex(P.first);
    Value V = S.Regs.get(R);
    V.N = P.second;
    S.Regs.set(R, V);
  }
}

/// Phase-1 collector for the differential replay: the register access log,
/// the executed instruction stream, and the dense reconstruction
/// snapshots. The snapshot stride starts small and doubles
/// (dropping the odd-indexed half) whenever the cap is hit, bounding
/// memory at MaxSnaps states while preserving the indexing invariant
/// Snaps[k].Steps == k * Stride.
struct ReplayRecorder {
  bool Enabled = false;
  AccessLog Accesses;
  std::vector<ExecRec> Execs;
  std::vector<UntypedSnapshot> Snaps;
  uint64_t Stride = 16;
  static constexpr size_t MaxSnaps = 512;

  void start(const MachineState &S) {
    if (Enabled)
      Snaps.push_back({S, 0, 0});
  }

  /// Call with the pre-step state; \p NextStep is the 1-based index of the
  /// transition about to execute.
  void beforeStep(const MachineState &S, uint64_t NextStep) {
    if (!Enabled)
      return;
    Accesses.recordTransition(S, NextStep);
    if (!S.IR)
      return;
    assert(NextStep == 2 * (Execs.size() + 1) &&
           "fetch/execute alternation broken");
    const Inst &I = *S.IR;
    ExecRec Rec;
    Rec.I = I;
    Rec.SrcRs = S.Regs.val(I.Rs);
    Rec.SrcRt = I.HasImm ? I.Imm.N : S.Regs.val(I.Rt);
    Execs.push_back(Rec);
  }

  void afterStep(const MachineState &S, uint64_t Steps, size_t TraceLen) {
    if (!Enabled)
      return;
    // Execute transitions are the even steps; patch the freshly executed
    // record with the written result (post-step val(Rd)).
    if ((Steps & 1) == 0 && !Execs.empty())
      Execs.back().Result = S.Regs.val(Execs.back().I.Rd);
    if (Steps % Stride)
      return;
    if (Snaps.size() >= MaxSnaps) {
      size_t W = 0;
      for (size_t I = 0; I < Snaps.size(); I += 2)
        Snaps[W++] = std::move(Snaps[I]);
      Snaps.resize(W);
      Stride *= 2;
      if (Steps % Stride)
        return;
    }
    Snaps.push_back({S, Steps, TraceLen});
  }
};

/// Sparse differential replay of one register-site continuation against
/// the recorded reference instruction stream: the big accelerator for
/// register-site continuations, which full-state simulation can only
/// classify step by step.
///
/// The soundness backbone is *structural lockstep*: as long as every
/// register payload that differs from the reference is confined to the
/// TaintMap, the faulty run executes exactly the reference's instruction
/// sequence. Fetches read only the (untainted) pcs; memory changes only
/// through stB commits, and a commit whose inputs are tainted is never
/// reached differentially (its stG or stB is an event that bails first),
/// so memory and queue stay reference-equal throughout; similarly a
/// control transition with tainted inputs bails. Every transition whose
/// accessed registers are all untainted therefore reads reference values,
/// fires the reference rule, writes reference values and emits the
/// reference outputs — only the *events*, the transitions the access log
/// says may touch a tainted register, need attention:
///
///   - alu: the faulty result is evalAluOp over the recorded source
///     values with taint overrides; equal to the recorded result it
///     kills the Rd taint, different it retaints Rd;
///   - mov: Rd takes the immediate — the reference result — killing Rd's
///     taint unconditionally;
///   - ld with an untainted address: reads reference-equal memory (and,
///     for ldG, a reference-equal queue), so Rd gets the reference
///     result, killing its taint; a tainted address bails;
///   - bz whose target and d are untainted and whose faulty test value
///     agrees with the reference direction (both fall through): no
///     register writes, taint unchanged; any disagreement bails;
///   - everything else (st, jmp, tainted control inputs) bails to the
///     concrete classifier.
///
/// Three ways out, all verdict-exact against the full simulation:
///
///   - the taint set empties: the faulty state now equals the reference
///     state exactly, so the remainder is the reference tail — Masked;
///   - no tainted register is ever accessed again: the run is lockstep
///     to the halt, the trace completes, and the final state is RefFinal
///     with the taint patched in — only the similarity check remains;
///   - bail: the reference state just before the event with the taint
///     payloads patched in IS the faulty state there (by the invariant),
///     so nullopt reports the resume step and the taint map through
///     \p Bail and the caller simulates concretely from that state. The
///     bail step mostly depends on the taint *set*, not the corrupted
///     payloads, so the values zapped into one site tend to bail at the
///     same event — the caller pools continuations by bail step,
///     reconstructs each pool's base state once and patches each one's
///     taint in.
///
/// Event processing costs an order of magnitude more than one raw
/// interpreter step, so a run whose taint is touched at nearly every
/// instruction caps its event count and bails instead of losing the race.
struct DeferredBail {
  /// Absolute reference step to resume from (post-fetch: the event
  /// instruction is in flight there and re-executes for real).
  uint64_t Resume = 0;
  /// The register payloads that differ from the reference at Resume.
  TaintMap Taint;
};

// Kept out of line: inlined into the snapshot-block classifier, its event
// loop lost about 8% of the pruned Figure 10 sweep (perfbench fig10-prune,
// 6 alternating pairs) to the larger caller's register allocation.
[[gnu::noinline]] std::optional<Verdict>
differentialReplay(const ReplayRecorder &Replay, const FaultSite &Site,
                   int64_t Value, uint64_t InjectedAt,
                   const MachineState &RefFinal, uint64_t RefSteps, ZapTag Z,
                   uint64_t &Skipped, DeferredBail &Bail) {
  const AccessLog &AL = Replay.Accesses;
  const std::vector<ExecRec> &Execs = Replay.Execs;
  TaintMap T;
  T.set(Site.R.denseIndex(), Value);

  uint64_t Cur = InjectedAt;
  uint64_t Events = 0;
  uint64_t Event = 0;
  while (true) {
    // The next reference transition that may touch any tainted register.
    uint64_t K = AccessLog::None;
    for (const auto &P : T.V)
      K = std::min(K, AL.firstAccessAfter(Reg::fromDenseIndex(P.first), Cur));
    if (K == AccessLog::None) {
      Skipped = RefSteps - InjectedAt;
      // The faulty final state is RefFinal with the taint payloads patched
      // in — identical everywhere else — so the similarity check reduces
      // to the tainted registers; no state copy needed.
      if (RefFinal.isFault())
        return Verdict::Masked;
      for (const auto &P : T.V) {
        talft::Value RefV = RefFinal.Regs.get(Reg::fromDenseIndex(P.first));
        if (!similarValues(Z, talft::Value(RefV.C, P.second), RefV))
          return Verdict::DissimilarState;
      }
      return Verdict::Masked;
    }
    assert((K & 1) == 0 && K / 2 <= Execs.size() &&
           "event is not a recorded execute transition");
    // Progress gate: an event costs several interpreter steps, so the
    // replay only pays off while events stay sparse. Dense taint (many
    // hot registers) discharges few steps per event; hand such runs to
    // the concrete classifier before the bookkeeping loses the race.
    if (++Events >= 32 && K - InjectedAt < 8 * Events) {
      Event = K;
      break;
    }
    const ExecRec &Rec = Execs[K / 2 - 1];
    const Inst &I = Rec.I;
    bool Handled = true;
    switch (I.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul: {
      const int64_t *TA = T.find(I.Rs.denseIndex());
      int64_t A = TA ? *TA : Rec.SrcRs;
      int64_t B = Rec.SrcRt;
      if (!I.HasImm)
        if (const int64_t *TB = T.find(I.Rt.denseIndex()))
          B = *TB;
      int64_t R = evalAluOp(I.Op, A, B);
      if (R == Rec.Result)
        T.erase(I.Rd.denseIndex());
      else
        T.set(I.Rd.denseIndex(), R);
      break;
    }
    case Opcode::Mov:
      T.erase(I.Rd.denseIndex());
      break;
    case Opcode::Ld:
      if (T.find(I.Rs.denseIndex()))
        Handled = false;
      else
        T.erase(I.Rd.denseIndex());
      break;
    case Opcode::Bz: {
      if (T.find(I.Rd.denseIndex()) || T.find(Reg::dest().denseIndex())) {
        Handled = false;
        break;
      }
      const int64_t *TZ = T.find(I.Rs.denseIndex());
      int64_t Zf = TZ ? *TZ : Rec.SrcRs;
      if ((Zf == 0) != (Rec.SrcRs == 0) || Zf == 0)
        Handled = false; // direction differs (or, defensively, taken)
      break;
    }
    default:
      Handled = false; // st, jmp: hand over to the concrete classifier
      break;
    }
    if (!Handled) {
      Event = K;
      break;
    }
    Cur = K;
    if (T.empty()) {
      Skipped = K - InjectedAt;
      return Verdict::Masked;
    }
  }
  Bail.Resume = Event - 1;
  Bail.Taint = std::move(T);
  return std::nullopt;
}

/// Runs the faulty state \p S to completion on \p E within \p Budget
/// steps and classifies it. \p Prefix already accounts for the outputs
/// emitted before \p S. The final state is compared with \p RefFinal
/// modulo \p Z; a null \p Z (a plan that corrupted both colors) has no
/// similarity index, so the run classifies on its trace alone. The
/// engine's runContinuation reproduces the serial checker's control flow
/// exactly (exit check before budget check) so verdicts agree bit-for-bit
/// with the historical classifier — and, since engines are
/// observationally identical, for every engine.
Verdict classifyContinuation(const ExecEngine &E, Addr ExitAddr,
                             const StepPolicy &Policy, uint64_t Budget,
                             PrefixTracker &Prefix,
                             const MachineState &RefFinal, MachineState &S,
                             const ZapTag *Z) {
  const OutputTrace &RefTrace = Prefix.RefTrace;
  RunStatus St = E.runContinuation(
      S, ExitAddr, Budget, Policy,
      [&Prefix](const QueueEntry &Out) { Prefix.track(Out); });
  switch (St) {
  case RunStatus::OutOfSteps:
    return Verdict::BudgetExhausted;
  case RunStatus::Stuck:
    return Verdict::Stuck;
  case RunStatus::FaultDetected:
    return Prefix.Diverged ? Verdict::DetectedBadPrefix : Verdict::Detected;
  case RunStatus::Halted:
    break;
  }
  if (Prefix.Diverged || Prefix.MatchPos != RefTrace.size())
    return Verdict::SilentCorruption;
  if (Z && !similarStates(*Z, S, RefFinal))
    return Verdict::DissimilarState;
  return Verdict::Masked;
}

/// Outcome of one injection under recovery: a verdict, the violation text
/// when non-empty, and the run's checkpoint/rollback activity.
struct RecoveredOutcome {
  Verdict V = Verdict::Masked;
  std::string Detail;
  RecoveryStats Stats;
};

/// The recovery-mode classifier: same injection, but the continuation
/// runs under the checkpoint/rollback layer. The fault is injected by the
/// step hook at hook time 0, after the RecoveringEngine has captured the
/// pre-injection state as its seed checkpoint — the last commit point the
/// hardware verified before the upset.
RecoveredOutcome classifyRecoveringContinuation(
    const ExecEngine &E, Addr ExitAddr, const StepPolicy &Policy,
    const RecoveryPolicy &RP, uint64_t ExtraSteps, const OutputTrace &RefTrace,
    const MachineState &RefFinal, uint64_t RefSteps, MachineState S,
    uint64_t AtSteps, size_t TraceLen, const FaultSite &Site, int64_t Value) {
  RecoveredOutcome O;
  ZapTag Z = ZapTag::color(faultColor(S, Site));

  PrefixTracker Prefix{RefTrace, TraceLen};
  RecoveringEngine RE(E, RP);
  RecoveringEngine::RunSpec Spec;
  Spec.ExitAddr = ExitAddr;
  Spec.Budget = RefSteps - AtSteps + ExtraSteps;
  Spec.Policy = Policy;
  Spec.OnOutput = [&Prefix](const QueueEntry &Out) { Prefix.track(Out); };
  Spec.Hook = [&Site, Value](MachineState &MS, uint64_t Taken) {
    if (Taken == 0)
      injectFault(MS, Site, Value);
  };
  RecoveryResult RR = RE.run(S, Spec);
  O.Stats = RR.Stats;

  auto Abnormal = [&](Verdict V) {
    O.V = V;
    O.Detail = describeInjection(Site, Value, AtSteps, abnormalMessage(V));
  };
  bool PrefixOk = !Prefix.Diverged;
  switch (RR.Status) {
  case RecoveryStatus::OutOfSteps:
    // Satellite fix: the step budget is shared by rollback replays, so
    // exhausting it mid-recovery is an escalation with its own message,
    // not a plain BudgetExhausted.
    if (RR.Stats.Rollbacks > 0) {
      O.V = Verdict::RecoveryEscalated;
      O.Detail = describeInjection(
          Site, Value, AtSteps,
          formatv("faulty run exceeded its shared step budget during "
                  "recovery (%llu rollback replay%s); escalated to fail-stop",
                  (unsigned long long)RR.Stats.Rollbacks,
                  RR.Stats.Rollbacks == 1 ? "" : "s")
              .c_str());
    } else {
      Abnormal(Verdict::BudgetExhausted);
    }
    return O;
  case RecoveryStatus::Stuck:
    Abnormal(Verdict::Stuck);
    return O;
  case RecoveryStatus::Escalated:
    // Fail-stop with every emitted output verified: the prefix guarantee
    // holds and the escalation is benign. A diverged prefix is the same
    // violation it always was.
    if (PrefixOk)
      O.V = Verdict::RecoveryEscalated;
    else
      Abnormal(Verdict::DetectedBadPrefix);
    return O;
  case RecoveryStatus::Halted:
    break;
  }

  if (Prefix.Diverged || Prefix.MatchPos != RefTrace.size()) {
    Abnormal(Verdict::SilentCorruption);
    return O;
  }
  if (!similarStates(Z, S, RefFinal)) {
    Abnormal(Verdict::DissimilarState);
    return O;
  }
  O.V = RR.Stats.Rollbacks > 0 ? Verdict::Recovered : Verdict::Masked;
  return O;
}

/// Outcome of one typed-mode injection (serial path).
struct TypedOutcome {
  Verdict V = Verdict::Masked;
  std::string Detail;
  uint64_t Typechecked = 0;
};

/// The typed-mode continuation from \p Run, restored to its injection
/// point: identical classification, but every state (strided) is re-typed
/// under the corrupted color's zap tag (Theorem 2 part 2). Runs through
/// TrackedRun and the shared TypeContext, hence serial-only.
TypedOutcome runTypedInjection(const TheoremConfig &Config, TrackedRun &Run,
                               const FaultSite &Site, int64_t Corruption,
                               uint64_t RefSteps, const MachineState &RefFinal,
                               const OutputTrace &RefTrace) {
  TypedOutcome O;
  uint64_t AtSteps = Run.steps();
  Run.injectSingleFault(Site, Corruption);

  auto Fail = [&](Verdict V, const char *What) {
    O.V = V;
    O.Detail = describeInjection(Site, Corruption, AtSteps, What);
  };

  uint64_t TypeStride = std::max<uint64_t>(1, Config.FaultyTypeCheckStride);
  uint64_t Budget = RefSteps - AtSteps + Config.ExtraSteps;
  uint64_t Taken = 0;
  uint64_t SinceInjection = 0;
  while (true) {
    if (SinceInjection % TypeStride == 0) {
      if (Error E = Run.checkTyped()) {
        Fail(Verdict::IllTyped,
             ("faulty state not well-typed: " + E.message()).c_str());
        return O;
      }
      ++O.Typechecked;
    }
    if (Run.atExitBlock())
      break;
    if (Taken >= Budget) {
      Fail(Verdict::BudgetExhausted, abnormalMessage(Verdict::BudgetExhausted));
      return O;
    }
    StepResult SR = Run.stepOnce();
    ++Taken;
    ++SinceInjection;
    if (SR.Status == StepStatus::Stuck) {
      Fail(Verdict::Stuck, abnormalMessage(Verdict::Stuck));
      return O;
    }
    if (SR.Status == StepStatus::Fault) {
      if (isTracePrefix(Run.trace(), RefTrace)) {
        O.V = Verdict::Detected;
      } else {
        Fail(Verdict::DetectedBadPrefix,
             abnormalMessage(Verdict::DetectedBadPrefix));
      }
      return O;
    }
  }

  if (!(Run.trace() == RefTrace)) {
    Fail(Verdict::SilentCorruption, abnormalMessage(Verdict::SilentCorruption));
    return O;
  }
  if (!similarStates(Run.zapTag(), Run.state(), RefFinal)) {
    Fail(Verdict::DissimilarState, abnormalMessage(Verdict::DissimilarState));
    return O;
  }
  O.V = Verdict::Masked;
  return O;
}

/// Builds the static pruning oracle when the caller asked for one and the
/// analysis can vouch for the program (fully resolved CFG). Analysis
/// failures quietly fall back to the unpruned sweep — pruning is an
/// optimization, never a requirement.
std::optional<analysis::ZapCoverage>
buildPruneOracle(const Program &Prog, const CampaignOptions &Opts) {
  if (!Opts.Prune)
    return std::nullopt;
  Expected<analysis::ZapCoverage> Z = analysis::ZapCoverage::compute(Prog);
  if (!Z || !Z->pruneSound())
    return std::nullopt;
  return std::move(*Z);
}

/// Builds the CFI target table for --cfi-check campaigns: every commit's
/// per-jump resolved set, whatever its provenance — validating the
/// type-narrowed sets dynamically is the point. Analysis failures quietly
/// disable checking (the table is a soundness oracle, not a requirement).
std::unique_ptr<CfiTable> buildCfiTable(const Program &Prog,
                                        const CampaignOptions &Opts) {
  if (!Opts.CfiCheck)
    return nullptr;
  Expected<analysis::CFG> G = analysis::CFG::build(Prog);
  if (!G)
    return nullptr;
  auto Table = std::make_unique<CfiTable>(G->minAddr(), G->numInsts());
  for (Addr A = G->minAddr(); A != G->limitAddr(); ++A) {
    if (!G->isCommit(A))
      continue;
    const std::vector<Addr> &Targets = G->controlTargets(A);
    Table->setAllowed(A, std::vector<int64_t>(Targets.begin(), Targets.end()));
  }
  return Table;
}

/// Phase 2: the full work list over the injection-point snapshots \p Snaps
/// in the order the serial checker visits it, so merged violation lists
/// match it exactly. With \p Prune, provably-dead register sites are
/// tallied into \p Table as StaticallyMasked instead of being enumerated —
/// exactly the triples the unpruned sweep would have classified, so the
/// table total is invariant under pruning.
///
/// \p SpecialDischarge additionally arms the control-register discharge,
/// which the caller enables only when the oracle vouches that the specials
/// appear in control positions alone
/// (ZapCoverage::specialSiteDischargeSound), the campaign is untyped and
/// recovery-free, and ExtraSteps covers the predicted fault. \p LastCtrl
/// is the reference step count at which a control instruction was last in
/// flight (-1 for none), so a snapshot taken at or before it still has a
/// control ahead. The rules mirror the dynamic classifier exactly:
///
///   d-zap — no non-control instruction can read or write d, so the
///   corrupted value survives verbatim until the next control executes,
///   where the d-protocol compares it (jmpG/bz demand d = 0; jmpB/bzB
///   demand d equal to the blue replica): with a control ahead the faulty
///   run faults on a reference-prefix trace (Detected); with none the run
///   replays the reference and ends similar modulo the green d (Masked).
///
///   pc-zap — the pcs are equal at every snapshot boundary, so corrupting
///   one desynchronizes them and the next fetch faults (Detected) —
///   unless the in-flight instruction is a committing blue control about
///   to succeed (it must: the reference completed), which overwrites both
///   pcs with the verified target and reproduces the reference state
///   exactly (Masked).
std::vector<InjectionTask>
enumerateTasks(const Program &Prog, const TheoremConfig &Config,
               const std::vector<UntypedSnapshot> &Snaps,
               const analysis::ZapCoverage *Prune, bool SpecialDischarge,
               int64_t LastCtrl, VerdictTable &Table) {
  std::set<unsigned> UsedRegs;
  if (Config.OnlyMentionedRegisters)
    UsedRegs = mentionedRegisters(Prog);
  std::vector<int64_t> Corruptions = representativeCorruptions(Prog);

  std::vector<InjectionTask> Tasks;
  for (size_t SI = 0; SI != Snaps.size(); ++SI) {
    const MachineState &S = Snaps[SI].S;
    // The pcs are only bumped when the next rule fires, so pcG's payload
    // is the address of the instruction the next transition executes —
    // whether or not it is already fetched into IR.
    Addr Here = S.pcG().N;
    for (const FaultSite &Site : enumerateFaultSites(S)) {
      if (Config.OnlyMentionedRegisters &&
          Site.K == FaultSite::Kind::Register &&
          !UsedRegs.count(Site.R.denseIndex()))
        continue;
      int64_t Current = currentValueAt(S, Site);
      if (Prune && Site.K == FaultSite::Kind::Register &&
          Prune->deadRegisterSite(Here, Site.R)) {
        for (int64_t Corruption : Corruptions)
          if (Corruption != Current)
            ++Table[Verdict::StaticallyMasked];
        continue;
      }
      if (Prune && SpecialDischarge && Site.K == FaultSite::Kind::Register &&
          (Site.R.isDest() || Site.R.isPC())) {
        Verdict V;
        if (Site.R.isDest()) {
          bool CtrlAhead =
              LastCtrl >= 0 && (uint64_t)LastCtrl >= Snaps[SI].Steps;
          V = CtrlAhead ? Verdict::StaticallyDetected
                        : Verdict::StaticallyMasked;
        } else {
          bool CommitInFlight =
              S.IR && S.IR->isControlFlow() && S.IR->C == Color::Blue &&
              (S.IR->Op == Opcode::Jmp || S.Regs.val(S.IR->rz()) == 0);
          V = CommitInFlight ? Verdict::StaticallyMasked
                             : Verdict::StaticallyDetected;
        }
        for (int64_t Corruption : Corruptions)
          if (Corruption != Current)
            ++Table[V];
        continue;
      }
      for (int64_t Corruption : Corruptions) {
        if (Corruption == Current)
          continue; // reg-zap replaces the value with a *different* one.
        Tasks.push_back({(uint32_t)SI, Site, Corruption});
      }
    }
  }
  return Tasks;
}

/// Replaces \p Tasks with the contiguous slice the requested shard covers
/// ([I*T/N, (I+1)*T/N) of the T enumerated tasks) and records the shard
/// provenance in \p R. Enumeration is deterministic and tasks classify
/// independently, so folding the N shard results in index order
/// (foldShardResult) reproduces the unsharded campaign bit for bit.
/// Returns false (with a campaign-level violation) on an out-of-range
/// shard index.
bool applyShardSlice(const CampaignOptions &Opts, const TheoremConfig &Config,
                     std::vector<InjectionTask> &Tasks, CampaignResult &R) {
  unsigned Count = std::max(1u, Opts.ShardCount);
  R.Stats.ShardCount = Count;
  R.Stats.ShardIndex = Opts.ShardIndex;
  R.Stats.TotalTasks = Tasks.size();
  if (Count == 1 && Opts.ShardIndex == 0)
    return true;
  if (Opts.ShardIndex >= Count) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(formatv("shard index %u out of range for %u "
                                     "shard(s)",
                                     Opts.ShardIndex, Count));
    Tasks.clear();
    return false;
  }
  uint64_t T = Tasks.size();
  uint64_t Lo = T * Opts.ShardIndex / Count;
  uint64_t Hi = T * (uint64_t)(Opts.ShardIndex + 1) / Count;
  R.Stats.ShardFirstTask = Lo;
  // Statically pruned sites are tallied during enumeration, which every
  // shard repeats; assign them to shard 0 alone so the N shard tables sum
  // to the unsharded table exactly.
  if (Opts.ShardIndex != 0) {
    R.Table[Verdict::StaticallyMasked] = 0;
    R.Table[Verdict::StaticallyDetected] = 0;
  }
  Tasks.erase(Tasks.begin() + (ptrdiff_t)Hi, Tasks.end());
  Tasks.erase(Tasks.begin(), Tasks.begin() + (ptrdiff_t)Lo);
  return true;
}

/// The phase-1 record of one reference execution.
struct ReferenceRun {
  /// The injection points: every InjectionStride steps, step 0 included.
  std::vector<UntypedSnapshot> Snaps;
  /// Typed campaigns only: the closing substitution at each snapshot.
  std::vector<Subst> Closings;
  OutputTrace Trace;
  MachineState Final;
  uint64_t Steps = 0;
  /// Step count of the latest point where a control instruction was
  /// in flight (about to execute), or -1: a snapshot taken at or before
  /// it still has a control ahead of it (the d-register discharge input).
  int64_t LastCtrl = -1;
  ReplayRecorder Replay;
};

/// Phase 1 (serial): runs the reference execution in \p S to the exit
/// block and records it into \p Ref. \p StepOnce advances \p S by one
/// transition: the campaign's engine, or, in typed campaigns, \p Tracked,
/// the TrackedRun that owns \p S, whose closing substitution is kept
/// beside every snapshot. Returns the violation text when the run fails
/// and an empty string otherwise.
template <typename StepFn>
std::string recordReference(MachineState &S, Addr ExitAddr,
                            const TheoremConfig &Config, StepFn StepOnce,
                            const TrackedRun *Tracked, ReferenceRun &Ref) {
  uint64_t Stride = std::max<uint64_t>(1, Config.InjectionStride);
  auto TakeSnapshot = [&] {
    Ref.Snaps.push_back({S, Ref.Steps, Ref.Trace.size()});
    if (Tracked)
      Ref.Closings.push_back(Tracked->closing());
  };
  TakeSnapshot(); // Step 0 is always an injection point.
  Ref.Replay.start(S);
  while (!atExit(S, ExitAddr)) {
    if (Ref.Steps >= Config.MaxSteps)
      return "reference run exceeded MaxSteps";
    if (S.IR && S.IR->isControlFlow())
      Ref.LastCtrl = (int64_t)Ref.Steps;
    Ref.Replay.beforeStep(S, Ref.Steps + 1);
    StepResult SR = StepOnce();
    ++Ref.Steps;
    if (SR.Output)
      Ref.Trace.push_back(*SR.Output);
    if (SR.Status != StepStatus::Ok)
      return formatv("reference run failed at step %llu (%s)",
                     (unsigned long long)Ref.Steps,
                     SR.Status == StepStatus::Stuck ? "stuck"
                                                    : "false positive");
    Ref.Replay.afterStep(S, Ref.Steps, Ref.Trace.size());
    if (Ref.Steps % Stride == 0)
      TakeSnapshot();
  }
  Ref.Final = S;
  return {};
}

/// Phase 3, untyped: classifies every task in parallel on the raw
/// semantics — with or without the recovery layer — and merges verdicts,
/// violations and recovery stats into \p R deterministically. An armed
/// recorder in \p Ref arms the differential replay.
void classifyUntypedTasks(const Program &Prog, const TheoremConfig &Config,
                          const CampaignOptions &Opts,
                          const std::vector<InjectionTask> &Tasks,
                          const ReferenceRun &Ref, CampaignResult &R) {
  auto AddViolation = [&](std::string V) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(std::move(V));
  };

  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();
  EngineProvenance Provenance(E, R.Stats);
  const std::vector<UntypedSnapshot> &Snaps = Ref.Snaps;
  const ReplayRecorder &Replay = Ref.Replay;
  bool Recover = Config.Recovery.Enabled;
  // The recorder is armed only for recovery-free untyped campaigns.
  bool Converge = Replay.Enabled;
  R.Stats.Converge = Converge;
  Addr ExitAddr = Prog.exitAddress();
  std::vector<uint8_t> Verdicts(Tasks.size(), 0);
  std::vector<std::string> Details(Tasks.size());
  std::vector<RecoveryStats> TaskStats(Recover ? Tasks.size() : 0);
  std::vector<uint64_t> Skipped(Converge ? Tasks.size() : 0);
  auto Record = [&](uint64_t I, Verdict V) {
    Verdicts[I] = (uint8_t)V;
    if (!isBenign(V))
      Details[I] = describeInjection(Tasks[I].Site, Tasks[I].Value,
                                     Snaps[Tasks[I].SnapIdx].Steps,
                                     abnormalMessage(V));
  };
  // The concrete classifier from faulty state S at reference step AtSteps,
  // with the first TraceLen reference outputs already emitted.
  auto Classify = [&](uint64_t I, MachineState &S, uint64_t AtSteps,
                      size_t TraceLen, ZapTag Z) {
    PrefixTracker Prefix{Ref.Trace, TraceLen};
    Record(I, classifyContinuation(E, ExitAddr, Config.Policy,
                                   Ref.Steps - AtSteps + Config.ExtraSteps,
                                   Prefix, Ref.Final, S, &Z));
  };
  // One continuation from its injection point.
  auto RunOne = [&](uint64_t I) -> uint64_t {
    const InjectionTask &T = Tasks[I];
    const UntypedSnapshot &Snap = Snaps[T.SnapIdx];
    MachineState S;
    size_t TraceLen;
    if (Opts.Resume == ResumeMode::Snapshot) {
      S = Snap.S;
      TraceLen = Snap.TraceLen;
    } else {
      S = Snaps[0].S; // the initial state
      OutputTrace Prefix;
      E.replaySteps(S, Snap.Steps, Prefix, Config.Policy);
      TraceLen = Prefix.size();
    }
    if (Recover) {
      RecoveredOutcome O = classifyRecoveringContinuation(
          E, ExitAddr, Config.Policy, Config.Recovery, Config.ExtraSteps,
          Ref.Trace, Ref.Final, Ref.Steps, std::move(S), Snap.Steps, TraceLen,
          T.Site, T.Value);
      Verdicts[I] = (uint8_t)O.V;
      Details[I] = std::move(O.Detail);
      TaskStats[I] = O.Stats;
      return 1;
    }
    ZapTag Z = ZapTag::color(faultColor(S, T.Site));
    injectFault(S, T.Site, T.Value);
    Classify(I, S, Snap.Steps, TraceLen, Z);
    return 1;
  };

  if (!Converge || Replay.Execs.empty()) {
    R.Stats.ThreadsUsed =
        dispatchTasks(Opts.Threads, Tasks.size(), Tasks.size(), RunOne, Opts);
  } else {
    // With the differential replay armed, each worker owns whole blocks
    // of the snapshot-major task list. pc sites (accessed by the very
    // next transition, so the replay discharges nothing) and memory and
    // queue sites run from their injection point. Register sites go
    // through the replay; what it cannot settle is pooled by bail step:
    // the pools resume at increasing reference steps, so one rolled
    // reconstruction serves them all — each pool replays the reference
    // forward from the previous pool's bail step (or from the closest
    // snapshot, whichever is nearer), and every continuation in it runs
    // alone from a copy with its own taint patched in. Per-task result
    // slots keep the merge deterministic.
    constexpr uint64_t BlockCap = 512;
    std::vector<std::pair<uint64_t, uint64_t>> Blocks;
    for (uint64_t I = 0; I != Tasks.size();) {
      uint64_t J = I + 1;
      while (J != Tasks.size() && Tasks[J].SnapIdx == Tasks[I].SnapIdx &&
             J - I < BlockCap)
        ++J;
      Blocks.push_back({I, J});
      I = J;
    }

    struct BailEntry {
      uint64_t Resume;
      uint64_t Task;
      ZapTag Z;
      TaintMap Taint;
    };
    auto RunBlock = [&](uint64_t B) -> uint64_t {
      auto [Begin, End] = Blocks[B];
      std::vector<BailEntry> Bails;
      for (uint64_t I = Begin; I != End; ++I) {
        const InjectionTask &T = Tasks[I];
        if (T.Site.K != FaultSite::Kind::Register || T.Site.R.isPC()) {
          RunOne(I);
          continue;
        }
        const UntypedSnapshot &Snap = Snaps[T.SnapIdx];
        ZapTag Z = ZapTag::color(faultColor(Snap.S, T.Site));
        DeferredBail DB;
        if (std::optional<Verdict> V =
                differentialReplay(Replay, T.Site, T.Value, Snap.Steps,
                                   Ref.Final, Ref.Steps, Z, Skipped[I], DB))
          Record(I, *V);
        else
          Bails.push_back({DB.Resume, I, Z, std::move(DB.Taint)});
      }
      // The stable sort keeps task order within a pool.
      std::stable_sort(Bails.begin(), Bails.end(),
                       [](const BailEntry &A, const BailEntry &B) {
                         return A.Resume < B.Resume;
                       });
      MachineState Roll;
      uint64_t RollAt = 0;
      size_t RollLen = 0;
      bool HaveRoll = false;
      for (const BailEntry &Bail : Bails) {
        uint64_t Resume = Bail.Resume;
        const UntypedSnapshot &Snap = Snaps[Tasks[Bail.Task].SnapIdx];
        if (!HaveRoll || RollAt != Resume) {
          const UntypedSnapshot &CB = Replay.Snaps[Resume / Replay.Stride];
          const UntypedSnapshot &SB = Snap.Steps > CB.Steps ? Snap : CB;
          assert(SB.Steps <= Resume && "snapshot stride invariant violated");
          OutputTrace Rep;
          if (HaveRoll && RollAt >= SB.Steps) {
            E.replaySteps(Roll, Resume - RollAt, Rep, Config.Policy);
            RollLen += Rep.size();
          } else {
            Roll = SB.S;
            E.replaySteps(Roll, Resume - SB.Steps, Rep, Config.Policy);
            RollLen = SB.TraceLen + Rep.size();
            HaveRoll = true;
          }
          RollAt = Resume;
        }
        Skipped[Bail.Task] = Resume - Snap.Steps;
        MachineState S = Roll;
        patchTaint(S, Bail.Taint);
        Classify(Bail.Task, S, Resume, RollLen, Bail.Z);
      }
      return End - Begin;
    };
    R.Stats.ThreadsUsed = dispatchTasks(Opts.Threads, Blocks.size(),
                                        Tasks.size(), RunBlock, Opts);
  }

  // Deterministic merge: counters sum (order-independent), violations keep
  // enumeration order.
  for (size_t I = 0; I != Tasks.size(); ++I) {
    R.Table[(Verdict)Verdicts[I]] += 1;
    if (!Details[I].empty())
      AddViolation(std::move(Details[I]));
    if (Recover)
      R.Recovery.merge(TaskStats[I]);
    if (Converge && Skipped[I]) {
      ++R.Stats.LockstepSkips;
      R.Stats.LockstepSteps += Skipped[I];
    }
  }
  Provenance.finish();
}

/// The single-fault sweep behind both public entry points. \p CP (with
/// \p TC) is the checked form of \p Prog when the caller has one: the
/// campaign then checks the initial closing substitution and may re-type
/// faulty states (TypeCheckFaultyStates); without it \p Prog runs on the
/// raw semantics alone. Every campaign except a typed one records its
/// reference on the selected engine.
void runSweep(CampaignResult &R, const Program &Prog, TypeContext *TC,
              const CheckedProgram *CP, const TheoremConfig &Config,
              const CampaignOptions &Opts) {
  auto AddViolation = [&](std::string V) {
    R.Ok = false;
    if (R.Violations.size() < Config.MaxViolations)
      R.Violations.push_back(std::move(V));
  };
  bool Typed = Config.TypeCheckFaultyStates;
  if (Typed && !CP) {
    AddViolation("the raw-semantics sweep cannot re-typecheck faulty states; "
                 "use runFaultToleranceCampaign on a checked program");
    return;
  }
  if (Typed && Config.Recovery.Enabled) {
    AddViolation("recovery cannot be combined with TypeCheckFaultyStates: "
                 "rollback replays run on the raw semantics");
    return;
  }

  Clock::time_point RefStart = Clock::now();
  Expected<MachineState> Init = Prog.initialState();
  if (Error Err = Init.takeError()) {
    AddViolation("cannot start: " + Err.message());
    return;
  }
  Addr ExitAddr = Prog.exitAddress();
  R.ProgramHash =
      programContentHash(Prog.code(), Prog.entryAddress(), ExitAddr, *Init);
  // A checked program's initial state must have a closing substitution;
  // only typed campaigns go on tracking it.
  std::optional<TrackedRun> Run;
  if (CP) {
    Run.emplace(*TC, *CP, Config.Policy);
    if (Error Err = Run->start()) {
      AddViolation("cannot start: " + Err.message());
      return;
    }
  }

  // Phase 1 (serial): the reference execution, snapshotting every
  // injection step. The differential replay's recording is skipped by
  // typed campaigns (they must type every intermediate state) and
  // recovery campaigns (rollback replays re-diverge from the reference).
  ReferenceRun Ref;
  Ref.Replay.Enabled = !Typed && !Config.Recovery.Enabled && Opts.Converge;
  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();
  MachineState S = *Init;
  std::string Failure =
      Typed ? recordReference(
                  Run->state(), ExitAddr, Config,
                  [&] { return Run->stepOnce(); }, &*Run, Ref)
            : recordReference(
                  S, ExitAddr, Config,
                  [&] { return E.step(S, Config.Policy); }, nullptr, Ref);
  if (!Failure.empty()) {
    AddViolation(std::move(Failure));
    return;
  }
  R.ReferenceSteps = Ref.Steps;
  R.ReferenceTrace = Ref.Trace;

  std::optional<analysis::ZapCoverage> Oracle = buildPruneOracle(Prog, Opts);
  // Control-register discharge needs the oracle's guarantee that specials
  // never appear as instruction operands, the raw semantics (typed
  // campaigns re-check states, recovery rewrites continuations), and
  // enough extra steps for the corrupted run to reach its next control.
  bool SpecialDischarge = Oracle && Oracle->specialSiteDischargeSound() &&
                          !Typed && !Config.Recovery.Enabled &&
                          Config.ExtraSteps >= 2;
  std::vector<InjectionTask> Tasks =
      enumerateTasks(Prog, Config, Ref.Snaps, Oracle ? &*Oracle : nullptr,
                     SpecialDischarge, Ref.LastCtrl, R.Table);
  R.Stats.ReferenceSeconds = secondsSince(RefStart);
  if (!applyShardSlice(Opts, Config, Tasks, R))
    return;
  R.Stats.Tasks = Tasks.size();
  R.Stats.Pruned = Oracle.has_value();
  R.Stats.PrunedTasks = R.Table[Verdict::StaticallyMasked] +
                        R.Table[Verdict::StaticallyDetected];
  R.Stats.PrunedDetected = R.Table[Verdict::StaticallyDetected];

  // Phase 3: classify every continuation.
  Clock::time_point InjectStart = Clock::now();
  if (Typed) {
    // Typed campaigns re-check ⊢Z S through the TrackedRun, which owns the
    // typing bookkeeping and the shared TypeContext, so they run serially
    // on the reference semantics.
    R.Stats.Engine = referenceEngine().name();
    auto RunTyped = [&](uint64_t I) -> uint64_t {
      const InjectionTask &T = Tasks[I];
      const UntypedSnapshot &Snap = Ref.Snaps[T.SnapIdx];
      if (Opts.Resume == ResumeMode::Snapshot) {
        Run->restore({Snap.S, Ref.Closings[T.SnapIdx],
                      OutputTrace(Ref.Trace.begin(),
                                  Ref.Trace.begin() + Snap.TraceLen),
                      Snap.Steps});
      } else {
        // Rebuild the injection point by re-executing the reference
        // prefix from step 0.
        Run->restore({Ref.Snaps[0].S, Ref.Closings[0], {}, 0});
        while (Run->steps() < Snap.Steps)
          Run->stepOnce();
      }
      TypedOutcome O = runTypedInjection(Config, *Run, T.Site, T.Value,
                                         Ref.Steps, Ref.Final, Ref.Trace);
      R.Table[O.V] += 1;
      R.StatesTypechecked += O.Typechecked;
      if (!isBenign(O.V))
        AddViolation(std::move(O.Detail));
      return 1;
    };
    R.Stats.ThreadsUsed =
        dispatchTasks(1, Tasks.size(), Tasks.size(), RunTyped, Opts);
  } else {
    classifyUntypedTasks(Prog, Config, Opts, Tasks, Ref, R);
  }

  if (Opts.ShardRetiredHook)
    Opts.ShardRetiredHook(R.Stats.ShardIndex, R.Stats.ShardCount);
  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond = (double)Tasks.size() / R.Stats.WallSeconds;
}

CampaignResult runCampaign(const Program &Prog, TypeContext *TC,
                           const CheckedProgram *CP,
                           const TheoremConfig &ConfigIn,
                           const CampaignOptions &Opts) {
  CampaignResult R;
  // The CFI table (when requested) rides on the step policy, so every
  // engine — reference interpreter, vm, jit — validates commits through
  // the same hook. Record-only: verdicts cannot depend on it.
  std::unique_ptr<CfiTable> Cfi = buildCfiTable(Prog, Opts);
  TheoremConfig Config = ConfigIn;
  if (Cfi)
    Config.Policy.Cfi = Cfi.get();
  runSweep(R, Prog, TC, CP, Config, Opts);
  if (Cfi) {
    R.Stats.CfiChecked = true;
    R.Stats.CfiCommits = Cfi->commits();
    R.Stats.CfiViolations = Cfi->violations();
    R.CfiFirstViolation = Cfi->firstViolation();
  }
  return R;
}

/// Classifies one explicit injection plan on the raw semantics via \p E.
Verdict classifyPlan(const ExecEngine &E, const Program &Prog,
                     const StepPolicy &Policy, uint64_t ExtraSteps,
                     const OutputTrace &RefTrace, const MachineState &RefFinal,
                     uint64_t RefSteps, MachineState S,
                     const InjectionPlan &Plan) {
  PrefixTracker Prefix{RefTrace, 0};

  uint64_t Now = 0;
  std::optional<Color> ZapColor;
  bool MixedColors = false;
  for (const InjectionPoint &P : Plan) {
    assert(P.Step >= Now && "injection plan must be step-ordered");
    // Fault and stuck transitions never emit output, so match-tracking the
    // chunk after the replay is equivalent to tracking each step inline.
    OutputTrace Chunk;
    ReplayResult RR = E.replaySteps(S, P.Step - Now, Chunk, Policy);
    Now += RR.Taken;
    for (const QueueEntry &Out : Chunk)
      Prefix.track(Out);
    if (RR.Last == StepStatus::Stuck)
      return Verdict::Stuck;
    if (RR.Last == StepStatus::Fault)
      return Prefix.Diverged ? Verdict::DetectedBadPrefix : Verdict::Detected;
    Color C = faultColor(S, P.Site);
    if (ZapColor && *ZapColor != C)
      MixedColors = true;
    ZapColor = C;
    injectFault(S, P.Site, P.Value);
  }

  uint64_t Budget = (RefSteps > Now ? RefSteps - Now : 0) + ExtraSteps;
  // Similarity is indexed by a single zap color; a cross-color plan has no
  // such index, so it classifies on the trace alone.
  std::optional<ZapTag> Z;
  if (ZapColor && !MixedColors)
    Z = ZapTag::color(*ZapColor);
  return classifyContinuation(E, Prog.exitAddress(), Policy, Budget, Prefix,
                              RefFinal, S, Z ? &*Z : nullptr);
}

std::string describePlan(const InjectionPlan &Plan, const char *What) {
  std::string S = "plan [";
  for (size_t I = 0; I != Plan.size(); ++I) {
    if (I)
      S += "; ";
    S += formatv("%s := %lld at step %llu", Plan[I].Site.str().c_str(),
                 (long long)Plan[I].Value, (unsigned long long)Plan[I].Step);
  }
  S += "]: ";
  S += What;
  return S;
}

} // namespace

CampaignResult talft::runFaultToleranceCampaign(TypeContext &TC,
                                                const CheckedProgram &CP,
                                                const TheoremConfig &Config,
                                                const CampaignOptions &Opts) {
  return runCampaign(*CP.Prog, &TC, &CP, Config, Opts);
}

CampaignResult talft::runSingleFaultCampaign(const Program &Prog,
                                             const TheoremConfig &Config,
                                             const CampaignOptions &Opts) {
  return runCampaign(Prog, nullptr, nullptr, Config, Opts);
}

CampaignResult talft::runInjectionPlans(const PlanCampaign &Spec,
                                        const CampaignOptions &Opts) {
  CampaignResult R;
  assert(Spec.Prog && "plan campaign needs a program");

  const ExecEngine &E = Opts.Engine ? *Opts.Engine : referenceEngine();
  EngineProvenance Provenance(E, R.Stats);

  Clock::time_point RefStart = Clock::now();
  Expected<MachineState> S0 = Spec.Prog->initialState();
  if (!S0) {
    R.Ok = false;
    R.Violations.push_back("cannot build initial state: " + S0.message());
    return R;
  }
  MachineState Final = *S0;
  R.ProgramHash =
      programContentHash(Spec.Prog->code(), Spec.Prog->entryAddress(),
                         Spec.Prog->exitAddress(), *S0);
  RunResult RefRun = E.run(Final, Spec.Prog->exitAddress(),
                           Spec.MaxReferenceSteps, Spec.Policy);
  if (RefRun.Status != RunStatus::Halted) {
    R.Ok = false;
    R.Violations.push_back(formatv("reference run did not halt (%s after %llu steps)",
                                   runStatusName(RefRun.Status),
                                   (unsigned long long)RefRun.Steps));
    return R;
  }
  R.ReferenceSteps = RefRun.Steps;
  R.ReferenceTrace = RefRun.Trace;
  R.Stats.ReferenceSeconds = secondsSince(RefStart);
  R.Stats.Tasks = Spec.Plans.size();
  R.Stats.TotalTasks = Spec.Plans.size();

  Clock::time_point InjectStart = Clock::now();
  std::vector<uint8_t> Verdicts(Spec.Plans.size(), 0);
  auto RunOne = [&](uint64_t I) -> uint64_t {
    Verdicts[I] = (uint8_t)classifyPlan(E, *Spec.Prog, Spec.Policy,
                                        Spec.ExtraSteps, RefRun.Trace, Final,
                                        RefRun.Steps, *S0, Spec.Plans[I]);
    return 1;
  };
  R.Stats.ThreadsUsed = dispatchTasks(Opts.Threads, Spec.Plans.size(),
                                      Spec.Plans.size(), RunOne, Opts);

  for (size_t I = 0; I != Spec.Plans.size(); ++I) {
    Verdict V = (Verdict)Verdicts[I];
    R.Table[V] += 1;
    // Multi-fault plans legitimately produce SilentCorruption (that is what
    // the double-fault ablation demonstrates); only a wedged machine is a
    // campaign-level violation here.
    if (V == Verdict::Stuck || V == Verdict::BudgetExhausted) {
      R.Ok = false;
      if (R.Violations.size() < 16)
        R.Violations.push_back(describePlan(Spec.Plans[I], abnormalMessage(V)));
    }
  }

  R.Stats.WallSeconds = secondsSince(InjectStart);
  if (R.Stats.WallSeconds > 0)
    R.Stats.TriplesPerSecond =
        (double)Spec.Plans.size() / R.Stats.WallSeconds;
  Provenance.finish();
  return R;
}

void talft::foldShardResult(CampaignResult &Acc, const CampaignResult &Shard,
                            size_t MaxViolations) {
  Acc.Ok = Acc.Ok && Shard.Ok;
  Acc.Table.merge(Shard.Table);
  Acc.StatesTypechecked += Shard.StatesTypechecked;
  // Each shard keeps a prefix of its slice's violations (the cap applies
  // per shard), so appending in shard-index order up to the same cap
  // reproduces the unsharded list exactly.
  for (const std::string &V : Shard.Violations)
    if (Acc.Violations.size() < MaxViolations)
      Acc.Violations.push_back(V);
  Acc.Recovery.merge(Shard.Recovery);
  if (!Acc.ProgramHash)
    Acc.ProgramHash = Shard.ProgramHash;
  if (!Acc.ReferenceSteps) {
    Acc.ReferenceSteps = Shard.ReferenceSteps;
    Acc.ReferenceTrace = Shard.ReferenceTrace;
  }

  CampaignStats &A = Acc.Stats;
  const CampaignStats &B = Shard.Stats;
  A.WallSeconds += B.WallSeconds;
  A.ReferenceSeconds += B.ReferenceSeconds;
  A.Tasks += B.Tasks;
  A.ThreadsUsed = std::max(A.ThreadsUsed, B.ThreadsUsed);
  A.Pruned = A.Pruned || B.Pruned;
  A.PrunedTasks += B.PrunedTasks;
  A.PrunedDetected += B.PrunedDetected;
  A.CfiChecked = A.CfiChecked || B.CfiChecked;
  A.CfiCommits += B.CfiCommits;
  A.CfiViolations += B.CfiViolations;
  if (Acc.CfiFirstViolation.empty())
    Acc.CfiFirstViolation = Shard.CfiFirstViolation;
  A.Converge = A.Converge || B.Converge;
  A.LockstepSkips += B.LockstepSkips;
  A.LockstepSteps += B.LockstepSteps;
  // Compilation stats are per-program constants (identical in every
  // shard); side exits are an activity sum.
  A.JitNative = A.JitNative || B.JitNative;
  A.JitBlocksCompiled = std::max(A.JitBlocksCompiled, B.JitBlocksCompiled);
  A.JitCodeBytes = std::max(A.JitCodeBytes, B.JitCodeBytes);
  A.JitSideExits += B.JitSideExits;
  A.ShardCount = std::max(A.ShardCount, B.ShardCount);
  A.ShardIndex = std::min(A.ShardIndex, B.ShardIndex);
  A.ShardFirstTask = std::min(A.ShardFirstTask, B.ShardFirstTask);
  A.TotalTasks = std::max(A.TotalTasks, B.TotalTasks);
  A.ShardsFolded = (A.ShardsFolded ? A.ShardsFolded : 1) +
                   (B.ShardsFolded ? B.ShardsFolded : 1);
  A.TriplesPerSecond = A.WallSeconds > 0 ? (double)A.Tasks / A.WallSeconds : 0;
}

namespace {

void appendJsonEscaped(std::string &Out, const std::string &In) {
  Out += '"';
  for (char C : In) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if ((unsigned char)C < 0x20)
        Out += formatv("\\u%04x", (unsigned)(unsigned char)C);
      else
        Out += C;
    }
  }
  Out += '"';
}

} // namespace

std::string talft::campaignToJson(const CampaignResult &R, unsigned Indent) {
  std::string P(Indent, ' ');
  std::string S;
  S += P + "{\n";
  S += P + formatv("  \"ok\": %s,\n", R.Ok ? "true" : "false");
  S += P + formatv("  \"reference_steps\": %llu,\n",
                   (unsigned long long)R.ReferenceSteps);
  S += P + formatv("  \"program_hash\": \"%s\",\n",
                   programHashString(R.ProgramHash).c_str());
  S += P + formatv("  \"injections\": %llu,\n",
                   (unsigned long long)R.Table.total());
  S += P + "  \"verdicts\": {";
  for (size_t I = 0; I != NumVerdicts; ++I) {
    if (I)
      S += ", ";
    S += formatv("\"%s\": %llu", verdictJsonKey((Verdict)I),
                 (unsigned long long)R.Table.Counts[I]);
  }
  S += "},\n";
  S += P + formatv("  \"states_typechecked\": %llu,\n",
                   (unsigned long long)R.StatesTypechecked);
  S += P + formatv("  \"recovery\": {\"rollbacks\": %llu, "
                   "\"checkpoints\": %llu, \"replayed_outputs\": %llu},\n",
                   (unsigned long long)R.Recovery.Rollbacks,
                   (unsigned long long)R.Recovery.Checkpoints,
                   (unsigned long long)R.Recovery.ReplayedOutputs);
  S += P + formatv("  \"convergence\": {\"enabled\": %s, "
                   "\"lockstep_skips\": %llu, \"lockstep_steps\": %llu},\n",
                   R.Stats.Converge ? "true" : "false",
                   (unsigned long long)R.Stats.LockstepSkips,
                   (unsigned long long)R.Stats.LockstepSteps);
  S += P + formatv("  \"jit\": {\"native\": %s, \"blocks_compiled\": %llu, "
                   "\"code_bytes\": %llu, \"side_exits\": %llu},\n",
                   R.Stats.JitNative ? "true" : "false",
                   (unsigned long long)R.Stats.JitBlocksCompiled,
                   (unsigned long long)R.Stats.JitCodeBytes,
                   (unsigned long long)R.Stats.JitSideExits);
  S += P + formatv("  \"shard\": {\"count\": %u, \"index\": %u, "
                   "\"first_task\": %llu, \"tasks\": %llu, "
                   "\"total_tasks\": %llu, \"folded\": %u},\n",
                   R.Stats.ShardCount, R.Stats.ShardIndex,
                   (unsigned long long)R.Stats.ShardFirstTask,
                   (unsigned long long)R.Stats.Tasks,
                   (unsigned long long)R.Stats.TotalTasks,
                   R.Stats.ShardsFolded);
  S += P + "  \"violations\": [";
  for (size_t I = 0; I != R.Violations.size(); ++I) {
    S += I ? ", " : "";
    appendJsonEscaped(S, R.Violations[I]);
  }
  S += "],\n";
  S += P + formatv("  \"cfi\": {\"checked\": %s, \"commits\": %llu, "
                   "\"violations\": %llu, \"first_violation\": ",
                   R.Stats.CfiChecked ? "true" : "false",
                   (unsigned long long)R.Stats.CfiCommits,
                   (unsigned long long)R.Stats.CfiViolations);
  appendJsonEscaped(S, R.CfiFirstViolation);
  S += "},\n";
  S += P + formatv("  \"stats\": {\"engine\": \"%s\", \"threads\": %u, "
                   "\"tasks\": %llu, "
                   "\"reference_seconds\": %.6f, \"wall_seconds\": %.6f, "
                   "\"triples_per_second\": %.1f, "
                   "\"pruned\": %s, \"pruned_tasks\": %llu, "
                   "\"pruned_detected\": %llu}\n",
                   R.Stats.Engine, R.Stats.ThreadsUsed,
                   (unsigned long long)R.Stats.Tasks,
                   R.Stats.ReferenceSeconds, R.Stats.WallSeconds,
                   R.Stats.TriplesPerSecond, R.Stats.Pruned ? "true" : "false",
                   (unsigned long long)R.Stats.PrunedTasks,
                   (unsigned long long)R.Stats.PrunedDetected);
  S += P + "}";
  return S;
}
