//===- perfbench/src/Workloads.cpp - The three benchmark workloads --------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
//
// Each workload drives the layers from outside, through their public
// functions, and takes every campaign setting from the library's own
// defaults (CampaignOptions{}, TheoremConfig{}, serve::SubmitSpec{}.Engine,
// serve::ServerOptions{}), so a later change of a default moves these
// numbers without an edit here. What a workload fixes itself is stated
// where it is set: one campaign thread, pruning on or off, recovery on or
// off, the recovery stride factor and the serve-mix pool size.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "Trace.h"

#include "analysis/Certify.h"
#include "analysis/ZapCoverage.h"
#include "check/ProgramChecker.h"
#include "fault/FaultInjector.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/StringUtils.h"
#include "tal/Parser.h"
#include "vm/Engine.h"
#include "vm/JitEngine.h"
#include "wile/Codegen.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <memory>
#include <netinet/in.h>
#include <optional>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace talft;

namespace perfbench {

namespace {

/// Reads a field the library may drop: the roadmap deletes the
/// convergence probe's counters and the lane engine, and the benchmark
/// must keep compiling across those changes. A missing field reads 0.
#define PERFBENCH_FIELD_OR_ZERO(Obj, Field)                                    \
  [](const auto &O) -> uint64_t {                                              \
    if constexpr (requires { O.Field; })                                       \
      return (uint64_t)O.Field;                                                \
    else                                                                       \
      return 0;                                                                \
  }(Obj)

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

unsigned hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

/// The engine every workload runs on: the one the server uses by default.
std::string defaultEngineName() { return serve::SubmitSpec{}.Engine; }

/// Builds the named engine for \p Code; null is the reference interpreter.
std::unique_ptr<ExecEngine> makeEngine(const std::string &Name,
                                       const CodeMemory &Code,
                                       uint64_t Group) {
  if (Name == "vm") {
    Span S("vm.createEngine", Group);
    return vm::createEngine(Code);
  }
  if (Name == "jit") {
    Span S("vm.createJitEngine", Group);
    return vm::createJitEngine(Code);
  }
  return nullptr;
}

/// Times spent getting one program ready, by layer.
struct SetupTimes {
  double Compile = 0, Typecheck = 0, Certify = 0, Zap = 0;
  uint64_t Insts = 0;

  /// The times of one set-up, when these sum \p N set-ups.
  SetupTimes per(double N) const {
    return {Compile / N, Typecheck / N, Certify / N, Zap / N,
            uint64_t(double(Insts) / N)};
  }
};

/// One corpus program, compiled, checked and bound to its engine.
struct Prepared {
  const CorpusProgram *Src = nullptr;
  uint64_t Group = 0;
  std::unique_ptr<TypeContext> TC;
  std::unique_ptr<Program> Prog;
  std::optional<CheckedProgram> Checked;
  std::unique_ptr<ExecEngine> Engine;
  uint64_t RefSteps = 0;
  uint64_t Stride = 1;

  const ExecEngine &engine() const {
    return Engine ? *Engine : referenceEngine();
  }
};

/// Compiles (or parses), type-checks the TAL-level programs, certifies the
/// Figure 10 kernels, optionally computes the zap coverage the pruner
/// relies on, builds the engine and probes the reference length for the
/// adaptive stride. Returns an error message on failure.
std::string prepare(const CorpusProgram &C, uint64_t Group,
                    const std::string &EngineName, bool Zap,
                    uint64_t StrideFactor, Prepared &P, SetupTimes &T) {
  // A program set up again drops what depends on its type context first.
  P.Engine.reset();
  P.Checked.reset();
  P.Prog.reset();
  P.Src = &C;
  P.Group = Group;
  P.TC = std::make_unique<TypeContext>();
  DiagnosticEngine Diags;
  Clock::time_point T0 = Clock::now();
  if (C.Kind == "tal") {
    Span S("tal.parseAndLayoutTalProgram", Group);
    Expected<Program> Parsed =
        parseAndLayoutTalProgram(*P.TC, C.Source.c_str(), Diags);
    if (!Parsed)
      return C.Name + ": " + Parsed.message();
    P.Prog = std::make_unique<Program>(std::move(*Parsed));
  } else {
    Span S("wile.compileWile", Group);
    Expected<wile::CompiledProgram> CP = wile::compileWile(
        *P.TC, C.Source, wile::CodegenMode::FaultTolerant, Diags);
    if (!CP)
      return C.Name + ": " + CP.message();
    P.Prog = std::make_unique<Program>(std::move(CP->Prog));
  }
  T.Compile += secondsSince(T0);
  T.Insts += P.Prog->code().size();

  if (C.Kind != "fig10") {
    T0 = Clock::now();
    Span S("check.checkProgram", Group);
    Expected<CheckedProgram> Checked = checkProgram(*P.TC, *P.Prog, Diags);
    if (!Checked)
      return C.Name + ": ill-typed: " + Diags.str();
    P.Checked = std::move(*Checked);
    T.Typecheck += secondsSince(T0);
  } else {
    T0 = Clock::now();
    {
      Span S("analysis.certifyProgram", Group);
      analysis::Certification Cert = analysis::certifyProgram(*P.TC, *P.Prog);
      if (!Cert.certified())
        return C.Name + ": not certified";
    }
    T.Certify += secondsSince(T0);
    if (Zap) {
      T0 = Clock::now();
      Span S("analysis.ZapCoverage::compute", Group);
      if (Expected<analysis::ZapCoverage> Z =
              analysis::ZapCoverage::compute(*P.Prog);
          !Z)
        return C.Name + ": zap coverage: " + Z.message();
      T.Zap += secondsSince(T0);
    }
  }

  P.Engine = makeEngine(EngineName, P.Prog->code(), Group);

  Expected<MachineState> S0 = P.Prog->initialState();
  if (!S0)
    return C.Name + ": " + S0.message();
  TheoremConfig Probe;
  MachineState S = *S0;
  RunResult RR;
  {
    Span Sp("vm.run", Group);
    RR = P.engine().run(S, P.Prog->exitAddress(), Probe.MaxSteps,
                        Probe.Policy);
  }
  if (RR.Status != RunStatus::Halted)
    return C.Name + ": reference run did not halt";
  P.RefSteps = RR.Steps;
  uint64_t Base = C.FixedStride ? C.FixedStride : adaptiveStride(RR.Steps);
  P.Stride = Base * StrideFactor;
  return "";
}

/// The campaign settings of one sweep call: the library defaults plus what
/// the workload fixes (one thread, pruning, recovery).
TheoremConfig sweepConfig(const Prepared &P, bool Recover) {
  TheoremConfig Config;
  Config.InjectionStride = P.Stride;
  Config.Recovery.Enabled = Recover;
  return Config;
}

CampaignResult runCampaign(const Prepared &P, const TheoremConfig &Config,
                           const CampaignOptions &Opts) {
  if (P.Checked) {
    Span S("fault.runFaultToleranceCampaign", P.Group);
    return runFaultToleranceCampaign(*P.TC, *P.Checked, Config, Opts);
  }
  Span S("fault.runSingleFaultCampaign", P.Group);
  return runSingleFaultCampaign(*P.Prog, Config, Opts);
}

/// One sweep campaign: the whole campaign, or under recovery
/// fig10-recover's systematic sample of it (RecoverSlices), folded.
CampaignResult runSweepCampaign(const Prepared &P, const TheoremConfig &Config,
                                CampaignOptions Opts) {
  if (!Config.Recovery.Enabled)
    return runCampaign(P, Config, Opts);
  CampaignResult Acc;
  Opts.ShardCount = RecoverSlices;
  for (unsigned K = RecoverSliceStep - 1; K < RecoverSlices;
       K += RecoverSliceStep) {
    Opts.ShardIndex = K;
    CampaignResult R = runCampaign(P, Config, Opts);
    if (K == RecoverSliceStep - 1)
      Acc = std::move(R);
    else
      foldShardResult(Acc, R, Config.MaxViolations);
  }
  return Acc;
}

/// The per-campaign numbers a pass keeps after the result is checked.
struct CampaignRow {
  double Seconds = 0; // from the campaign call to its result
  std::vector<double> SetupSeconds; // the program's set-ups in the pass
  double ReferenceSeconds = 0, ClassifySeconds = 0;
  uint64_t Tasks = 0, Injections = 0, Discharged = 0;
  uint64_t LockstepSkips = 0, LockstepSteps = 0, EarlyExits = 0,
           StepsSaved = 0, LaneTasks = 0, JitSideExits = 0;
  uint64_t Checkpoints = 0, Rollbacks = 0, ReplayedOutputs = 0;
};

CampaignRow rowOf(const CampaignResult &R) {
  CampaignRow Row;
  Row.ReferenceSeconds = R.Stats.ReferenceSeconds;
  Row.ClassifySeconds = R.Stats.WallSeconds;
  Row.Tasks = R.Stats.Tasks;
  Row.Injections = R.Table.total();
  Row.Discharged = R.Stats.PrunedTasks;
  Row.LockstepSkips = PERFBENCH_FIELD_OR_ZERO(R.Stats, LockstepSkips);
  Row.LockstepSteps = PERFBENCH_FIELD_OR_ZERO(R.Stats, LockstepSteps);
  Row.EarlyExits = PERFBENCH_FIELD_OR_ZERO(R.Stats, EarlyExits);
  Row.StepsSaved = PERFBENCH_FIELD_OR_ZERO(R.Stats, StepsSaved);
  Row.LaneTasks = PERFBENCH_FIELD_OR_ZERO(R.Stats, LaneTasks);
  Row.JitSideExits = PERFBENCH_FIELD_OR_ZERO(R.Stats, JitSideExits);
  Row.Checkpoints = R.Recovery.Checkpoints;
  Row.Rollbacks = R.Recovery.Rollbacks;
  Row.ReplayedOutputs = R.Recovery.ReplayedOutputs;
  return Row;
}

/// Resolved library defaults, recorded in every result.
std::string settingsJson(bool Prune, bool Recover, uint64_t StrideFactor) {
  CampaignOptions O;
  TheoremConfig C;
  serve::ServerOptions SO;
  bool JitNative = false;
  uint64_t SimdLaneWidth = 0;
  {
    // One tiny campaign and one JIT build report what the host runs.
    const CorpusProgram &Tiny = corpus().front();
    Prepared P;
    SetupTimes T;
    if (prepare(Tiny, 0, "jit", false, 1, P, T).empty()) {
      if (auto *J = dynamic_cast<const vm::JitEngine *>(P.Engine.get()))
        JitNative = J->native();
      CampaignResult R = runCampaign(P, sweepConfig(P, false), O);
      SimdLaneWidth = PERFBENCH_FIELD_OR_ZERO(R.Stats, SimdLaneWidth);
    }
  }
  return formatv(
      "{\"engine\": \"%s\", \"campaign_threads\": 1, \"prune\": %s, "
      "\"recover\": %s, \"stride_rule\": \"max(1, steps/12), fixed for the "
      "TAL-level programs\", \"stride_factor\": %llu, "
      "\"recover_sample\": {\"every\": %u, \"of_slices\": %u}, "
      "\"campaign_options\": {\"threads\": %u, \"converge\": %llu, "
      "\"lanes\": %llu, \"lane_width\": %llu, \"cfi_check\": %s}, "
      "\"theorem_config\": {\"max_steps\": %llu, \"extra_steps\": %llu, "
      "\"only_mentioned_registers\": %s, \"checkpoint_interval\": %llu, "
      "\"retry_budget\": %llu}, \"server_options\": {\"workers\": %u, "
      "\"pool_workers\": %u, \"default_shards\": %u, \"cache_entries\": "
      "%zu, \"queue_cap\": %zu}, \"jit\": {\"native\": %s}, "
      "\"simd_lane_width\": %llu}",
      defaultEngineName().c_str(), Prune ? "true" : "false",
      Recover ? "true" : "false", (unsigned long long)StrideFactor,
      Recover ? RecoverSliceStep : 1, Recover ? RecoverSlices : 1, O.Threads,
      (unsigned long long)PERFBENCH_FIELD_OR_ZERO(O, Converge),
      (unsigned long long)PERFBENCH_FIELD_OR_ZERO(O, Lanes),
      (unsigned long long)PERFBENCH_FIELD_OR_ZERO(O, LaneWidth),
      O.CfiCheck ? "true" : "false", (unsigned long long)C.MaxSteps,
      (unsigned long long)C.ExtraSteps,
      C.OnlyMentionedRegisters ? "true" : "false",
      (unsigned long long)C.Recovery.CheckpointInterval,
      (unsigned long long)C.Recovery.RetryBudget, SO.Workers, SO.PoolWorkers,
      SO.DefaultShards, SO.CacheEntries, SO.QueueCap,
      JitNative ? "true" : "false", (unsigned long long)SimdLaneWidth);
}

/// Step rates of the three engines, measured on the prepared programs.
struct EngineProbe {
  double RefStepsPerS[3] = {0, 0, 0}; // reference, vm, jit
  double ContStepsPerS = 0;
  double StepNs = 0;
  double DecodeSeconds = 0, JitSeconds = 0;
  uint64_t JitCodeBytes = 0;
};

/// Runs \p Body repeatedly over \p N items (round-robin) until \p Budget
/// seconds of measured time have passed; Body returns (steps, seconds).
template <class F>
double stepsPerSecond(size_t N, double Budget, F Body) {
  double Steps = 0, Secs = 0;
  for (size_t I = 0; N && (Secs < Budget || I < N); ++I) {
    auto [S, T] = Body(I % N);
    Steps += double(S);
    Secs += T;
  }
  return Secs > 0 ? Steps / Secs : 0;
}

EngineProbe probeEngines(const std::vector<Prepared> &Progs, Rng &R,
                         double Budget) {
  EngineProbe E;
  std::vector<std::unique_ptr<ExecEngine>> Vm, Jit;
  for (const Prepared &P : Progs) {
    Clock::time_point T0 = Clock::now();
    Vm.push_back(makeEngine("vm", P.Prog->code(), P.Group));
    E.DecodeSeconds += secondsSince(T0);
    T0 = Clock::now();
    Jit.push_back(makeEngine("jit", P.Prog->code(), P.Group));
    E.JitSeconds += secondsSince(T0);
    if (auto *J = dynamic_cast<const vm::JitEngine *>(Jit.back().get()))
      E.JitCodeBytes += J->codeBytes();
  }
  TheoremConfig C;

  for (int K = 0; K != 3; ++K)
    E.RefStepsPerS[K] = stepsPerSecond(Progs.size(), Budget, [&](size_t I) {
      const ExecEngine &Eng =
          K == 0 ? referenceEngine() : K == 1 ? *Vm[I] : *Jit[I];
      MachineState S = *Progs[I].Prog->initialState();
      Span Sp("vm.run", Progs[I].Group);
      Clock::time_point T0 = Clock::now();
      RunResult RR =
          Eng.run(S, Progs[I].Prog->exitAddress(), C.MaxSteps, C.Policy);
      return std::pair<uint64_t, double>(RR.Steps, secondsSince(T0));
    });

  // A seeded sample of faulty states: a random reference step, fault site
  // and representative corruption per sample, continued on the default
  // engine. The step count of each continuation comes from an untimed
  // ExecEngine::run of the same state.
  struct Faulty {
    size_t Prog;
    MachineState S;
    uint64_t Budget, Steps;
  };
  std::vector<Faulty> Samples;
  for (size_t I = 0; I != Progs.size(); ++I) {
    const Prepared &P = Progs[I];
    std::vector<int64_t> Values = representativeCorruptions(*P.Prog);
    for (int K = 0; K != 4 && P.RefSteps && !Values.empty(); ++K) {
      MachineState S = *P.Prog->initialState();
      uint64_t At = R.below(P.RefSteps);
      OutputTrace Trace;
      P.engine().replaySteps(S, At, Trace, C.Policy);
      std::vector<FaultSite> Sites = enumerateFaultSites(S);
      if (Sites.empty())
        continue;
      injectFault(S, Sites[R.below(Sites.size())],
                  Values[R.below(Values.size())]);
      uint64_t Budget = P.RefSteps - At + C.ExtraSteps;
      MachineState Probe = S;
      uint64_t Steps =
          P.engine().run(Probe, P.Prog->exitAddress(), Budget, C.Policy).Steps;
      Samples.push_back({I, std::move(S), Budget, Steps});
    }
  }
  ExecEngine::OutputSink Sink = [](const QueueEntry &) {};
  E.ContStepsPerS = stepsPerSecond(Samples.size(), Budget, [&](size_t I) {
    const Faulty &F = Samples[I];
    const Prepared &P = Progs[F.Prog];
    MachineState S = F.S;
    Span Sp("vm.runContinuation", P.Group);
    Clock::time_point T0 = Clock::now();
    P.engine().runContinuation(S, P.Prog->exitAddress(), F.Budget, C.Policy,
                               Sink);
    return std::pair<uint64_t, double>(F.Steps, secondsSince(T0));
  });

  // ExecEngine::step on the default engine, the path the recovery layer
  // drives: the fault-free run, one call per transition.
  double Rate = stepsPerSecond(Progs.size(), Budget, [&](size_t I) {
    const Prepared &P = Progs[I];
    MachineState S = *P.Prog->initialState();
    Span Sp("vm.step", P.Group);
    Clock::time_point T0 = Clock::now();
    for (uint64_t K = 0; K != P.RefSteps; ++K)
      P.engine().step(S, C.Policy);
    return std::pair<uint64_t, double>(P.RefSteps, secondsSince(T0));
  });
  E.StepNs = Rate > 0 ? 1e9 / Rate : 0;
  return E;
}

void addEngineMetrics(std::vector<Metric> &M, const EngineProbe &E,
                      const SetupTimes &T) {
  M.push_back({"wile.compile_s", T.Compile, "s"});
  M.push_back({"wile.insts", double(T.Insts), "count"});
  M.push_back({"check.typecheck_s", T.Typecheck, "s"});
  M.push_back({"analysis.certify_s", T.Certify, "s"});
  M.push_back({"analysis.zap_s", T.Zap, "s"});
  M.push_back({"vm.decode_s", E.DecodeSeconds, "s"});
  M.push_back({"vm.jit_emit_s", E.JitSeconds, "s"});
  M.push_back({"vm.jit_code_bytes", double(E.JitCodeBytes), "bytes"});
  M.push_back({"vm.ref_steps_per_s.reference", E.RefStepsPerS[0], "1/s"});
  M.push_back({"vm.ref_steps_per_s.vm", E.RefStepsPerS[1], "1/s"});
  M.push_back({"vm.ref_steps_per_s.jit", E.RefStepsPerS[2], "1/s"});
  M.push_back({"vm.cont_steps_per_s", E.ContStepsPerS, "1/s"});
  M.push_back({"vm.step_ns", E.StepNs, "ns"});
}

/// Each layer's self time in one traced pass, its set-ups included:
/// \p Self sums \p Passes traced passes.
void addSelfTimes(std::vector<Metric> &M,
                  const std::map<std::string, double> &Self, double Passes) {
  for (const char *Layer :
       {"bench", "tal", "wile", "check", "analysis", "vm", "fault", "serve"}) {
    auto It = Self.find(Layer);
    M.push_back({std::string(Layer) + ".self_s",
                 It == Self.end() ? 0.0 : It->second / std::max(1.0, Passes),
                 "s"});
  }
}

/// Set-ups per pass, made right before the campaign, so that the set-ups
/// are spread over the run like the campaigns.
constexpr unsigned SetupsPerPass = 3;

/// The percentile of a run's repeats that its end-to-end times report.
/// On a shared host a campaign runs up to 1.8x slower in some phases, of
/// seconds to a minute, than in others. The slow state shows in nearly
/// every run and the fast one does not, so a high percentile reads the
/// same state run after run, where the median flips between the two and
/// the minimum depends on whether the run caught a quiet moment.
constexpr double RunPercentile = 90;

/// A sweep's time composed per program: the sum over programs of the
/// RunPercentile-th percentile of each one's samples, which \p Samples
/// (Row, Into) appends from every pass of \p Passes
/// (Passes[pass][program]).
template <class F>
double sumOfPercentiles(const std::vector<std::vector<CampaignRow>> &Passes,
                        F Samples) {
  double Sum = 0;
  for (size_t I = 0; !Passes.empty() && I != Passes.front().size(); ++I) {
    std::vector<double> V;
    for (const std::vector<CampaignRow> &Pass : Passes)
      Samples(Pass[I], V);
    Sum += percentile(V, RunPercentile);
  }
  return Sum;
}

/// Untraced and traced passes in turn, until the next pair would overrun
/// \p Budget seconds (at least one pair). \p Pass(Traced) runs one pass
/// and returns false on a failure that ends the run; \p T records only
/// the traced passes. Pairing the passes keeps the host's drift out of
/// the tracing overhead.
template <class F> bool pairedPasses(Tracer &T, double Budget, F Pass) {
  Clock::time_point T0 = Clock::now();
  double PairSecs = 0;
  do {
    Clock::time_point P0 = Clock::now();
    if (!Pass(false))
      return false;
    Tracer::install(&T);
    bool Ok = Pass(true);
    Tracer::install(nullptr);
    if (!Ok)
      return false;
    PairSecs = secondsSince(P0);
  } while (secondsSince(T0) + PairSecs <= Budget);
  return true;
}

/// The median of the paired differences Traced[I] - Untraced[I].
double pairedOverhead(const std::vector<double> &Untraced,
                      const std::vector<double> &Traced) {
  std::vector<double> D;
  for (size_t I = 0; I != std::min(Untraced.size(), Traced.size()); ++I)
    D.push_back(Traced[I] - Untraced[I]);
  return percentile(D, 50);
}

using MetricNames = std::vector<std::pair<const char *, const char *>>;

/// Zero-valued per-layer metrics of the layers a workload bypasses, so
/// every traced run reports the same names.
void addZeros(std::vector<Metric> &M, const MetricNames &Names) {
  for (auto [Name, Unit] : Names)
    M.push_back({Name, 0, Unit});
}

const MetricNames ServeLayerMetrics = {
    {"serve.accept_ms", "ms"},       {"serve.run_ms", "ms"},
    {"serve.shard_events", "count"}, {"serve.hit_ratio", "ratio"},
    {"serve.pool_retries", "count"}, {"serve.overloaded", "count"},
    {"serve.cold_p50_ms", "ms"},     {"serve.cold_p90_ms", "ms"},
    {"serve.warm_p50_ms", "ms"},     {"serve.warm_p99_ms", "ms"},
    {"serve.submits_per_s", "1/s"}};

/// Writes the trace next to the results, if there is a tracer.
void writeTrace(const Tracer &T, const RunArgs &A) {
  if (A.OutDir.empty())
    return;
  std::string Path = formatv("%s/trace-%s-seed%llu.json", A.OutDir.c_str(),
                             A.Workload.c_str(), (unsigned long long)A.Seed);
  if (!T.write(Path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// fig10-prune and fig10-recover
//===----------------------------------------------------------------------===//

Outcome runSweep(const RunArgs &A, const GoldenTables &G, bool Recover) {
  Outcome Out;
  const bool Prune = !Recover;
  const uint64_t Factor = Recover ? RecoverStrideFactor : 1;
  const std::string EngineName = defaultEngineName();
  Out.Settings = settingsJson(Prune, Recover, Factor);
  const std::vector<CorpusProgram> &Corpus = corpus();

  CampaignOptions Opts;
  Opts.Threads = 1; // the workload is a one-thread sweep
  Opts.Prune = Prune;

  Rng R(A.Seed);
  std::vector<Prepared> Progs(Corpus.size());
  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  // Every pass sets each program up SetupsPerPass times right before its
  // campaign (the last set-up is swept), so the set-ups are spread over
  // the run like the campaigns.
  SetupTimes Times; // summed over every set-up of the run
  size_t PassNo = 0, Setups = 0;
  // One pass: every program's set-ups and campaign, in a seeded order
  // (in corpus order when \p Shuffle is false). The pass time is the
  // campaigns' time, from each campaign call to its result; the tables are
  // checked after the pass. Negative on a failed set-up.
  auto Pass = [&](std::vector<CampaignRow> &Rows, bool Shuffle = true) {
    if (Shuffle)
      shuffle(Order, R);
    Span PassSpan("bench.pass", 0);
    Rows.assign(Progs.size(), {});
    std::vector<std::pair<std::string, CampaignResult>> Results;
    double Secs = 0, Setup = 0;
    for (size_t I : Order) {
      std::vector<double> SetupSecs;
      for (unsigned K = 0; K != SetupsPerPass; ++K) {
        Clock::time_point T0 = Clock::now();
        std::string Err = prepare(Corpus[I], I + 1, EngineName, Prune,
                                  Factor, Progs[I], Times);
        if (!Err.empty()) {
          Out.fail(Err);
          return -1.0;
        }
        SetupSecs.push_back(secondsSince(T0));
      }
      TheoremConfig Config = sweepConfig(Progs[I], Recover);
      CampaignOptions O = Opts;
      O.Engine = Progs[I].Engine.get();
      Clock::time_point T0 = Clock::now();
      CampaignResult Res = runSweepCampaign(Progs[I], Config, O);
      Rows[I] = rowOf(Res);
      Rows[I].Seconds = secondsSince(T0);
      Secs += Rows[I].Seconds;
      Setup += SetupSecs.back();
      Rows[I].SetupSeconds = std::move(SetupSecs);
      Results.emplace_back(goldenKey(Res.ProgramHash, Config), std::move(Res));
    }
    Setups += SetupsPerPass;
    std::fprintf(stderr, "pass %zu: %.4f s, set-up %.4f s\n", ++PassNo, Secs,
                 Setup);
    Span Check("bench.golden_compare", 0);
    for (auto &[Key, Res] : Results) {
      ++Out.Attempted;
      if (!Res.Ok)
        Out.fail(Key + ": campaign reported violations");
      else if (std::string Diff = G.compare(Key, Res.Table); !Diff.empty())
        Out.fail(Diff);
    }
    return Secs;
  };

  // A warm-up pass first, in corpus order, checked like the others but
  // left out of the times, so that caches and lazily built state are warm.
  // Peak memory is read after it: the order of the programs moves the
  // heap's high-water mark by over 1 MB, and later passes would make the
  // reading depend on how many passes the host's speed allows.
  Clock::time_point Start = Clock::now();
  {
    std::vector<CampaignRow> Warm;
    if (Pass(Warm, false) < 0)
      return Out;
  }
  const double WarmPeakRss = peakRssMb();
  const double Budget = A.Seconds - secondsSince(Start);

  // Passes until the next one would overrun the budget (at least one).
  auto Passes = [&](std::vector<double> &Secs,
                    std::vector<std::vector<CampaignRow>> &AllRows) {
    Clock::time_point T0 = Clock::now();
    double Wall = 0;
    do {
      Clock::time_point P0 = Clock::now();
      AllRows.emplace_back();
      Secs.push_back(Pass(AllRows.back()));
      if (Secs.back() < 0)
        return false;
      Wall = secondsSince(P0);
    } while (secondsSince(T0) + Wall <= Budget);
    return true;
  };

  auto Median = [](const std::vector<double> &V) { return percentile(V, 50); };
  auto CampaignSecs = [](const CampaignRow &Row, std::vector<double> &V) {
    V.push_back(Row.Seconds);
  };
  auto SetupSecs = [](const CampaignRow &Row, std::vector<double> &V) {
    V.insert(V.end(), Row.SetupSeconds.begin(), Row.SetupSeconds.end());
  };
  std::vector<double> PassSecs;
  std::vector<std::vector<CampaignRow>> Rows;

  if (!A.Trace) {
    if (!Passes(PassSecs, Rows))
      return Out;
    Out.Metrics = {{"sweep_s", sumOfPercentiles(Rows, CampaignSecs), "s"},
                   {"setup_s", sumOfPercentiles(Rows, SetupSecs), "s"},
                   {"peak_rss_mb", WarmPeakRss, "MB"}};
    return Out;
  }

  // Traced run: untraced and traced passes in turn; the overhead is the
  // median of the pairs' differences.
  Tracer T;
  std::vector<double> TracedSecs;
  std::vector<std::vector<CampaignRow>> TracedRows;
  bool Ok = pairedPasses(T, Budget, [&](bool Traced) {
    std::vector<std::vector<CampaignRow>> &Into = Traced ? TracedRows : Rows;
    std::vector<double> &Secs = Traced ? TracedSecs : PassSecs;
    Into.emplace_back();
    Secs.push_back(Pass(Into.back()));
    return Secs.back() >= 0;
  });
  std::map<std::string, double> AfterPasses = T.selfSeconds();
  Tracer::install(&T);
  EngineProbe E = probeEngines(Progs, R, 0.15);
  Tracer::install(nullptr);
  writeTrace(T, A);
  if (!Ok)
    return Out;

  std::vector<Metric> &M = Out.Metrics;
  addEngineMetrics(M, E, Times.per(double(Setups)));
  addSelfTimes(M, AfterPasses, double(TracedSecs.size()));
  M.push_back({"trace.overhead_s", pairedOverhead(PassSecs, TracedSecs), "s"});
  M.push_back(
      {"trace.sweep_s", sumOfPercentiles(TracedRows, CampaignSecs), "s"});
  M.push_back({"trace.spans", double(T.size()), "count"});

  // Layer times are medians over the traced passes, per program and
  // summed; the counters repeat exactly on one thread, so any pass serves.
  CampaignRow Sum;
  for (size_t I = 0; I != Progs.size(); ++I) {
    std::vector<double> Ref, Cls;
    for (const auto &Pass : TracedRows) {
      Ref.push_back(Pass[I].ReferenceSeconds);
      Cls.push_back(Pass[I].ClassifySeconds);
    }
    const CampaignRow &Row = TracedRows.back()[I];
    Sum.ReferenceSeconds += Median(Ref);
    Sum.ClassifySeconds += Median(Cls);
    Sum.Tasks += Row.Tasks;
    Sum.Injections += Row.Injections;
    Sum.Discharged += Row.Discharged;
    Sum.LockstepSkips += Row.LockstepSkips;
    Sum.LockstepSteps += Row.LockstepSteps;
    Sum.EarlyExits += Row.EarlyExits;
    Sum.StepsSaved += Row.StepsSaved;
    Sum.LaneTasks += Row.LaneTasks;
    Sum.JitSideExits += Row.JitSideExits;
    Sum.Checkpoints += Row.Checkpoints;
    Sum.Rollbacks += Row.Rollbacks;
    Sum.ReplayedOutputs += Row.ReplayedOutputs;
    M.push_back({"fault.reference_s." + Progs[I].Src->Name, Median(Ref), "s"});
    M.push_back({"fault.classify_s." + Progs[I].Src->Name, Median(Cls), "s"});
  }
  M.push_back({"analysis.discharged", double(Sum.Discharged), "count"});
  M.push_back({"analysis.discharge_ratio",
               Sum.Injections ? double(Sum.Discharged) / double(Sum.Injections)
                              : 0,
               "ratio"});
  M.push_back({"fault.reference_s", Sum.ReferenceSeconds, "s"});
  M.push_back({"fault.classify_s", Sum.ClassifySeconds, "s"});
  M.push_back({"fault.tasks", double(Sum.Tasks), "count"});
  M.push_back({"fault.task_us",
               Sum.Tasks ? Sum.ClassifySeconds * 1e6 / double(Sum.Tasks) : 0,
               "us"});
  M.push_back({"fault.lockstep_skips", double(Sum.LockstepSkips), "count"});
  M.push_back({"fault.lockstep_steps", double(Sum.LockstepSteps), "count"});
  M.push_back({"fault.early_exits", double(Sum.EarlyExits), "count"});
  M.push_back({"fault.steps_saved", double(Sum.StepsSaved), "count"});
  M.push_back({"fault.lane_tasks", double(Sum.LaneTasks), "count"});
  M.push_back({"fault.jit_side_exits", double(Sum.JitSideExits), "count"});
  M.push_back({"recover.rollbacks", double(Sum.Rollbacks), "count"});
  M.push_back({"recover.checkpoints", double(Sum.Checkpoints), "count"});
  M.push_back({"recover.replayed_outputs", double(Sum.ReplayedOutputs),
               "count"});
  M.push_back({"recover.task_ms",
               Recover && Sum.Tasks
                   ? Sum.ClassifySeconds * 1e3 / double(Sum.Tasks)
                   : 0,
               "ms"});
  addZeros(M, ServeLayerMetrics);
  return Out;
}

//===----------------------------------------------------------------------===//
// serve-mix
//===----------------------------------------------------------------------===//

namespace {

int connectLoopback(unsigned Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons((uint16_t)Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, (sockaddr *)&Addr, sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, const std::string &S) {
  for (size_t Done = 0; Done < S.size();) {
    ssize_t N = ::send(Fd, S.data() + Done, S.size() - Done, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Done += (size_t)N;
  }
  return true;
}

bool readLine(int Fd, std::string &Buf, std::string &Line) {
  while (true) {
    size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      return true;
    }
    char Chunk[65536];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Chunk, (size_t)N);
  }
}

/// One submission as the client saw it, timed at each streamed event.
struct Submission {
  Clock::time_point Sent, Accepted, Done;
  bool Cold = false;
  unsigned ShardEvents = 0;
  std::string Error;
  CampaignResult Campaign;
  std::string Key;
};

/// Submits \p Spec over the line protocol and reads the event stream
/// until the terminal event.
Submission submit(unsigned Port, const serve::SubmitSpec &Spec,
                  uint64_t Group, uint64_t PassSpan) {
  Submission Sub;
  Span Whole("serve.submit", Group, PassSpan);
  Sub.Sent = Clock::now();
  Sub.Accepted = Sub.Sent;
  int Fd = connectLoopback(Port);
  if (Fd < 0 || !sendAll(Fd, serve::submitRequestJson(Spec) + "\n")) {
    Sub.Error = "cannot send the submission";
    if (Fd >= 0)
      ::close(Fd);
    Sub.Done = Clock::now();
    return Sub;
  }
  std::string Buf, Line;
  bool Terminal = false;
  while (!Terminal && readLine(Fd, Buf, Line)) {
    Clock::time_point Now = Clock::now();
    std::optional<serve::JsonValue> Ev = serve::JsonValue::parse(Line);
    if (!Ev) {
      Sub.Error = "unparseable event: " + Line.substr(0, 80);
      break;
    }
    std::string Kind = Ev->stringAt("event", "");
    if (Kind == "accepted") {
      Sub.Accepted = Now;
      Sub.Cold = Ev->stringAt("cache", "") != "hit";
    } else if (Kind == "shard") {
      ++Sub.ShardEvents;
    } else if (Kind == "result") {
      Terminal = true;
      std::string Err;
      const serve::JsonValue *C = Ev->get("campaign");
      if (!C || !serve::campaignFromJson(*C, Sub.Campaign, Err))
        Sub.Error = "result without a campaign: " + Err;
    } else if (Kind == "error" || Kind == "drained") {
      Terminal = true;
      Sub.Error = Kind + ": " + Ev->stringAt("error", "");
    }
  }
  Sub.Done = Clock::now();
  ::close(Fd);
  if (!Terminal && Sub.Error.empty())
    Sub.Error = "connection closed before a terminal event";
  if (Tracer *T = Tracer::active()) {
    T->add({"serve.accept", Group, T->newId(), Whole.id(), Sub.Sent,
            Sub.Accepted});
    T->add({"serve.run", Group, T->newId(), Whole.id(), Sub.Accepted,
            Sub.Done});
  }
  return Sub;
}

double ms(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

} // namespace

Outcome runServeMix(const RunArgs &A, const GoldenTables &G) {
  Outcome Out;
  Out.Settings = settingsJson(false, false, 1);
  const unsigned Variants = ServeMixVariants;
  const unsigned Clients = std::min(2u, hostThreads());

  // Getting ready to submit: the kernels are compiled here to derive each
  // key's stride with the adaptive rule (and, in the traced run, to probe
  // the engines), then the keys' submissions are built.
  std::vector<Prepared> Kernels;
  std::vector<serve::SubmitSpec> Specs;
  SetupTimes Prep;
  auto PrepareKeys = [&] {
    Kernels.clear();
    Specs.clear();
    Prep = {};
    for (const CorpusProgram &C : corpus()) {
      if (C.Kind != "fig10")
        continue;
      Kernels.emplace_back();
      std::string Err = prepare(C, Kernels.size(), defaultEngineName(), false,
                                1, Kernels.back(), Prep);
      if (!Err.empty()) {
        Out.fail(Err);
        return false;
      }
      for (unsigned V = 0; V != Variants; ++V) {
        serve::SubmitSpec S;
        S.Name = formatv("%s@%u", C.Name.c_str(), V + 1);
        S.Lang = "wile";
        S.Source = C.Source;
        S.Stride = adaptiveStride(Kernels.back().RefSteps) * (V + 1);
        Specs.push_back(S);
      }
    }
    return true;
  };

  serve::ServerOptions SO;
  SO.PoolWorkers = std::min(SO.PoolWorkers, hostThreads());
  SO.CampaignThreads = 1; // one campaign thread per shard

  struct PassResult {
    double Seconds = 0;
    std::vector<double> Setups;
    std::vector<Submission> Subs;
    uint64_t PoolRetries = 0, Overloaded = 0;
  };
  uint64_t NextGroup = 1;
  unsigned PassNo = 0;

  // The set-up: the keys' submissions, then a fresh server until it
  // answers a ping. Null (with the failure recorded) if it did not start.
  auto StartServer = [&](double &Secs) -> std::unique_ptr<serve::Server> {
    Clock::time_point T0 = Clock::now();
    if (!PrepareKeys())
      return nullptr;
    auto S = std::make_unique<serve::Server>(SO);
    std::string Err;
    bool Up;
    {
      Span Start("serve.Server::start", 0);
      Up = S->start(&Err);
    }
    std::string Pong;
    while (Up) {
      Span Ping("serve.ping", 0);
      if (serve::requestPing("127.0.0.1", S->port(), Pong, Err))
        break;
      if (secondsSince(T0) > 10)
        Up = false;
    }
    if (!Up) {
      Out.fail("server did not start: " + Err);
      return nullptr;
    }
    Secs = secondsSince(T0);
    return S;
  };

  // One pass: SetupsPerPass set-ups (each server but the last is stopped
  // at once), the pass's seeded request sequence served to the closed-loop
  // clients, then /stats and shutdown.
  auto Pass = [&](PassResult &P) {
    Span PassSpan("bench.pass", 0);
    std::unique_ptr<serve::Server> Srv;
    for (unsigned K = 0; K != SetupsPerPass; ++K) {
      if (Srv)
        Srv->stop();
      double Secs = 0;
      if (!(Srv = StartServer(Secs)))
        return false;
      P.Setups.push_back(Secs);
    }
    serve::Server &S = *Srv;
    std::vector<MixKey> Seq = serveMixSequence(
        A.Seed * 1000003 + PassNo++, (unsigned)Kernels.size(), Variants,
        ServeMixRepeats);
    std::string Err;

    P.Subs.resize(Seq.size());
    std::atomic<size_t> Next{0};
    uint64_t Group0 = NextGroup;
    NextGroup += Seq.size();
    auto Client = [&] {
      for (size_t I; (I = Next++) < Seq.size();) {
        const serve::SubmitSpec &Spec =
            Specs[Seq[I].Kernel * Variants + Seq[I].Variant];
        P.Subs[I] = submit(S.port(), Spec, Group0 + I, PassSpan.id());
        P.Subs[I].Key = Spec.Name;
      }
    };
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != Clients; ++I)
      Threads.emplace_back(Client);
    for (std::thread &Th : Threads)
      Th.join();
    Clock::time_point First = P.Subs.front().Sent, Last = P.Subs.front().Done;
    for (const Submission &Sub : P.Subs) {
      First = std::min(First, Sub.Sent);
      Last = std::max(Last, Sub.Done);
    }
    P.Seconds = std::chrono::duration<double>(Last - First).count();
    std::fprintf(stderr, "pass %u: %.4f s, set-up %.4f s, peak rss %.1f MB\n",
                 PassNo, P.Seconds, percentile(P.Setups, 50), peakRssMb());

    std::string Stats;
    if (serve::requestStats("127.0.0.1", S.port(), Stats, Err))
      if (std::optional<serve::JsonValue> J = serve::JsonValue::parse(Stats)) {
        P.Overloaded = J->u64At("overloaded", 0);
        if (const serve::JsonValue *Pool = J->get("pool"))
          P.PoolRetries = Pool->u64At("retries", 0);
      }
    S.stop();

    Span Check("bench.golden_compare", 0);
    for (size_t I = 0; I != P.Subs.size(); ++I) {
      Submission &Sub = P.Subs[I];
      const serve::SubmitSpec &Spec =
          Specs[Seq[I].Kernel * Variants + Seq[I].Variant];
      ++Out.Attempted;
      if (!Sub.Error.empty())
        Out.fail(Sub.Key + ": " + Sub.Error);
      else if (!Sub.Campaign.Ok)
        Out.fail(Sub.Key + ": served campaign reported violations");
      else if (std::string Diff = G.compare(
                   goldenKey(Sub.Campaign.ProgramHash,
                             serve::theoremConfig(Spec, Spec.Stride)),
                   Sub.Campaign.Table);
               !Diff.empty())
        Out.fail(Sub.Key + ": " + Diff);
      Sub.Campaign = {};
    }
    return true;
  };

  // A warm-up pass first, checked like the others but left out of the
  // times. Peak memory is read after it: it grows with every server
  // restart, so a later reading would depend on the host's speed.
  Clock::time_point Start = Clock::now();
  {
    PassResult Warm;
    if (!Pass(Warm))
      return Out;
  }
  const double WarmPeakRss = peakRssMb();
  const double Budget = A.Seconds - secondsSince(Start);

  // Passes until the next one would overrun the budget (at least one).
  auto Passes = [&](std::vector<PassResult> &Done) {
    Clock::time_point T0 = Clock::now();
    double Wall = 0;
    do {
      Clock::time_point P0 = Clock::now();
      Done.emplace_back();
      if (!Pass(Done.back())) {
        Done.pop_back();
        return false;
      }
      Wall = secondsSince(P0);
    } while (secondsSince(T0) + Wall <= Budget);
    return true;
  };

  struct Summary {
    std::vector<double> PassSecs, Setup, Cold, Warm, Accept, Run;
    double Shards = 0, Hits = 0, Total = 0, Retries = 0, Overloaded = 0;
  };
  auto Summarize = [](const std::vector<PassResult> &Ps) {
    Summary S;
    for (const PassResult &P : Ps) {
      S.PassSecs.push_back(P.Seconds);
      S.Setup.insert(S.Setup.end(), P.Setups.begin(), P.Setups.end());
      S.Retries += double(P.PoolRetries);
      S.Overloaded += double(P.Overloaded);
      for (const Submission &Sub : P.Subs) {
        if (!Sub.Error.empty())
          continue;
        (Sub.Cold ? S.Cold : S.Warm).push_back(ms(Sub.Sent, Sub.Done));
        S.Accept.push_back(ms(Sub.Sent, Sub.Accepted));
        if (Sub.Cold)
          S.Run.push_back(ms(Sub.Accepted, Sub.Done));
        S.Shards += Sub.ShardEvents;
        S.Hits += !Sub.Cold;
        S.Total += 1;
      }
    }
    return S;
  };

  std::vector<PassResult> Untraced;
  if (!A.Trace) {
    if (Passes(Untraced)) {
      Summary S = Summarize(Untraced);
      Out.Metrics = {{"sweep_s", percentile(S.PassSecs, RunPercentile), "s"},
                     {"setup_s", percentile(S.Setup, RunPercentile), "s"},
                     {"peak_rss_mb", WarmPeakRss, "MB"}};
    }
    return Out;
  }

  // Traced run: untraced and traced passes in turn; the overhead is the
  // median of the pairs' differences.
  std::vector<PassResult> Traced;
  Tracer T;
  bool Ok = pairedPasses(T, Budget, [&](bool IsTraced) {
    std::vector<PassResult> &Into = IsTraced ? Traced : Untraced;
    Into.emplace_back();
    return Pass(Into.back());
  });
  std::map<std::string, double> AfterPasses = T.selfSeconds();
  Tracer::install(&T);
  Rng R(A.Seed);
  EngineProbe E = probeEngines(Kernels, R, 0.15);
  Tracer::install(nullptr);
  writeTrace(T, A);
  if (!Ok)
    return Out;

  Summary U = Summarize(Untraced), S = Summarize(Traced);
  double PassTotal = 0;
  for (double X : S.PassSecs)
    PassTotal += X;
  std::vector<Metric> &M = Out.Metrics;
  addEngineMetrics(M, E, Prep);
  addSelfTimes(M, AfterPasses, double(Traced.size()));
  M.push_back(
      {"trace.overhead_s", pairedOverhead(U.PassSecs, S.PassSecs), "s"});
  M.push_back({"trace.sweep_s", percentile(S.PassSecs, RunPercentile), "s"});
  M.push_back({"trace.spans", double(T.size()), "count"});
  for (const CorpusProgram &C : corpus()) {
    M.push_back({"fault.reference_s." + C.Name, 0, "s"});
    M.push_back({"fault.classify_s." + C.Name, 0, "s"});
  }
  addZeros(M, {{"analysis.discharged", "count"},
               {"analysis.discharge_ratio", "ratio"},
               {"fault.reference_s", "s"},
               {"fault.classify_s", "s"},
               {"fault.tasks", "count"},
               {"fault.task_us", "us"},
               {"fault.lockstep_skips", "count"},
               {"fault.lockstep_steps", "count"},
               {"fault.early_exits", "count"},
               {"fault.steps_saved", "count"},
               {"fault.lane_tasks", "count"},
               {"fault.jit_side_exits", "count"},
               {"recover.rollbacks", "count"},
               {"recover.checkpoints", "count"},
               {"recover.replayed_outputs", "count"},
               {"recover.task_ms", "ms"}});
  double N = double(Traced.size());
  M.push_back({"serve.accept_ms", percentile(S.Accept, 50), "ms"});
  M.push_back({"serve.run_ms", percentile(S.Run, 50), "ms"});
  M.push_back({"serve.shard_events", S.Shards / N, "count"});
  M.push_back({"serve.hit_ratio", S.Total ? S.Hits / S.Total : 0, "ratio"});
  M.push_back({"serve.pool_retries", S.Retries, "count"});
  M.push_back({"serve.overloaded", S.Overloaded, "count"});
  M.push_back({"serve.cold_p50_ms", percentile(S.Cold, 50), "ms"});
  M.push_back({"serve.cold_p90_ms", percentile(S.Cold, 90), "ms"});
  M.push_back({"serve.warm_p50_ms", percentile(S.Warm, 50), "ms"});
  M.push_back({"serve.warm_p99_ms", percentile(S.Warm, 99), "ms"});
  M.push_back({"serve.submits_per_s", PassTotal > 0 ? S.Total / PassTotal : 0,
               "1/s"});
  return Out;
}

//===----------------------------------------------------------------------===//
// Golden tables
//===----------------------------------------------------------------------===//

bool makeGoldens(const std::string &Path) {
  GoldenTables G;
  CampaignOptions Oracle;
  Oracle.Threads = hostThreads();
  Oracle.Engine = nullptr; // the reference interpreter
  Oracle.Prune = false;
  [](auto &O) {
    if constexpr (requires { O.Converge; })
      O.Converge = false;
    if constexpr (requires { O.Lanes; })
      O.Lanes = false;
  }(Oracle);

  auto Put = [&](const Prepared &P, const TheoremConfig &Config,
                 const std::string &Name) {
    Clock::time_point T0 = Clock::now();
    CampaignResult R = runSweepCampaign(P, Config, Oracle);
    std::fprintf(stderr, "golden %-22s %9llu injections %8.2fs%s\n",
                 Name.c_str(), (unsigned long long)R.Table.total(),
                 secondsSince(T0), R.Ok ? "" : "  VIOLATIONS");
    if (!R.Ok)
      return false;
    G.put(goldenKey(R.ProgramHash, Config), Name, R.Table);
    return true;
  };

  for (uint64_t Factor : {uint64_t(1), RecoverStrideFactor}) {
    bool Recover = Factor != 1;
    for (const CorpusProgram &C : corpus()) {
      Prepared P;
      SetupTimes T;
      if (std::string Err =
              prepare(C, 0, "reference", false, Factor, P, T);
          !Err.empty()) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        return false;
      }
      if (!Put(P, sweepConfig(P, Recover),
               C.Name + (Recover ? "/recover" : "")))
        return false;
      // The serve-mix keys: the raw-semantics campaign the server runs, at
      // the kernel's stride variants (variant 1 is the sweep's own key).
      if (C.Kind != "fig10" || Recover)
        continue;
      for (unsigned V = 2; V <= ServeMixVariants; ++V) {
        serve::SubmitSpec S;
        TheoremConfig Config =
            serve::theoremConfig(S, adaptiveStride(P.RefSteps) * V);
        if (!Put(P, Config, formatv("%s@%u", C.Name.c_str(), V)))
          return false;
      }
    }
  }
  std::string Err;
  if (!G.save(Path, Err)) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %zu golden tables to %s\n", G.size(),
               Path.c_str());
  return true;
}

} // namespace perfbench
