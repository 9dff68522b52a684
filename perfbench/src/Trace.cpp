//===- perfbench/src/Trace.cpp - In-memory spans around layer calls -------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "serve/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {
std::atomic<Tracer *> Installed{nullptr};
/// The innermost open span on this thread.
thread_local uint64_t OpenSpan = 0;
} // namespace

void Tracer::install(Tracer *T) { Installed.store(T); }
Tracer *Tracer::active() { return Installed.load(std::memory_order_relaxed); }

uint64_t Tracer::newId() {
  std::lock_guard<std::mutex> Lock(Mu);
  return NextId++;
}

void Tracer::add(Record R) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(R));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(Mu);
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::unordered_map<uint64_t, std::vector<Interval>> Children;
  for (const Record &R : Spans)
    if (R.Parent)
      Children[R.Parent].push_back({R.Start, R.End});
  std::map<std::string, double> Self;
  for (const Record &R : Spans) {
    Clock::duration D = R.End - R.Start;
    auto It = Children.find(R.Id);
    if (It != Children.end()) {
      // Subtract the union of the children, clipped to this span.
      std::vector<Interval> &C = It->second;
      std::sort(C.begin(), C.end());
      Clock::time_point Covered = R.Start;
      for (auto [S, E] : C) {
        S = std::max(S, Covered);
        E = std::min(E, R.End);
        if (E > S) {
          D -= E - S;
          Covered = E;
        }
      }
    }
    Self[R.Name.substr(0, R.Name.find('.'))] +=
        std::chrono::duration<double>(D).count();
  }
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  Clock::time_point T0 = Spans.empty() ? Clock::now() : Spans.front().Start;
  for (const Record &R : Spans)
    T0 = std::min(T0, R.Start);
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - T0).count();
  };
  std::string S = "[\n";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Record &R = Spans[I];
    S += talft::formatv(
        "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"group\": %llu}}%s\n",
        talft::serve::jsonQuote(R.Name).c_str(),
        talft::serve::jsonQuote(R.Name.substr(0, R.Name.find('.'))).c_str(),
        (unsigned long long)R.Group, Us(R.Start), Us(R.End) - Us(R.Start),
        (unsigned long long)R.Id, (unsigned long long)R.Parent,
        (unsigned long long)R.Group, I + 1 == Spans.size() ? "" : ",");
  }
  S += "]\n";
  std::ofstream Out(Path);
  return bool(Out << S);
}

Span::Span(const char *Name, uint64_t Group)
    : Span(Name, Group, OpenSpan) {}

Span::Span(const char *Name, uint64_t Group, uint64_t Parent)
    : T(Tracer::active()), Name(Name), Group(Group), Parent(Parent) {
  if (!T)
    return;
  Id = T->newId();
  Saved = OpenSpan;
  OpenSpan = Id;
  Start = Clock::now();
}

Span::~Span() {
  if (!T)
    return;
  Clock::time_point End = Clock::now();
  OpenSpan = Saved;
  T->add({Name, Group, Id, Parent, Start, End});
}

} // namespace perfbench
