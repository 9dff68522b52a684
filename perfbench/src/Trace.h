//===- perfbench/src/Trace.h - In-memory spans around layer calls ---------===//
//
// Part of the TALFT project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run wraps every public call the benchmark makes into a
/// layer in a span: name ("<layer>.<call>"), start, end, the span that
/// caused it and a group id shared by the spans of one program or one
/// request. Spans stay in memory and are written out once, at exit. With
/// no tracer installed a Span is a null check, so the untraced run pays
/// nothing measurable.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
public:
  struct Record {
    std::string Name;
    uint64_t Group = 0;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = a root span
    Clock::time_point Start, End;
  };

  /// Installs \p T as the process-wide tracer (null turns tracing off).
  static void install(Tracer *T);
  static Tracer *active();

  uint64_t newId();
  void add(Record R);

  /// Per layer (the span name up to the first '.'), the summed self time
  /// in seconds: each span's duration minus the part of it that its
  /// children cover (children on other threads may overlap).
  std::map<std::string, double> selfSeconds() const;
  size_t size() const;

  /// Writes the spans as a Chrome trace_event JSON array.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Record> Spans;
  uint64_t NextId = 1;
};

/// RAII span: opens on construction, records on destruction. Nested
/// spans on the same thread become its children; a span opened on another
/// thread names its parent explicitly.
class Span {
public:
  Span(const char *Name, uint64_t Group);
  Span(const char *Name, uint64_t Group, uint64_t Parent);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's id, for spans recorded after the fact (0 when off).
  uint64_t id() const { return Id; }

private:
  Tracer *T;
  const char *Name;
  uint64_t Group, Parent, Id = 0;
  /// The thread's innermost open span before this one.
  uint64_t Saved = 0;
  Clock::time_point Start;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
