#ifndef CARP_PERFBENCH_TRACE_H_
#define CARP_PERFBENCH_TRACE_H_

// In-memory span recorder of the traced benchmark run. A span is one call
// the benchmark (or the probe planner) makes into a layer: a static name,
// start and end on a steady clock, and the span that caused it. Spans stay
// in memory and are written out once, when the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace carp::perfbench {

/// Nanoseconds on the process-wide steady clock.
std::int64_t NowNs();

/// CPU time of the calling thread, in nanoseconds. Time the thread spent
/// descheduled, or that the hypervisor stole from its virtual CPU, does not
/// count.
std::int64_t ThreadCpuNs();

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  const char* name = "";     // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the driving thread; it becomes the parent of every
  /// span recorded (from any thread) until it is closed. No-op when
  /// tracing is off.
  std::int64_t Open(const char* name);
  void Close(std::int64_t id);

  /// Records a finished leaf span under the currently open span.
  /// Thread-safe.
  void Leaf(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  /// Span of the driving thread: Open on construction, Close on
  /// destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.Open(name)) {}
    ~Scope() { tracer_.Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

  /// Per-name totals: summed span time and summed self time (span time
  /// minus the union of its children's intervals, clipped to the span).
  struct NameTotals {
    double total_s = 0;
    double self_s = 0;
    std::int64_t count = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span as one JSON object per line. Returns false when
  /// the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

  /// Drops every recorded span (the open-span stack must be empty).
  void Clear();

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;        // guarded by mu_
  std::vector<std::int64_t> open_;  // driving thread only
  std::atomic<std::int64_t> current_{-1};
  std::atomic<std::int64_t> next_id_{0};
};

}  // namespace carp::perfbench

#endif  // CARP_PERFBENCH_TRACE_H_
