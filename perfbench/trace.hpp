// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only — around the calls
// it makes into each layer's public entry points (classifier fit/update/
// classify, objective measure, the load generator's wire exchanges). Each
// thread appends to its own buffer, so recording takes no lock; buffers are
// owned by a registry and outlive the threads that filled them. With the
// recorder disabled (the untraced run) a ScopedSpan costs one relaxed load.
//
// A span has a name, start, end, parent (the innermost span open on the
// same track when it started) and a session id. Tracks are threads, or
// virtual tracks for spans that belong to one connection rather than to the
// thread that observed them. write_chrome_trace() exports everything as
// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same track, -1 = root
  std::uint64_t session = 0;
};

namespace trace {

void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Drops every recorded span (track ids stay assigned).
void clear();

/// Opens a span on the calling thread's track; returns its index, or -1
/// when tracing is off. Pair with close().
[[nodiscard]] std::int32_t open(const char* name, std::uint64_t session = 0);
void close(std::int32_t index) noexcept;

/// Records an already-finished span on the calling thread's track, as a
/// child of whatever span is open there.
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t session = 0);

/// Records a finished root span on virtual track `track` (for example one
/// per connection), named `label` in the exported trace.
void record_on(int track, const std::string& label, const char* name,
               std::int64_t start_ns, std::int64_t end_ns,
               std::uint64_t session = 0);

/// Track id of the calling thread (assigned on first use).
[[nodiscard]] int current_track();
/// Labels the calling thread's track in the exported trace.
void name_current_track(const std::string& label);

/// Every span named `name`, across all tracks, as durations in ns.
[[nodiscard]] std::vector<double> durations_ns(const std::string& name);

/// Self time per span name (duration minus the time its direct children
/// cover), summed over all tracks, in ns.
[[nodiscard]] std::map<std::string, double> self_time_ns();

/// Time covered by root spans on `track` inside [from_ns, to_ns).
[[nodiscard]] double root_time_ns(int track, std::int64_t from_ns,
                                  std::int64_t to_ns);
/// The same, summed over every thread track (virtual tracks excluded).
[[nodiscard]] double thread_root_time_ns(std::int64_t from_ns,
                                         std::int64_t to_ns);

/// Writes the spans that start at or after `from_ns` as Chrome trace-event
/// JSON (a whole run's spans would take hundreds of megabytes). Returns
/// false on an I/O error.
bool write_chrome_trace(const std::string& path, std::int64_t from_ns);

}  // namespace trace

/// RAII span on the calling thread's track.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t session = 0)
      : index_(trace::enabled() ? trace::open(name, session) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) trace::close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace perfbench
