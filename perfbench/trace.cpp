#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

struct Track {
  int id = 0;
  std::string label;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

struct Registry {
  std::mutex mutex;  // guards tracks (not their contents)
  std::vector<std::unique_ptr<Track>> tracks;
  int next_thread_id = 1;
};

std::atomic<bool> g_enabled{false};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local Track* tls_track = nullptr;

Track& thread_track() {
  if (tls_track == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto t = std::make_unique<Track>();
    t->id = r.next_thread_id++;
    t->label = "thread " + std::to_string(t->id);
    tls_track = t.get();
    r.tracks.push_back(std::move(t));
  }
  return *tls_track;
}

// Virtual tracks get ids from 1000 up so they never collide with threads.
constexpr int kVirtualBase = 1000;

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& t : r.tracks) {
    t->spans.clear();
    t->open.clear();
  }
}

std::int32_t open(const char* name, std::uint64_t session) {
  Track& t = thread_track();
  const auto index = static_cast<std::int32_t>(t.spans.size());
  const std::int32_t parent = t.open.empty() ? -1 : t.open.back();
  t.spans.push_back({name, now_ns(), 0, parent, session});
  t.open.push_back(index);
  return index;
}

void close(std::int32_t index) noexcept {
  Track& t = *tls_track;
  t.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
  t.open.pop_back();
}

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t session) {
  Track& t = thread_track();
  const std::int32_t parent = t.open.empty() ? -1 : t.open.back();
  t.spans.push_back({name, start_ns, end_ns, parent, session});
}

void record_on(int track, const std::string& label, const char* name,
               std::int64_t start_ns, std::int64_t end_ns,
               std::uint64_t session) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const int id = kVirtualBase + track;
  Track* target = nullptr;
  for (auto& t : r.tracks) {
    if (t->id == id) target = t.get();
  }
  if (target == nullptr) {
    auto t = std::make_unique<Track>();
    t->id = id;
    t->label = label;
    target = t.get();
    r.tracks.push_back(std::move(t));
  }
  target->spans.push_back({name, start_ns, end_ns, -1, session});
}

int current_track() { return thread_track().id; }

void name_current_track(const std::string& label) {
  thread_track().label = label;
}

std::vector<double> durations_ns(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<double> out;
  for (const auto& t : r.tracks) {
    for (const Span& s : t->spans) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
  }
  return out;
}

std::map<std::string, double> self_time_ns() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::map<std::string, double> out;
  for (const auto& t : r.tracks) {
    std::vector<double> self(t->spans.size());
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      self[i] += static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      out[t->spans[i].name] += self[i];
    }
  }
  return out;
}

namespace {

template <typename Pred>
double root_time_where(Pred want, std::int64_t from_ns, std::int64_t to_ns) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  double total = 0.0;
  for (const auto& t : r.tracks) {
    if (!want(t->id)) continue;
    for (const Span& s : t->spans) {
      if (s.parent >= 0) continue;
      const std::int64_t a = std::max(s.start_ns, from_ns);
      const std::int64_t b = std::min(s.end_ns, to_ns);
      if (b > a) total += static_cast<double>(b - a);
    }
  }
  return total;
}

}  // namespace

double root_time_ns(int track, std::int64_t from_ns, std::int64_t to_ns) {
  return root_time_where([track](int id) { return id == track; }, from_ns,
                         to_ns);
}

double thread_root_time_ns(std::int64_t from_ns, std::int64_t to_ns) {
  return root_time_where([](int id) { return id < kVirtualBase; }, from_ns,
                         to_ns);
}

bool write_chrome_trace(const std::string& path, std::int64_t from_ns) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = from_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& t : r.tracks) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t->id, t->label.c_str());
    first = false;
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      if (s.start_ns < from_ns) continue;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"session\":%llu}}",
                   s.name, t->id,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.session));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
