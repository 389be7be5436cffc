#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace carp::perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t Tracer::Open(const char* name) {
  if (!enabled_) return -1;
  const std::int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Span span;
  span.id = id;
  span.parent = current_.load(std::memory_order_relaxed);
  span.name = name;
  span.start_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  open_.push_back(id);
  current_.store(id, std::memory_order_relaxed);
  return id;
}

void Tracer::Close(std::int64_t id) {
  if (!enabled_) return;
  const std::int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Open spans sit near the tail: children recorded after them are the
    // only entries behind.
    for (std::size_t i = spans_.size(); i > 0; --i) {
      if (spans_[i - 1].id == id) {
        spans_[i - 1].end_ns = end;
        break;
      }
    }
  }
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  current_.store(open_.empty() ? -1 : open_.back(),
                 std::memory_order_relaxed);
}

void Tracer::Leaf(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = current_.load(std::memory_order_relaxed);
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                         std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& s : spans_) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = -1;
      bool have = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (have && a <= hi) {
          hi = std::max(hi, b);
        } else {
          if (have) covered += hi - lo;
          lo = a;
          hi = b;
          have = true;
        }
      }
      if (have) covered += hi - lo;
    }
    NameTotals& t = totals[s.name];
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
    ++t.count;
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

}  // namespace carp::perfbench
