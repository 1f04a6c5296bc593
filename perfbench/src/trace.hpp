#pragma once
// Client-side spans around the benchmark's calls into each library layer,
// kept in memory and written once at the end as Chrome trace-event JSON
// (chrome://tracing and Perfetto open it). A span has a name whose prefix
// up to the first '.' is its layer ("api.submit" -> "api"), start and end
// times, the span that caused it, and the request it belongs to.
//
// Spans live in a ring of fixed capacity: once it is full the oldest are
// overwritten, so a long traced run costs the same per span throughout and
// the trace file keeps the most recent spans. Only the client thread
// records, so the recorder needs no locking. When tracing is off, begin()
// returns -1 without reading the clock and end() ignores it, so the
// untraced loop pays one branch per span.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;        ///< sequence number, unique within a Tracer
  std::int64_t parent = -1;   ///< id of the causing span, -1 for a root
  std::int64_t request = -1;  ///< request id, -1 outside a request
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Tracer(bool on, std::size_t capacity = kDefaultCapacity)
      : on_(on), capacity_(std::max<std::size_t>(capacity, 1)) {
    if (on_) ring_.reserve(capacity_);
  }

  bool on() const { return on_; }
  void set_on(bool on) {
    on_ = on;
    if (on_) ring_.reserve(capacity_);
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Open a span; returns its id (-1 when tracing is off).
  std::int64_t begin(const char* name, std::int64_t parent = -1, std::int64_t request = -1) {
    return add(name, on_ ? now_ns() : 0, 0, parent, request);
  }
  /// Record a span whose times the caller already took.
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent = -1, std::int64_t request = -1) {
    if (!on_) return -1;
    const std::int64_t id = next_++;
    const Span s{name, start_ns, end_ns, id, parent, request};
    if (ring_.size() < capacity_) {
      ring_.push_back(s);
    } else {
      ring_[static_cast<std::size_t>(id) % capacity_] = s;
    }
    return id;
  }
  void end(std::int64_t id) {
    if (id < 0) return;
    Span& s = ring_[static_cast<std::size_t>(id) % capacity_];
    if (s.id == id) s.end_ns = now_ns();
  }

  /// Spans still in the ring, oldest first.
  std::vector<Span> spans() const {
    std::vector<Span> out(ring_);
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
    return out;
  }
  /// Spans recorded in total, including overwritten ones.
  std::int64_t recorded() const { return next_; }

 private:
  bool on_;
  std::size_t capacity_;
  std::int64_t next_ = 0;
  std::vector<Span> ring_;
};

/// Layer of a span name: the text before the first '.'.
inline std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

/// Self time per layer in nanoseconds: each span's duration minus the part
/// of its interval covered by its direct children (overlapping children are
/// merged, and children are clipped to the parent), summed by layer. A
/// child whose parent has left the ring is counted as its own span only.
inline std::map<std::string, std::int64_t> self_time_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const auto& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent >= 0 && it != index_of.end()) kids[it->second].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[layer_of(p.name)] += (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

/// Write `spans` as a Chrome trace-event JSON object: one complete ("X")
/// event per span, times in microseconds relative to the first span, with
/// the span id, parent and request in args; `metadata` (already-rendered
/// JSON values keyed by name) goes under "otherData". Returns false if the
/// file could not be written.
inline bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                               const std::map<std::string, std::string>& metadata) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": {");
  bool first = true;
  for (const auto& [k, v] : metadata) {
    std::fprintf(f, "%s\"%s\": %s", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
                 "\"request\": %lld}}",
                 i == 0 ? "" : ",\n", s.name, layer_of(s.name).c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
