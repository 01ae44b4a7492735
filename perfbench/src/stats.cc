#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps e.g. 99.9% of 10000 at rank 9990 despite rounding.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  return sorted[NearestRank(sorted.size(), p) - 1];
}

TailPick PickTail(std::vector<double> values,
                  const std::vector<double>& candidates, size_t min_beyond) {
  TailPick pick;
  pick.samples = values.size();
  if (values.empty()) return pick;
  std::sort(values.begin(), values.end());
  std::vector<double> sorted_candidates = candidates;
  std::sort(sorted_candidates.rbegin(), sorted_candidates.rend());
  for (double p : sorted_candidates) {
    const size_t rank = NearestRank(values.size(), p);
    const size_t beyond = values.size() - rank;
    if (beyond < min_beyond) continue;
    pick.ok = true;
    pick.percentile = p;
    pick.value = values[rank - 1];
    pick.beyond = beyond;
    return pick;
  }
  return pick;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

double P99WithNote(std::vector<double> values, std::string* note) {
  if (values.empty()) {
    *note = "no samples";
    return 0.0;
  }
  const TailPick pick = PickTail(values, {99, 90, 50});
  std::sort(values.begin(), values.end());
  const double p99 = Percentile(values, 99);
  char buf[160];
  if (pick.ok && pick.percentile == 99) {
    std::snprintf(buf, sizeof(buf), "p99 of %zu, %zu beyond", pick.samples,
                  pick.beyond);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "p99 of %zu has fewer than 10 beyond; highest with 10: "
                  "p%g = %.4g",
                  values.size(), pick.ok ? pick.percentile : 0.0,
                  pick.ok ? pick.value : 0.0);
  }
  *note = buf;
  return p99;
}

uint64_t SpanLog::NewTrace() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_trace_++;
}

uint64_t SpanLog::Begin(std::string_view name, uint64_t parent,
                        uint64_t trace) {
  if (!enabled_) return 0;
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  open_[id] = spans_.size();
  spans_.push_back(Span{id, parent, trace, std::string(name), now, now});
  return id;
}

void SpanLog::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_us = now;
  open_.erase(it);
}

uint64_t SpanLog::Add(std::string_view name, uint64_t parent, uint64_t trace,
                      int64_t start_us, int64_t end_us) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(
      Span{id, parent, trace, std::string(name), start_us, end_us});
  return id;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_us, span.end_us);
    }
  }
  std::map<std::string, SelfTime> out;
  for (const Span& span : spans) {
    const int64_t duration = std::max<int64_t>(0, span.end_us - span.start_us);
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      // Union of child intervals clipped to [start, end].
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, span.start_us);
        hi = std::min(hi, span.end_us);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    SelfTime& entry = out[span.name];
    ++entry.count;
    entry.total_us += duration;
    entry.self_us += duration - covered;
  }
  return out;
}

namespace {

void Mix(uint64_t& h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

}  // namespace

uint64_t RowsDigest(const std::vector<scalewall::cubrick::ResultRow>& rows) {
  uint64_t h = 14695981039346656037ULL;
  Mix(h, rows.size());
  for (const scalewall::cubrick::ResultRow& row : rows) {
    Mix(h, row.key.size());
    for (uint32_t k : row.key) Mix(h, k);
    Mix(h, row.values.size());
    for (double v : row.values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      Mix(h, bits);
    }
  }
  return h;
}

}  // namespace perfbench
