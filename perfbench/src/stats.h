// Measurement helpers of the benchmark: percentile picking, the span log
// of the traced run and per-span-name self time, and a bitwise row
// comparison. Kept free of scalewall types other than result rows so the
// helper test exercises them on hand-built inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cubrick/query.h"

namespace perfbench {

// Steady-clock microseconds.
int64_t NowMicros();

// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
// Unlike wall time it does not count time the hypervisor gave the CPU to
// another guest ("steal"), which on a shared host moves wall-clock
// latencies by tens of percent from one run to the next.
int64_t ThreadCpuNanos();

// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending,
// non-empty): the value at 1-based rank ceil(p/100 * n).
double Percentile(const std::vector<double>& sorted, double p);

// The highest of `candidates` whose nearest rank leaves at least
// `min_beyond` samples above it. A tail percentile with fewer samples
// beyond it is one or two outliers, not a percentile.
struct TailPick {
  bool ok = false;         // false: not even the lowest candidate qualifies
  double percentile = 0;   // the picked candidate
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;       // samples strictly above the picked rank
};
TailPick PickTail(std::vector<double> values,
                  const std::vector<double>& candidates = {99.9, 99, 90, 50},
                  size_t min_beyond = 10);

double Median(std::vector<double> values);

// Nearest-rank p99 of `values`, with a note from PickTail: how many
// samples lie beyond it, or, when fewer than 10 do, which percentile is
// the highest that has 10 beyond (the p99 is then one or two outliers).
double P99WithNote(std::vector<double> values, std::string* note);

// One span of the traced run, recorded by the benchmark around a call
// into a layer. `parent` is 0 for a root span; spans of one request share
// `trace`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

// Thread-safe in-memory span log. Disabled logs record nothing, so the
// untraced run pays one branch per span site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewTrace();
  // Returns the span id (0 when disabled).
  uint64_t Begin(std::string_view name, uint64_t parent, uint64_t trace);
  void End(uint64_t id);
  // Records a span whose times were taken elsewhere (callbacks).
  uint64_t Add(std::string_view name, uint64_t parent, uint64_t trace,
               int64_t start_us, int64_t end_us);
  std::vector<Span> Snapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint64_t, size_t> open_;  // id -> index in spans_
  uint64_t next_id_ = 1;
  uint64_t next_trace_ = 1;
};

// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, uint64_t parent,
             uint64_t trace)
      : log_(log), id_(log.Begin(name, parent, trace)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint64_t id_;
};

// Per span name: how many spans, their summed duration, and their summed
// self time — a span's duration minus the part of its interval covered
// by the union of its children's intervals (clipped to the span).
struct SelfTime {
  int64_t count = 0;
  int64_t total_us = 0;
  int64_t self_us = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

// 64-bit FNV-1a digest of result rows: row and key counts, key values and
// the bit patterns of the values. Equal digests stand for rows that
// node::FormatResultRows renders to the same bytes (up to a 2^-64
// collision chance), so a run keeps one digest per query instance
// instead of its rows.
uint64_t RowsDigest(const std::vector<scalewall::cubrick::ResultRow>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
