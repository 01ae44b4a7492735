#include "exec/morsel.h"

#include <algorithm>
#include <atomic>

namespace scalewall::exec {

std::vector<MorselRange> SplitMorsels(const std::vector<size_t>& item_rows,
                                      size_t morsel_rows) {
  if (morsel_rows == 0) morsel_rows = kDefaultMorselRows;
  std::vector<MorselRange> morsels;
  for (size_t item = 0; item < item_rows.size(); ++item) {
    const size_t rows = item_rows[item];
    if (rows == 0) {
      morsels.push_back(MorselRange{item, 0, 0});
      continue;
    }
    for (size_t begin = 0; begin < rows; begin += morsel_rows) {
      morsels.push_back(
          MorselRange{item, begin, std::min(rows, begin + morsel_rows)});
    }
  }
  return morsels;
}

std::vector<size_t> BatchMorsels(const std::vector<MorselRange>& morsels,
                                 size_t morsel_rows) {
  if (morsel_rows == 0) morsel_rows = kDefaultMorselRows;
  std::vector<size_t> bounds = {0};
  if (morsels.empty()) return bounds;
  size_t rows = 0;
  for (size_t i = 0; i < morsels.size(); ++i) {
    const size_t n = morsels[i].end - morsels[i].begin;
    if (i > bounds.back() && rows + n > morsel_rows) {
      bounds.push_back(i);
      rows = 0;
    }
    rows += n;
  }
  bounds.push_back(morsels.size());
  return bounds;
}

Status ForEachMorsel(ThreadPool* pool, int max_tasks, size_t count,
                     const std::function<void(size_t)>& body,
                     const CancelToken* cancel, MorselMetrics* metrics,
                     int sched_pool) {
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };

  int64_t executed = 0;
  bool stopped = false;
  if (pool == nullptr || pool->num_threads() <= 1 || max_tasks <= 1 ||
      count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      if (cancelled()) {
        stopped = true;
        break;
      }
      body(i);
      ++executed;
    }
  } else {
    // Self-scheduling: each task drains morsel indices from a shared
    // counter, so fast workers take more morsels and a stalled worker
    // never leaves assigned-but-unstarted work behind.
    std::atomic<size_t> next{0};
    std::atomic<int64_t> done{0};
    const int tasks = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(max_tasks), count));
    TaskGroup group(pool);
    for (int t = 0; t < tasks; ++t) {
      group.Run(
          [&] {
            while (!cancelled()) {
              size_t i = next.fetch_add(1, std::memory_order_relaxed);
              if (i >= count) return;
              body(i);
              done.fetch_add(1, std::memory_order_relaxed);
            }
          },
          sched_pool);
    }
    group.Wait();
    executed = done.load(std::memory_order_relaxed);
    stopped = cancelled() &&
              executed < static_cast<int64_t>(count);
  }

  if (metrics != nullptr) {
    metrics->executed += executed;
    metrics->skipped += static_cast<int64_t>(count) - executed;
  }
  if (stopped || (cancelled() && executed < static_cast<int64_t>(count))) {
    return Status::Cancelled("execution cancelled after " +
                             std::to_string(executed) + " of " +
                             std::to_string(count) + " morsels");
  }
  return Status::Ok();
}

}  // namespace scalewall::exec
