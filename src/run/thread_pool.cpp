#include "run/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sigvp::run {

namespace {

/// One parallel_for call. Its helpers share ownership, so a helper that
/// starts after the caller has returned still finds a live, exhausted
/// counter; `fn` is dereferenced only for a claimed index, while the caller
/// is still waiting.
struct Region {
  Region(std::size_t n, const std::function<void(std::size_t)>& f) : count(n), fn(&f) {}

  const std::size_t count;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  /// Claims and runs indices until none are left; false when it claimed none.
  bool work() {
    bool ran = false;
    for (std::size_t i; (i = next.fetch_add(1)) < count;) {
      ran = true;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      if (finished.fetch_add(1) + 1 == count) finished.notify_all();
    }
    return ran;
  }

  /// Blocks until every index has finished. Every unfinished index is
  /// running on some thread by the time the caller's own work() returns.
  void wait() {
    for (std::size_t f; (f = finished.load()) != count;) finished.wait(f);
  }
};

/// The process-wide worker pool: a FIFO of helper tasks, each one a Region
/// to work on, drained by threads that are added on demand and never
/// removed.
class Pool {
 public:
  /// Grows the pool to at least `helpers` threads, then queues a helper for
  /// `region` on each idle thread, up to `helpers`.
  void lend(const std::shared_ptr<Region>& region, std::size_t helpers) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (threads_.size() < helpers) threads_.emplace_back([this] { worker_loop(); });
      helpers = std::min(helpers, threads_.size() - running_ - queue_.size());
      queue_.insert(queue_.end(), helpers, region);
      stats_.helpers_queued += helpers;
    }
    for (std::size_t h = 0; h < helpers; ++h) ready_.notify_one();
  }

  PoolStats stats() {
    std::lock_guard<std::mutex> lock(mutex_);
    PoolStats out = stats_;
    out.threads = threads_.size();
    return out;
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ready_.wait(lock, [this] { return !queue_.empty(); });
      std::shared_ptr<Region> region = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      lock.unlock();
      const bool ran = region->work();
      region.reset();
      lock.lock();
      --running_;
      if (!ran) ++stats_.late_helpers;
    }
  }

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<Region>> queue_;
  std::vector<std::thread> threads_;
  std::size_t running_ = 0;  // threads inside a helper task
  PoolStats stats_;
};

/// Built on first use and never destroyed: its threads outlive main, so no
/// exit-time join can meet a late helper or a thread that exits mid-region.
Pool& pool() {
  static Pool* const instance = new Pool;
  return *instance;
}

}  // namespace

std::size_t default_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t count, std::size_t width,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (width == 0) width = default_workers();
  const auto region = std::make_shared<Region>(count, fn);
  const std::size_t helpers = std::min(width, count) - 1;
  if (helpers > 0) pool().lend(region, helpers);
  region->work();
  region->wait();
  if (region->error) std::rethrow_exception(region->error);
}

PoolStats pool_stats() { return pool().stats(); }

namespace {
std::atomic<std::size_t> g_fleet_shards{1};
}  // namespace

void set_fleet_shards(std::size_t shards) {
  g_fleet_shards.store(shards == 0 ? 1 : shards, std::memory_order_relaxed);
}

std::size_t fleet_shards() { return g_fleet_shards.load(std::memory_order_relaxed); }

}  // namespace sigvp::run
