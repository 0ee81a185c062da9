#include "net/batcher.h"

#include <algorithm>
#include <chrono>

namespace latest::net {

namespace {

/// Backoff hint grows with queue pressure: an almost-empty queue asks for
/// a few ms, a saturated one for ~100 ms plus headroom.
uint32_t BackoffHint(size_t depth, size_t capacity) {
  if (capacity == 0) return 100;
  const double pressure =
      static_cast<double>(depth) / static_cast<double>(capacity);
  return 5 + static_cast<uint32_t>(pressure * 100.0);
}

}  // namespace

Batcher::Batcher(const BatcherConfig& config) : config_(config) {}

AdmitResult Batcher::Admit(AdmittedEvent event, bool degraded,
                           uint32_t* backoff_hint_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (event.kind == AdmittedEvent::Kind::kQuery) {
    size_t capacity = config_.max_query_queue;
    if (degraded && config_.degraded_divisor > 1) {
      capacity = std::max<size_t>(1, capacity / config_.degraded_divisor);
    }
    if (stopped_ || pending_query_ >= capacity) {
      *backoff_hint_ms = BackoffHint(pending_query_, capacity);
      return AdmitResult::kShedQuery;
    }
    ++pending_query_;
  } else {
    if (stopped_ || pending_ingest_ >= config_.max_ingest_queue) {
      *backoff_hint_ms =
          BackoffHint(pending_ingest_, config_.max_ingest_queue);
      return AdmitResult::kShedIngest;
    }
    ++pending_ingest_;
  }
  event.admit_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  if (event.arrival_micros == 0) event.arrival_micros = event.admit_micros;
  const bool was_empty = fifo_.empty();
  fifo_.push_back(std::move(event));
  lock.unlock();
  // The consumer only sleeps on an empty queue.
  if (was_empty) cv_.notify_one();
  return AdmitResult::kAdmitted;
}

bool Batcher::WaitForBatch(std::vector<AdmittedEvent>* out) {
  out->clear();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stopped_ || !fifo_.empty(); });
  if (fifo_.empty()) return false;  // Stopped and drained.
  const size_t query_cap = std::max<uint32_t>(1, config_.max_batch);
  const int64_t dequeue_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  size_t queries_taken = 0;
  while (!fifo_.empty()) {
    if (fifo_.front().kind == AdmittedEvent::Kind::kQuery) {
      if (queries_taken >= query_cap) break;
      ++queries_taken;
      --pending_query_;
    } else {
      --pending_ingest_;
    }
    fifo_.front().dequeue_micros = dequeue_micros;
    out->push_back(std::move(fifo_.front()));
    fifo_.pop_front();
  }
  return true;
}

void Batcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

size_t Batcher::ingest_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_ingest_;
}

size_t Batcher::query_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_query_;
}

}  // namespace latest::net
