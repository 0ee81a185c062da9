// Load-proportional admission for the serving data plane.
//
// The IO thread admits decoded INGEST/QUERY frames into one ordered FIFO
// (arrival order is preserved end-to-end, so a single connection's
// request sequence replays deterministically through the module). The
// batch thread blocks in WaitForBatch only while the FIFO is empty, then
// drains whatever is queued as one batch, with no timer. At light load a
// batch is the one event that woke it; under load, events pile up while
// the previous batch runs through the module, so batches fill by
// themselves (adaptive batching as in Clipper, NSDI '17).
//
// Admission is where load shedding happens: both classes are bounded,
// QUERY sheds before INGEST (dropping ingest corrupts the ground-truth
// window; dropping a query only costs that client a retry), and an
// SLO-degraded module shrinks the effective query capacity so the plane
// starts refusing work before the estimation path saturates. Shed
// responses carry a backoff hint proportional to queue pressure.

#ifndef LATEST_NET_BATCHER_H_
#define LATEST_NET_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "net/protocol.h"

namespace latest::net {

/// One admitted request, tagged with its source connection.
struct AdmittedEvent {
  enum class Kind : uint8_t { kIngest, kQuery };
  Kind kind = Kind::kIngest;
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  stream::GeoTextObject object;  // kIngest.
  stream::Query query;           // kQuery.
  /// Wire trace context (zero/unsampled when the client sent none).
  uint64_t trace_id = 0;
  bool trace_sampled = false;
  /// Stage stamps, microseconds on the steady clock (same domain as
  /// obs::SpanCollector::NanosFromSteadyMicros): socket readability,
  /// FIFO admission, batch-drain dequeue. arrival==admit when decode
  /// and admission happen inline on the IO thread (they do today);
  /// keeping both lets a future async decode stage show up as a gap.
  int64_t arrival_micros = 0;
  int64_t admit_micros = 0;
  int64_t dequeue_micros = 0;
};

struct BatcherConfig {
  /// Queries per batch cap; ingests between them pass uncapped. 1 gives
  /// unbatched serving (one OnQueryBatch call per query).
  uint32_t max_batch = 64;

  /// Bounded queue capacities (events, per class).
  uint32_t max_ingest_queue = 65536;
  uint32_t max_query_queue = 4096;

  /// Effective query capacity while the SLO monitor reports degraded,
  /// as a divisor: capacity becomes max_query_queue / degraded_divisor.
  uint32_t degraded_divisor = 8;
};

enum class AdmitResult : uint8_t {
  kAdmitted = 0,
  kShedQuery,   // Query queue full (or degraded-shrunk): RETRY_LATER.
  kShedIngest,  // Ingest queue full: RETRY_LATER.
};

/// Thread-safe bounded admission queue, drained as fast as the consumer
/// frees up. One producer side (any thread), one consumer (the batch
/// thread).
class Batcher {
 public:
  explicit Batcher(const BatcherConfig& config);

  /// Admits or sheds one event. `degraded` shrinks the query capacity.
  /// On shed, `*backoff_hint_ms` is set from current queue pressure.
  AdmitResult Admit(AdmittedEvent event, bool degraded,
                    uint32_t* backoff_hint_ms);

  /// Blocks until at least one event is queued (or Stop), then moves the
  /// in-order FIFO prefix containing at most max_batch queries into
  /// `*out`. Returns false only when stopped and fully drained — the
  /// clean-shutdown contract: every admitted event is either batched or
  /// the caller sees false.
  bool WaitForBatch(std::vector<AdmittedEvent>* out);

  /// Wakes WaitForBatch; subsequent Admit calls shed everything.
  void Stop();

  /// Instantaneous depths (metrics).
  size_t ingest_depth() const;
  size_t query_depth() const;

 private:
  const BatcherConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<AdmittedEvent> fifo_;
  size_t pending_ingest_ = 0;
  size_t pending_query_ = 0;
  bool stopped_ = false;
};

}  // namespace latest::net

#endif  // LATEST_NET_BATCHER_H_
