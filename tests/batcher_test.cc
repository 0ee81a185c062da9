// Batcher unit tests: admission, shedding and draining of the serving
// plane's FIFO, driven directly (no sockets, no module). Everything here
// is deterministic: single-threaded cases check the drain contract, and
// the threaded cases hand events over with explicit handshakes, never by
// sleeping. The threaded cases are the TSan target for Admit/WaitForBatch.

#include "net/batcher.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace latest::net {
namespace {

AdmittedEvent Ingest(uint64_t request_id) {
  AdmittedEvent event;
  event.kind = AdmittedEvent::Kind::kIngest;
  event.request_id = request_id;
  return event;
}

AdmittedEvent Query(uint64_t request_id) {
  AdmittedEvent event;
  event.kind = AdmittedEvent::Kind::kQuery;
  event.request_id = request_id;
  return event;
}

void MustAdmit(Batcher* batcher, AdmittedEvent event) {
  uint32_t backoff_ms = 0;
  ASSERT_EQ(batcher->Admit(std::move(event), /*degraded=*/false,
                           &backoff_ms),
            AdmitResult::kAdmitted);
}

std::vector<uint64_t> Ids(const std::vector<AdmittedEvent>& batch) {
  std::vector<uint64_t> ids;
  for (const AdmittedEvent& event : batch) ids.push_back(event.request_id);
  return ids;
}

// No timer stands between an admission and its drain: a thousand
// admit -> drain cycles finish far inside what any per-batch wait of a
// millisecond or more would add up to (one second).
TEST(BatcherTest, AdmittedEventDrainsWithoutTimer) {
  Batcher batcher(BatcherConfig{});
  std::vector<AdmittedEvent> batch;
  constexpr int kCycles = 1000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCycles; ++i) {
    MustAdmit(&batcher, Query(static_cast<uint64_t>(i)));
    ASSERT_TRUE(batcher.WaitForBatch(&batch));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].request_id, static_cast<uint64_t>(i));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(kCycles));

  // Admission and drain stamp the event on the steady clock.
  MustAdmit(&batcher, Ingest(7));
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GT(batch[0].admit_micros, 0);
  EXPECT_EQ(batch[0].arrival_micros, batch[0].admit_micros);
  EXPECT_GE(batch[0].dequeue_micros, batch[0].admit_micros);
}

// A batch is the in-order FIFO prefix holding at most max_batch queries;
// ingests ride along uncapped.
TEST(BatcherTest, MaxBatchCapsQueriesButNotIngests) {
  BatcherConfig config;
  config.max_batch = 2;
  Batcher batcher(config);
  // I1 Q2 I3 Q4 I5 I6 Q7 Q8 I9 Q10
  MustAdmit(&batcher, Ingest(1));
  MustAdmit(&batcher, Query(2));
  MustAdmit(&batcher, Ingest(3));
  MustAdmit(&batcher, Query(4));
  MustAdmit(&batcher, Ingest(5));
  MustAdmit(&batcher, Ingest(6));
  MustAdmit(&batcher, Query(7));
  MustAdmit(&batcher, Query(8));
  MustAdmit(&batcher, Ingest(9));
  MustAdmit(&batcher, Query(10));
  EXPECT_EQ(batcher.query_depth(), 5u);
  EXPECT_EQ(batcher.ingest_depth(), 5u);

  std::vector<AdmittedEvent> batch;
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{7, 8, 9}));
  ASSERT_TRUE(batcher.WaitForBatch(&batch));
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{10}));
  EXPECT_EQ(batcher.query_depth(), 0u);
  EXPECT_EQ(batcher.ingest_depth(), 0u);

  // max_batch 1 still passes any run of ingests through in one batch.
  BatcherConfig unbatched;
  unbatched.max_batch = 1;
  Batcher single(unbatched);
  for (uint64_t id = 1; id <= 100; ++id) MustAdmit(&single, Ingest(id));
  MustAdmit(&single, Query(101));
  MustAdmit(&single, Query(102));
  ASSERT_TRUE(single.WaitForBatch(&batch));
  EXPECT_EQ(batch.size(), 101u);
  EXPECT_EQ(batch.back().request_id, 101u);
  ASSERT_TRUE(single.WaitForBatch(&batch));
  EXPECT_EQ(Ids(batch), (std::vector<uint64_t>{102}));
}

// Queries shed before ingests, an SLO-degraded module shrinks the query
// capacity by degraded_divisor, and every shed carries a backoff hint.
TEST(BatcherTest, ShedsQueriesFirstAndShrinksWhenDegraded) {
  BatcherConfig config;
  config.max_query_queue = 16;
  config.max_ingest_queue = 32;
  config.degraded_divisor = 4;
  Batcher batcher(config);

  uint32_t backoff_ms = 0;
  uint64_t id = 0;
  // Degraded: 16 / 4 = 4 queries fit.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batcher.Admit(Query(++id), /*degraded=*/true, &backoff_ms),
              AdmitResult::kAdmitted);
  }
  backoff_ms = 0;
  EXPECT_EQ(batcher.Admit(Query(++id), /*degraded=*/true, &backoff_ms),
            AdmitResult::kShedQuery);
  EXPECT_GT(backoff_ms, 0u);

  // Ingest still lands while queries shed.
  EXPECT_EQ(batcher.Admit(Ingest(++id), /*degraded=*/true, &backoff_ms),
            AdmitResult::kAdmitted);

  // Healthy again: the full capacity of 16 applies.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(batcher.Admit(Query(++id), /*degraded=*/false, &backoff_ms),
              AdmitResult::kAdmitted);
  }
  backoff_ms = 0;
  EXPECT_EQ(batcher.Admit(Query(++id), /*degraded=*/false, &backoff_ms),
            AdmitResult::kShedQuery);
  EXPECT_GT(backoff_ms, 0u);
  EXPECT_EQ(batcher.query_depth(), 16u);

  // The ingest class has its own bound.
  for (int i = 1; i < 32; ++i) {
    EXPECT_EQ(batcher.Admit(Ingest(++id), /*degraded=*/false, &backoff_ms),
              AdmitResult::kAdmitted);
  }
  backoff_ms = 0;
  EXPECT_EQ(batcher.Admit(Ingest(++id), /*degraded=*/false, &backoff_ms),
            AdmitResult::kShedIngest);
  EXPECT_GT(backoff_ms, 0u);
  EXPECT_EQ(batcher.ingest_depth(), 32u);

  // A zero-capacity query class sheds everything, still with a hint.
  BatcherConfig closed;
  closed.max_query_queue = 0;
  Batcher refusing(closed);
  backoff_ms = 0;
  EXPECT_EQ(refusing.Admit(Query(1), /*degraded=*/false, &backoff_ms),
            AdmitResult::kShedQuery);
  EXPECT_GT(backoff_ms, 0u);
}

// The consumer sleeps only on an empty queue, and the next Admit wakes
// it. Each round waits for the previous event to come back before
// admitting the next, so every admission finds the queue empty.
TEST(BatcherTest, AdmitWakesConsumerBlockedOnEmptyQueue) {
  Batcher batcher(BatcherConfig{});
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint64_t> received;

  std::thread consumer([&] {
    std::vector<AdmittedEvent> batch;
    while (batcher.WaitForBatch(&batch)) {
      std::lock_guard<std::mutex> lock(mu);
      for (const AdmittedEvent& event : batch) {
        received.push_back(event.request_id);
      }
      cv.notify_all();
    }
  });

  constexpr uint64_t kRounds = 200;
  const auto run_rounds = [&] {
    for (uint64_t id = 1; id <= kRounds; ++id) {
      MustAdmit(&batcher, id % 2 == 0 ? Query(id) : Ingest(id));
      std::unique_lock<std::mutex> lock(mu);
      // A lost wake-up would hang here; the bound makes it a failure.
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return received.size() == id; }))
          << "event " << id << " never drained";
      EXPECT_EQ(received.back(), id);
    }
  };
  run_rounds();
  batcher.Stop();
  consumer.join();
  EXPECT_EQ(received.size(), kRounds);
}

// Stop with events queued: new admissions shed, everything already
// queued comes back in capped, in-order batches, and only then does
// WaitForBatch return false.
TEST(BatcherTest, StopDrainsQueuedEventsBeforeReturningFalse) {
  BatcherConfig config;
  config.max_batch = 2;
  Batcher batcher(config);
  for (uint64_t id = 1; id <= 5; ++id) MustAdmit(&batcher, Query(id));
  MustAdmit(&batcher, Ingest(6));
  MustAdmit(&batcher, Query(7));
  batcher.Stop();

  uint32_t backoff_ms = 0;
  EXPECT_EQ(batcher.Admit(Query(8), /*degraded=*/false, &backoff_ms),
            AdmitResult::kShedQuery);
  EXPECT_GT(backoff_ms, 0u);
  backoff_ms = 0;
  EXPECT_EQ(batcher.Admit(Ingest(9), /*degraded=*/false, &backoff_ms),
            AdmitResult::kShedIngest);
  EXPECT_GT(backoff_ms, 0u);

  std::vector<std::vector<uint64_t>> batches;
  std::vector<AdmittedEvent> batch;
  while (batcher.WaitForBatch(&batch)) batches.push_back(Ids(batch));
  EXPECT_EQ(batches, (std::vector<std::vector<uint64_t>>{
                         {1, 2}, {3, 4}, {5, 6, 7}}));
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batcher.WaitForBatch(&batch));

  // A consumer already blocked on an empty queue is released by Stop.
  Batcher idle(BatcherConfig{});
  bool result = true;
  std::thread consumer([&] {
    std::vector<AdmittedEvent> none;
    result = idle.WaitForBatch(&none);
  });
  idle.Stop();
  consumer.join();
  EXPECT_FALSE(result);
}

}  // namespace
}  // namespace latest::net
