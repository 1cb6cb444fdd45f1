// Direct tests of the completion queue, the one dispatch engine behind
// ShardRouter: credit windows, credit-wait and in-flight deadlines, late
// responses, the two-pass failure walk, and router teardown with an attempt
// still pending. Fake channels complete attempts on the test's command (or
// inline, as an in-process shard does), so every interleaving is scripted.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "dta/rpc/completion_queue.h"
#include "dta/shard_router.h"
#include "server/server.h"

namespace dta::rpc {
namespace {

using WhatIfResult = server::Server::WhatIfResult;

Result<WhatIfResult> Cost(double cost) {
  WhatIfResult r;
  r.cost = cost;
  return r;
}

// A shard whose attempts complete only when the test says so, answering
// cost = call key + `bias`. Destroying it fails whatever is still pending,
// as a SocketChannel's connection-loss sweep does.
class FakeChannel : public ShardChannel {
 public:
  explicit FakeChannel(std::string name, double bias = 0)
      : name_(std::move(name)), bias_(bias) {}
  ~FakeChannel() override {
    while (pending() > 0) FailOldest(Status::Unavailable("channel closed"));
  }

  const std::string& name() const override { return name_; }

  void Submit(const tuner::WhatIfCall& call, Done done) override
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    pending_.emplace_back(call.call_key, std::move(done));
    peak_ = std::max(peak_, pending_.size());
    cv_.NotifyAll();
  }

  Status MirrorStatistics(const stats::Statistics&) override {
    return Status::Ok();
  }

  // Waits up to `timeout_ms` for at least `n` pending attempts.
  bool WaitForPending(size_t n, double timeout_ms = 10000) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_.size() < n) {
      if (!cv_.WaitForMs(mu_, timeout_ms)) return pending_.size() >= n;
    }
    return true;
  }

  void AnswerOldest() { CompleteOldest(Status::Ok()); }
  void FailOldest(Status error) { CompleteOldest(std::move(error)); }

  size_t pending() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return pending_.size();
  }
  // Most attempts ever pending at once.
  size_t peak() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return peak_;
  }

 private:
  // Completes outside the channel lock: the completion re-enters the queue,
  // which may submit the next attempt right back here.
  void CompleteOldest(Status error) EXCLUDES(mu_) {
    uint64_t key = 0;
    Done done;
    {
      MutexLock lock(mu_);
      key = pending_.front().first;
      done = std::move(pending_.front().second);
      pending_.pop_front();
    }
    if (error.ok()) {
      done(Cost(static_cast<double>(key) + bias_));
    } else {
      done(std::move(error));
    }
  }

  const std::string name_;
  const double bias_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::pair<uint64_t, Done>> pending_ GUARDED_BY(mu_);
  size_t peak_ GUARDED_BY(mu_) = 0;
};

// A shard that completes every attempt inside Submit with a fixed result,
// as an in-process shard does.
class InlineChannel : public ShardChannel {
 public:
  InlineChannel(std::string name, Result<WhatIfResult> result)
      : name_(std::move(name)), result_(std::move(result)) {}

  const std::string& name() const override { return name_; }
  void Submit(const tuner::WhatIfCall&, Done done) override {
    done(result_);
  }
  Status MirrorStatistics(const stats::Statistics&) override {
    return Status::Ok();
  }

 private:
  const std::string name_;
  const Result<WhatIfResult> result_;
};

// A shard that prices inside Submit, as an in-process shard does, but only
// once the test opens the call's gate; until then the launching thread is
// held inside Submit, reading the call the way a real pricing would.
class GatedChannel : public ShardChannel {
 public:
  explicit GatedChannel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

  void Submit(const tuner::WhatIfCall& call, Done done) override
      EXCLUDES(mu_) {
    static thread_local int depth = 0;  // Submits on this thread's stack
    ++depth;
    {
      MutexLock lock(mu_);
      max_depth_ = std::max(max_depth_, depth);
      entered_.push_back(call.call_key);
      cv_.NotifyAll();
      while (opened_.count(call.call_key) == 0) cv_.Wait(mu_);
    }
    done(Cost(static_cast<double>(call.call_key)));
    --depth;
  }

  Status MirrorStatistics(const stats::Statistics&) override {
    return Status::Ok();
  }

  void WaitUntilEntered(uint64_t key) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (std::find(entered_.begin(), entered_.end(), key) ==
           entered_.end()) {
      cv_.Wait(mu_);
    }
  }

  void Open(uint64_t key) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    opened_.insert(key);
    cv_.NotifyAll();
  }

  // Deepest nesting of Submit calls seen on any one thread.
  int max_depth() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return max_depth_;
  }

 private:
  const std::string name_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<uint64_t> entered_ GUARDED_BY(mu_);
  std::set<uint64_t> opened_ GUARDED_BY(mu_);
  int max_depth_ GUARDED_BY(mu_) = 0;
};

tuner::WhatIfCall CallWithKey(uint64_t key) {
  tuner::WhatIfCall call;
  call.call_key = key;
  return call;
}

// Hooks run under the queue lock, one at a time, so a plain vector records
// them; tests read it once the calls that fed it have returned.
CompletionQueueHooks RecordOutcomes(std::vector<std::string>* outcomes) {
  CompletionQueueHooks hooks;
  hooks.outcome = [outcomes](size_t shard, bool ok) {
    outcomes->push_back(StrFormat("%zu:%s", shard, ok ? "ok" : "fail"));
  };
  return hooks;
}

// Six concurrent calls on a two-credit shard: two run, four wait in the
// shard's FIFO, and every completion hands its credit to the next waiter.
TEST(CompletionQueueTest, InflightNeverExceedsTheWindow) {
  FakeChannel shard("s0");
  CompletionQueueOptions options;
  options.max_inflight_per_shard = 2;
  CompletionQueue queue({&shard}, {}, options);

  constexpr size_t kCalls = 6;
  std::vector<Result<WhatIfResult>> results(kCalls,
                                            Status::Internal("unset"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kCalls; ++i) {
    callers.emplace_back([&, i] {
      results[i] = queue.Execute(CallWithKey(i + 1), {0});
    });
  }
  EXPECT_TRUE(shard.WaitForPending(2));
  while (queue.queue_peak(0) < kCalls) std::this_thread::yield();
  EXPECT_EQ(shard.pending(), 2u);
  for (size_t answered = 0; answered < kCalls; ++answered) {
    EXPECT_TRUE(shard.WaitForPending(1));
    EXPECT_LE(shard.pending(), 2u);
    shard.AnswerOldest();
  }
  for (auto& t : callers) t.join();

  for (size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->cost, static_cast<double>(i + 1));
  }
  EXPECT_EQ(shard.peak(), 2u);
  EXPECT_EQ(queue.inflight_peak(0), 2u);
  EXPECT_EQ(queue.queue_peak(0), kCalls);
}

// A call that waits out its attempt deadline for a credit moves on to the
// next shard of its ranking instead of failing.
TEST(CompletionQueueTest, CreditWaitExpiryRequeuesOnTheNextShard) {
  FakeChannel s0("s0");
  FakeChannel s1("s1", /*bias=*/1000);
  std::vector<std::string> outcomes;
  MetricsRegistry metrics;
  CompletionQueueOptions options;
  options.max_inflight_per_shard = 1;
  options.attempt_timeout_ms = 200;
  options.metrics = &metrics;
  CompletionQueue queue({&s0, &s1}, RecordOutcomes(&outcomes), options);

  // The holder takes shard 0's only credit and never hears back; its
  // ranking offers no other shard, so its own deadline fails it.
  Result<WhatIfResult> held = Status::Internal("unset");
  std::thread holder([&] { held = queue.Execute(CallWithKey(1), {0}); });
  EXPECT_TRUE(s0.WaitForPending(1));

  // The waiter queues for that credit, times out of the wait, and is
  // answered by shard 1.
  Result<WhatIfResult> waited = Status::Internal("unset");
  size_t attempts = 0;
  std::thread waiter([&] {
    waited = queue.Execute(CallWithKey(2), {0, 1}, &attempts);
  });
  const bool requeued = s1.WaitForPending(1);
  EXPECT_TRUE(requeued);
  if (requeued) s1.AnswerOldest();
  waiter.join();
  holder.join();

  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->cost, 1002);
  EXPECT_EQ(attempts, 2u);
  EXPECT_EQ(held.status().code(), StatusCode::kDeadlineExceeded);
  // Both deadlines on shard 0 were reported once each, in either order.
  std::sort(outcomes.begin(), outcomes.end());
  EXPECT_EQ(outcomes,
            (std::vector<std::string>{"0:fail", "0:fail", "1:ok"}));
  const auto counters = metrics.CounterValues();
  EXPECT_EQ(counters.at("rpc.timeouts"), 2u);
  EXPECT_EQ(counters.at("rpc.requeues"), 1u);
  EXPECT_EQ(queue.queue_peak(0), 2u);

  s0.AnswerOldest();  // the holder's late answer: discarded
  EXPECT_EQ(metrics.CounterValues().at("rpc.late_responses"), 1u);
}

// An attempt that outlives its deadline is abandoned and the call requeues;
// the late answer is discarded and reports no second outcome, but it still
// feeds latency and returns its credit.
TEST(CompletionQueueTest, LateResponseIsDiscardedButReturnsItsCredit) {
  FakeChannel s0("s0");
  FakeChannel s1("s1", /*bias=*/1000);
  std::vector<std::string> outcomes;
  std::vector<size_t> latency_samples;
  CompletionQueueHooks hooks = RecordOutcomes(&outcomes);
  hooks.latency = [&latency_samples](size_t shard, double) {
    latency_samples.push_back(shard);
  };
  MetricsRegistry metrics;
  CompletionQueueOptions options;
  options.max_inflight_per_shard = 1;
  options.attempt_timeout_ms = 200;
  options.metrics = &metrics;
  CompletionQueue queue({&s0, &s1}, hooks, options);

  Result<WhatIfResult> first = Status::Internal("unset");
  size_t attempts = 0;
  std::thread caller([&] {
    first = queue.Execute(CallWithKey(5), {0, 1}, &attempts);
  });
  // Shard 0 never answers in time; its deadline requeues the call.
  const bool requeued = s1.WaitForPending(1);
  EXPECT_TRUE(requeued);
  if (requeued) s1.AnswerOldest();
  caller.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cost, 1005);
  EXPECT_EQ(attempts, 2u);
  EXPECT_EQ(s0.pending(), 1u);

  s0.AnswerOldest();  // late: the call already finished on shard 1
  EXPECT_EQ(outcomes, (std::vector<std::string>{"0:fail", "1:ok"}));
  EXPECT_EQ(latency_samples, (std::vector<size_t>{1, 0}));
  EXPECT_EQ(metrics.CounterValues().at("rpc.late_responses"), 1u);

  // Shard 0's only credit is back: the next call dispatches there at once
  // rather than waiting out a deadline in its FIFO.
  Result<WhatIfResult> second = Status::Internal("unset");
  std::thread next([&] { second = queue.Execute(CallWithKey(6), {0}); });
  const bool dispatched = s0.WaitForPending(1);
  EXPECT_TRUE(dispatched);
  if (dispatched) s0.AnswerOldest();
  next.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->cost, 6);
  EXPECT_EQ(queue.inflight_peak(0), 1u);
}

// A call every shard refuses walks its ranking twice — pass 0 skips the
// shard admission demoted, pass 1 tries it — and surfaces the last error.
TEST(CompletionQueueTest, CallFailingEverywhereReturnsTheLastError) {
  InlineChannel s0("s0", Status::Unavailable("s0 down"));
  InlineChannel s1("s1", Status::Unavailable("s1 down"));
  InlineChannel s2("s2", Status::Internal("s2 broken"));
  std::vector<std::string> outcomes;
  CompletionQueueHooks hooks = RecordOutcomes(&outcomes);
  hooks.admit = [](size_t shard) { return shard != 1; };
  CompletionQueue queue({&s0, &s1, &s2}, hooks, CompletionQueueOptions());

  size_t attempts = 0;
  auto r = queue.Execute(CallWithKey(9), {1, 2, 0}, &attempts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "s1 down");
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(outcomes,
            (std::vector<std::string>{"2:fail", "0:fail", "1:fail"}));
}

// Each completion that frees the credit launches the next waiter on the
// completing thread. A chain of them runs as a loop on that thread, not as
// Submits nested one inside the next.
TEST(CompletionQueueTest, ServingAChainOfWaitersKeepsTheStackFlat) {
  GatedChannel shard("s0");
  CompletionQueueOptions options;
  options.max_inflight_per_shard = 1;
  CompletionQueue queue({&shard}, {}, options);

  constexpr uint64_t kCalls = 5;
  std::vector<Result<WhatIfResult>> results(kCalls,
                                            Status::Internal("unset"));
  std::vector<std::thread> callers;
  callers.emplace_back(
      [&] { results[0] = queue.Execute(CallWithKey(1), {0}); });
  shard.WaitUntilEntered(1);
  for (uint64_t key = 2; key <= kCalls; ++key) {
    callers.emplace_back([&, key] {
      results[key - 1] = queue.Execute(CallWithKey(key), {0});
    });
  }
  while (queue.queue_peak(0) < kCalls) std::this_thread::yield();
  // Waiters' gates first, so the holder's thread serves the whole chain.
  for (uint64_t key = kCalls; key >= 1; --key) shard.Open(key);
  for (auto& t : callers) t.join();

  for (uint64_t key = 1; key <= kCalls; ++key) {
    ASSERT_TRUE(results[key - 1].ok()) << results[key - 1].status().ToString();
    EXPECT_EQ(results[key - 1]->cost, static_cast<double>(key));
  }
  EXPECT_EQ(shard.max_depth(), 1);
}

// An in-process attempt launched by another thread outlives its deadline:
// the holder's completion hands shard 0's credit to the waiter and prices
// the waiter's attempt on the holder's thread, where it sticks. The timer
// requeues the waiter on shard 1, which answers — yet the waiter's caller
// must not return while the abandoned attempt still reads its call.
TEST(CompletionQueueTest, CallerOutwaitsItsAbandonedInprocAttempt) {
  GatedChannel s0("s0");
  InlineChannel s1("s1", Cost(100));
  CompletionQueueOptions options;
  options.max_inflight_per_shard = 1;
  options.attempt_timeout_ms = 50;
  CompletionQueue queue({&s0, &s1}, {}, options);

  Result<WhatIfResult> held = Status::Internal("unset");
  std::thread holder([&] { held = queue.Execute(CallWithKey(1), {0}); });
  s0.WaitUntilEntered(1);

  std::atomic<bool> waiter_returned{false};
  Result<WhatIfResult> waited = Status::Internal("unset");
  std::thread waiter([&] {
    waited = queue.Execute(CallWithKey(2), {0, 1});
    waiter_returned = true;
  });
  while (queue.queue_peak(0) < 2) std::this_thread::yield();
  s0.Open(1);            // the holder finishes and launches the waiter...
  s0.WaitUntilEntered(2);  // ...on its own thread, where it sticks
  // Well past the 50 ms deadline: shard 1 has answered by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(waiter_returned.load());
  s0.Open(2);
  waiter.join();
  holder.join();

  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->cost, 1);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->cost, 100);
}

// A router destroyed while an abandoned attempt is still out: closing the
// hung channel fails that attempt into the queue, which must still be
// alive to take it.
TEST(CompletionQueueTest, RouterTeardownWithAnAttemptPendingIsSafe) {
  std::vector<std::unique_ptr<ShardChannel>> channels;
  auto hung = std::make_unique<FakeChannel>("hung");
  FakeChannel* hung_shard = hung.get();
  channels.push_back(std::move(hung));
  channels.push_back(std::make_unique<InlineChannel>("live", Cost(3)));
  server::Server primary("primary", optimizer::HardwareParams());
  tuner::ShardRouterOptions options;
  options.attempt_timeout_ms = 20;
  auto router = std::make_unique<tuner::ShardRouter>(
      &primary, std::move(channels), options);

  uint64_t key = 1;
  while (router->RankShards(key)[0] != 0) ++key;
  auto r = router->WhatIfCost(CallWithKey(key));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->cost, 3);
  EXPECT_EQ(hung_shard->pending(), 1u);
  EXPECT_EQ(router->failovers(), 1u);
  EXPECT_EQ(router->calls(0) + router->calls(1),
            router->successes() + router->failovers() + router->exhausted());
  router.reset();
}

}  // namespace
}  // namespace dta::rpc
