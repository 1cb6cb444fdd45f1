// Tests of ShardRouter's completion-queue dispatch, the one engine every
// fleet prices through: credit windows, credit-wait and in-flight
// deadlines, late responses, the two-pass failure walk, and router teardown
// with an attempt still pending. Fake channels complete attempts on the
// test's command (or inline, as an in-process shard does), so every
// interleaving is scripted; call keys are picked with RankShards to get the
// shard order a case needs.

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
#include "dta/shard_router.h"
#include "server/server.h"

namespace dta::tuner {
namespace {

using WhatIfResult = server::Server::WhatIfResult;
using Done = rpc::ShardChannel::Done;

Result<WhatIfResult> Cost(double cost) {
  WhatIfResult r;
  r.cost = cost;
  return r;
}

// A shard whose attempts complete only when the test says so, answering
// cost = call key + `bias`. Destroying it fails whatever is still pending,
// as a SocketChannel's connection-loss sweep does.
class FakeChannel : public rpc::ShardChannel {
 public:
  explicit FakeChannel(std::string name, double bias = 0)
      : name_(std::move(name)), bias_(bias) {}
  ~FakeChannel() override {
    while (pending() > 0) FailOldest(Status::Unavailable("channel closed"));
  }

  const std::string& name() const override { return name_; }

  void Submit(const WhatIfCall& call, Done done) override EXCLUDES(mu_) {
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
  // Completes outside the channel lock: the completion re-enters the
  // router, which may submit the next attempt right back here.
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

// A shard that completes every attempt inside Submit with the result the
// test set last, as an in-process shard does.
class InlineChannel : public rpc::ShardChannel {
 public:
  InlineChannel(std::string name, Result<WhatIfResult> result)
      : name_(std::move(name)), result_(std::move(result)) {}

  const std::string& name() const override { return name_; }
  void Submit(const WhatIfCall&, Done done) override { done(result()); }
  Status MirrorStatistics(const stats::Statistics&) override {
    return Status::Ok();
  }

  void set_result(Result<WhatIfResult> result) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    result_ = std::move(result);
  }

 private:
  Result<WhatIfResult> result() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return result_;
  }

  const std::string name_;
  mutable Mutex mu_;
  Result<WhatIfResult> result_ GUARDED_BY(mu_);
};

// A shard that prices inside Submit, as an in-process shard does, but only
// once the test opens the call's gate; until then the launching thread is
// held inside Submit, reading the call the way a real pricing would.
class GatedChannel : public rpc::ShardChannel {
 public:
  explicit GatedChannel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const override { return name_; }

  void Submit(const WhatIfCall& call, Done done) override EXCLUDES(mu_) {
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

using Channels = std::vector<std::unique_ptr<rpc::ShardChannel>>;

// Appends a `T` to the fleet and returns it; the router will own it.
template <typename T, typename... Args>
T* AddShard(Channels* channels, Args&&... args) {
  auto channel = std::make_unique<T>(std::forward<Args>(args)...);
  T* raw = channel.get();
  channels->push_back(std::move(channel));
  return raw;
}

WhatIfCall CallWithKey(uint64_t key) {
  WhatIfCall call;
  call.call_key = key;
  return call;
}

// The first key above `after` whose rendezvous ranking is `order`.
uint64_t KeyRanked(const ShardRouter& router, const std::vector<size_t>& order,
                   uint64_t after = 0) {
  uint64_t key = after + 1;
  while (router.RankShards(key) != order) ++key;
  return key;
}

class CompletionQueueTest : public ::testing::Test {
 protected:
  ShardRouter& MakeRouter(Channels channels, ShardRouterOptions options) {
    router_ = std::make_unique<ShardRouter>(&primary_, std::move(channels),
                                            options);
    return *router_;
  }

  server::Server primary_{"primary", optimizer::HardwareParams()};
  std::unique_ptr<ShardRouter> router_;
};

// Six concurrent calls on a two-credit shard: two run, four wait in the
// shard's FIFO, and every completion hands its credit to the next waiter.
TEST_F(CompletionQueueTest, InflightNeverExceedsTheWindow) {
  Channels channels;
  FakeChannel* shard = AddShard<FakeChannel>(&channels, "s0");
  ShardRouterOptions options;
  options.max_inflight_per_shard = 2;
  ShardRouter& router = MakeRouter(std::move(channels), options);

  constexpr size_t kCalls = 6;
  std::vector<Result<WhatIfResult>> results(kCalls,
                                            Status::Internal("unset"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kCalls; ++i) {
    callers.emplace_back(
        [&, i] { results[i] = router.WhatIfCost(CallWithKey(i + 1)); });
  }
  EXPECT_TRUE(shard->WaitForPending(2));
  while (router.queue_peak(0) < kCalls) std::this_thread::yield();
  EXPECT_EQ(shard->pending(), 2u);
  for (size_t answered = 0; answered < kCalls; ++answered) {
    EXPECT_TRUE(shard->WaitForPending(1));
    EXPECT_LE(shard->pending(), 2u);
    shard->AnswerOldest();
  }
  for (auto& t : callers) t.join();

  for (size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->cost, static_cast<double>(i + 1));
  }
  EXPECT_EQ(shard->peak(), 2u);
  EXPECT_EQ(router.inflight_peak(0), 2u);
  EXPECT_EQ(router.queue_peak(0), kCalls);
  EXPECT_EQ(router.calls(0), kCalls);
  EXPECT_EQ(router.successes(), kCalls);
}

// A call that waits out its attempt deadline for a credit moves on to the
// next shard of its ranking instead of failing.
TEST_F(CompletionQueueTest, CreditWaitExpiryRequeuesOnTheNextShard) {
  Channels channels;
  FakeChannel* s0 = AddShard<FakeChannel>(&channels, "s0");
  FakeChannel* s1 = AddShard<FakeChannel>(&channels, "s1", /*bias=*/1000);
  MetricsRegistry metrics;
  ShardRouterOptions options;
  options.max_inflight_per_shard = 1;
  options.attempt_timeout_ms = 200;
  options.metrics = &metrics;
  ShardRouter& router = MakeRouter(std::move(channels), options);
  const uint64_t holder_key = KeyRanked(router, {0, 1});
  const uint64_t waiter_key = KeyRanked(router, {0, 1}, holder_key);

  // The holder takes shard 0's only credit and never hears back there; its
  // in-flight deadline moves it on to shard 1, and its credit stays out.
  Result<WhatIfResult> held = Status::Internal("unset");
  std::thread holder(
      [&] { held = router.WhatIfCost(CallWithKey(holder_key)); });
  EXPECT_TRUE(s0->WaitForPending(1));

  // The waiter queues for that credit, times out of the wait, and is
  // answered by shard 1 too.
  Result<WhatIfResult> waited = Status::Internal("unset");
  std::thread waiter(
      [&] { waited = router.WhatIfCost(CallWithKey(waiter_key)); });
  // Shard 1's one credit serves both requeues in turn, in whichever order
  // their deadlines fired.
  for (int answered = 0; answered < 2; ++answered) {
    const bool requeued = s1->WaitForPending(1);
    EXPECT_TRUE(requeued);
    if (requeued) s1->AnswerOldest();
  }
  waiter.join();
  holder.join();

  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->cost, 1000 + static_cast<double>(waiter_key));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->cost, 1000 + static_cast<double>(holder_key));
  // The waiter left shard 0's FIFO, never its wire.
  EXPECT_EQ(s0->peak(), 1u);
  EXPECT_EQ(router.queue_peak(0), 2u);
  // Both deadlines on shard 0 were recorded once each, as failures.
  EXPECT_EQ(router.calls(0), 2u);
  EXPECT_EQ(router.failures(0), 2u);
  EXPECT_EQ(router.calls(1), 2u);
  EXPECT_EQ(router.failures(1), 0u);
  EXPECT_EQ(router.failovers(), 2u);
  EXPECT_EQ(metrics.CounterValues().at("rpc.timeouts"), 2u);
  EXPECT_EQ(metrics.CounterValues().at("rpc.requeues"), 2u);

  s0->AnswerOldest();  // the holder's late answer: discarded
  EXPECT_EQ(metrics.CounterValues().at("rpc.late_responses"), 1u);
  EXPECT_EQ(router.calls(0), 2u);
}

// An attempt that outlives its deadline is abandoned and the call requeues;
// the late answer is discarded and records no second outcome, but it still
// feeds latency and returns its credit.
TEST_F(CompletionQueueTest, LateResponseIsDiscardedButReturnsItsCredit) {
  Channels channels;
  FakeChannel* s0 = AddShard<FakeChannel>(&channels, "s0");
  FakeChannel* s1 = AddShard<FakeChannel>(&channels, "s1", /*bias=*/1000);
  MetricsRegistry metrics;
  ShardRouterOptions options;
  options.max_inflight_per_shard = 1;
  options.attempt_timeout_ms = 200;
  options.metrics = &metrics;
  // On so that latency reaches the EWMA; too few samples for a verdict.
  options.slow_threshold = 4;
  ShardRouter& router = MakeRouter(std::move(channels), options);
  const uint64_t key = KeyRanked(router, {0, 1});

  Result<WhatIfResult> first = Status::Internal("unset");
  std::thread caller([&] { first = router.WhatIfCost(CallWithKey(key)); });
  // Shard 0 never answers in time; its deadline requeues the call.
  const bool requeued = s1->WaitForPending(1);
  EXPECT_TRUE(requeued);
  if (requeued) s1->AnswerOldest();
  caller.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cost, 1000 + static_cast<double>(key));
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(s0->pending(), 1u);
  EXPECT_EQ(router.latency_ewma_ms(0), 0.0);

  s0->AnswerOldest();  // late: the call already finished on shard 1
  EXPECT_EQ(router.calls(0), 1u);
  EXPECT_EQ(router.failures(0), 1u);
  EXPECT_EQ(router.calls(1), 1u);
  EXPECT_EQ(router.failures(1), 0u);
  // Sampled from launch to the late answer, past the 200 ms deadline.
  EXPECT_GT(router.latency_ewma_ms(0), 100.0);
  EXPECT_EQ(metrics.HistogramValues().at("rpc.wire_latency_ms").count, 2u);
  EXPECT_EQ(metrics.CounterValues().at("rpc.late_responses"), 1u);

  // Shard 0's only credit is back: the next call dispatches there at once
  // rather than waiting out a deadline in its FIFO.
  const uint64_t next_key = KeyRanked(router, {0, 1}, key);
  Result<WhatIfResult> second = Status::Internal("unset");
  std::thread next(
      [&] { second = router.WhatIfCost(CallWithKey(next_key)); });
  const bool dispatched = s0->WaitForPending(1);
  EXPECT_TRUE(dispatched);
  if (dispatched) {
    s0->AnswerOldest();
  } else if (s1->WaitForPending(1)) {
    s1->AnswerOldest();  // the credit never came back; unblock the caller
  }
  next.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->cost, static_cast<double>(next_key));
  EXPECT_EQ(router.inflight_peak(0), 1u);
}

// A call every shard refuses walks its ranking twice — pass 0 skips the
// shard that earlier failures demoted, pass 1 tries it — and surfaces the
// last error.
TEST_F(CompletionQueueTest, CallFailingEverywhereReturnsTheLastError) {
  Channels channels;
  InlineChannel* s0 = AddShard<InlineChannel>(&channels, "s0", Cost(1));
  AddShard<InlineChannel>(&channels, "s1", Status::Unavailable("s1 down"));
  InlineChannel* s2 = AddShard<InlineChannel>(&channels, "s2", Cost(2));
  ShardRouterOptions options;
  options.unhealthy_after = 1;
  options.probe_interval = 100;
  ShardRouter& router = MakeRouter(std::move(channels), options);
  const uint64_t key = KeyRanked(router, {1, 2, 0});

  // Shard 1 fails its first call and is demoted; shard 2 answers it.
  auto answered = router.WhatIfCost(CallWithKey(key));
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered->cost, 2);
  EXPECT_FALSE(router.healthy(1));

  s0->set_result(Status::Unavailable("s0 down"));
  s2->set_result(Status::Internal("s2 broken"));
  auto r = router.WhatIfCost(CallWithKey(key));
  ASSERT_FALSE(r.ok());
  // Shard 1 was tried last: pass 0 went 2, 0 and pass 1 took 1.
  EXPECT_EQ(r.status().message(), "s1 down");
  EXPECT_EQ(router.calls(0), 1u);
  EXPECT_EQ(router.calls(1), 2u);
  EXPECT_EQ(router.calls(2), 2u);
  EXPECT_EQ(router.failures(0), 1u);
  EXPECT_EQ(router.failures(1), 2u);
  EXPECT_EQ(router.failures(2), 1u);
  EXPECT_EQ(router.successes(), 1u);
  EXPECT_EQ(router.failovers(), 3u);
  EXPECT_EQ(router.exhausted(), 1u);
}

// Each completion that frees the credit launches the next waiter on the
// completing thread. A chain of them runs as a loop on that thread, not as
// Submits nested one inside the next.
TEST_F(CompletionQueueTest, ServingAChainOfWaitersKeepsTheStackFlat) {
  Channels channels;
  GatedChannel* shard = AddShard<GatedChannel>(&channels, "s0");
  ShardRouterOptions options;
  options.max_inflight_per_shard = 1;
  ShardRouter& router = MakeRouter(std::move(channels), options);

  constexpr uint64_t kCalls = 5;
  std::vector<Result<WhatIfResult>> results(kCalls,
                                            Status::Internal("unset"));
  std::vector<std::thread> callers;
  callers.emplace_back(
      [&] { results[0] = router.WhatIfCost(CallWithKey(1)); });
  shard->WaitUntilEntered(1);
  for (uint64_t key = 2; key <= kCalls; ++key) {
    callers.emplace_back([&, key] {
      results[key - 1] = router.WhatIfCost(CallWithKey(key));
    });
  }
  while (router.queue_peak(0) < kCalls) std::this_thread::yield();
  // Waiters' gates first, so the holder's thread serves the whole chain.
  for (uint64_t key = kCalls; key >= 1; --key) shard->Open(key);
  for (auto& t : callers) t.join();

  for (uint64_t key = 1; key <= kCalls; ++key) {
    ASSERT_TRUE(results[key - 1].ok()) << results[key - 1].status().ToString();
    EXPECT_EQ(results[key - 1]->cost, static_cast<double>(key));
  }
  EXPECT_EQ(shard->max_depth(), 1);
}

// An in-process attempt launched by another thread outlives its deadline:
// the holder's completion hands shard 0's credit to the waiter and prices
// the waiter's attempt on the holder's thread, where it sticks. The timer
// requeues the waiter on shard 1, which answers — yet the waiter's caller
// must not return while the abandoned attempt still reads its call.
TEST_F(CompletionQueueTest, CallerOutwaitsItsAbandonedInprocAttempt) {
  Channels channels;
  GatedChannel* s0 = AddShard<GatedChannel>(&channels, "s0");
  AddShard<InlineChannel>(&channels, "s1", Cost(100));
  ShardRouterOptions options;
  options.max_inflight_per_shard = 1;
  options.attempt_timeout_ms = 50;
  ShardRouter& router = MakeRouter(std::move(channels), options);
  const uint64_t holder_key = KeyRanked(router, {0, 1});
  const uint64_t waiter_key = KeyRanked(router, {0, 1}, holder_key);

  Result<WhatIfResult> held = Status::Internal("unset");
  std::thread holder(
      [&] { held = router.WhatIfCost(CallWithKey(holder_key)); });
  s0->WaitUntilEntered(holder_key);

  std::atomic<bool> waiter_returned{false};
  Result<WhatIfResult> waited = Status::Internal("unset");
  std::thread waiter([&] {
    waited = router.WhatIfCost(CallWithKey(waiter_key));
    waiter_returned = true;
  });
  while (router.queue_peak(0) < 2) std::this_thread::yield();
  s0->Open(holder_key);  // the holder finishes and launches the waiter...
  s0->WaitUntilEntered(waiter_key);  // ...on its own thread, where it sticks
  // Well past the 50 ms deadline: shard 1 has answered by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(waiter_returned.load());
  s0->Open(waiter_key);
  waiter.join();
  holder.join();

  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(held->cost, static_cast<double>(holder_key));
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->cost, 100);
}

// A router destroyed while an abandoned attempt is still out: closing the
// hung channel fails that attempt into the router, which must still be
// alive to take it.
TEST_F(CompletionQueueTest, RouterTeardownWithAnAttemptPendingIsSafe) {
  Channels channels;
  FakeChannel* hung = AddShard<FakeChannel>(&channels, "hung");
  AddShard<InlineChannel>(&channels, "live", Cost(3));
  ShardRouterOptions options;
  options.attempt_timeout_ms = 20;
  ShardRouter& router = MakeRouter(std::move(channels), options);

  auto r = router.WhatIfCost(CallWithKey(KeyRanked(router, {0, 1})));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->cost, 3);
  EXPECT_EQ(hung->pending(), 1u);
  EXPECT_EQ(router.failovers(), 1u);
  EXPECT_EQ(router.calls(0) + router.calls(1),
            router.successes() + router.failovers() + router.exhausted());
  router_.reset();
}

}  // namespace
}  // namespace dta::tuner
