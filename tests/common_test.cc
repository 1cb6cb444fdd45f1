#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace dta {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("non-positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  DTA_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrSplit) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, StrTrim) {
  EXPECT_EQ(StrTrim("  hi \t\n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("x"), "x");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("LineItem", "lineitem"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("lineitem", "line"));
  EXPECT_FALSE(StartsWith("line", "lineitem"));
  EXPECT_TRUE(EndsWith("lineitem", "item"));
  EXPECT_FALSE(EndsWith("item", "lineitem"));
}

TEST(StringsTest, StrJoin) {
  std::vector<std::string> v = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(v, ", "), "a, b, c");
  std::vector<int> ints = {1, 2};
  EXPECT_EQ(StrJoin(ints, "-"), "1-2");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
}

TEST(StringsTest, CompactDouble) {
  EXPECT_EQ(CompactDouble(12.0), "12");
  EXPECT_EQ(CompactDouble(12.5), "12.5");
}

TEST(StringsTest, StrictDouble) {
  double v = 0;
  EXPECT_TRUE(StrictDouble("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(StrictDouble("-1.5e3", &v));
  EXPECT_EQ(v, -1500);
  for (const char* bad : {"", "nan", "inf", "-inf", "abc", "1e", "0x10",
                          " 1", "1 ", "+1", "1e999"}) {
    EXPECT_FALSE(StrictDouble(bad, &v)) << bad;
  }
}

TEST(StringsTest, StrictUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(StrictUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(StrictUint64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ull);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1e3", "0x10", "abc",
                          "18446744073709551616"}) {
    EXPECT_FALSE(StrictUint64(bad, &v)) << bad;
  }
}

TEST(StringsTest, StrictInt64) {
  int64_t v = 0;
  EXPECT_TRUE(StrictInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(StrictInt64("4294967297", &v));
  EXPECT_EQ(v, 4294967297);
  for (const char* bad : {"", "-", "+1", " 1", "1 ", "1.0", "abc",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_FALSE(StrictInt64(bad, &v)) << bad;
  }
}

TEST(RandomTest, UniformBounds) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RandomTest, ZipfBoundsAndSkew) {
  Random rng(7);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = rng.Zipf(100, 1.2);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    counts[v]++;
  }
  // Rank 1 must dominate rank 50 under strong skew.
  EXPECT_GT(counts[1], counts[50] * 3);
}

TEST(RandomTest, ZipfThetaZeroIsUniformish) {
  Random rng(9);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 30000; ++i) counts[rng.Zipf(10, 0.0)]++;
  for (int64_t k = 1; k <= 10; ++k) {
    EXPECT_GT(counts[k], 1500) << "value " << k;
  }
}

TEST(RandomTest, Weighted) {
  Random rng(11);
  std::vector<double> w = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Weighted(w), 1u);
  }
}

TEST(RandomTest, AlphaString) {
  Random rng(3);
  std::string s = rng.AlphaString(12);
  EXPECT_EQ(s.size(), 12u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RandomTest, ShufflePreservesElements) {
  Random rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(HashTest, BytesStable) {
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
}

TEST(HashTest, CombineOrderMatters) {
  EXPECT_NE(HashCombine(HashBytes("a"), HashBytes("b")),
            HashCombine(HashBytes("b"), HashBytes("a")));
}

// Fault decisions, rendezvous ranks and backoff jitter all go through
// Mix64: changing its output would move every one of them.
TEST(HashTest, Mix64IsTheSplitMix64Finalizer) {
  EXPECT_EQ(Mix64(0), 16294208416658607535ull);
  EXPECT_EQ(Mix64(1), 10451216379200822465ull);
  EXPECT_EQ(Mix64(0x7368617264ull), 5272449902766403757ull);
  EXPECT_EQ(Mix64(0xdeadbeefcafebabeull), 972095092378118610ull);
  EXPECT_EQ(Mix64(~0ull), 16490336266968443936ull);
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  std::atomic<int> sum{0};
  WaitGroup wg;
  wg.Add(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&sum, &wg, i] {
      sum.fetch_add(i);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(&pool, visits.size(),
              [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForNullPoolRunsSerially) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](size_t i) {
    // No pool: the loop runs on the caller, in order, so this unlocked
    // mutation is safe and the order is deterministic.
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingle) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller.
  ParallelFor(&pool, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossLoops) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    ParallelFor(&pool, 64, [&](size_t i) {
      sum.fetch_add(static_cast<int>(i) + round);
    });
    EXPECT_EQ(sum.load(), 63 * 64 / 2 + 64 * round);
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolDegradesToSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  int calls = 0;
  ParallelFor(&pool, 10, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 10);
}

TEST(ThreadPoolTest, CancelPredicateStopsClaimingAndRunsUnlocked) {
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<int> polls{0};
  // Cancel after a few iterations; the predicate observes (via the pool's
  // public probe, backing the DTA_CHECK inside ParallelFor) that it is
  // never invoked while the calling thread holds the pool queue lock —
  // the latent self-deadlock class the annotations close statically.
  ParallelFor(
      &pool, 1000, [&](size_t) { started.fetch_add(1); },
      [&] {
        EXPECT_FALSE(pool.QueueLockHeldByCurrentThread());
        polls.fetch_add(1);
        return started.load() >= 8;
      });
  EXPECT_GE(polls.load(), 1);
  // Iterations already claimed run to completion; unclaimed slots don't.
  EXPECT_LT(started.load(), 1000);
}

TEST(ThreadPoolTest, TasksNeverObserveQueueLockHeld) {
  ThreadPool pool(2);
  std::atomic<bool> held{false};
  WaitGroup wg;
  wg.Add(8);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      if (pool.QueueLockHeldByCurrentThread()) held.store(true);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_FALSE(held.load());
}

TEST(MutexTest, OwnerTrackingIsPerThread) {
  Mutex mu;  // lint: unguarded-mutex (the raw Mutex API is the test subject)
  EXPECT_FALSE(mu.HeldByCurrentThread());
  {
    MutexLock lock(mu);
    EXPECT_TRUE(mu.HeldByCurrentThread());
    mu.AssertHeld();  // must not abort
    // Another thread must not think it holds the mutex.
    bool other_held = true;
    std::thread probe([&] { other_held = mu.HeldByCurrentThread(); });
    probe.join();
    EXPECT_FALSE(other_held);
  }
  EXPECT_FALSE(mu.HeldByCurrentThread());
}

TEST(MutexTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu;  // lint: unguarded-mutex (the raw Mutex API is the test subject)
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // Wait re-acquired the mutex before returning.
    EXPECT_TRUE(mu.HeldByCurrentThread());
  });
  {
    MutexLock lock(mu);  // acquirable: the waiter released it inside Wait
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
}

}  // namespace
}  // namespace dta
