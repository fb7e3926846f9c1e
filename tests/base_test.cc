// Unit tests for src/base: strings, lexer, hashing, the Result error model,
// the virtual clock, the per-thread shard primitive, the reader-writer lock
// and the grace period.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <new>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/grace.h"
#include "src/base/hash.h"
#include "src/base/lexer.h"
#include "src/base/published.h"
#include "src/base/result.h"
#include "src/base/rw_lock.h"
#include "src/base/strings.h"
#include "src/base/thread_shards.h"

namespace protego {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(Strings, SplitWhitespaceDropsRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\n c  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/etc/passwd", "/etc"));
  EXPECT_FALSE(StartsWith("/etc", "/etc/passwd"));
  EXPECT_TRUE(EndsWith("file.txt", ".txt"));
  EXPECT_FALSE(EndsWith(".txt", "file.txt"));
}

TEST(Strings, ParseUint) {
  EXPECT_EQ(ParseUint("0"), 0u);
  EXPECT_EQ(ParseUint("1023"), 1023u);
  EXPECT_FALSE(ParseUint("").has_value());
  EXPECT_FALSE(ParseUint("-1").has_value());
  EXPECT_FALSE(ParseUint("12x").has_value());
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 42), "x=42");
  EXPECT_EQ(StrFormat("%%"), "%");
}

TEST(Strings, GlobMatch) {
  EXPECT_TRUE(GlobMatch("/etc/shadows/*", "/etc/shadows/alice"));
  EXPECT_FALSE(GlobMatch("/etc/shadows/*", "/etc/shadow"));
  EXPECT_TRUE(GlobMatch("*", "anything at all"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
  EXPECT_TRUE(GlobMatch("/home/*/mnt", "/home/alice/mnt"));
  EXPECT_TRUE(GlobMatch("*.txt", "notes.txt"));
  EXPECT_FALSE(GlobMatch("*.txt", "notes.txt.bak"));
  EXPECT_TRUE(GlobMatch("exact", "exact"));
  EXPECT_FALSE(GlobMatch("exact", "exactly"));
  // '*' crosses '/' (sudoers command specs rely on this).
  EXPECT_TRUE(GlobMatch("/usr/bin/lpr /home/alice/*", "/usr/bin/lpr /home/alice/a/b"));
}

TEST(Lexer, StripsCommentsAndBlankLines) {
  auto lines = LexConfig("# top comment\n\nfoo bar # trailing\n  \n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "foo bar");
  EXPECT_EQ(lines[0].line_number, 3);
}

TEST(Lexer, HashInsideQuotesIsNotComment) {
  auto lines = LexConfig("key \"value # not comment\"\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].text.find("# not comment"), std::string::npos);
}

TEST(Lexer, ContinuationJoinsLines) {
  auto lines = LexConfig("alpha \\\nbeta \\\ngamma\nnext\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "alpha beta gamma");
  EXPECT_EQ(lines[0].line_number, 1);
  EXPECT_EQ(lines[1].text, "next");
}

TEST(Lexer, FieldsRespectQuotes) {
  auto fields = LexFields("one \"two words\" three");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "two words");
  fields = LexFields("a\\ b");  // backslash outside quotes is literal
  ASSERT_EQ(fields.size(), 2u);
  fields = LexFields("\"escaped \\\" quote\"");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "escaped \" quote");
}

TEST(Hash, CryptRoundTrip) {
  std::string hash = CryptPassword("hunter2", MakeSalt(7));
  EXPECT_TRUE(StartsWith(hash, "$sim$"));
  EXPECT_TRUE(VerifyPassword("hunter2", hash));
  EXPECT_FALSE(VerifyPassword("hunter3", hash));
  EXPECT_FALSE(VerifyPassword("hunter2", "not-a-hash"));
  EXPECT_FALSE(VerifyPassword("hunter2", ""));
}

// Hashes stored in shadow files must verify across releases: these were
// computed by the printf-per-round implementation this one replaced.
TEST(Hash, CryptOutputIsPinned) {
  EXPECT_EQ(CryptPassword("hunter2", MakeSalt(7)), "$sim$xsm4HyAM$957ddf7214415bca");
  EXPECT_EQ(CryptPassword("", MakeSalt(1)), "$sim$C63cjhFJ$df308ef92cc53269");
  EXPECT_EQ(CryptPassword("correct horse battery staple", MakeSalt(1007)),
            "$sim$JuVJxNir$cc0444fac6a699e1");
  EXPECT_EQ(CryptPassword("pw", MakeSalt(42)), "$sim$AHlYfmof$af4a8b6cc2494916");
  EXPECT_EQ(CryptPassword("alice-pw", "abcdEFGH"), "$sim$abcdEFGH$61e6c1a517376532");
}

TEST(Hash, SaltChangesHash) {
  EXPECT_NE(CryptPassword("pw", MakeSalt(1)), CryptPassword("pw", MakeSalt(2)));
  EXPECT_EQ(CryptPassword("pw", MakeSalt(1)), CryptPassword("pw", MakeSalt(1)));
}

TEST(Hash, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
}

// splitmix64's published stream from seed 0; every seeded component draws
// from this one definition.
TEST(Hash, SplitMix64KnownAnswers) {
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(state), 0x06c45d188009454fULL);
  EXPECT_EQ(state, 3 * kSplitMix64Gamma);
  EXPECT_EQ(SplitMix64Mix(kSplitMix64Gamma), 0xe220a8397b1dcdafULL);
}

TEST(ResultModel, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.code(), Errno::kOk);

  Result<int> err = Error(Errno::kEACCES, "denied");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errno::kEACCES);
  EXPECT_EQ(err.error().ToString(), "EACCES (Permission denied): denied");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultModel, ErrnoNamesMatchLinux) {
  EXPECT_STREQ(ErrnoName(Errno::kEPERM), "EPERM");
  EXPECT_EQ(static_cast<int>(Errno::kEPERM), 1);
  EXPECT_EQ(static_cast<int>(Errno::kEACCES), 13);
  EXPECT_EQ(static_cast<int>(Errno::kEADDRINUSE), 98);
}

TEST(ClockTest, AdvancesMonotonically) {
  Clock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(300);
  EXPECT_EQ(clock.Now(), 300u);
  clock.Advance(1);
  EXPECT_EQ(clock.Now(), 301u);
}

// A ThreadShards built where a destroyed one lived must not inherit the
// calling thread's cached shard: that pointer is into the freed registry.
TEST(ThreadShardsTest, RecycledAddressGetsAFreshShard) {
  struct Counter {
    uint64_t n = 0;
  };
  using Shards = ThreadShards<Counter>;
  alignas(Shards) unsigned char storage[sizeof(Shards)];
  Shards* first = new (storage) Shards;
  first->Mine().n = 42;
  first->~Shards();

  Shards* second = new (storage) Shards;
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  EXPECT_EQ(second->Mine().n, 0u);
  int visited = 0;
  second->ForEach([&](const Counter&) { ++visited; });
  EXPECT_EQ(visited, 1);
  second->~Shards();
}

// --- RwLock --------------------------------------------------------------------

// Polls `done` until it holds or `limit` passes; false on timeout.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// Four threads increment a plain counter under the lock and read it under
// the shared lock: the total is exact, and TSan sees no race.
TEST(RwLockTest, ExclusionKeepsAPlainCounterExact) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  RwLock mu;
  uint64_t counter = 0;
  std::atomic<int> backwards{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      uint64_t last = 0;
      for (int i = 0; i < kIncrements; ++i) {
        {
          std::unique_lock<RwLock> lk(mu);
          ++counter;
        }
        std::shared_lock<RwLock> lk(mu);
        if (counter < last) {
          backwards.fetch_add(1);
        }
        last = counter;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, uint64_t{kThreads} * kIncrements);
  EXPECT_EQ(backwards.load(), 0);
}

TEST(RwLockTest, ReadersShare) {
  RwLock mu;
  std::shared_lock<RwLock> held(mu);
  EXPECT_FALSE(mu.try_lock());
  std::atomic<bool> entered{false};
  std::thread reader([&] {
    std::shared_lock<RwLock> lk(mu);
    entered = true;
  });
  EXPECT_TRUE(WaitFor([&] { return entered.load(); }));
  held.unlock();
  reader.join();
  EXPECT_EQ(mu.contended(), 0u);
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

// Writer preference: once a writer waits, a new reader is turned away, and
// one that blocks enters only after the writer has had its turn.
TEST(RwLockTest, WaitingWriterHoldsOffNewReaders) {
  RwLock mu;
  std::shared_lock<RwLock> held(mu);
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    std::unique_lock<RwLock> lk(mu);
    wrote = true;
  });
  EXPECT_TRUE(WaitFor([&] {
    if (!mu.try_lock_shared()) {
      return true;
    }
    mu.unlock_shared();
    return false;
  }));
  std::atomic<bool> saw_write{false};
  std::thread reader([&] {
    std::shared_lock<RwLock> lk(mu);
    saw_write = wrote.load();
  });
  EXPECT_TRUE(WaitFor([&] { return mu.contended() == 2; }));
  EXPECT_FALSE(wrote.load());
  held.unlock();
  writer.join();
  reader.join();
  EXPECT_TRUE(wrote.load());
  EXPECT_TRUE(saw_write.load());
}

// A waiter that has parked (slept on the word, long past its spin) wakes
// within a bounded time of the release, whether it waits to read or to
// write.
TEST(RwLockTest, ParkedReaderAndWriterWakeAfterUnlock) {
  using Clock = std::chrono::steady_clock;
  for (const bool exclusive : {false, true}) {
    RwLock mu;
    mu.lock();
    std::atomic<Clock::rep> acquired{0};
    std::thread waiter([&] {
      if (exclusive) {
        std::unique_lock<RwLock> lk(mu);
        acquired = Clock::now().time_since_epoch().count();
      } else {
        std::shared_lock<RwLock> lk(mu);
        acquired = Clock::now().time_since_epoch().count();
      }
    });
    EXPECT_TRUE(WaitFor([&] { return mu.contended() == 1; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Clock::time_point released = Clock::now();
    mu.unlock();
    waiter.join();
    const auto woke = Clock::time_point(Clock::duration(acquired.load())) - released;
    EXPECT_LT(woke, std::chrono::seconds(1)) << (exclusive ? "writer" : "reader");
  }
}

// The slow path alone keeps statistics: uncontended acquisitions record
// nothing, and a waiter records one contended acquisition and at least
// the time the holder kept the lock. Locks built on one LockStats sum.
TEST(RwLockTest, WaitTimeCountsOnlyTheSlowPath) {
  LockStats shared;
  RwLock mu(&shared);
  RwLock sibling(&shared);
  for (int i = 0; i < 100; ++i) {
    std::unique_lock<RwLock> lk(mu);
    std::shared_lock<RwLock> slk(sibling);
  }
  EXPECT_EQ(mu.counts().contended, 0u);
  EXPECT_EQ(mu.counts().wait_ns, 0u);
  mu.lock();
  std::thread waiter([&] { std::unique_lock<RwLock> lk(mu); });
  EXPECT_TRUE(WaitFor([&] { return mu.contended() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mu.unlock();
  waiter.join();
  EXPECT_EQ(sibling.counts().contended, 1u);
  EXPECT_GE(sibling.counts().wait_ns, 20'000'000u);
  RwLock own;
  EXPECT_EQ(own.counts().contended, 0u);
}

// --- GraceDomain ---------------------------------------------------------------

// Counts its destructions and poisons itself, so a read after the free
// shows even without a sanitizer.
struct Tracked {
  static constexpr uint64_t kAlive = 0x600dcafe;
  explicit Tracked(std::atomic<int>* freed_count) : freed(freed_count) {}
  ~Tracked() {
    magic.store(0, std::memory_order_relaxed);
    freed->fetch_add(1);
  }
  std::atomic<int>* freed;
  std::atomic<uint64_t> magic{kAlive};
};

// Holds a read section open on its own thread until released.
class SectionHolder {
 public:
  explicit SectionHolder(GraceDomain& domain, int depth = 1)
      : thread_([this, &domain, depth] { Hold(domain, depth); }) {
    EXPECT_TRUE(WaitFor([&] { return open_.load(); }));
  }
  ~SectionHolder() { Release(); }
  void Release() {
    release_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void Hold(GraceDomain& domain, int depth) {
    if (depth == 0) {
      open_.store(true);
      WaitFor([&] { return release_.load(); }, std::chrono::seconds(60));
      return;
    }
    GraceDomain::Section section(domain);
    Hold(domain, depth - 1);
  }

  std::atomic<bool> open_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;
};

// An object retired while a section is open survives every reclaim pass
// until that section closes, and is freed by the first pass after. The
// pending gauge follows, and reaches 0 once nothing is held back.
TEST(GraceDomainTest, RetiredObjectOutlivesTheSectionsOpenAtRetirement) {
  GraceDomain domain;
  std::atomic<int> freed{0};
  SectionHolder reader(domain);
  domain.Retire(new Tracked(&freed));
  EXPECT_EQ(domain.pending(), 1u);
  for (int i = 0; i < 5; ++i) {
    domain.Reclaim();
  }
  EXPECT_EQ(freed.load(), 0);
  EXPECT_EQ(domain.pending(), 1u);
  reader.Release();
  domain.Reclaim();
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.pending(), 0u);
}

// Sections nest: an inner section's close does not end the outer one.
TEST(GraceDomainTest, SectionsNest) {
  GraceDomain domain;
  std::atomic<int> freed{0};
  {
    GraceDomain::Section outer(domain);
    {
      GraceDomain::Section inner(domain);
    }
    // Retired from another thread while this one's outer section is open.
    std::thread([&] { domain.Retire(new Tracked(&freed)); }).join();
    domain.Reclaim();
    EXPECT_EQ(freed.load(), 0);
  }
  domain.Reclaim();
  EXPECT_EQ(freed.load(), 1);
  SectionHolder nested(domain, /*depth=*/3);
  domain.Retire(new Tracked(&freed));
  domain.Reclaim();
  EXPECT_EQ(freed.load(), 1);
  nested.Release();
  domain.Reclaim();
  EXPECT_EQ(freed.load(), 2);
}

// A section that never closes holds back what was retired after it opened,
// but no Retire or Reclaim waits for it; the batch passes run regardless.
TEST(GraceDomainTest, ReclaimNeverWaits) {
  GraceDomain domain;
  std::atomic<int> freed{0};
  constexpr int kObjects = 3 * static_cast<int>(GraceDomain::kBatch);
  {
    SectionHolder stuck(domain);
    for (int i = 0; i < kObjects; ++i) {
      domain.Retire(new Tracked(&freed));
      domain.Reclaim();
    }
    EXPECT_EQ(freed.load(), 0);
    EXPECT_EQ(domain.pending(), static_cast<uint64_t>(kObjects));
  }
  domain.Reclaim();
  EXPECT_EQ(freed.load(), kObjects);
  EXPECT_EQ(domain.pending(), 0u);
}

// Readers load a published object in a section and check it is alive
// while writers on other threads swap it and retire the old one; at
// quiescence every retirement has been freed and the gauge reads 0.
TEST(GraceDomainTest, ReadersNeverSeeAFreedObject) {
  constexpr int kReaders = 2;
  constexpr int kWriters = 2;
  constexpr int kSwaps = 5000;
  GraceDomain domain;
  std::atomic<int> freed{0};
  std::atomic<Tracked*> published{new Tracked(&freed)};
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> dead_reads{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        GraceDomain::Section section(domain);
        // Held long enough for the writers to retire many successors.
        const Tracked* seen = published.load(std::memory_order_acquire);
        for (int i = 0; i < 4096; ++i) {
          if (seen->magic.load(std::memory_order_relaxed) != Tracked::kAlive) {
            ++dead_reads;
            break;
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSwaps; ++i) {
        domain.Retire(published.exchange(new Tracked(&freed), std::memory_order_acq_rel));
      }
      --writers_left;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(dead_reads.load(), 0);
  domain.Reclaim();
  EXPECT_EQ(freed.load(), kWriters * kSwaps);
  EXPECT_EQ(domain.pending(), 0u);
  delete published.load();
}

// Four threads each append to one Published vector with no lock of their
// own, declining every edit that would add a value already present: the
// snapshot's writer mutex serializes them, so no append is lost, every
// decline publishes nothing and retires nothing, and each publish retires
// exactly one snapshot.
TEST(PublishedTest, WritersSerializeAndDeclinesPublishNothing) {
  constexpr int kThreads = 4;
  constexpr int kAppends = 500;
  GraceDomain domain;
  Published<std::vector<int>> table(domain);
  std::atomic<int> published{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppends; ++i) {
        const int value = t * kAppends + i;
        published += table.Update([&](std::vector<int>& values) { values.push_back(value); });
        // A duplicate: the check and the decline run under the writer mutex.
        published += table.Replace([&](const std::vector<int>& values)
                                       -> std::optional<std::vector<int>> {
          if (std::find(values.begin(), values.end(), value) != values.end()) {
            return std::nullopt;
          }
          return values;
        });
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(published.load(), kThreads * kAppends);
  GraceDomain::Section section(domain);
  std::vector<int> values = table.Read();
  std::sort(values.begin(), values.end());
  ASSERT_EQ(values.size(), static_cast<size_t>(kThreads * kAppends));
  for (int i = 0; i < kThreads * kAppends; ++i) {
    ASSERT_EQ(values[i], i);
  }
  // A decline leaves the very same snapshot and retires nothing.
  const std::vector<int>* before = &table.Read();
  const uint64_t pending = domain.pending();
  EXPECT_FALSE(table.Update([](std::vector<int>&) { return false; }));
  EXPECT_EQ(&table.Read(), before);
  EXPECT_EQ(domain.pending(), pending);
}

}  // namespace
}  // namespace protego
