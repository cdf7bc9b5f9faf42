// The batch layer's contract: results come back in job order regardless of
// worker count, exceptions propagate, and the pool shuts down cleanly with
// work still queued. The last test pins the end-to-end determinism the CI
// metrics diff depends on: a scenario run serializes byte-identically
// whether the batch ran on 1 thread or 8.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/json.hpp"
#include "sim/log.hpp"
#include "sim/parallel.hpp"
#include "soc/runner.hpp"

namespace daelite::sim {
namespace {

TEST(ParallelMap, ResultsArriveInJobOrder) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const auto out = parallel_map<std::size_t>(64, threads, [](std::size_t i) {
      // Stagger completion so late-submitted jobs finish first under
      // contention; order must still be by index.
      if (i % 7 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return i * i;
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelMap, MoreJobsThanThreadsAndViceVersa) {
  const auto few = parallel_map<int>(3, 8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(few, (std::vector<int>{0, 1, 2}));
  const auto none = parallel_map<int>(0, 4, [](std::size_t) { return 1; });
  EXPECT_TRUE(none.empty());
}

TEST(ParallelMap, ExceptionFromFailingJobPropagates) {
  std::atomic<int> completed{0};
  try {
    parallel_map<int>(16, 4, [&](std::size_t i) {
      if (i == 5) throw std::runtime_error("job 5 exploded");
      ++completed;
      return 0;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 5 exploded");
  }
  // All other jobs still ran: the pool drains, one failure doesn't wedge it.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ParallelMap, InlinePathAlsoThrows) {
  EXPECT_THROW(parallel_map<int>(2, 1,
                                 [](std::size_t) -> int { throw std::logic_error("inline"); }),
               std::logic_error);
}

TEST(ThreadPool, SubmitFutureReportsCompletionAndError) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("task error"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i)
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    // Destructor joins after the queue empties.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, WaitIdleBlocksUntilQuiescent) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 24; ++i) pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 24);
  // Idle pool: wait_idle returns immediately and the pool stays usable.
  pool.wait_idle();
  auto fut = pool.submit([&] { ++ran; });
  fut.get();
  EXPECT_EQ(ran.load(), 25);
}

TEST(ThreadPool, ConcurrentLoggingIsRaceFreeAndLineAtomic) {
  // Components of concurrent batch jobs log from their job threads, so
  // sim::Log must tolerate simultaneous write() calls into one
  // sink: no torn lines, every line present (TSan additionally checks the
  // absence of data races on the level/sink globals here).
  std::ostringstream captured;
  std::ostream* const old_sink = sim::Log::sink();
  const sim::LogLevel old_level = sim::Log::level();
  sim::Log::set_sink(&captured);
  sim::Log::set_level(sim::LogLevel::kInfo);
  {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i)
      pool.submit([i] { sim::log_info("pool", "job ", i, " says hello"); });
    pool.wait_idle();
  }
  sim::Log::set_sink(old_sink);
  sim::Log::set_level(old_level);

  std::istringstream lines(captured.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("[INFO ] pool: job ", 0), 0u) << line;
    EXPECT_NE(line.find(" says hello"), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, 64u);
}

// --- End-to-end determinism contract ----------------------------------------

soc::RunSpec small_spec(std::uint64_t seed) {
  soc::Scenario sc;
  sc.width = 2;
  sc.height = 2;
  sc.slots = 8;
  sc.run_cycles = 1500;
  soc::Scenario::RawConnection a;
  a.name = "a";
  a.src = {0, 0};
  a.dsts = {{1, 1}};
  a.bandwidth = 200.0;
  soc::Scenario::RawConnection b;
  b.name = "b";
  b.src = {1, 0};
  b.dsts = {{0, 1}};
  b.bandwidth = 150.0;
  b.response_bandwidth = 50.0;
  sc.raw = {a, b};
  soc::RunSpec spec;
  spec.label = "unit";
  spec.scenario = std::move(sc);
  spec.seed = seed;
  return spec;
}

TEST(BatchDeterminism, SameSeedIsByteIdenticalAcrossWorkerCounts) {
  const auto run_batch = [&](std::size_t threads) {
    const auto reports = parallel_map<analysis::NetworkReport>(
        6, threads, [&](std::size_t i) { return soc::run_scenario(small_spec(i)); });
    JsonValue doc = JsonValue::array();
    for (const auto& r : reports) doc.push_back(r.to_json());
    return doc.dump();
  };
  const std::string serial = run_batch(1);
  const std::string parallel = run_batch(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"ok\":true"), std::string::npos);
}

TEST(RunScenario, OutOfGridCoordinatesReportErrorNotCrash) {
  soc::RunSpec spec = small_spec(0);
  spec.scenario.raw[1].dsts = {{9, 9}}; // outside the 2x2 grid
  const auto r = soc::run_scenario(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("9,9"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("connection 'b'"), std::string::npos) << r.error;
}

TEST(BatchDeterminism, SeedShufflesAllocationButStaysReproducible) {
  const auto r1 = soc::run_scenario(small_spec(3));
  const auto r2 = soc::run_scenario(small_spec(3));
  EXPECT_EQ(r1.to_json().dump(), r2.to_json().dump());
  ASSERT_EQ(r1.connections.size(), 2u);
  EXPECT_TRUE(r1.ok);
}

} // namespace
} // namespace daelite::sim
