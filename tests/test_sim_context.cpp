#include "sim/context.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "util/check.hpp"

namespace ss = smpi::sim;

class ContextBackendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ContextBackendTest, RunsBodyOnResume) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  bool ran = false;
  auto ctx = factory->create([&] { ran = true; });
  EXPECT_FALSE(ran);
  ctx->resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(ctx->done());
}

TEST_P(ContextBackendTest, SuspendResumeRoundTrips) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  std::vector<int> order;
  ss::Context* self = nullptr;
  auto ctx = factory->create([&] {
    order.push_back(1);
    self->suspend();
    order.push_back(3);
    self->suspend();
    order.push_back(5);
  });
  self = ctx.get();
  ctx->resume();
  order.push_back(2);
  ctx->resume();
  order.push_back(4);
  ctx->resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(ctx->done());
}

TEST_P(ContextBackendTest, LocalStateSurvivesSuspension) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  ss::Context* self = nullptr;
  long long sum = 0;
  auto ctx = factory->create([&] {
    long long local = 0;
    for (int i = 0; i < 10; ++i) {
      local += i;
      self->suspend();
    }
    sum = local;
  });
  self = ctx.get();
  while (!ctx->done()) ctx->resume();
  EXPECT_EQ(sum, 45);
}

TEST_P(ContextBackendTest, DestroyingSuspendedContextUnwindsStack) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  // The destructor of `guard` must run when the unfinished context is
  // destroyed — this is what releases application resources at teardown.
  bool destroyed = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  ss::Context* self = nullptr;
  {
    auto ctx = factory->create([&] {
      Guard guard{&destroyed};
      self->suspend();
      // never reached
      FAIL() << "context resumed after kill";
    });
    self = ctx.get();
    ctx->resume();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST_P(ContextBackendTest, DestroyingNeverStartedContextIsSafe) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  bool ran = false;
  { auto ctx = factory->create([&] { ran = true; }); }
  EXPECT_FALSE(ran);
}

TEST_P(ContextBackendTest, ManyContextsInterleave) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  constexpr int kContexts = 50;
  std::vector<std::unique_ptr<ss::Context>> contexts(kContexts);
  std::vector<ss::Context*> raw(kContexts);
  int counter = 0;
  for (int i = 0; i < kContexts; ++i) {
    contexts[i] = factory->create([&raw, &counter, i] {
      for (int round = 0; round < 3; ++round) {
        ++counter;
        raw[i]->suspend();
      }
    });
    raw[i] = contexts[i].get();
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& ctx : contexts) {
      if (!ctx->done()) ctx->resume();
    }
  }
  for (auto& ctx : contexts) EXPECT_TRUE(ctx->done());
  EXPECT_EQ(counter, kContexts * 3);
}

// "raw" resolves to the hand-rolled switch on x86-64 Linux and to the
// ucontext fallback elsewhere — either way the contract must hold.
INSTANTIATE_TEST_SUITE_P(Backends, ContextBackendTest,
                         ::testing::Values("raw", "ucontext"));

// --- Fiber stacks (raw and ucontext) ---------------------------------------

namespace {

long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  statm >> size >> resident;
  return resident * ::sysconf(_SC_PAGESIZE);
}

long minor_faults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Each frame holds 1 KiB, so the recursion walks a stack page by page.
[[gnu::noinline]] int recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[0];
}

// Fills kTouched bytes of its stack, suspends, then checks them.
constexpr std::size_t kTouched = 512 * 1024;
struct StackToucher {
  ss::Context* self = nullptr;
  const char* buffer = nullptr;  // where the buffer sat on the fiber's stack
  bool intact = false;

  void operator()() {
    char local[kTouched];
    auto* bytes = static_cast<volatile char*>(local);
    for (std::size_t i = 0; i < kTouched; i += 64) bytes[i] = static_cast<char>(i / 64);
    buffer = local;
    self->suspend();
    intact = true;
    for (std::size_t i = 0; i < kTouched; i += 64) {
      intact = intact && bytes[i] == static_cast<char>(i / 64);
    }
  }
};

}  // namespace

class FiberStackTest : public ::testing::TestWithParam<const char*> {};

// A stack is address space: only the pages a fiber touches cost memory.
TEST_P(FiberStackTest, StacksAreCommittedOnTouch) {
  constexpr int kContexts = 256;
  auto factory = ss::ContextFactory::make(GetParam(), 1 << 20);
  std::vector<std::unique_ptr<ss::Context>> contexts;
  std::vector<ss::Context*> raw(kContexts);
  const long before = resident_bytes();
  for (int i = 0; i < kContexts; ++i) {
    contexts.push_back(factory->create([&raw, i] { raw[i]->suspend(); }));
    raw[i] = contexts.back().get();
    contexts.back()->resume();
  }
  // Written out in full the stacks would be 256 MiB.
  EXPECT_LT(resident_bytes() - before, 32L << 20);
  contexts.clear();  // unwinds every suspended fiber
}

TEST_P(FiberStackTest, OverflowHitsTheGuardPage) {
  auto factory = ss::ContextFactory::make(GetParam(), 64 * 1024);
  EXPECT_DEATH(
      {
        auto ctx = factory->create([] { recurse(1 << 16); });
        ctx->resume();
      },
      "");
}

// A stack freed by a finished or a killed fiber backs the next context of
// its size: same addresses, pages already committed, and a working fiber.
TEST_P(FiberStackTest, FreedStacksAreReused) {
  constexpr std::size_t kStack = 768 * 1024;
  const long pages_touched = static_cast<long>(kTouched) / ::sysconf(_SC_PAGESIZE);
  auto factory = ss::ContextFactory::make(GetParam(), kStack);
  for (const bool kill_first : {false, true}) {
    SCOPED_TRACE(kill_first ? "destroyed while suspended" : "finished");
    StackToucher first;
    {
      auto ctx = factory->create([&first] { first(); });
      first.self = ctx.get();
      ctx->resume();
      if (!kill_first) ctx->resume();
    }
    StackToucher second;
    auto ctx = factory->create([&second] { second(); });
    second.self = ctx.get();
    const long faults_before = minor_faults();
    ctx->resume();
    EXPECT_LT(minor_faults() - faults_before, pages_touched / 4);
    EXPECT_EQ(second.buffer, first.buffer);
    ctx->resume();
    EXPECT_TRUE(ctx->done());
    EXPECT_TRUE(second.intact);
  }
}

// An address space that cannot hold the stack is an error that names the
// mapping limit, not a crash.
TEST_P(FiberStackTest, UnmappableStackThrows) {
  auto factory = ss::ContextFactory::make(GetParam(), std::size_t{1} << 50);
  try {
    factory->create([] {});
    ADD_FAILURE() << "a 1 PiB stack was mapped";
  } catch (const std::system_error& e) {
    EXPECT_NE(std::string(e.what()).find("vm.max_map_count"), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FiberStackTest, ::testing::Values("raw", "ucontext"));

TEST(ContextFactory, RejectsUnknownBackend) {
  EXPECT_THROW(ss::ContextFactory::make("fibers-of-doom", 1024), smpi::util::ContractError);
  EXPECT_THROW(ss::ContextFactory::make("thread", 1024), smpi::util::ContractError);
}
