#include "sim/context.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>

#include "util/check.hpp"

// ---------------------------------------------------------------------------
// raw backend (x86-64 and aarch64 Linux): hand-rolled stack switch.
//
// glibc's swapcontext makes a sigprocmask *syscall* on every switch to
// save/restore the signal mask the simulation never touches. At two context
// switches per simulated block/wake, a 1024-rank collective spends half its
// wall-clock inside that syscall. The raw switch saves exactly the
// callee-saved registers the platform ABI requires and swaps the stack
// pointer — ~20 ns instead of ~450 ns, no kernel involvement (SimGrid ships
// the same idea as its "raw" context factory).
//
//   x86-64 (SysV):  rbp rbx r12-r15, ret address on the stack
//   aarch64 (AAPCS64): x19-x28, fp (x29), lr (x30), and the low halves of
//     v8-v15 (d8-d15) — callers may keep doubles live across the call
//
// Everything else falls back to ucontext.
// ---------------------------------------------------------------------------
#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define SMPI_HAVE_RAW_CONTEXT 1

extern "C" {
// Pushes the callee-saved frame on the current stack, stores the stack
// pointer to *save_sp, installs restore_sp and pops the frame there.
void smpi_raw_swap(void** save_sp, void* restore_sp);
// First-activation shim: the primed frame "returns" here with the context
// pointer in a callee-saved register (%r12 / x19); moves it into the
// first-argument register and calls the C++ trampoline.
void smpi_raw_boot();
void smpi_raw_trampoline(void* context);
}
#endif

#if defined(__x86_64__) && defined(__linux__)
asm(".text\n"
    ".globl smpi_raw_swap\n"
    ".hidden smpi_raw_swap\n"
    ".type smpi_raw_swap,@function\n"
    "smpi_raw_swap:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size smpi_raw_swap,.-smpi_raw_swap\n"
    ".globl smpi_raw_boot\n"
    ".hidden smpi_raw_boot\n"
    ".type smpi_raw_boot,@function\n"
    "smpi_raw_boot:\n"
    "  movq %r12, %rdi\n"
    "  callq smpi_raw_trampoline\n"
    ".size smpi_raw_boot,.-smpi_raw_boot\n");
#endif  // __x86_64__ && __linux__

#if defined(__aarch64__) && defined(__linux__)
// Frame layout (160 bytes, 16-aligned): x19..x28 at 0-72, fp/lr at 80/88,
// d8..d15 at 96-152. The primed first-activation frame sets lr to
// smpi_raw_boot and x19 to the context pointer, so the restoring `ret`
// lands in the shim with `this` in a callee-saved register.
asm(".text\n"
    ".globl smpi_raw_swap\n"
    ".hidden smpi_raw_swap\n"
    ".type smpi_raw_swap,%function\n"
    "smpi_raw_swap:\n"
    "  sub sp, sp, #160\n"
    "  stp x19, x20, [sp]\n"
    "  stp x21, x22, [sp, #16]\n"
    "  stp x23, x24, [sp, #32]\n"
    "  stp x25, x26, [sp, #48]\n"
    "  stp x27, x28, [sp, #64]\n"
    "  stp x29, x30, [sp, #80]\n"
    "  stp d8,  d9,  [sp, #96]\n"
    "  stp d10, d11, [sp, #112]\n"
    "  stp d12, d13, [sp, #128]\n"
    "  stp d14, d15, [sp, #144]\n"
    "  mov x9, sp\n"
    "  str x9, [x0]\n"
    "  mov sp, x1\n"
    "  ldp x19, x20, [sp]\n"
    "  ldp x21, x22, [sp, #16]\n"
    "  ldp x23, x24, [sp, #32]\n"
    "  ldp x25, x26, [sp, #48]\n"
    "  ldp x27, x28, [sp, #64]\n"
    "  ldp x29, x30, [sp, #80]\n"
    "  ldp d8,  d9,  [sp, #96]\n"
    "  ldp d10, d11, [sp, #112]\n"
    "  ldp d12, d13, [sp, #128]\n"
    "  ldp d14, d15, [sp, #144]\n"
    "  add sp, sp, #160\n"
    "  ret\n"
    ".size smpi_raw_swap,.-smpi_raw_swap\n"
    ".globl smpi_raw_boot\n"
    ".hidden smpi_raw_boot\n"
    ".type smpi_raw_boot,%function\n"
    "smpi_raw_boot:\n"
    "  mov x0, x19\n"
    "  bl smpi_raw_trampoline\n"
    ".size smpi_raw_boot,.-smpi_raw_boot\n");
#endif  // __aarch64__ && __linux__

// ---------------------------------------------------------------------------
// AddressSanitizer fiber annotations. ASan keeps one shadow ("fake") stack
// per thread; a manual stack switch it cannot see makes it report wild
// stack-buffer-overflow / use-after-return the moment the scheduler resumes
// an actor. Every switch is therefore bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber in ASan
// builds; the helpers compile to nothing otherwise.
// ---------------------------------------------------------------------------
#if defined(__SANITIZE_ADDRESS__)
#define SMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMPI_ASAN_FIBERS 1
#endif
#endif

#if defined(SMPI_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* stack_bottom,
                                    std::size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** stack_bottom_old,
                                     std::size_t* stack_size_old);
void __asan_unpoison_memory_region(const volatile void* addr, std::size_t size);
}
#endif

namespace smpi::sim {
namespace {

// `save`: where to park this stack's fake-stack pointer while away (nullptr
// on the final switch out of a dying fiber, releasing its fake frames).
inline void asan_start_switch(void** save, const void* target_bottom,
                              std::size_t target_size) {
#if defined(SMPI_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(save, target_bottom, target_size);
#else
  (void)save;
  (void)target_bottom;
  (void)target_size;
#endif
}

// `save`: the pointer parked by the start_switch that last left this stack
// (nullptr on a fiber's first activation). Reports the previous stack's
// bounds through the out-params — how the fiber learns the kernel stack.
inline void asan_finish_switch(void* save, const void** old_bottom, std::size_t* old_size) {
#if defined(SMPI_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(save, old_bottom, old_size);
#else
  (void)save;
  (void)old_bottom;
  (void)old_size;
#endif
}

// ---------------------------------------------------------------------------
// Fiber stacks (raw and ucontext backends).
//
// A stack is reserved address space, not memory: an anonymous MAP_NORESERVE
// mapping whose pages the kernel commits only as the fiber touches them,
// with a PROT_NONE guard page below it so an overflow faults instead of
// writing over whatever lies underneath. A rank that never goes deeper than
// a few frames costs a few pages, whatever stack_bytes says.
//
// A destroyed stack goes to a per-thread LIFO free list keyed by size. The
// next stack of that size, in this engine or the next one the thread runs
// (a campaign worker's scenarios), takes it back with its touched pages
// still committed: no syscall and no fresh page fault. The list lives in
// the free stacks' own top bytes, which are committed already; a stack on
// it stays mapped for the life of the process.
//
// Each stack is two mappings (guard and stack), so the default
// vm.max_map_count of 65530 caps a run near 32k ranks; hitting it raises a
// std::system_error that says so.
// ---------------------------------------------------------------------------

struct FreeStack {
  FreeStack* next;
  std::size_t size;
};
thread_local FreeStack* t_free_stacks = nullptr;

std::size_t page_size() {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

class FiberStack {
 public:
  explicit FiberStack(std::size_t bytes) {
    const std::size_t page = page_size();
    size_ = (std::max(bytes, kMinStack) + page - 1) / page * page;
    for (FreeStack** link = &t_free_stacks; *link != nullptr; link = &(*link)->next) {
      if ((*link)->size == size_) {
        FreeStack* node = *link;
        *link = node->next;
        bottom_ = reinterpret_cast<unsigned char*>(node + 1) - size_;
        return;
      }
    }
    void* guard = ::mmap(nullptr, size_ + page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (guard == MAP_FAILED) fail("mmap", errno);
    if (::mprotect(guard, page, PROT_NONE) != 0) {
      const int error = errno;
      ::munmap(guard, size_ + page);
      fail("mprotect", error);
    }
    bottom_ = static_cast<unsigned char*>(guard) + page;
  }

  ~FiberStack() {
    // A fiber that never returned (the final switch out of a dying one)
    // leaves its frames poisoned; the next owner starts clean.
#if defined(SMPI_ASAN_FIBERS)
    __asan_unpoison_memory_region(bottom_, size_);
#endif
    auto* node = reinterpret_cast<FreeStack*>(top()) - 1;
    node->next = t_free_stacks;
    node->size = size_;
    t_free_stacks = node;
  }

  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  unsigned char* bottom() const { return bottom_; }
  // Page-aligned, so aligned for every ABI.
  unsigned char* top() const { return bottom_ + size_; }
  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinStack = 16 * 1024;

  [[noreturn]] void fail(const char* call, int error) const {
    throw std::system_error(error, std::generic_category(),
                            std::string(call) + " of a " + std::to_string(size_) +
                                "-byte fiber stack failed (each rank maps its stack and a "
                                "guard page; vm.max_map_count bounds the rank count)");
  }

  unsigned char* bottom_ = nullptr;  // lowest usable byte, just above the guard page
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// ucontext backend
// ---------------------------------------------------------------------------

class UcontextContext final : public Context {
 public:
  UcontextContext(std::function<void()> body, std::size_t stack_bytes)
      : body_(std::move(body)), stack_(stack_bytes) {
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.bottom();
    ctx_.uc_stack.ss_size = stack_.size();
    ctx_.uc_link = nullptr;
    // makecontext only passes ints portably; smuggle `this` as two halves.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&UcontextContext::trampoline), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
  }

  ~UcontextContext() override {
    if (!done_ && started_) {
      // Let the context unwind its stack (runs destructors of locals).
      request_kill();
      resume();
    }
  }

  void resume() override {
    SMPI_ENSURE(!done_, "resuming a finished context");
    started_ = true;
    asan_start_switch(&kernel_fake_stack_, stack_.bottom(), stack_.size());
    swapcontext(&kernel_ctx_, &ctx_);
    asan_finish_switch(kernel_fake_stack_, nullptr, nullptr);
  }

  void suspend() override {
    asan_start_switch(&fiber_fake_stack_, kernel_stack_bottom_, kernel_stack_size_);
    swapcontext(&ctx_, &kernel_ctx_);
    asan_finish_switch(fiber_fake_stack_, &kernel_stack_bottom_, &kernel_stack_size_);
    if (kill_requested_) throw ForcedExit{};
  }

 private:
  static void trampoline(unsigned hi, unsigned lo) {
    auto* self = reinterpret_cast<UcontextContext*>(
        (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
    // First activation: no parked fake stack yet; learn the kernel stack's
    // bounds for the suspend() switches.
    asan_finish_switch(nullptr, &self->kernel_stack_bottom_, &self->kernel_stack_size_);
    if (!self->kill_requested_) {
      try {
        self->body_();
      } catch (const ForcedExit&) {
        // normal teardown path
      }
    }
    self->done_ = true;
    // nullptr save: this fiber never runs again — release its fake frames.
    asan_start_switch(nullptr, self->kernel_stack_bottom_, self->kernel_stack_size_);
    swapcontext(&self->ctx_, &self->kernel_ctx_);
    SMPI_UNREACHABLE("resumed a terminated context");
  }

  std::function<void()> body_;
  FiberStack stack_;
  ucontext_t ctx_{};
  ucontext_t kernel_ctx_{};
  bool started_ = false;
  // ASan fiber-annotation state (unused outside sanitized builds).
  void* kernel_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* kernel_stack_bottom_ = nullptr;
  std::size_t kernel_stack_size_ = 0;
};

class UcontextFactory final : public ContextFactory {
 public:
  explicit UcontextFactory(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {}
  std::unique_ptr<Context> create(std::function<void()> body) override {
    return std::make_unique<UcontextContext>(std::move(body), stack_bytes_);
  }
  std::string name() const override { return "ucontext"; }

 private:
  std::size_t stack_bytes_;
};

#if SMPI_HAVE_RAW_CONTEXT

class RawContext final : public Context {
 public:
  RawContext(std::function<void()> body, std::size_t stack_bytes)
      : body_(std::move(body)), stack_(stack_bytes) {
    // Prime the stack so the first swap-in pops the callee-saved frame and
    // "returns" into smpi_raw_boot with the context pointer in a
    // callee-saved register. The stack top is page-aligned, so inside
    // smpi_raw_boot the stack meets the ABI alignment at the trampoline
    // call.
    const auto top = reinterpret_cast<std::uintptr_t>(stack_.top());
#if defined(__x86_64__)
    auto* slots = reinterpret_cast<void**>(top);
    slots[-1] = reinterpret_cast<void*>(&smpi_raw_boot);  // ret target
    slots[-2] = nullptr;                                  // rbp
    slots[-3] = nullptr;                                  // rbx
    slots[-4] = this;                                     // r12
    slots[-5] = nullptr;                                  // r13
    slots[-6] = nullptr;                                  // r14
    slots[-7] = nullptr;                                  // r15
    sp_ = static_cast<void*>(&slots[-7]);
#elif defined(__aarch64__)
    // One 160-byte frame below the top (see the asm layout): lr at offset
    // 88 routes the restoring `ret` into smpi_raw_boot, x19 at offset 0
    // carries `this`; everything else (including fp and d8-d15) is zero.
    auto* frame = reinterpret_cast<unsigned char*>(top - 160);
    std::memset(frame, 0, 160);
    *reinterpret_cast<void**>(frame + 0) = this;                                  // x19
    *reinterpret_cast<void**>(frame + 88) = reinterpret_cast<void*>(&smpi_raw_boot);  // lr
    sp_ = static_cast<void*>(frame);
#else
#error "raw context backend enabled on an unsupported architecture"
#endif
  }

  ~RawContext() override {
    if (!done_ && started_) {
      // Let the context unwind its stack (runs destructors of locals).
      request_kill();
      resume();
    }
  }

  void resume() override {
    SMPI_ENSURE(!done_, "resuming a finished context");
    started_ = true;
    asan_start_switch(&kernel_fake_stack_, stack_.bottom(), stack_.size());
    smpi_raw_swap(&kernel_sp_, sp_);
    asan_finish_switch(kernel_fake_stack_, nullptr, nullptr);
  }

  void suspend() override {
    asan_start_switch(&fiber_fake_stack_, kernel_stack_bottom_, kernel_stack_size_);
    smpi_raw_swap(&sp_, kernel_sp_);
    asan_finish_switch(fiber_fake_stack_, &kernel_stack_bottom_, &kernel_stack_size_);
    if (kill_requested_) throw ForcedExit{};
  }

  // First activation (via smpi_raw_boot); runs on the fiber stack.
  void boot_entry() {
    // No parked fake stack yet; learn the kernel stack's bounds for the
    // suspend() switches.
    asan_finish_switch(nullptr, &kernel_stack_bottom_, &kernel_stack_size_);
    if (!kill_requested_) {
      try {
        body_();
      } catch (const ForcedExit&) {
        // normal teardown path
      }
    }
    done_ = true;
    // nullptr save: this fiber never runs again — release its fake frames.
    asan_start_switch(nullptr, kernel_stack_bottom_, kernel_stack_size_);
    smpi_raw_swap(&sp_, kernel_sp_);
    SMPI_UNREACHABLE("resumed a terminated context");
  }

 private:
  std::function<void()> body_;
  FiberStack stack_;
  void* sp_ = nullptr;         // fiber stack pointer while suspended
  void* kernel_sp_ = nullptr;  // kernel stack pointer while the fiber runs
  bool started_ = false;
  // ASan fiber-annotation state (unused outside sanitized builds).
  void* kernel_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* kernel_stack_bottom_ = nullptr;
  std::size_t kernel_stack_size_ = 0;
};

class RawFactory final : public ContextFactory {
 public:
  explicit RawFactory(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {}
  std::unique_ptr<Context> create(std::function<void()> body) override {
    return std::make_unique<RawContext>(std::move(body), stack_bytes_);
  }
  std::string name() const override { return "raw"; }

 private:
  std::size_t stack_bytes_;
};

#endif  // SMPI_HAVE_RAW_CONTEXT

// ---------------------------------------------------------------------------
// thread backend: one OS thread per context, but strictly one runs at a time
// (ping-pong handoff through a mutex + condition variable).
// ---------------------------------------------------------------------------

class ThreadContext final : public Context {
 public:
  explicit ThreadContext(std::function<void()> body) : body_(std::move(body)) {}

  ~ThreadContext() override {
    if (thread_.joinable()) {
      if (!done_) {
        request_kill();
        resume();  // wakes the thread; it unwinds via ForcedExit
      }
      thread_.join();
    }
  }

  void resume() override {
    SMPI_ENSURE(!done_, "resuming a finished context");
    std::unique_lock<std::mutex> lock(mutex_);
    if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
    turn_ = Turn::kActor;
    cv_.notify_all();
    cv_.wait(lock, [this] { return turn_ == Turn::kKernel; });
  }

  void suspend() override {
    std::unique_lock<std::mutex> lock(mutex_);
    turn_ = Turn::kKernel;
    cv_.notify_all();
    cv_.wait(lock, [this] { return turn_ == Turn::kActor; });
    if (kill_requested_) throw ForcedExit{};
  }

 private:
  enum class Turn { kKernel, kActor };

  void run() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return turn_ == Turn::kActor; });
    }
    if (!kill_requested_) {
      try {
        body_();
      } catch (const ForcedExit&) {
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_ = true;
    turn_ = Turn::kKernel;
    cv_.notify_all();
  }

  std::function<void()> body_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  Turn turn_ = Turn::kKernel;
};

class ThreadFactory final : public ContextFactory {
 public:
  std::unique_ptr<Context> create(std::function<void()> body) override {
    return std::make_unique<ThreadContext>(std::move(body));
  }
  std::string name() const override { return "thread"; }
};

}  // namespace

#if SMPI_HAVE_RAW_CONTEXT
// Reached once per context via smpi_raw_boot; C linkage so the asm shim can
// name it.
extern "C" void smpi_raw_trampoline(void* context) {
  static_cast<RawContext*>(context)->boot_entry();
}
#endif

std::unique_ptr<ContextFactory> ContextFactory::make(const std::string& backend,
                                                     std::size_t stack_bytes) {
  std::string choice = backend;
  if (choice.empty()) {
    const char* env = std::getenv("SMPI_CONTEXT_BACKEND");
#if SMPI_HAVE_RAW_CONTEXT
    choice = (env != nullptr) ? env : "raw";
#else
    choice = (env != nullptr) ? env : "ucontext";
#endif
  }
#if SMPI_HAVE_RAW_CONTEXT
  if (choice == "raw") return std::make_unique<RawFactory>(stack_bytes);
#else
  // Portable fallback when the hand-rolled switch is unavailable.
  if (choice == "raw") return std::make_unique<UcontextFactory>(stack_bytes);
#endif
  if (choice == "ucontext") return std::make_unique<UcontextFactory>(stack_bytes);
  if (choice == "thread") return std::make_unique<ThreadFactory>();
  SMPI_REQUIRE(false, "unknown context backend '" + choice + "'");
  return nullptr;
}

}  // namespace smpi::sim
