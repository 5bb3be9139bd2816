// Cooperative execution contexts for simulated processes.
//
// Every simulated MPI process runs its real application code on its own
// context; the simulation kernel resumes exactly one context at a time and
// the context gives control back whenever the process blocks on a simulated
// activity. This is the mechanism that makes the simulation *on-line* (the
// code actually executes) yet strictly sequential (§5.1 of the paper).
//
// One switch per platform:
//  * "raw"      — hand-rolled callee-saved-register stack switch, used on
//    x86-64 Linux: no sigprocmask syscall per switch, ~20x faster than
//    swapcontext;
//  * "ucontext" — swapcontext-based fibers, used everywhere else. It can
//    also be asked for by name, so the fallback runs on x86-64 too.
// Fiber code is ordinary code on an ordinary stack, so gprof (-pg)
// attributes it like any other function.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace smpi::sim {

// Thrown inside a context to force stack unwinding when an unfinished actor
// is destroyed (engine teardown, kill). Must never be swallowed by user code.
struct ForcedExit {};

class Context {
 public:
  virtual ~Context() = default;

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // Kernel side: run the context until it suspends or terminates.
  virtual void resume() = 0;
  // Actor side: yield control back to the kernel.
  virtual void suspend() = 0;

  bool done() const { return done_; }
  // Ask the context to unwind the next time it runs; resume() must then be
  // called once to let it do so.
  void request_kill() { kill_requested_ = true; }
  bool kill_requested() const { return kill_requested_; }

 protected:
  Context() = default;
  bool done_ = false;
  bool kill_requested_ = false;
};

class ContextFactory {
 public:
  virtual ~ContextFactory() = default;
  virtual std::unique_ptr<Context> create(std::function<void()> body) = 0;
  virtual std::string name() const = 0;

  // backend: "" or "raw" for the platform's switch (raw where available,
  // ucontext elsewhere), or "ucontext". stack_bytes: the address space of each
  // raw/ucontext fiber stack, whose pages are committed as the fiber touches
  // them; create() throws std::system_error when it cannot be mapped.
  static std::unique_ptr<ContextFactory> make(const std::string& backend, std::size_t stack_bytes);
};

}  // namespace smpi::sim
