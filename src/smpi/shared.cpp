// RAM folding (§3.2): SMPI_SHARED_MALLOC returns the *same* allocation to
// every rank calling from the same source location, cutting the footprint of
// an m-process run from m x s to s (technique #1 of [3]). The memory tracker
// accounts both views — what the folded simulation really uses and what the
// unfolded application would have used — which is how Figure 16 is measured.
//
// All rank memory (smpi_malloc, SMPI_SHARED_MALLOC, and the teardown reclaim
// of leaked blocks) goes through allocate_rank_memory/release_rank_memory.
// A block of at least one huge page (2 MiB) is its own anonymous mapping
// with a 2 MiB-aligned start, and the whole huge pages inside it are advised
// MADV_HUGEPAGE: DT class B's 6.75 MiB feature buffers, all live at once,
// then fault once per 2 MiB instead of once per 4 KiB. The tail under 2 MiB
// keeps small pages, so a huge page never commits memory past the block's
// end. With transparent huge pages set to `never` the advice is a no-op.
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <string>

#include "smpi/internals.hpp"
#include "util/check.hpp"

namespace smpi::core {
namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;

std::unordered_map<std::string, SharedBlock>& shared_blocks() {
  static std::unordered_map<std::string, SharedBlock> blocks;
  return blocks;
}

std::unordered_map<void*, std::string>& shared_index() {
  static std::unordered_map<void*, std::string> index;
  return index;
}

}  // namespace

void* allocate_rank_memory(std::size_t size) {
  if (size < kHugePage) return ::operator new(size);
  // Over-map by one huge page, then trim the slack on both sides so the
  // block starts on a 2 MiB boundary.
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t length = (size + page - 1) / page * page;
  void* raw = ::mmap(nullptr, length + kHugePage, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + kHugePage - 1) & ~(kHugePage - 1);
  if (start > base) ::munmap(raw, start - base);
  ::munmap(reinterpret_cast<void*>(start + length), base + kHugePage - start);
  // Best effort: a kernel without THP rejects the advice and the block
  // stays on small pages.
  ::madvise(reinterpret_cast<void*>(start), size / kHugePage * kHugePage, MADV_HUGEPAGE);
  return reinterpret_cast<void*>(start);
}

void release_rank_memory(void* ptr, std::size_t size) {
  if (size < kHugePage) {
    ::operator delete(ptr);
    return;
  }
  ::munmap(ptr, size);  // the kernel rounds the length up to whole pages
}

void reset_shared_allocations() {
  for (auto& [site, block] : shared_blocks()) {
    release_rank_memory(block.ptr, block.size);
  }
  shared_blocks().clear();
  shared_index().clear();
}

}  // namespace smpi::core

using namespace smpi::core;

void* smpi_malloc(std::size_t size) {
  Process& proc = current_process_checked();
  void* ptr = allocate_rank_memory(size);
  proc.allocations[ptr] = size;
  proc.world->memory().allocate(proc.world_rank, size, /*folded_already_counted=*/false);
  return ptr;
}

void smpi_free(void* ptr) {
  if (ptr == nullptr) return;
  Process& proc = current_process_checked();
  auto it = proc.allocations.find(ptr);
  SMPI_REQUIRE(it != proc.allocations.end(), "smpi_free of unknown pointer");
  proc.world->memory().release(proc.world_rank, it->second, false);
  release_rank_memory(ptr, it->second);
  proc.allocations.erase(it);
}

void* smpi_shared_malloc(std::size_t size, const char* file, int line) {
  Process& proc = current_process_checked();
  // Keyed by call site *and* size: ranks at different stages of a dataflow
  // may allocate different amounts from the same line (e.g. DT's growing
  // streams); only identically-shaped allocations fold together.
  const std::string site =
      std::string(file) + ":" + std::to_string(line) + ":" + std::to_string(size);
  auto& blocks = shared_blocks();
  auto it = blocks.find(site);
  if (it == blocks.end()) {
    SharedBlock block;
    block.ptr = allocate_rank_memory(size);
    block.size = size;
    block.refcount = 0;
    block.site = site;
    it = blocks.emplace(site, block).first;
    shared_index()[block.ptr] = site;
    // First caller: the bytes are physically allocated.
    proc.world->memory().allocate(proc.world_rank, size, /*folded_already_counted=*/false);
  } else {
    // Folded: the rank's unfolded footprint grows, the real one does not.
    proc.world->memory().allocate(proc.world_rank, size, /*folded_already_counted=*/true);
  }
  it->second.refcount += 1;
  return it->second.ptr;
}

void smpi_shared_free(void* ptr) {
  if (ptr == nullptr) return;
  Process& proc = current_process_checked();
  auto idx = shared_index().find(ptr);
  SMPI_REQUIRE(idx != shared_index().end(), "SMPI_FREE of non-shared pointer");
  auto& blocks = shared_blocks();
  auto it = blocks.find(idx->second);
  SMPI_ENSURE(it != blocks.end(), "shared block index out of sync");
  SharedBlock& block = it->second;
  SMPI_REQUIRE(block.refcount > 0, "SMPI_FREE refcount underflow");
  block.refcount -= 1;
  const bool last = block.refcount == 0;
  proc.world->memory().release(proc.world_rank, block.size,
                               /*folded_already_counted=*/!last);
  if (last) {
    release_rank_memory(block.ptr, block.size);
    shared_index().erase(idx);
    blocks.erase(it);
  }
}
