//===- support/CodeBuffer.cpp ---------------------------------------------==//

#include "support/CodeBuffer.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sys/mman.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/syscall.h>
#ifndef MFD_CLOEXEC
#define MFD_CLOEXEC 0x0001U
#endif
#endif

using namespace tcc;

std::size_t tcc::hostICacheSize() {
  // Queried once behind a once_flag: sysconf is cheap but not guaranteed
  // reentrant-safe on every libc, and concurrent compile threads hit this
  // on every Randomized-placement region.
  static std::once_flag Once;
  static std::size_t Cached;
  std::call_once(Once, [] {
    Cached = 32 * 1024; // Plausible L1i default.
#ifdef _SC_LEVEL1_ICACHE_SIZE
    long Sz = ::sysconf(_SC_LEVEL1_ICACHE_SIZE);
    if (Sz > 0)
      Cached = static_cast<std::size_t>(Sz);
#endif
  });
  return Cached;
}

static std::size_t pageSize() {
  static const std::size_t PS = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return PS;
}

CodeRegion::CodeRegion(std::size_t Cap, CodePlacement Placement, bool DualMap)
    : Placement(Placement) {
  assert(Cap > 0 && "empty code region");
  std::size_t Offset = 0;
  if (Placement == CodePlacement::Randomized) {
    // The paper chooses the start address "randomly modulo the cache size".
    // Keep 16-byte alignment for the entry point.
    std::size_t ICache = hostICacheSize();
    Offset = (static_cast<std::size_t>(std::rand()) % ICache) & ~std::size_t(15);
  }
  MappingSize = (Offset + Cap + pageSize() - 1) & ~(pageSize() - 1);
  if (DualMap) {
#ifdef __linux__
    int Fd = static_cast<int>(
        ::syscall(SYS_memfd_create, "tickc-code", MFD_CLOEXEC));
    if (Fd >= 0) {
      if (::ftruncate(Fd, static_cast<off_t>(MappingSize)) == 0) {
        void *W = ::mmap(nullptr, MappingSize, PROT_READ | PROT_WRITE,
                         MAP_SHARED, Fd, 0);
        void *X = W != MAP_FAILED
                      ? ::mmap(nullptr, MappingSize, PROT_READ | PROT_EXEC,
                               MAP_SHARED, Fd, 0)
                      : MAP_FAILED;
        if (X != MAP_FAILED) {
          // Both views alias the same pages; the fd can go away now.
          ::close(Fd);
          Mapping = static_cast<std::uint8_t *>(W);
          ExecMapping = static_cast<std::uint8_t *>(X);
          Base = Mapping + Offset;
          Capacity = Cap;
          return;
        }
        if (W != MAP_FAILED)
          ::munmap(W, MappingSize);
      }
      ::close(Fd);
    }
#endif
    // No memfd (old kernel, seccomp): fall through to the W^X single
    // mapping — correct, just two mprotects per compile slower.
  }
  void *Mem = ::mmap(nullptr, MappingSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    reportFatalError("mmap of code region failed");
  Mapping = static_cast<std::uint8_t *>(Mem);
  Base = Mapping + Offset;
  Capacity = Cap;
}

CodeRegion::~CodeRegion() {
  if (Mapping)
    ::munmap(Mapping, MappingSize);
  if (ExecMapping)
    ::munmap(ExecMapping, MappingSize);
}

void CodeRegion::makeExecutable() {
  if (Executable)
    return;
  if (ExecMapping) {
    // The exec alias has been executable since mmap; nothing to flip. No
    // icache sync is needed on x86-64, and the caller publishing the entry
    // pointer orders the code stores for other threads.
    Executable = true;
    return;
  }
  obs::Phase Span(obs::EventKind::ICacheFlush);
  if (::mprotect(Mapping, MappingSize, PROT_READ | PROT_EXEC) != 0)
    reportFatalError("mprotect(PROT_EXEC) on code region failed");
  Executable = true;
}

void CodeRegion::makeWritable() {
  if (!Executable)
    return;
  if (ExecMapping) {
    Executable = false;
    return;
  }
  if (::mprotect(Mapping, MappingSize, PROT_READ | PROT_WRITE) != 0)
    reportFatalError("mprotect(PROT_WRITE) on code region failed");
  Executable = false;
}

void RegionReleaser::operator()(CodeRegion *R) const {
  if (!R)
    return;
  if (Pool)
    Pool->release(R);
  else
    delete R;
}

namespace {

/// Global registry mirrors of the per-pool counters (cumulative across all
/// RegionPool instances). Resolved once; bumped with relaxed adds.
struct PoolMetrics {
  obs::Counter &Reused;
  obs::Counter &Mapped;
  obs::Counter &Dropped;
  static PoolMetrics &get() {
    static PoolMetrics PM{
        obs::MetricsRegistry::global().counter(obs::names::PoolReused),
        obs::MetricsRegistry::global().counter(obs::names::PoolMapped),
        obs::MetricsRegistry::global().counter(obs::names::PoolDropped)};
    return PM;
  }
};

} // namespace

PooledRegion RegionPool::acquire(std::size_t Capacity,
                                 CodePlacement Placement) {
  obs::Phase Span(obs::EventKind::RegionAcquire);
  {
    std::lock_guard<std::mutex> G(M);
    // First fit: freelist order is release order, so a hot compile loop
    // keeps reusing the same (cache-warm) mapping.
    for (auto It = Free.begin(); It != Free.end(); ++It) {
      CodeRegion *R = It->get();
      if (R->capacity() >= Capacity && R->placement() == Placement) {
        Stats.FreeBytes -= R->mappingBytes();
        ++Stats.Reused;
        It->release();
        Free.erase(It);
        PoolMetrics::get().Reused.inc();
        return PooledRegion(R, RegionReleaser{this});
      }
    }
    ++Stats.Mapped;
  }
  PoolMetrics::get().Mapped.inc();
  // Pool-owned regions are dual-mapped: their whole point is the hot
  // compile loop, and the alias makes finalize + release syscall-free.
  return PooledRegion(new CodeRegion(Capacity, Placement, /*DualMap=*/true),
                      RegionReleaser{this});
}

PooledRegion RegionPool::acquireLoaded(const std::uint8_t *Bytes,
                                       std::size_t Len,
                                       CodePlacement Placement) {
  assert(Bytes && Len && "loading empty code bytes");
  PooledRegion R = acquire(Len, Placement);
  std::memcpy(R->base(), Bytes, Len);
  return R;
}

void RegionPool::release(CodeRegion *R) {
  obs::Phase Span(obs::EventKind::RegionRelease);
  // Flip writable outside the lock: it is an mprotect syscall, and the
  // region is exclusively owned here.
  R->makeWritable();
  {
    std::lock_guard<std::mutex> G(M);
    if (Stats.FreeBytes + R->mappingBytes() <= MaxFreeBytes) {
      Stats.FreeBytes += R->mappingBytes();
      Free.emplace_back(R);
      return;
    }
    ++Stats.Dropped;
  }
  PoolMetrics::get().Dropped.inc();
  delete R;
}

RegionPoolStats RegionPool::stats() const {
  std::lock_guard<std::mutex> G(M);
  return Stats;
}

void RegionPool::clear() {
  std::vector<std::unique_ptr<CodeRegion>> Doomed;
  {
    std::lock_guard<std::mutex> G(M);
    Doomed.swap(Free);
    Stats.FreeBytes = 0;
  }
  // Unmap outside the lock.
  Doomed.clear();
}
