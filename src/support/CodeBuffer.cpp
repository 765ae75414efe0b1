//===- support/CodeBuffer.cpp ---------------------------------------------==//

#include "support/CodeBuffer.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Error.h"
#include "support/Timing.h"

#include <cassert>
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
  // on every Randomized-placement install.
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

CodeRegion::CodeRegion(std::size_t Cap) {
  assert(Cap > 0 && "empty code region");
  Capacity = (Cap + pageSize() - 1) & ~(pageSize() - 1);
  void *Mem = ::mmap(nullptr, Capacity, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED)
    reportFatalError("mmap of code region failed");
  Mapping = static_cast<std::uint8_t *>(Mem);
}

CodeRegion::~CodeRegion() { ::munmap(Mapping, Capacity); }

void CodeRegion::makeExecutable() {
  if (Executable)
    return;
  obs::Phase Span(obs::EventKind::ICacheFlush);
  if (::mprotect(Mapping, Capacity, PROT_READ | PROT_EXEC) != 0)
    reportFatalError("mprotect(PROT_EXEC) on code region failed");
  Executable = true;
}

void CodeRegion::makeWritable() {
  if (!Executable)
    return;
  if (::mprotect(Mapping, Capacity, PROT_READ | PROT_WRITE) != 0)
    reportFatalError("mprotect(PROT_WRITE) on code region failed");
  Executable = false;
}

//===----------------------------------------------------------------------===//
// CodeHeap
//===----------------------------------------------------------------------===//

namespace {

/// Registry mirrors of the heap's counters, resolved once.
struct HeapMetrics {
  obs::Counter &Chunks, &Fresh, &Reused, &Freed;
  static HeapMetrics &get() {
    auto &R = obs::MetricsRegistry::global();
    static HeapMetrics HM{R.counter(obs::names::HeapChunks),
                          R.counter(obs::names::HeapFresh),
                          R.counter(obs::names::HeapReused),
                          R.counter(obs::names::HeapFreed)};
    return HM;
  }
};

/// Size class of a block of \p Units 64-byte granules: one class per
/// granule up to 64, then four per doubling, each rounding up by at most a
/// quarter.
unsigned classOf(std::size_t Units) {
  if (Units <= 64)
    return static_cast<unsigned>(Units) - 1;
  unsigned E = 63u - static_cast<unsigned>(__builtin_clzll(Units - 1));
  std::size_t Step = std::size_t(1) << (E - 2); // 2^E < Units <= 2^(E+1)
  return 64 + (E - 6) * 4 +
         static_cast<unsigned>((Units + Step - 1) / Step) - 5;
}

/// Granules in a block of class \p C (inverse of classOf).
std::size_t classUnits(unsigned C) {
  if (C < 64)
    return C + 1;
  unsigned E = 6 + (C - 64) / 4;
  return std::size_t(5 + (C - 64) % 4) << (E - 2);
}

/// Randomized-placement pad, drawn from a private per-thread generator:
/// std::rand() would perturb the host program's own random sequence.
std::size_t randomPad() {
  thread_local std::uint64_t S = 0;
  if (!S)
    S = (readCycleCounter() ^ reinterpret_cast<std::uintptr_t>(&S)) | 1;
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return static_cast<std::size_t>(S % hostICacheSize()) & ~std::size_t(15);
}

} // namespace

CodeHeap &CodeHeap::global() {
  // Leaked on purpose: functions destroyed during static destruction still
  // return their blocks here, and no destruction order can unmap code a
  // running thread may still be executing.
  static CodeHeap *H = new CodeHeap();
  return *H;
}

CodeHeap::Views CodeHeap::mapChunk(std::size_t Bytes) {
  int Fd = -1;
#ifdef __linux__
  Fd = static_cast<int>(::syscall(SYS_memfd_create, "tickc-code", MFD_CLOEXEC));
#endif
  if (Fd < 0)
    reportFatalError("code heap: memfd_create failed");
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) != 0)
    reportFatalError("code heap: ftruncate of a chunk failed");
  void *W = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  void *X = ::mmap(nullptr, Bytes, PROT_READ | PROT_EXEC, MAP_SHARED, Fd, 0);
  if (W == MAP_FAILED || X == MAP_FAILED)
    reportFatalError("code heap: mmap of a chunk failed");
  // Both views alias the same pages; the fd can go away now.
  ::close(Fd);
  return {static_cast<std::uint8_t *>(W), static_cast<std::uint8_t *>(X)};
}

CodeBlock CodeHeap::install(const std::uint8_t *Bytes, std::size_t Len,
                            CodePlacement Placement) {
  assert(Bytes && Len && "installing empty code");
  obs::Phase Span(obs::EventKind::CodeInstall);
  std::size_t Pad = Placement == CodePlacement::Randomized ? randomPad() : 0;
  std::size_t Units = (Pad + Len + BlockAlign - 1) / BlockAlign;
  if (Units >= classUnits(NumClasses - 1))
    reportFatalError("code block larger than the code heap's largest class");
  CodeBlock B;
  B.Class = static_cast<std::uint16_t>(classOf(Units));
  B.Len = static_cast<std::uint32_t>(Len);
  B.Pad = static_cast<std::uint32_t>(Pad);
  std::size_t Size = classUnits(B.Class) * BlockAlign;
  bool Reused = false, Mapped = false;
  {
    support::MutexLock G(M);
    std::vector<Views> &FL = Free[B.Class];
    if (!FL.empty()) {
      B.W = FL.back().W;
      B.X = FL.back().X;
      FL.pop_back();
      ++Stats.Reused;
      Reused = true;
    } else {
      // A block too big to share a chunk gets its own; otherwise carve from
      // the newest chunk, starting a new one when it runs short (the short
      // tail stays unused).
      bool Own = Size > ChunkBytes / 4;
      if (Own || Size > static_cast<std::size_t>(End - Cur.W)) {
        std::size_t Bytes =
            Own ? (Size + pageSize() - 1) & ~(pageSize() - 1) : ChunkBytes;
        Views C = mapChunk(Bytes);
        ++Stats.Chunks;
        Mapped = true;
        if (Own) {
          B.W = C.W;
          B.X = C.X;
        } else {
          Cur = C;
          End = C.W + Bytes;
        }
      }
      if (!B.W) {
        B.W = Cur.W;
        B.X = Cur.X;
        Cur.W += Size;
        Cur.X += Size;
      }
      ++Stats.Fresh;
    }
    Stats.LiveBytes += Size;
  }
  HeapMetrics &HM = HeapMetrics::get();
  (Reused ? HM.Reused : HM.Fresh).inc();
  if (Mapped)
    HM.Chunks.inc();
  std::memcpy(B.code(), Bytes, Len);
  return B;
}

void CodeHeap::release(CodeBlock &B) {
  obs::Phase Span(obs::EventKind::CodeFree);
  // Scrub before the block is shared again: nothing the dead function held
  // (a rejected snapshot record's hostile bytes included) stays mapped
  // executable. Whole pages go back to the kernel and read as zeros on
  // reuse; the partial pages at either end, shared with neighbouring
  // blocks, are filled with int3.
  std::size_t Size = classUnits(B.Class) * BlockAlign;
  std::uintptr_t Lo = reinterpret_cast<std::uintptr_t>(B.W);
  std::uintptr_t Hi = Lo + Size;
  std::uintptr_t PLo = (Lo + pageSize() - 1) & ~(pageSize() - 1);
  std::uintptr_t PHi = Hi & ~(pageSize() - 1);
  if (PLo < PHi && ::madvise(reinterpret_cast<void *>(PLo), PHi - PLo,
                             MADV_REMOVE) == 0) {
    std::memset(B.W, 0xCC, PLo - Lo);
    std::memset(reinterpret_cast<void *>(PHi), 0xCC, Hi - PHi);
  } else {
    std::memset(B.W, 0xCC, Size);
  }
  {
    support::MutexLock G(M);
    Free[B.Class].push_back({B.W, B.X});
    ++Stats.Freed;
    Stats.LiveBytes -= Size;
  }
  HeapMetrics::get().Freed.inc();
}

CodeHeapStats CodeHeap::stats() const {
  support::MutexLock G(M);
  return Stats;
}

CodeBlock &CodeBlock::operator=(CodeBlock &&O) noexcept {
  if (this != &O) {
    if (W)
      CodeHeap::global().release(*this);
    W = O.W;
    X = O.X;
    Len = O.Len;
    Pad = O.Pad;
    Class = O.Class;
    O.W = O.X = nullptr;
    O.Len = O.Pad = 0;
  }
  return *this;
}

CodeBlock::~CodeBlock() {
  if (W)
    CodeHeap::global().release(*this);
}
