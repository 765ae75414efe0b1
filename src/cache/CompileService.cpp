//===- cache/CompileService.cpp - Memoized instantiation ------------------==//

#include "cache/CompileService.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "persist/Snapshot.h"
#include "support/Env.h"
#include "support/Reloc.h"

#include <cstdio>
#include <cstdlib>

using namespace tcc;
using namespace tcc::cache;
using namespace tcc::core;

ServiceConfig ServiceConfig::fromEnv() {
  ServiceConfig C;
  C.MaxCodeBytes = static_cast<std::size_t>(
      envUInt64("TICKC_CACHE_BYTES", C.MaxCodeBytes));
  if (const char *Dir = std::getenv("TICKC_SNAPSHOT_DIR"))
    C.SnapshotDir = Dir;
  C.SnapshotCompactBytes = static_cast<std::size_t>(
      envUInt64("TICKC_SNAPSHOT_COMPACT", C.SnapshotCompactBytes));
  C.SnapshotBudgetBytes = static_cast<std::size_t>(
      envUInt64("TICKC_SNAPSHOT_BUDGET", C.SnapshotBudgetBytes));
  C.SnapshotTtlSec = envUInt64("TICKC_SNAPSHOT_TTL", C.SnapshotTtlSec);
  return C;
}

CompileService::CompileService(ServiceConfig Config)
    : Config(Config), Cache(Config.Shards, Config.MaxCodeBytes) {
  if (!this->Config.SnapshotDir.empty())
    Snap = persist::SnapshotCache::open(this->Config.SnapshotDir,
                                        this->Config.SnapshotCompactBytes,
                                        this->Config.SnapshotBudgetBytes,
                                        this->Config.SnapshotTtlSec);
}

CompileService::~CompileService() = default;

/// Names the runtime symbol after the spec's identity hash (which covers
/// the captured addresses), so perf/flamegraph frames distinguish
/// specializations of one source function — over different captured
/// buffers too. Only paths that compile or load call this; a cache hit
/// never formats a name. \p Buf must outlive the compile; compileFn copies
/// the name into the symbol table.
static void nameSymbol(CompileOptions &Opts, const SpecKey &K,
                       char (&Buf)[64]) {
  if (Opts.SymbolName)
    return;
  if (Opts.ProfileName && *Opts.ProfileName)
    std::snprintf(Buf, sizeof(Buf), "%s#%08llx", Opts.ProfileName,
                  static_cast<unsigned long long>(K.Hash & 0xFFFFFFFFu));
  else
    std::snprintf(Buf, sizeof(Buf), "spec-%016llx",
                  static_cast<unsigned long long>(K.Hash));
  Opts.SymbolName = Buf;
}

FnHandle CompileService::getOrCompile(Context &Ctx, Stmt Body,
                                      EvalType RetType, CompileOptions Opts) {
  return getOrCompileKeyed(Ctx, Body, RetType, Opts,
                           buildSpecKey(Ctx, Body, RetType, Opts));
}

FnHandle CompileService::getOrCompileKeyed(Context &Ctx, Stmt Body,
                                           EvalType RetType,
                                           CompileOptions Opts,
                                           const SpecKey &K) {
  char SymBuf[64];
  if (!K.Cacheable) {
    nameSymbol(Opts, K, SymBuf);
    return std::make_shared<CompiledFn>(compileFn(Ctx, Body, RetType, Opts));
  }

  if (FnHandle H = Cache.lookup(K))
    return H;

  // Single-flight: the first thread to miss a key becomes its leader and
  // compiles; concurrent missers block on the leader's result instead of
  // burning a full duplicate compile each.
  std::shared_ptr<InFlightCompile> Fl;
  bool Leader = false;
  {
    support::MutexLock G(InFlightM);
    auto It = InFlight.find(K);
    if (It != InFlight.end()) {
      Fl = It->second;
    } else {
      Fl = std::make_shared<InFlightCompile>();
      InFlight.emplace(K, Fl);
      Leader = true;
    }
  }

  if (!Leader) {
    static obs::Counter &Waits =
        obs::MetricsRegistry::global().counter(obs::names::CacheSingleflightWait);
    Waits.inc();
    support::MutexLock L(Fl->M);
    while (!Fl->Done)
      Fl->CV.wait(Fl->M);
    return Fl->Result;
  }

  // The leader may have won the in-flight slot just after a previous
  // leader published its result and retired; re-probe before compiling.
  FnHandle H = Cache.lookup(K);
  if (!H) {
    nameSymbol(Opts, K, SymBuf);
    if (!Snap) {
      H = Cache.insert(K, compileFn(Ctx, Body, RetType, Opts));
    } else if (core::CompiledFn L = Snap->tryLoad(K, Opts); L.valid()) {
      // Warm-start path: the on-disk snapshot is probed before paying for
      // a compile. The request's own key is the record key: its bytes are
      // address-independent and its Refs re-point the record's captured
      // addresses.
      H = Cache.insert(K, std::move(L));
    } else {
      // Teach the snapshot the compile it could not serve.
      support::RelocTable Relocs;
      CompileOptions SaveOpts = Opts;
      SaveOpts.Relocs = &Relocs;
      core::CompiledFn F = compileFn(Ctx, Body, RetType, SaveOpts);
      Snap->trySave(K, F, Relocs);
      H = Cache.insert(K, std::move(F));
    }
  }
  {
    // Retire the flight before publishing: the cache already holds the
    // entry, so late arrivals that miss the flight re-probe and hit.
    support::MutexLock G(InFlightM);
    InFlight.erase(K);
  }
  {
    support::MutexLock L(Fl->M);
    Fl->Done = true;
    Fl->Result = H;
  }
  Fl->CV.notify_all();
  return H;
}

FnHandle CompileService::lookup(const SpecKey &K) {
  if (!K.Cacheable)
    return nullptr;
  return Cache.lookup(K);
}

CompileService &CompileService::instance() {
  static CompileService S(ServiceConfig::fromEnv());
  return S;
}
