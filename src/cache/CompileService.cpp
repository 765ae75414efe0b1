//===- cache/CompileService.cpp - Memoized instantiation ------------------==//

#include "cache/CompileService.h"

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
  if (Opts.Name && *Opts.Name)
    std::snprintf(Buf, sizeof(Buf), "%s#%08llx", Opts.Name,
                  static_cast<unsigned long long>(K.Hash & 0xFFFFFFFFu));
  else
    std::snprintf(Buf, sizeof(Buf), "spec-%016llx",
                  static_cast<unsigned long long>(K.Hash));
  Opts.Name = Buf;
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

  // Single flight: the first caller to miss K holds its claim and
  // produces the function; concurrent callers for K sleep in acquire()
  // until it is published, instead of burning a duplicate compile each.
  CodeCache::Claim Claim;
  if (FnHandle H = Cache.acquire(K, Claim))
    return H;
  nameSymbol(Opts, K, SymBuf);
  if (!Snap)
    return Cache.publish(Claim, compileFn(Ctx, Body, RetType, Opts));
  // Warm-start path: the on-disk snapshot is probed before paying for a
  // compile. The request's own key is the record key: its bytes are
  // address-independent and its Refs re-point the record's captured
  // addresses.
  if (core::CompiledFn L = Snap->tryLoad(K, Opts); L.valid())
    return Cache.publish(Claim, std::move(L));
  // Teach the snapshot the compile it could not serve.
  support::RelocTable Relocs;
  CompileOptions SaveOpts = Opts;
  SaveOpts.Relocs = &Relocs;
  core::CompiledFn F = compileFn(Ctx, Body, RetType, SaveOpts);
  Snap->trySave(K, F, Relocs);
  return Cache.publish(Claim, std::move(F));
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
