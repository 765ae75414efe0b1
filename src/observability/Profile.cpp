//===- observability/Profile.cpp - Generated-code profiling ---------------===//

#include "observability/Profile.h"

#include <algorithm>

using namespace tcc;
using namespace tcc::obs;

ProfileRegistry &ProfileRegistry::global() {
  // Intentionally leaked: generated code may still run (and CompiledFns
  // still die) during static destruction.
  static ProfileRegistry *R = new ProfileRegistry;
  return *R;
}

std::shared_ptr<ProfileEntry> ProfileRegistry::create(std::string_view Name) {
  auto E = std::make_shared<ProfileEntry>();
  E->Name.assign(Name.begin(), Name.end());
  std::lock_guard<std::mutex> G(M);
  if (Entries.size() >= HighWater) {
    pruneLocked();
    HighWater = std::max(MinHighWater, Entries.size() * 2);
  }
  Entries.emplace_back(E);
  return E;
}

std::size_t ProfileRegistry::pruneLocked() {
  std::size_t Keep = 0;
  for (std::weak_ptr<ProfileEntry> &W : Entries)
    if (!W.expired())
      Entries[Keep++] = std::move(W);
  std::size_t Dropped = Entries.size() - Keep;
  Entries.resize(Keep);
  return Dropped;
}

std::size_t ProfileRegistry::drainExpired() {
  std::lock_guard<std::mutex> G(M);
  return pruneLocked();
}

std::size_t ProfileRegistry::recordCount() {
  std::lock_guard<std::mutex> G(M);
  return Entries.size();
}

std::vector<std::shared_ptr<ProfileEntry>> ProfileRegistry::entries() {
  std::vector<std::shared_ptr<ProfileEntry>> Live;
  std::lock_guard<std::mutex> G(M);
  std::size_t Keep = 0;
  for (std::weak_ptr<ProfileEntry> &W : Entries) {
    if (auto S = W.lock()) {
      Live.push_back(std::move(S));
      Entries[Keep++] = std::move(W);
    }
  }
  Entries.resize(Keep);
  return Live;
}
