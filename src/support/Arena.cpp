//===- support/Arena.cpp --------------------------------------------------==//

#include "support/Arena.h"

#include "support/Error.h"

#include <cassert>
#include <cstdlib>

using namespace tcc;

Arena::Arena(std::size_t SlabBytes) : SlabBytes(SlabBytes) {
  assert(SlabBytes >= 1024 && "slab size unreasonably small");
  addSlab(SlabBytes);
}

Arena::~Arena() {
  Slab *S = Head;
  while (S) {
    Slab *Next = S->Next;
    std::free(S);
    S = Next;
  }
}

void Arena::addSlab(std::size_t MinBytes) {
  std::size_t Payload = MinBytes > SlabBytes ? MinBytes : SlabBytes;
  auto *S = static_cast<Slab *>(std::malloc(sizeof(Slab) + Payload));
  if (!S)
    reportFatalError("arena slab allocation failed");
  S->Next = Head;
  S->Size = Payload;
  Head = S;
  Cur = reinterpret_cast<char *>(S) + sizeof(Slab);
  End = Cur + Payload;
  ++NumSlabs;
  ++TotalSystemAllocs;
}

void *Arena::allocateInNewSlab(std::size_t Bytes, std::size_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 && "align must be power of 2");
  addSlab(Bytes + Align);
  return allocate(Bytes, Align);
}

void Arena::reset() {
  if (NumSlabs > 1) {
    // Coalesce: replace the slab chain with one slab big enough for
    // everything the arena held, so the next compile of the same shape
    // bumps a pointer through a single slab and the next reset is free.
    std::size_t Total = 0;
    Slab *S = Head;
    while (S) {
      Total += S->Size;
      Slab *Next = S->Next;
      std::free(S);
      S = Next;
    }
    Head = nullptr;
    NumSlabs = 0;
    addSlab(Total);
  } else {
    Cur = reinterpret_cast<char *>(Head) + sizeof(Slab);
    End = Cur + Head->Size;
  }
  BytesAllocated = 0;
}
