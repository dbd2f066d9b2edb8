// PPROX-LAYER: tooling
//
// Negative-compile case: pprox::Mutex is pinned to its address. Copying or
// moving a mutex would silently fork (or orphan) its wait queue — and under
// -DPPROX_MODEL_CHECK would split the det::ObjRecord identity the scheduler
// keys sleep sets on — so both operations are deleted.
#include "common/sync.hpp"

namespace pprox {

Mutex& stationary() {
  static Mutex mu;
  return mu;
}

void use_mutex() {
#ifdef PPROX_VIOLATION
  Mutex copy = stationary();   // copy ctor: deleted
  Mutex moved = Mutex();       // move ctor: deleted
  (void)copy;
  (void)moved;
#else
  LockGuard lock(stationary());  // the blessed way: lock it where it lives
#endif
}

}  // namespace pprox
