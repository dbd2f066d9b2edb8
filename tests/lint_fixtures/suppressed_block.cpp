// Fixture: a justified suppression in a two-line comment block directly
// above a direct allocation. Expected findings: none — a suppression inside
// a block of comment-only lines moves to the first line below the block,
// so the justification above the leaf covers it.
#define PPROX_HOT

namespace fixture {

struct Buf {
  char* data = nullptr;
};

PPROX_HOT void hot_block_justified(Buf& b) {
  // PPROX-HOTPATH-OK(alloc): one-time warmup buffer, sized once and
  // freed at shutdown; every later call reuses it
  b.data = new char[64];
}

}  // namespace fixture
