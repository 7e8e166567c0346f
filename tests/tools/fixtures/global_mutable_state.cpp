/**
 * @file
 * tglint fixture: mutable state shared by every Cluster in the process.
 * Three findings fire (namespace-scope variable, function-local static,
 * static data member); const / constexpr / thread_local declarations
 * pass, and allow() — on the line above or on the same line — silences
 * the rest.
 */

#include <cstdint>

namespace tg::sim {

int g_eventsFired = 0; // global-mutable-state

const int kLimit = 64;            // const: clean
constexpr std::uint64_t kMask = 0xff; // constexpr: clean
thread_local int tl_depth = 0;    // per-thread by construction: clean

// tglint: allow(global-mutable-state)  fixture exercises allow() form
int g_allowListed = 0;

int g_traceMask = 0; // tglint: allow(global-mutable-state) setup-time only

std::uint64_t
nextSeq()
{
    static std::uint64_t seq = 0; // global-mutable-state
    return ++seq;
}

class Pool
{
  public:
    static inline int liveBlocks = 0; // global-mutable-state

  private:
    int _unused = 0;
};

} // namespace tg::sim
