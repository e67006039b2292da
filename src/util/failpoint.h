// Deterministic fault injection.
//
// A failpoint is a named hook compiled into a choke point (allocation
// growth, partial-output merges, commit publish, ...) that does nothing
// until a test arms it. Armed, it can surface a Status, throw, simulate
// allocation failure, or sleep — optionally probabilistically (seeded
// RNG, reproducible across runs) and for a bounded number of triggers.
//
// Usage at a choke point:
//
//   QPPT_FAILPOINT(arena_grow);            // throwing context: may throw
//                                          // InjectedFault / bad_alloc /
//                                          // sleep in place
//   QPPT_FAILPOINT_STATUS(commit_publish); // Status-returning function:
//                                          // `return`s the injected error
//
// Arming, from a test:
//
//   fail::Arm("commit_publish",
//             {fail::Action::kStatus, StatusCode::kIOError, "disk full"});
//   ... exercise ...
//   fail::DisarmAll();
//
// or from the environment (parsed once via fail::ArmFromEnv, which the
// first EngineRunner construction in a process applies automatically):
//
//   QPPT_FAILPOINTS=arena_grow=badalloc:1,merge_partial=status(io)@0.5
//
// Syntax per entry: tag=action[(arg)][@probability][:count] where action
// is status[(code)] | throw | badalloc | sleep(ms); probability defaults
// to 1.0 (seeded by QPPT_FAILPOINTS_SEED) and count to unlimited.
//
// Every tag must be listed in scripts/analyze/failpoints.txt — the lint
// pass rejects unknown and unused tags, so the catalogue is the live
// inventory of injectable faults.
//
// Cost: the macros compile to nothing unless the build enables
// QPPT_FAILPOINTS (Debug and sanitizer builds by default — same policy
// as QPPT_DBG_INVARIANTS; plain Release stays clean). In enabled builds
// the disarmed fast path is one relaxed atomic load and branch.

#ifndef QPPT_UTIL_FAILPOINT_H_
#define QPPT_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/cancel.h"
#include "util/status.h"

namespace qppt::fail {

// Thrown by failpoints armed with Action::kThrow (and by kStatus
// failpoints hit in a throwing context); carries the injected Status.
class InjectedFault : public StatusException {
 public:
  using StatusException::StatusException;
};

enum class Action {
  kStatus,    // surface Status(code, message)
  kThrow,     // throw InjectedFault(Status(code, message))
  kBadAlloc,  // throw std::bad_alloc — simulated allocation failure
  kSleep,     // sleep sleep_ms — simulated stall (deadline tests)
};

struct FailConfig {
  Action action = Action::kStatus;
  StatusCode code = StatusCode::kInternal;
  std::string message;
  // Remaining triggers; -1 = unlimited. Each actual trigger (probability
  // check passed) decrements; at zero the failpoint stops firing but
  // stays registered for HitCount.
  int count = -1;
  // Chance each evaluation triggers, in [0, 1]. Drawn from a process-wide
  // RNG seeded by QPPT_FAILPOINTS_SEED (default fixed), so a given seed
  // reproduces the same trigger sequence.
  double probability = 1.0;
  double sleep_ms = 0;
};

// True when the build compiles failpoints in (QPPT_FAILPOINTS).
bool Enabled();

// Registers/overwrites the failpoint `tag`. Resets its hit count.
void Arm(const std::string& tag, FailConfig config);

// Unregisters one tag / all tags. Safe when not armed.
void Disarm(const std::string& tag);
void DisarmAll();

// Times `tag` actually triggered since last armed.
uint64_t HitCount(const std::string& tag);

// Parses QPPT_FAILPOINTS (see header comment) and arms each entry.
// Returns InvalidArgument on malformed syntax; unset/empty is OK.
Status ArmFromEnv();

namespace internal {

extern std::atomic<int> g_armed_count;

inline bool AnyArmed() {
  // relaxed: the armed count is a pure fast-path gate; a stale read only
  // delays/advances injection by one evaluation, and tests arm failpoints
  // before starting the threads that hit them.
  return g_armed_count.load(std::memory_order_relaxed) != 0;
}

// Slow paths behind AnyArmed(): evaluate `tag`, act. Evaluate() throws
// for kThrow/kBadAlloc, sleeps for kSleep, and returns the injected
// Status for kStatus; Hit() converts that Status to InjectedFault since
// its context cannot return one.
Status Evaluate(const char* tag);
void Hit(const char* tag);

}  // namespace internal

}  // namespace qppt::fail

#if defined(QPPT_FAILPOINTS)

// Throwing/void context: injected Status faults become InjectedFault.
#define QPPT_FAILPOINT(tag)                                \
  do {                                                     \
    if (::qppt::fail::internal::AnyArmed()) {              \
      ::qppt::fail::internal::Hit(#tag);                   \
    }                                                      \
  } while (0)

// Status-returning context: injected Status faults return from the
// enclosing function.
#define QPPT_FAILPOINT_STATUS(tag)                         \
  do {                                                     \
    if (::qppt::fail::internal::AnyArmed()) {              \
      ::qppt::Status _fp_st =                              \
          ::qppt::fail::internal::Evaluate(#tag);          \
      if (!_fp_st.ok()) return _fp_st;                     \
    }                                                      \
  } while (0)

#else

#define QPPT_FAILPOINT(tag) \
  do {                      \
  } while (0)
#define QPPT_FAILPOINT_STATUS(tag) \
  do {                             \
  } while (0)

#endif  // QPPT_FAILPOINTS

#endif  // QPPT_UTIL_FAILPOINT_H_
