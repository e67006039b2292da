#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "dbg/lock_rank.h"
#include "util/env.h"
#include "util/rng.h"

namespace qppt::fail {
namespace {

struct Entry {
  FailConfig config;
  uint64_t hits = 0;
};

// The registry: cold by construction (tests arm a handful of tags; the
// disarmed fast path never gets here). One mutex at the innermost rank —
// a failpoint may fire while its caller holds any other ranked mutex
// (commit_publish runs under the database write lock).
struct Registry {
  std::mutex mu;
  std::map<std::string, Entry> entries;
  Rng rng{static_cast<uint64_t>(
      GetEnvInt64("QPPT_FAILPOINTS_SEED", 0x5eedfa11))};

  static Registry& Get() {
    static Registry r;
    return r;
  }
};

// Looks up `tag` and decides whether it triggers this evaluation
// (probability draw + remaining count). On trigger, copies the config
// out and bumps the hit counter.
bool Trigger(const char* tag, FailConfig* out) {
  Registry& reg = Registry::Get();
  dbg::RankedLockGuard lock(dbg::LockRank::kFailpoint, reg.mu);
  auto it = reg.entries.find(tag);
  if (it == reg.entries.end()) return false;
  Entry& e = it->second;
  if (e.config.count == 0) return false;
  if (e.config.probability < 1.0 &&
      reg.rng.NextDouble() >= e.config.probability) {
    return false;
  }
  if (e.config.count > 0) --e.config.count;
  ++e.hits;
  *out = e.config;
  return true;
}

Status InjectedStatus(const char* tag, const FailConfig& config) {
  std::string msg = config.message.empty()
                        ? ("injected fault at failpoint " + std::string(tag))
                        : config.message;
  return {config.code, std::move(msg)};
}

}  // namespace

namespace internal {

std::atomic<int> g_armed_count{0};

Status Evaluate(const char* tag) {
  FailConfig config;
  if (!Trigger(tag, &config)) return Status::OK();
  switch (config.action) {
    case Action::kStatus:
      return InjectedStatus(tag, config);
    case Action::kThrow:
      throw InjectedFault(InjectedStatus(tag, config));
    case Action::kBadAlloc:
      throw std::bad_alloc();
    case Action::kSleep:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config.sleep_ms));
      return Status::OK();
  }
  return Status::OK();
}

void Hit(const char* tag) {
  Status st = Evaluate(tag);
  if (!st.ok()) throw InjectedFault(std::move(st));
}

}  // namespace internal

bool Enabled() {
#if defined(QPPT_FAILPOINTS)
  return true;
#else
  return false;
#endif
}

void Arm(const std::string& tag, FailConfig config) {
  Registry& reg = Registry::Get();
  dbg::RankedLockGuard lock(dbg::LockRank::kFailpoint, reg.mu);
  auto [it, inserted] = reg.entries.insert_or_assign(tag, Entry{config, 0});
  (void)it;
  if (inserted) {
    // relaxed: the count only gates the fast path; the registry mutex
    // orders the actual config data.
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void Disarm(const std::string& tag) {
  Registry& reg = Registry::Get();
  dbg::RankedLockGuard lock(dbg::LockRank::kFailpoint, reg.mu);
  if (reg.entries.erase(tag) != 0) {
    // relaxed: fast-path gate only; config data is mutex-ordered.
    internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& reg = Registry::Get();
  dbg::RankedLockGuard lock(dbg::LockRank::kFailpoint, reg.mu);
  // relaxed: fast-path gate only; config data is mutex-ordered.
  internal::g_armed_count.fetch_sub(static_cast<int>(reg.entries.size()),
                                    std::memory_order_relaxed);
  reg.entries.clear();
}

uint64_t HitCount(const std::string& tag) {
  Registry& reg = Registry::Get();
  dbg::RankedLockGuard lock(dbg::LockRank::kFailpoint, reg.mu);
  auto it = reg.entries.find(tag);
  return it == reg.entries.end() ? 0 : it->second.hits;
}

namespace {

// One `tag=action[(arg)][@prob][:count]` entry.
Status ParseEntry(const std::string& entry) {
  size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("QPPT_FAILPOINTS entry '" + entry +
                                   "': expected tag=action");
  }
  std::string tag = entry.substr(0, eq);
  std::string spec = entry.substr(eq + 1);

  FailConfig config;
  // Suffixes live after the optional "(arg)" — with no parenthesis,
  // rfind(')') is npos (greater than every index), so anchor at 0.
  size_t close = spec.rfind(')');
  if (close == std::string::npos) close = 0;
  // Trailing ":count".
  size_t colon = spec.rfind(':');
  if (colon != std::string::npos && colon > close) {
    config.count = std::atoi(spec.c_str() + colon + 1);
    if (config.count <= 0) {
      return Status::InvalidArgument("QPPT_FAILPOINTS entry '" + entry +
                                     "': count must be a positive integer");
    }
    spec.resize(colon);
  }
  // Trailing "@probability".
  size_t at = spec.rfind('@');
  if (at != std::string::npos && at > close) {
    config.probability = std::atof(spec.c_str() + at + 1);
    if (config.probability <= 0.0 || config.probability > 1.0) {
      return Status::InvalidArgument("QPPT_FAILPOINTS entry '" + entry +
                                     "': probability must be in (0, 1]");
    }
    spec.resize(at);
  }
  // "action" or "action(arg)".
  std::string action = spec;
  std::string arg;
  size_t open = spec.find('(');
  if (open != std::string::npos) {
    if (spec.back() != ')') {
      return Status::InvalidArgument("QPPT_FAILPOINTS entry '" + entry +
                                     "': unbalanced parenthesis");
    }
    action = spec.substr(0, open);
    arg = spec.substr(open + 1, spec.size() - open - 2);
  }

  if (action == "status") {
    config.action = Action::kStatus;
    if (arg.empty() || arg == "internal") {
      config.code = StatusCode::kInternal;
    } else if (arg == "io") {
      config.code = StatusCode::kIOError;
    } else if (arg == "resource_exhausted") {
      config.code = StatusCode::kResourceExhausted;
    } else if (arg == "cancelled") {
      config.code = StatusCode::kCancelled;
    } else {
      return Status::InvalidArgument("QPPT_FAILPOINTS entry '" + entry +
                                     "': unknown status code '" + arg + "'");
    }
  } else if (action == "throw") {
    config.action = Action::kThrow;
  } else if (action == "badalloc") {
    config.action = Action::kBadAlloc;
  } else if (action == "sleep") {
    config.action = Action::kSleep;
    config.sleep_ms = arg.empty() ? 1.0 : std::atof(arg.c_str());
  } else {
    return Status::InvalidArgument("QPPT_FAILPOINTS entry '" + entry +
                                   "': unknown action '" + action + "'");
  }

  Arm(tag, config);
  return Status::OK();
}

}  // namespace

Status ArmFromEnv() {
  std::string spec = GetEnvString("QPPT_FAILPOINTS", "");
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > pos) {
      QPPT_RETURN_NOT_OK(ParseEntry(spec.substr(pos, comma - pos)));
    }
    pos = comma + 1;
  }
  return Status::OK();
}

}  // namespace qppt::fail
