// Cooperative cancellation and deadlines for the layout pipeline.
//
// A `CancelToken` is a small shared flag + optional monotonic deadline that a
// controller (the batch engine, a future serving daemon, a test) arms and the
// pipeline's hot phases poll. Cancellation is *cooperative*: nothing is
// killed; a phase that observes a tripped token throws `CancelledError`,
// which unwinds through the RAII obs spans (so traces stay balanced) and is
// converted by the caller into a structured diagnostic — never a hung worker
// and never a torn data structure.
//
// Threading model mirrors obs: instrumentation sites do not take a token
// parameter. A `CancelScope` installs a token thread-locally around a unit of
// work (one engine job, one API request); `poll_cancellation("phase")` at
// loop checkpoints is a single thread-local load and branch when no token is
// installed — the same null-sink fast path that keeps the obs spans
// benchmark-neutral. When a token *is* installed, the explicit-cancel flag is
// checked every call but the monotonic clock only every `kPollStride` calls,
// so a deadline costs one `steady_clock::now()` per few hundred grid points.
//
// Tokens form a tree: a child constructed with a parent observes the
// parent's cancellation (sweep deadline) in addition to its own (job
// deadline). Tokens are armed before workers start and never re-armed, so
// plain atomics suffice.
//
// Memory-order contract (audited; see DESIGN.md §7.10): `tripped_` is a
// release/acquire latch — the writer stores `reason_` relaxed *before* the
// release store of `tripped_`, and a reader that acquire-loads `tripped_ ==
// true` is therefore guaranteed to see that reason; no other data is
// published through the token, so nothing stronger is needed. `reason_`
// itself only ever holds string literals (static storage), so the pointer
// is the whole payload. The deadline fields are deliberately *not* atomic:
// `set_deadline_after_ms` must happen-before the token is shared (the
// engine arms tokens before spawning or handing work to workers), after
// which they are read-only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mlvl {

/// Thrown by a pipeline phase that observes a tripped CancelToken.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(const char* phase, const char* reason)
      : std::runtime_error(std::string(reason) + " in phase " + phase),
        phase_(phase),
        reason_(reason) {}
  /// Phase checkpoint that observed the cancellation ("routing", "check", ...).
  [[nodiscard]] const char* phase() const { return phase_; }
  /// Why the token tripped ("deadline exceeded", "cancelled", ...).
  [[nodiscard]] const char* reason() const { return reason_; }

 private:
  const char* phase_;
  const char* reason_;
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  /// A child token also trips when `parent` trips (sweep -> job nesting).
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Explicit cancellation. `reason` must be a string literal.
  void cancel(const char* reason = "cancelled") {
    reason_.store(reason, std::memory_order_relaxed);
    tripped_.store(true, std::memory_order_release);
  }

  /// Arm a wall-clock budget; 0 ms means "already expired". Call before the
  /// token is shared with other threads.
  void set_deadline_after_ms(std::uint64_t ms) {
    deadline_ = Clock::now() + std::chrono::milliseconds(ms);
    has_deadline_ = true;
  }

  /// True once cancelled, past deadline, or the parent tripped. The deadline
  /// and parent checks latch into the local flag so repeat polls stay cheap.
  [[nodiscard]] bool tripped() const {
    if (tripped_.load(std::memory_order_acquire)) return true;
    if (parent_ != nullptr && parent_->tripped()) {
      reason_.store(parent_->reason(), std::memory_order_relaxed);
      tripped_.store(true, std::memory_order_release);
      return true;
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      reason_.store("deadline exceeded", std::memory_order_relaxed);
      tripped_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// Cheap variant that skips the clock (used between strided polls).
  [[nodiscard]] bool tripped_flag_only() const {
    return tripped_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->tripped_flag_only());
  }

  [[nodiscard]] const char* reason() const {
    const char* r = reason_.load(std::memory_order_relaxed);
    return r != nullptr ? r : "cancelled";
  }

 private:
  mutable std::atomic<bool> tripped_{false};
  mutable std::atomic<const char*> reason_{nullptr};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
};

namespace detail {
extern thread_local const CancelToken* tl_cancel;
/// Clock polls happen every kPollStride checkpoint calls.
inline constexpr std::uint32_t kPollStride = 256;
/// Out-of-line slow path: stride bookkeeping + throw on a tripped token.
void poll_cancel_slow(const char* phase);
}  // namespace detail

/// True iff a token is installed on this thread (the one-branch fast path).
[[nodiscard]] inline bool cancel_enabled() {
  return detail::tl_cancel != nullptr;
}

/// The token installed on this thread, or nullptr. Thread-locals do not
/// inherit across std::thread: a phase that spawns its own worker pool (the
/// band-parallel checker) captures this in the spawning thread and installs
/// it on each worker via CancelScope, so a sweep/job deadline still reaches
/// the inner loops.
[[nodiscard]] inline const CancelToken* current_cancel_token() {
  return detail::tl_cancel;
}

/// Checkpoint for pipeline hot loops: throws CancelledError when the
/// installed token has tripped; a no-op (one thread-local load) otherwise.
/// `phase` must be a string literal naming the phase span it sits in.
inline void poll_cancellation(const char* phase) {
  if (detail::tl_cancel != nullptr) detail::poll_cancel_slow(phase);
}

/// RAII thread-local installation of a token around one unit of work.
/// Nests: the previous token is restored on destruction. Passing nullptr is
/// a no-op — the enclosing scope's token (if any) stays installed, so an
/// inner layer without its own budget inherits the caller's instead of
/// silently disabling it.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) : prev_(detail::tl_cancel) {
    // Latch an already-expired deadline now so the very first checkpoint
    // throws deterministically instead of waiting for a clock-poll stride.
    if (token != nullptr) {
      (void)token->tripped();
      detail::tl_cancel = token;
    }
  }
  ~CancelScope() { detail::tl_cancel = prev_; }

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* prev_;
};

}  // namespace mlvl
