#ifndef GOALREC_SERVE_FAULT_INJECTION_H_
#define GOALREC_SERVE_FAULT_INJECTION_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/random.h"
#include "util/status.h"

// Deterministic fault plane for robustness testing. A FaultInjector is a
// seeded source of synthetic failures — injected Status errors, latency
// spikes, and corrupted or stalled file writes — that the serving engine,
// the chaos harness and the benchmarks consult at their failure points.
// Because every decision flows from one seeded util::Rng, a fixed seed
// replays the exact same fault schedule, so tests can assert that the
// degradation ladder actually engaged (and benches such as
// bench/micro_recorder can force reproducible slow queries). Production
// code paths simply pass no injector; the hooks cost one null check.

namespace goalrec::serve {

struct FaultInjectionOptions {
  /// Seed of the fault schedule; equal seeds replay equal schedules.
  uint64_t seed = 1;
  /// Probability that MaybeFail returns an injected kUnavailable error.
  double error_rate = 0.0;
  /// Probability that MaybeDelay asks for a latency spike...
  double latency_rate = 0.0;
  /// ...of this size.
  int64_t latency_ms = 0;
  /// Sustained-spike mode: when a latency fault fires and this is > 0, the
  /// spike extends over `latency_burst_count` consecutive MaybeDelay calls
  /// (the trigger included), each sleeping `latency_burst_ms` (or
  /// latency_ms when burst_ms is 0). Models a correlated slowdown — a
  /// saturated dependency, a GC pause train — rather than i.i.d. spikes,
  /// which is what trips a circuit breaker end-to-end.
  int latency_burst_count = 0;
  int64_t latency_burst_ms = 0;

  // Filesystem fault plane (the chaos harness drives these against staged
  // snapshot bytes before they hit disk). Rates are evaluated in the order
  // truncate, bit-flip, partial-write; at most one fires per call.
  /// Probability MaybeCorruptBytes truncates at a random byte offset.
  double fs_truncate_rate = 0.0;
  /// Probability MaybeCorruptBytes flips one random bit.
  double fs_bitflip_rate = 0.0;
  /// Probability MaybeCorruptBytes simulates a torn non-atomic replace:
  /// a prefix of the new bytes spliced onto the tail of the old bytes.
  double fs_partial_write_rate = 0.0;
  /// Probability MaybeRenameDelay asks the writer to stall between steps of
  /// a multi-step publish (widening the window a poller can observe)...
  double fs_rename_delay_rate = 0.0;
  /// ...for this long.
  int64_t fs_rename_delay_ms = 0;
};

/// Which filesystem fault MaybeCorruptBytes injected (kNone: bytes intact).
enum class FsFault { kNone, kTruncate, kBitFlip, kPartialWrite };

std::string_view FsFaultToString(FsFault fault);

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectionOptions options);

  /// OK, or an injected kUnavailable error naming `op`. Draws once from the
  /// schedule per call. Thread-safe; under concurrency the schedule is
  /// consumed in call order, so determinism holds for serial callers.
  util::Status MaybeFail(std::string_view op);

  /// Zero, or the configured latency spike. The caller decides how to apply
  /// it (the engine sleeps, capped at the query's remaining budget).
  std::chrono::milliseconds MaybeDelay(std::string_view op);

  /// Corrupts `bytes` in place with at most one filesystem fault per the
  /// fs_* rates: truncation at a random offset, a single bit flip, or — when
  /// `old_bytes` (the file content being replaced) is given — a torn
  /// partial write, i.e. a prefix of `bytes` over the tail of `old_bytes`.
  /// Without `old_bytes` a partial-write fault degrades to truncation.
  /// Returns the fault injected, kNone for clean passes.
  FsFault MaybeCorruptBytes(std::string* bytes,
                            std::string_view old_bytes = {});

  /// Zero, or a configured stall between the steps of a multi-step file
  /// publish (write/fsync/rename), per fs_rename_delay_rate.
  std::chrono::milliseconds MaybeRenameDelay();

  struct Counters {
    uint64_t calls = 0;        // total decisions drawn
    uint64_t errors = 0;       // injected failures
    uint64_t delays = 0;       // injected latency spikes
    uint64_t bursts = 0;       // sustained-spike bursts started
    uint64_t fs_truncations = 0;    // fs: truncate-at-offset faults
    uint64_t fs_bitflips = 0;       // fs: single-bit corruption faults
    uint64_t fs_partial_writes = 0; // fs: torn-replace faults
    uint64_t rename_delays = 0;     // fs: injected publish stalls
  };
  Counters counters() const;

 private:
  mutable std::mutex mutex_;
  FaultInjectionOptions options_;
  util::Rng rng_;
  Counters counters_;
  /// Remaining calls in the current latency burst (0 when not bursting).
  int burst_remaining_ = 0;
};

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_FAULT_INJECTION_H_
