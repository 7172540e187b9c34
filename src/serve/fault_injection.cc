#include "serve/fault_injection.h"

namespace goalrec::serve {

FaultInjector::FaultInjector(FaultInjectionOptions options)
    : options_(options), rng_(options.seed) {}

util::Status FaultInjector::MaybeFail(std::string_view op) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++counters_.calls;
  if (!rng_.Bernoulli(options_.error_rate)) return util::Status::Ok();
  ++counters_.errors;
  return util::UnavailableError("injected fault: " + std::string(op));
}

std::chrono::milliseconds FaultInjector::MaybeDelay(std::string_view /*op*/) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++counters_.calls;
  const int64_t burst_ms = options_.latency_burst_ms > 0
                               ? options_.latency_burst_ms
                               : options_.latency_ms;
  // An active burst delays unconditionally and consumes no schedule draw,
  // so the Bernoulli stream (and hence determinism for callers probing
  // seeds) is unaffected by burst length.
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    ++counters_.delays;
    return std::chrono::milliseconds(burst_ms);
  }
  const bool spike_possible =
      options_.latency_ms > 0 ||
      (options_.latency_burst_count > 0 && options_.latency_burst_ms > 0);
  if (!spike_possible || !rng_.Bernoulli(options_.latency_rate)) {
    return std::chrono::milliseconds::zero();
  }
  ++counters_.delays;
  if (options_.latency_burst_count > 0) {
    ++counters_.bursts;
    burst_remaining_ = options_.latency_burst_count - 1;
    return std::chrono::milliseconds(burst_ms);
  }
  return std::chrono::milliseconds(options_.latency_ms);
}

std::string_view FsFaultToString(FsFault fault) {
  switch (fault) {
    case FsFault::kNone:
      return "none";
    case FsFault::kTruncate:
      return "truncate";
    case FsFault::kBitFlip:
      return "bitflip";
    case FsFault::kPartialWrite:
      return "partial_write";
  }
  return "unknown";
}

FsFault FaultInjector::MaybeCorruptBytes(std::string* bytes,
                                         std::string_view old_bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++counters_.calls;
  if (bytes->empty()) return FsFault::kNone;
  if (rng_.Bernoulli(options_.fs_truncate_rate)) {
    ++counters_.fs_truncations;
    bytes->resize(rng_.UniformUint32(static_cast<uint32_t>(bytes->size())));
    return FsFault::kTruncate;
  }
  if (rng_.Bernoulli(options_.fs_bitflip_rate)) {
    ++counters_.fs_bitflips;
    uint32_t byte = rng_.UniformUint32(static_cast<uint32_t>(bytes->size()));
    (*bytes)[byte] = static_cast<char>(
        (*bytes)[byte] ^ (1u << rng_.UniformUint32(8)));
    return FsFault::kBitFlip;
  }
  if (rng_.Bernoulli(options_.fs_partial_write_rate)) {
    ++counters_.fs_partial_writes;
    uint32_t keep = rng_.UniformUint32(static_cast<uint32_t>(bytes->size()));
    if (old_bytes.size() > keep) {
      // Torn replace: the first `keep` new bytes landed, the rest is still
      // the old file.
      bytes->replace(keep, std::string::npos, old_bytes.substr(keep));
    } else {
      bytes->resize(keep);
    }
    return FsFault::kPartialWrite;
  }
  return FsFault::kNone;
}

std::chrono::milliseconds FaultInjector::MaybeRenameDelay() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++counters_.calls;
  if (options_.fs_rename_delay_ms <= 0 ||
      !rng_.Bernoulli(options_.fs_rename_delay_rate)) {
    return std::chrono::milliseconds::zero();
  }
  ++counters_.rename_delays;
  return std::chrono::milliseconds(options_.fs_rename_delay_ms);
}

FaultInjector::Counters FaultInjector::counters() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace goalrec::serve
