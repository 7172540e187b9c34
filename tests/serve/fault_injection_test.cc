#include "serve/fault_injection.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace goalrec::serve {
namespace {

TEST(FaultInjectorTest, ZeroRatesInjectNothing) {
  FaultInjector injector(FaultInjectionOptions{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.MaybeFail("op").ok());
    EXPECT_EQ(injector.MaybeDelay("op").count(), 0);
  }
  EXPECT_EQ(injector.counters().errors, 0u);
  EXPECT_EQ(injector.counters().delays, 0u);
}

TEST(FaultInjectorTest, CertainErrorAlwaysFails) {
  FaultInjectionOptions options;
  options.error_rate = 1.0;
  FaultInjector injector(options);
  for (int i = 0; i < 20; ++i) {
    util::Status status = injector.MaybeFail("load");
    EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
    EXPECT_NE(status.message().find("load"), std::string::npos);
  }
  EXPECT_EQ(injector.counters().errors, 20u);
}

TEST(FaultInjectorTest, CertainLatencyReturnsConfiguredSpike) {
  FaultInjectionOptions options;
  options.latency_rate = 1.0;
  options.latency_ms = 25;
  FaultInjector injector(options);
  EXPECT_EQ(injector.MaybeDelay("rung").count(), 25);
  EXPECT_EQ(injector.counters().delays, 1u);
}

TEST(FaultInjectorTest, EqualSeedsReplayEqualSchedules) {
  FaultInjectionOptions options;
  options.seed = 7;
  options.error_rate = 0.4;
  options.latency_rate = 0.3;
  options.latency_ms = 5;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.MaybeFail("x").ok(), b.MaybeFail("x").ok());
    EXPECT_EQ(a.MaybeDelay("x").count(), b.MaybeDelay("x").count());
  }
  EXPECT_EQ(a.counters().errors, b.counters().errors);
  EXPECT_EQ(a.counters().delays, b.counters().delays);
}

TEST(FaultInjectorTest, LatencyBurstExtendsOverConsecutiveCalls) {
  FaultInjectionOptions options;
  options.latency_rate = 1.0;
  options.latency_burst_count = 3;
  options.latency_burst_ms = 40;
  FaultInjector injector(options);
  // The trigger and the next two calls all delay: one sustained slowdown,
  // not three i.i.d. spikes.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(injector.MaybeDelay("rung").count(), 40) << "call " << i;
  }
  EXPECT_EQ(injector.counters().delays, 3u);
  EXPECT_EQ(injector.counters().bursts, 1u);
}

TEST(FaultInjectorTest, BurstFallsBackToLatencyMsWhenBurstMsUnset) {
  FaultInjectionOptions options;
  options.latency_rate = 1.0;
  options.latency_ms = 15;
  options.latency_burst_count = 2;
  FaultInjector injector(options);
  EXPECT_EQ(injector.MaybeDelay("rung").count(), 15);
  EXPECT_EQ(injector.MaybeDelay("rung").count(), 15);
  EXPECT_EQ(injector.counters().bursts, 1u);
}

TEST(FaultInjectorTest, BurstConsumesNoScheduleDraws) {
  // Burst-mode delays must not advance the Bernoulli stream: an injector
  // with bursts and one without must agree on every error decision, so
  // tests that probe seeds for specific fault schedules stay valid when a
  // burst is added.
  FaultInjectionOptions plain;
  plain.seed = 5;
  plain.error_rate = 0.5;
  plain.latency_rate = 1.0;
  plain.latency_ms = 10;  // i.i.d. single spikes
  FaultInjectionOptions bursty = plain;
  bursty.latency_burst_count = 8;
  bursty.latency_burst_ms = 10;
  FaultInjector a(plain);
  FaultInjector b(bursty);
  // Both first MaybeDelay calls consume one trigger draw (b's starts the
  // burst); after that, burst-covered delays consume none, so the error
  // streams must stay in lockstep.
  a.MaybeDelay("rung");
  b.MaybeDelay("rung");
  for (int i = 0; i < 6; ++i) {
    b.MaybeDelay("rung");  // inside the burst: no draw consumed
    EXPECT_EQ(a.MaybeFail("x").ok(), b.MaybeFail("x").ok()) << "call " << i;
  }
}

TEST(FaultInjectorTest, ZeroBurstCountKeepsSingleSpikes) {
  FaultInjectionOptions options;
  options.latency_rate = 1.0;
  options.latency_ms = 25;
  FaultInjector injector(options);
  injector.MaybeDelay("rung");
  injector.MaybeDelay("rung");
  EXPECT_EQ(injector.counters().bursts, 0u);
  EXPECT_EQ(injector.counters().delays, 2u);
}

TEST(FaultInjectorTest, DistinctSeedsDiverge) {
  FaultInjectionOptions options;
  options.error_rate = 0.5;
  options.seed = 1;
  FaultInjector a(options);
  options.seed = 2;
  FaultInjector b(options);
  bool diverged = false;
  for (int i = 0; i < 100 && !diverged; ++i) {
    diverged = a.MaybeFail("x").ok() != b.MaybeFail("x").ok();
  }
  EXPECT_TRUE(diverged);
}

// ---- Filesystem fault plane (drives the chaos harness). ----

TEST(FaultInjectorTest, FsZeroRatesLeaveBytesIntact) {
  FaultInjector injector(FaultInjectionOptions{});
  std::string bytes = "snapshot payload";
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(injector.MaybeCorruptBytes(&bytes, "old file"), FsFault::kNone);
    EXPECT_EQ(bytes, "snapshot payload");
    EXPECT_EQ(injector.MaybeRenameDelay().count(), 0);
  }
  FaultInjector::Counters counters = injector.counters();
  EXPECT_EQ(counters.fs_truncations, 0u);
  EXPECT_EQ(counters.fs_bitflips, 0u);
  EXPECT_EQ(counters.fs_partial_writes, 0u);
  EXPECT_EQ(counters.rename_delays, 0u);
}

TEST(FaultInjectorTest, FsTruncationProducesStrictPrefixAndCounts) {
  FaultInjectionOptions options;
  options.seed = 5;
  options.fs_truncate_rate = 1.0;
  FaultInjector injector(options);
  std::string original = "0123456789abcdef";
  std::string bytes = original;
  EXPECT_EQ(injector.MaybeCorruptBytes(&bytes), FsFault::kTruncate);
  EXPECT_LT(bytes.size(), original.size());
  EXPECT_EQ(bytes, original.substr(0, bytes.size()));
  EXPECT_EQ(injector.counters().fs_truncations, 1u);
  // Empty payloads pass through untouched.
  std::string empty;
  EXPECT_EQ(injector.MaybeCorruptBytes(&empty), FsFault::kNone);
}

TEST(FaultInjectorTest, FsBitFlipChangesExactlyOneBit) {
  FaultInjectionOptions options;
  options.seed = 6;
  options.fs_bitflip_rate = 1.0;
  FaultInjector injector(options);
  std::string original(64, '\x00');
  std::string bytes = original;
  EXPECT_EQ(injector.MaybeCorruptBytes(&bytes), FsFault::kBitFlip);
  ASSERT_EQ(bytes.size(), original.size());
  int bits_changed = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    unsigned char diff =
        static_cast<unsigned char>(bytes[i] ^ original[i]);
    while (diff != 0) {
      bits_changed += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_changed, 1);
  EXPECT_EQ(injector.counters().fs_bitflips, 1u);
}

TEST(FaultInjectorTest, FsPartialWriteSplicesOldTail) {
  FaultInjectionOptions options;
  options.seed = 7;
  options.fs_partial_write_rate = 1.0;
  FaultInjector injector(options);
  std::string old_bytes = "OLDOLDOLDOLDOLDOLD";
  std::string new_bytes = "newnewnewnewnewnew";
  std::string bytes = new_bytes;
  EXPECT_EQ(injector.MaybeCorruptBytes(&bytes, old_bytes),
            FsFault::kPartialWrite);
  // The torn result is a prefix of the new bytes followed by the tail of
  // the old file — exactly what a non-atomic in-place replace leaves.
  ASSERT_EQ(bytes.size(), old_bytes.size());
  size_t keep = 0;
  while (keep < bytes.size() && bytes[keep] == new_bytes[keep]) ++keep;
  EXPECT_EQ(bytes.substr(keep), old_bytes.substr(keep));
  EXPECT_EQ(injector.counters().fs_partial_writes, 1u);
}

TEST(FaultInjectorTest, FsFaultsAreMutuallyExclusivePerCall) {
  FaultInjectionOptions options;
  options.seed = 8;
  options.fs_truncate_rate = 0.3;
  options.fs_bitflip_rate = 0.3;
  options.fs_partial_write_rate = 0.3;
  FaultInjector injector(options);
  uint64_t faults = 0;
  for (int i = 0; i < 200; ++i) {
    std::string bytes(32, 'x');
    if (injector.MaybeCorruptBytes(&bytes, std::string(32, 'y')) !=
        FsFault::kNone) {
      ++faults;
    }
  }
  FaultInjector::Counters counters = injector.counters();
  // At most one fault per call: the per-kind counters sum to the number of
  // corrupted calls.
  EXPECT_EQ(counters.fs_truncations + counters.fs_bitflips +
                counters.fs_partial_writes,
            faults);
  EXPECT_GT(faults, 0u);
  EXPECT_GT(counters.fs_truncations, 0u);
  EXPECT_GT(counters.fs_bitflips, 0u);
  EXPECT_GT(counters.fs_partial_writes, 0u);
}

TEST(FaultInjectorTest, FsSameSeedReplaysSameCorruption) {
  FaultInjectionOptions options;
  options.seed = 9;
  options.fs_truncate_rate = 0.4;
  options.fs_bitflip_rate = 0.4;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 100; ++i) {
    std::string bytes_a(24, static_cast<char>('a' + i % 26));
    std::string bytes_b = bytes_a;
    EXPECT_EQ(a.MaybeCorruptBytes(&bytes_a), b.MaybeCorruptBytes(&bytes_b));
    EXPECT_EQ(bytes_a, bytes_b);
  }
}

TEST(FaultInjectorTest, RenameDelayReturnsConfiguredStall) {
  FaultInjectionOptions options;
  options.fs_rename_delay_rate = 1.0;
  options.fs_rename_delay_ms = 15;
  FaultInjector injector(options);
  EXPECT_EQ(injector.MaybeRenameDelay().count(), 15);
  EXPECT_EQ(injector.counters().rename_delays, 1u);
  // Rate without a duration is a no-op, not a zero-length busy loop.
  options.fs_rename_delay_ms = 0;
  FaultInjector disabled(options);
  EXPECT_EQ(disabled.MaybeRenameDelay().count(), 0);
  EXPECT_EQ(disabled.counters().rename_delays, 0u);
}

TEST(FaultInjectorTest, FsFaultNamesAreStable) {
  EXPECT_EQ(FsFaultToString(FsFault::kNone), "none");
  EXPECT_EQ(FsFaultToString(FsFault::kTruncate), "truncate");
  EXPECT_EQ(FsFaultToString(FsFault::kBitFlip), "bitflip");
  EXPECT_EQ(FsFaultToString(FsFault::kPartialWrite), "partial_write");
}

}  // namespace
}  // namespace goalrec::serve
