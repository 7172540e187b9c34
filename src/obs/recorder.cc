#include "obs/recorder.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <thread>

namespace goalrec::obs {
namespace {

// word1 layout: type in the top 16 bits, a below it, b in the low 32.
uint64_t PackMeta(RecorderEventType type, uint16_t a, uint32_t b) {
  return (static_cast<uint64_t>(static_cast<uint16_t>(type)) << 48) |
         (static_cast<uint64_t>(a) << 32) | b;
}

void UnpackMeta(uint64_t word, RecorderEvent* out) {
  out->type = static_cast<RecorderEventType>(
      static_cast<uint16_t>(word >> 48));
  out->a = static_cast<uint16_t>((word >> 32) & 0xFFFF);
  out->b = static_cast<uint32_t>(word & 0xFFFFFFFFu);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Distinguishes recorder instances in the thread-local ring cache; a raw
// pointer would be ambiguous after a recorder is destroyed and another is
// allocated at the same address (tests construct several).
std::atomic<uint64_t> g_next_recorder_id{1};

}  // namespace

const char* RecorderEventTypeToString(RecorderEventType type) {
  switch (type) {
    case RecorderEventType::kNone:
      return "none";
    case RecorderEventType::kQueryStart:
      return "query_start";
    case RecorderEventType::kQueryEnd:
      return "query_end";
    case RecorderEventType::kRungEnter:
      return "rung_enter";
    case RecorderEventType::kRungExit:
      return "rung_exit";
    case RecorderEventType::kStageStamp:
      return "stage";
    case RecorderEventType::kAdmissionWait:
      return "admission_wait";
    case RecorderEventType::kBreakerTransition:
      return "breaker";
    case RecorderEventType::kSnapshotSwap:
      return "snapshot_swap";
  }
  return "unknown";
}

const char* KernelStageToString(KernelStage stage) {
  switch (stage) {
    case KernelStage::kScatter:
      return "scatter";
    case KernelStage::kRank:
      return "rank";
    case KernelStage::kEmit:
      return "emit";
  }
  return "unknown";
}

// One thread's event ring: `capacity` slots of three uint64 words each.
// Exactly one thread stores into a ring (relaxed word stores + a release
// head bump); any thread may read it (acquire head load + relaxed word
// loads), dropping slots the writer may have lapped during the copy.
struct FlightRecorder::Ring {
  explicit Ring(size_t capacity)
      : mask(capacity - 1),
        words(std::make_unique<std::atomic<uint64_t>[]>(capacity * 3)) {
    for (size_t i = 0; i < capacity * 3; ++i) words[i] = 0;
  }

  const size_t mask;
  std::thread::id owner = std::this_thread::get_id();
  std::atomic<uint64_t> head{0};
  std::unique_ptr<std::atomic<uint64_t>[]> words;

  size_t capacity() const { return mask + 1; }

  void Push(int64_t ts_ns, RecorderEventType type, uint16_t a, uint32_t b,
            uint64_t c) {
    uint64_t idx = head.load(std::memory_order_relaxed);
    size_t slot = (idx & mask) * 3;
    words[slot].store(static_cast<uint64_t>(ts_ns),
                      std::memory_order_relaxed);
    words[slot + 1].store(PackMeta(type, a, b), std::memory_order_relaxed);
    words[slot + 2].store(c, std::memory_order_relaxed);
    head.store(idx + 1, std::memory_order_release);
  }

  // Appends the ring's current contents to `out`, oldest first, dropping
  // any slot a concurrent writer may have overwritten mid-copy.
  void CollectInto(std::vector<RecorderEvent>& out) const {
    uint64_t end = head.load(std::memory_order_acquire);
    uint64_t cap = capacity();
    uint64_t begin = end > cap ? end - cap : 0;
    size_t first = out.size();
    for (uint64_t seq = begin; seq < end; ++seq) {
      size_t slot = (seq & mask) * 3;
      RecorderEvent event;
      event.ts_ns = static_cast<int64_t>(
          words[slot].load(std::memory_order_relaxed));
      UnpackMeta(words[slot + 1].load(std::memory_order_relaxed), &event);
      event.c = words[slot + 2].load(std::memory_order_relaxed);
      event.seq = seq;
      out.push_back(event);
    }
    // Any slot whose seq the writer lapped while we copied is torn: its
    // three words can pair two different events. Re-read the head and drop
    // everything at or below the new overwrite horizon.
    uint64_t head_after = head.load(std::memory_order_acquire);
    if (head_after > end) {
      uint64_t dirty_below = head_after >= cap ? head_after - cap + 1 : 0;
      out.erase(std::remove_if(out.begin() + first, out.end(),
                               [dirty_below](const RecorderEvent& e) {
                                 return e.seq < dirty_below;
                               }),
                out.end());
    }
  }
};

namespace {

struct LocalRingCache {
  uint64_t recorder_id = 0;
  std::shared_ptr<FlightRecorder::Ring> ring;
};

thread_local LocalRingCache t_ring_cache;

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(RoundUpPow2(std::max<size_t>(capacity, 8))) {}

FlightRecorder::~FlightRecorder() = default;

int64_t FlightRecorder::NowNs() {
  std::timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  if (t_ring_cache.recorder_id == id_ && t_ring_cache.ring != nullptr) {
    return t_ring_cache.ring.get();
  }
  std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const std::shared_ptr<Ring>& ring : rings_) {
    if (ring->owner == me) {
      t_ring_cache.recorder_id = id_;
      t_ring_cache.ring = ring;
      return ring.get();
    }
  }
  auto ring = std::make_shared<Ring>(capacity_);
  rings_.push_back(ring);
  t_ring_cache.recorder_id = id_;
  t_ring_cache.ring = ring;
  return t_ring_cache.ring.get();
}

void FlightRecorder::RecordSlow(RecorderEventType type, uint16_t a,
                                uint32_t b, uint64_t c) {
  LocalRing()->Push(NowNs(), type, a, b, c);
}

std::vector<RecorderEvent> FlightRecorder::TailSince(
    int64_t since_ts_ns) const {
  std::vector<RecorderEvent> events;
  std::thread::id me = std::this_thread::get_id();
  std::shared_ptr<Ring> mine;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const std::shared_ptr<Ring>& ring : rings_) {
      if (ring->owner == me) {
        mine = ring;
        break;
      }
    }
  }
  if (mine == nullptr) return events;
  mine->CollectInto(events);
  events.erase(std::remove_if(events.begin(), events.end(),
                              [since_ts_ns](const RecorderEvent& e) {
                                return e.ts_ns < since_ts_ns;
                              }),
               events.end());
  return events;
}

std::vector<RecorderEvent> FlightRecorder::Snapshot(size_t max_events) const {
  std::vector<RecorderEvent> events;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings = rings_;
  }
  for (const std::shared_ptr<Ring>& ring : rings) ring->CollectInto(events);
  std::sort(events.begin(), events.end(),
            [](const RecorderEvent& x, const RecorderEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              return x.seq < y.seq;
            });
  if (events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(max_events));
  }
  return events;
}

uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  uint64_t total = 0;
  for (const std::shared_ptr<Ring>& ring : rings_) {
    total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

size_t FlightRecorder::threads_seen() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return rings_.size();
}

std::string FormatRecorderEvents(const std::vector<RecorderEvent>& events) {
  std::string out;
  if (events.empty()) return out;
  int64_t epoch = events.front().ts_ns;
  char buffer[160];
  for (const RecorderEvent& e : events) {
    double ms = static_cast<double>(e.ts_ns - epoch) / 1e6;
    switch (e.type) {
      case RecorderEventType::kQueryStart:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms query_start k=%u id=%llu\n", ms, e.b,
                      static_cast<unsigned long long>(e.c));
        break;
      case RecorderEventType::kQueryEnd:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms query_end rung=%u result=%u latency_ns=%llu\n",
                      ms, e.a, e.b, static_cast<unsigned long long>(e.c));
        break;
      case RecorderEventType::kRungEnter:
        std::snprintf(buffer, sizeof(buffer), "+%.3fms rung_enter rung=%u\n",
                      ms, e.a);
        break;
      case RecorderEventType::kRungExit:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms rung_exit rung=%u outcome=%u latency_ns=%llu\n",
                      ms, e.a, e.b, static_cast<unsigned long long>(e.c));
        break;
      case RecorderEventType::kStageStamp:
        std::snprintf(buffer, sizeof(buffer), "+%.3fms stage %s items=%u\n",
                      ms,
                      KernelStageToString(static_cast<KernelStage>(e.a)),
                      e.b);
        break;
      case RecorderEventType::kAdmissionWait:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms admission_wait result=%u wait_ns=%llu\n", ms,
                      e.b, static_cast<unsigned long long>(e.c));
        break;
      case RecorderEventType::kBreakerTransition:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms breaker rung=%u state=%u\n", ms, e.a, e.b);
        break;
      case RecorderEventType::kSnapshotSwap:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms snapshot_swap version=%llu\n", ms,
                      static_cast<unsigned long long>(e.c));
        break;
      case RecorderEventType::kNone:
      default:
        std::snprintf(buffer, sizeof(buffer),
                      "+%.3fms %s a=%u b=%u c=%llu\n", ms,
                      RecorderEventTypeToString(e.type), e.a, e.b,
                      static_cast<unsigned long long>(e.c));
        break;
    }
    out += buffer;
  }
  return out;
}

}  // namespace goalrec::obs
