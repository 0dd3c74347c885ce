#include "obs/prof.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/strfmt.hpp"
#include "obs/span.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/time.h>
#if __has_include(<linux/perf_event.h>)
#define REMO_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#if __has_include(<execinfo.h>)
#define REMO_HAVE_STACK_SAMPLER 1
#include <cxxabi.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#endif
#endif  // __linux__

namespace remo::obs {

// ---------------------------------------------------------------------------
// Catalog

namespace {

// Name and help text of each ProfCounter, in enum order.
constexpr std::array<std::array<const char*, 2>, kProfCounterCount> kCounterInfo{{
    {"cycles", "CPU cycles attributed per phase"},
    {"instructions", "Instructions retired attributed per phase"},
    {"llc_loads", "LLC read accesses per phase"},
    {"llc_misses", "LLC read misses per phase"},
    {"branch_misses", "Branch misses per phase"},
    {"stalled_cycles", "Backend-stalled cycles per phase"},
    {"dtlb_loads", "dTLB read accesses per phase"},
    {"dtlb_misses", "dTLB read misses per phase"},
    {"minor_faults", "Minor page faults attributed per phase"},
    {"major_faults", "Major page faults attributed per phase"},
    {"task_clock_ns", "On-CPU time attributed per phase"},
}};

}  // namespace

const char* prof_counter_name(ProfCounter c) noexcept {
  return kCounterInfo[static_cast<std::size_t>(c)][0];
}

const char* prof_counter_help(ProfCounter c) noexcept {
  return kCounterInfo[static_cast<std::size_t>(c)][1];
}

const char* prof_backend_name(ProfBackendKind k) noexcept {
  switch (k) {
    case ProfBackendKind::kAuto:
      return "auto";
    case ProfBackendKind::kPerfEvent:
      return "perf_event";
    case ProfBackendKind::kRusage:
      return "rusage";
    case ProfBackendKind::kNoop:
      return "noop";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// perf_event backend

#ifdef REMO_HAVE_PERF_EVENT

namespace {

long perf_event_open_raw(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

struct PerfDesc {
  ProfCounter counter;
  std::uint32_t type;
  std::uint64_t config;
  int group;  ///< counters are scheduled per group; leaders are the first
              ///< desc of each group
};

constexpr std::uint64_t kLlcRead =
    PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8);
constexpr std::uint64_t kDtlbRead =
    PERF_COUNT_HW_CACHE_DTLB | (PERF_COUNT_HW_CACHE_OP_READ << 8);

// Leader first within each group: the group-0 cycles counter anchors the
// original seven-event group; members that fail to open (virtualised PMUs
// routinely lack stalled-cycles or LLC events) are dropped individually.
// The dTLB pair (the huge-page A/B evidence) lives in a *second* group
// with its own leader so it never overcommits group 0 — most PMUs schedule
// 4-6 generic counters per group, and a too-big group silently multiplexes
// or refuses members. The page-fault software events ride in group 1
// (software counters always schedule).
constexpr PerfDesc kPerfDescs[] = {
    {ProfCounter::kCycles, PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, 0},
    {ProfCounter::kInstructions, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_INSTRUCTIONS, 0},
    {ProfCounter::kLlcLoads, PERF_TYPE_HW_CACHE,
     kLlcRead | (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16), 0},
    {ProfCounter::kLlcMisses, PERF_TYPE_HW_CACHE,
     kLlcRead | (PERF_COUNT_HW_CACHE_RESULT_MISS << 16), 0},
    {ProfCounter::kBranchMisses, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_BRANCH_MISSES, 0},
    {ProfCounter::kStalledCycles, PERF_TYPE_HARDWARE,
     PERF_COUNT_HW_STALLED_CYCLES_BACKEND, 0},
    {ProfCounter::kTaskClockNs, PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK,
     0},
    {ProfCounter::kDtlbLoads, PERF_TYPE_HW_CACHE,
     kDtlbRead | (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16), 1},
    {ProfCounter::kDtlbMisses, PERF_TYPE_HW_CACHE,
     kDtlbRead | (PERF_COUNT_HW_CACHE_RESULT_MISS << 16), 1},
    {ProfCounter::kMinorFaults, PERF_TYPE_SOFTWARE,
     PERF_COUNT_SW_PAGE_FAULTS_MIN, 1},
    {ProfCounter::kMajorFaults, PERF_TYPE_SOFTWARE,
     PERF_COUNT_SW_PAGE_FAULTS_MAJ, 1},
};
constexpr std::size_t kPerfDescCount =
    sizeof(kPerfDescs) / sizeof(kPerfDescs[0]);
constexpr int kPerfGroupCount = 2;

perf_event_attr make_attr(const PerfDesc& d, bool leader) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = d.type;
  attr.config = d.config;
  // perf_event_paranoid == 2 still allows user-space self-profiling as
  // long as the kernel/hypervisor are excluded.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.disabled = leader ? 1 : 0;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID;
  return attr;
}

class PerfEventBackend final : public CounterBackend {
 public:
  ~PerfEventBackend() override {
    for (const auto& g : groups_)
      for (const auto& m : g.members) close(m.fd);
  }

  const char* name() const noexcept override { return "perf_event"; }
  std::uint32_t available() const noexcept override { return available_; }

  bool open() override {
    if (!groups_.empty()) return true;  // already open
    for (int gi = 0; gi < kPerfGroupCount; ++gi) {
      Group group;
      for (std::size_t i = 0; i < kPerfDescCount; ++i) {
        if (kPerfDescs[i].group != gi) continue;
        const bool leader = group.members.empty();
        perf_event_attr attr = make_attr(kPerfDescs[i], leader);
        const int fd = static_cast<int>(perf_event_open_raw(
            &attr, 0, -1, leader ? -1 : group.members.front().fd, 0));
        if (fd < 0) {
          // A failed leader drops the whole group (e.g. no dTLB events on
          // this PMU); a failed member is dropped individually.
          if (leader) break;
          continue;
        }
        add_member(group, kPerfDescs[i].counter, fd);
      }
      if (group.members.empty()) continue;
      ioctl(group.members.front().fd, PERF_EVENT_IOC_RESET,
            PERF_IOC_FLAG_GROUP);
      ioctl(group.members.front().fd, PERF_EVENT_IOC_ENABLE,
            PERF_IOC_FLAG_GROUP);
      groups_.push_back(std::move(group));
    }
    return !groups_.empty();
  }

  bool read(CounterSet& out) override {
    if (groups_.empty()) return false;
    bool any = false;
    for (const auto& g : groups_) {
      // PERF_FORMAT_GROUP | PERF_FORMAT_ID layout:
      //   u64 nr; { u64 value; u64 id; } values[nr];
      std::uint64_t buf[1 + 2 * kPerfDescCount];
      const ssize_t want = static_cast<ssize_t>(
          (1 + 2 * g.members.size()) * sizeof(std::uint64_t));
      const ssize_t got = ::read(g.members.front().fd, buf, sizeof(buf));
      if (got < want) continue;
      const std::uint64_t nr = buf[0];
      for (std::uint64_t i = 0; i < nr; ++i) {
        const std::uint64_t value = buf[1 + 2 * i];
        const std::uint64_t id = buf[2 + 2 * i];
        for (const auto& m : g.members)
          if (m.id == id) {
            out[m.counter] = value;
            break;
          }
      }
      any = true;
    }
    return any;
  }

 private:
  struct Member {
    ProfCounter counter;
    int fd;
    std::uint64_t id;
  };
  struct Group {
    std::vector<Member> members;  // front() is the leader
  };

  void add_member(Group& g, ProfCounter c, int fd) {
    std::uint64_t id = 0;
    ioctl(fd, PERF_EVENT_IOC_ID, &id);
    g.members.push_back(Member{c, fd, id});
    available_ |= prof_counter_bit(c);
  }

  std::vector<Group> groups_;
  std::uint32_t available_ = 0;
};

bool perf_event_probe() {
  perf_event_attr attr = make_attr(kPerfDescs[0], /*leader=*/true);
  const int fd =
      static_cast<int>(perf_event_open_raw(&attr, 0, -1, -1, 0));
  if (fd < 0) return false;
  close(fd);
  return true;
}

}  // namespace

#endif  // REMO_HAVE_PERF_EVENT

// ---------------------------------------------------------------------------
// rusage backend (task-clock only)

namespace {

#ifdef __linux__
std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
}
#endif

class RusageBackend final : public CounterBackend {
 public:
  const char* name() const noexcept override { return "rusage"; }
  std::uint32_t available() const noexcept override {
#ifdef __linux__
    // Task-clock plus the per-thread fault counters: on PMU-less hosts
    // (every CI container) the minor-fault rate is the locality evidence
    // the dTLB counters would otherwise carry — THP-backed arenas cut it
    // by ~512x on touched memory.
    return prof_counter_bit(ProfCounter::kTaskClockNs) |
           prof_counter_bit(ProfCounter::kMinorFaults) |
           prof_counter_bit(ProfCounter::kMajorFaults);
#else
    return 0;
#endif
  }

  bool open() override {
    CounterSet probe;
    return read(probe);
  }

  bool read([[maybe_unused]] CounterSet& out) override {
#ifdef __linux__
    rusage ru{};
    if (getrusage(RUSAGE_THREAD, &ru) != 0) return false;
    out[ProfCounter::kTaskClockNs] =
        timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
    out[ProfCounter::kMinorFaults] = static_cast<std::uint64_t>(ru.ru_minflt);
    out[ProfCounter::kMajorFaults] = static_cast<std::uint64_t>(ru.ru_majflt);
    return true;
#else
    return false;
#endif
  }
};

class NoopBackend final : public CounterBackend {
 public:
  const char* name() const noexcept override { return "noop"; }
  std::uint32_t available() const noexcept override { return 0; }
  bool open() override { return false; }
  bool read(CounterSet&) override { return false; }
};

}  // namespace

ProfBackendKind resolve_prof_backend(ProfBackendKind requested) noexcept {
  if (requested != ProfBackendKind::kAuto) return requested;
#ifdef REMO_HAVE_PERF_EVENT
  if (perf_event_probe()) return ProfBackendKind::kPerfEvent;
#endif
#ifdef __linux__
  return ProfBackendKind::kRusage;
#else
  return ProfBackendKind::kNoop;
#endif
}

std::unique_ptr<CounterBackend> make_counter_backend(ProfBackendKind kind) {
  switch (resolve_prof_backend(kind)) {
    case ProfBackendKind::kPerfEvent:
#ifdef REMO_HAVE_PERF_EVENT
      return std::make_unique<PerfEventBackend>();
#else
      return std::make_unique<NoopBackend>();
#endif
    case ProfBackendKind::kRusage:
      return std::make_unique<RusageBackend>();
    case ProfBackendKind::kAuto:  // unreachable after resolve
    case ProfBackendKind::kNoop:
      break;
  }
  return std::make_unique<NoopBackend>();
}

// ---------------------------------------------------------------------------
// ScriptedBackend

ScriptedBackend::ScriptedBackend(std::vector<CounterSet> timeline,
                                 std::uint32_t available_mask)
    : timeline_(std::move(timeline)), available_(available_mask) {}

bool ScriptedBackend::open() { return !open_fails_; }

bool ScriptedBackend::read(CounterSet& out) {
  if (fail_reads_ > 0) {
    --fail_reads_;
    return false;
  }
  if (timeline_.empty()) return false;
  const std::size_t i = std::min(next_, timeline_.size() - 1);
  ++next_;
  out = timeline_[i];
  return true;
}

// ---------------------------------------------------------------------------
// RankProfSnapshot / ProfSnapshot

CounterSet RankProfSnapshot::total() const noexcept {
  CounterSet t;
  for (const auto& p : phase) t += p;
  return t;
}

std::uint64_t RankProfSnapshot::total_attributed_ns() const noexcept {
  std::uint64_t t = 0;
  for (const auto v : attributed_ns) t += v;
  return t;
}

void RankProfSnapshot::merge(const RankProfSnapshot& o) noexcept {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase[i] += o.phase[i];
    attributed_ns[i] += o.attributed_ns[i];
  }
  boundaries += o.boundaries;
  reads += o.reads;
  read_failures += o.read_failures;
}

RankProfSnapshot ProfSnapshot::totals() const {
  RankProfSnapshot t;
  t.rank = kProfTotalsRank;
  for (const auto& r : per_rank) t.merge(r);
  return t;
}

double prof_ipc(const CounterSet& c) noexcept {
  const auto cyc = c[ProfCounter::kCycles];
  return cyc ? static_cast<double>(c[ProfCounter::kInstructions]) /
                   static_cast<double>(cyc)
             : 0.0;
}

double prof_llc_miss_rate(const CounterSet& c) noexcept {
  const auto loads = c[ProfCounter::kLlcLoads];
  return loads ? static_cast<double>(c[ProfCounter::kLlcMisses]) /
                     static_cast<double>(loads)
               : 0.0;
}

double prof_branch_miss_per_kinst(const CounterSet& c) noexcept {
  const auto inst = c[ProfCounter::kInstructions];
  return inst ? 1000.0 * static_cast<double>(c[ProfCounter::kBranchMisses]) /
                    static_cast<double>(inst)
              : 0.0;
}

double prof_stalled_frac(const CounterSet& c) noexcept {
  const auto cyc = c[ProfCounter::kCycles];
  return cyc ? static_cast<double>(c[ProfCounter::kStalledCycles]) /
                   static_cast<double>(cyc)
             : 0.0;
}

double prof_dtlb_miss_rate(const CounterSet& c) noexcept {
  const auto loads = c[ProfCounter::kDtlbLoads];
  return loads ? static_cast<double>(c[ProfCounter::kDtlbMisses]) /
                     static_cast<double>(loads)
               : 0.0;
}

const ProfRatio kProfRatios[kProfRatioCount] = {
    {"ipc", "Instructions per cycle per phase", prof_ipc},
    {"llc_miss_rate", "LLC read miss rate per phase", prof_llc_miss_rate},
    {"dtlb_miss_rate", "dTLB read miss rate per phase", prof_dtlb_miss_rate},
};

Json phase_block_json(const CounterSet& c, std::uint64_t attributed_ns) {
  Json b = Json::object();
  for (std::size_t i = 0; i < kProfCounterCount; ++i)
    b[prof_counter_name(static_cast<ProfCounter>(i))] = c.v[i];
  b["attributed_ns"] = attributed_ns;
  for (const ProfRatio& r : kProfRatios) b[r.name] = r.of(c);
  return b;
}

namespace {

Json rank_json(const RankProfSnapshot& r, bool totals) {
  Json j = Json::object();
  if (!totals) j["rank"] = static_cast<std::uint64_t>(r.rank);
  j["boundaries"] = r.boundaries;
  j["reads"] = r.reads;
  j["read_failures"] = r.read_failures;
  Json phases = Json::object();
  for (std::size_t i = 0; i < kPhaseCount; ++i)
    phases[phase_name(static_cast<Phase>(i))] =
        phase_block_json(r.phase[i], r.attributed_ns[i]);
  j["phases"] = phases;
  return j;
}

bool parse_rank_json(const Json& j, RankProfSnapshot& out, std::string* error) {
  if (const Json* rank = j.find("rank"))
    out.rank = static_cast<std::uint32_t>(rank->as_uint());
  if (const Json* v = j.find("boundaries")) out.boundaries = v->as_uint();
  if (const Json* v = j.find("reads")) out.reads = v->as_uint();
  if (const Json* v = j.find("read_failures")) out.read_failures = v->as_uint();
  const Json* phases = j.find("phases");
  if (phases == nullptr) {
    if (error) *error = "rank entry missing phases";
    return false;
  }
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Json* p = phases->find(phase_name(static_cast<Phase>(i)));
    if (p == nullptr) continue;
    for (std::size_t c = 0; c < kProfCounterCount; ++c)
      if (const Json* v = p->find(prof_counter_name(static_cast<ProfCounter>(c))))
        out.phase[i].v[c] = v->as_uint();
    if (const Json* v = p->find("attributed_ns"))
      out.attributed_ns[i] = v->as_uint();
  }
  return true;
}

}  // namespace

Json ProfSnapshot::to_json() const {
  Json j = Json::object();
  j["schema"] = "remo-prof-1";
  j["enabled"] = enabled;
  j["backend"] = backend;
  j["degraded"] = degraded;
  j["sample_shift"] = static_cast<std::uint64_t>(sample_shift);
  Json names = Json::array();
  for (std::size_t i = 0; i < kProfCounterCount; ++i)
    if (available & prof_counter_bit(static_cast<ProfCounter>(i)))
      names.push_back(Json(prof_counter_name(static_cast<ProfCounter>(i))));
  j["counters"] = names;
  Json ranks = Json::array();
  for (const auto& r : per_rank) ranks.push_back(rank_json(r, false));
  j["per_rank"] = ranks;
  j["totals"] = rank_json(totals(), true);
  return j;
}

bool ProfSnapshot::from_json(const Json& doc, ProfSnapshot& out,
                             std::string* error) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "remo-prof-1") {
    if (error) *error = "not a remo-prof-1 document";
    return false;
  }
  out = ProfSnapshot{};
  if (const Json* v = doc.find("enabled")) out.enabled = v->as_bool();
  if (const Json* v = doc.find("backend")) out.backend = v->as_string();
  if (const Json* v = doc.find("degraded")) out.degraded = v->as_bool();
  if (const Json* v = doc.find("sample_shift"))
    out.sample_shift = static_cast<std::uint32_t>(v->as_uint());
  if (const Json* names = doc.find("counters"); names && names->is_array()) {
    for (const Json& n : names->items())
      for (std::size_t i = 0; i < kProfCounterCount; ++i)
        if (n.as_string() == prof_counter_name(static_cast<ProfCounter>(i)))
          out.available |= prof_counter_bit(static_cast<ProfCounter>(i));
  }
  const Json* ranks = doc.find("per_rank");
  if (ranks == nullptr || !ranks->is_array()) {
    if (error) *error = "missing per_rank array";
    return false;
  }
  for (const Json& r : ranks->items()) {
    RankProfSnapshot rs;
    if (!parse_rank_json(r, rs, error)) return false;
    out.per_rank.push_back(rs);
  }
  return true;
}

// ---------------------------------------------------------------------------
// RankProfiler

RankProfiler::RankProfiler(std::uint32_t rank,
                           std::unique_ptr<CounterBackend> backend,
                           std::uint32_t sample_shift)
    : rank_(rank),
      backend_(std::move(backend)),
      sample_mask_((std::uint64_t{1} << std::min(sample_shift, 31u)) - 1) {}

void RankProfiler::attach() {
  if (open_) return;
  if (!backend_->open()) return;
  if (!backend_->read(last_)) return;
  open_ = true;
  active_.store(true, std::memory_order_relaxed);
}

void RankProfiler::on_phase(Phase p, std::uint64_t ns) noexcept {
  if (!open_) return;
  boundaries_.fetch_add(1, std::memory_order_relaxed);
  pending_ns_[static_cast<std::size_t>(p)] += ns;
  if ((++boundary_seq_ & sample_mask_) != 0) return;
  sample_now();
}

void RankProfiler::flush() noexcept {
  if (!open_) return;
  sample_now();
}

void RankProfiler::sample_now() noexcept {
  CounterSet now;
  if (!backend_->read(now)) {
    read_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  const CounterSet delta = now.delta_since(last_);
  last_ = now;

  std::uint64_t pend_total = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    pend_total += pending_ns_[i];
    if (pending_ns_[i] > pending_ns_[largest]) largest = i;
  }
  if (pend_total == 0) return;  // nothing elapsed; drop the (empty) delta

  // Attribute the delta across phases proportionally to their pending
  // wall-clock. Integer shares for every phase but the largest, which
  // takes the remainder — conserves totals exactly and is deterministic.
  __extension__ typedef unsigned __int128 u128;  // exact 64x64/64 shares
  CounterSet assigned_sum;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (pending_ns_[i] == 0 || i == largest) continue;
    for (std::size_t c = 0; c < kProfCounterCount; ++c) {
      const std::uint64_t share = static_cast<std::uint64_t>(
          (static_cast<u128>(delta.v[c]) * pending_ns_[i]) / pend_total);
      assigned_sum.v[c] += share;
      acc_[i][c].fetch_add(share, std::memory_order_relaxed);
    }
    attributed_ns_[i].fetch_add(pending_ns_[i], std::memory_order_relaxed);
  }
  for (std::size_t c = 0; c < kProfCounterCount; ++c)
    acc_[largest][c].fetch_add(delta.v[c] - assigned_sum.v[c],
                               std::memory_order_relaxed);
  attributed_ns_[largest].fetch_add(pending_ns_[largest],
                                    std::memory_order_relaxed);
  pending_ns_.fill(0);
}

RankProfSnapshot RankProfiler::snapshot() const {
  RankProfSnapshot s;
  s.rank = rank_;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    for (std::size_t c = 0; c < kProfCounterCount; ++c)
      s.phase[i].v[c] = acc_[i][c].load(std::memory_order_relaxed);
    s.attributed_ns[i] = attributed_ns_[i].load(std::memory_order_relaxed);
  }
  s.boundaries = boundaries_.load(std::memory_order_relaxed);
  s.reads = reads_.load(std::memory_order_relaxed);
  s.read_failures = read_failures_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Process rusage

ProcRusage read_proc_rusage() noexcept {
  ProcRusage r;
#ifdef __linux__
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    r.user_ns = timeval_ns(ru.ru_utime);
    r.sys_ns = timeval_ns(ru.ru_stime);
    r.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    r.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    r.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    r.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    r.involuntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
#endif
  return r;
}

Json proc_rusage_json(const ProcRusage& r) {
  Json j = Json::object();
  j["user_ns"] = r.user_ns;
  j["sys_ns"] = r.sys_ns;
  j["max_rss_kb"] = r.max_rss_kb;
  j["minor_faults"] = r.minor_faults;
  j["major_faults"] = r.major_faults;
  j["voluntary_ctx_switches"] = r.voluntary_ctx_switches;
  j["involuntary_ctx_switches"] = r.involuntary_ctx_switches;
  return j;
}

// ---------------------------------------------------------------------------
// StackSampler

#ifdef REMO_HAVE_STACK_SAMPLER

namespace {

constexpr std::uint32_t kMaxStackDepth = 64;

// SIGPROF handler scratch: the sampler points the handler at one target at
// a time; the handler captures into the slot, notes the thread it ran on
// and release-stores done. A handler that runs late (after the sampler gave
// up on its target) is recognised by that thread and dropped, so its stack
// is never filed under the next target's label.
struct StackScratch {
  void* frames[kMaxStackDepth];
  std::atomic<int> depth{0};
  std::atomic<pthread_t> thread{};
  std::atomic<bool> done{false};
};
StackScratch g_scratch;
std::atomic<bool> g_sampler_running{false};

void stack_signal_handler(int) {
  // backtrace() is not strictly async-signal-safe, but sampling profilers
  // (gperftools, py-spy's native mode) rely on the same glibc behavior:
  // after one warm-up call the unwinder does no further allocation.
  const int depth = backtrace(g_scratch.frames, kMaxStackDepth);
  g_scratch.depth.store(depth, std::memory_order_relaxed);
  g_scratch.thread.store(pthread_self(), std::memory_order_relaxed);
  g_scratch.done.store(true, std::memory_order_release);
}

std::string demangle_frame(const char* symbol) {
  // backtrace_symbols format: "module(mangled+0x1a) [0xaddr]".
  std::string s(symbol != nullptr ? symbol : "");
  const std::size_t open = s.find('(');
  const std::size_t plus = s.find('+', open == std::string::npos ? 0 : open);
  if (open != std::string::npos && plus != std::string::npos && plus > open + 1) {
    std::string mangled = s.substr(open + 1, plus - open - 1);
    int status = 0;
    char* dem = abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
    if (status == 0 && dem != nullptr) {
      std::string out(dem);
      std::free(dem);
      return out;
    }
    return mangled;
  }
  // No symbol: fall back to the module basename + offset.
  const std::size_t bracket = s.find(" [");
  std::string head = bracket == std::string::npos ? s : s.substr(0, bracket);
  const std::size_t slash = head.rfind('/');
  if (slash != std::string::npos) head = head.substr(slash + 1);
  return head.empty() ? "??" : head;
}

}  // namespace

struct StackSampler::Impl {
  Config cfg;
  std::mutex mu;  // guards targets + stacks
  struct Target {
    pthread_t handle;
    std::size_t label;  // index into labels
  };
  std::vector<Target> targets;
  std::vector<std::string> labels;
  // Folded raw stacks: (label index, leaf-first frames) -> count.
  std::map<std::pair<std::size_t, std::vector<void*>>, std::uint64_t> stacks;
  std::thread thread;
  std::atomic<bool> run{false};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> missed{0};
  struct sigaction old_action {};
  bool handler_installed = false;

  void loop() {
    while (run.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& t : targets) sample_target(t);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(cfg.period_us));
    }
  }

  void sample_target(const Target& t) {
    g_scratch.done.store(false, std::memory_order_relaxed);
    if (pthread_kill(t.handle, SIGPROF) != 0) return;
    // The handler runs on the target thread; wait briefly for it.
    for (int spin = 0; spin < 4000; ++spin) {
      if (g_scratch.done.load(std::memory_order_acquire) &&
          pthread_equal(g_scratch.thread.load(std::memory_order_relaxed),
                        t.handle)) {
        record(t, g_scratch.frames,
               g_scratch.depth.load(std::memory_order_relaxed));
        return;
      }
      std::this_thread::yield();
    }
    missed.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const Target& t, void* const* frames, int depth) {
    const int max =
        std::min<int>(depth, static_cast<int>(std::min(cfg.max_depth,
                                                       kMaxStackDepth)));
    if (max <= 0) return;
    // Skip the handler's own frames (signal trampoline + handler); keep it
    // conservative — symbol filtering at fold time tidies the rest.
    std::vector<void*> key(frames, frames + max);
    ++stacks[{t.label, std::move(key)}];
    samples.fetch_add(1, std::memory_order_relaxed);
  }
};

bool StackSampler::supported() noexcept { return true; }

StackSampler::StackSampler(Config cfg) : impl_(new Impl) { impl_->cfg = cfg; }

StackSampler::~StackSampler() { stop(); }

bool StackSampler::start() {
  if (impl_->run.load(std::memory_order_relaxed)) return true;
  bool expected = false;
  if (!g_sampler_running.compare_exchange_strong(expected, true))
    return false;  // another sampler owns the handler scratch
  struct sigaction sa {};
  sa.sa_handler = stack_signal_handler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &impl_->old_action) != 0) {
    g_sampler_running.store(false);
    return false;
  }
  impl_->handler_installed = true;
  // Warm up the unwinder on this thread (glibc backtrace allocates on
  // first use; see handler comment).
  void* warm[4];
  backtrace(warm, 4);
  impl_->run.store(true, std::memory_order_relaxed);
  impl_->thread = std::thread([this] { impl_->loop(); });
  return true;
}

void StackSampler::stop() {
  if (impl_->run.exchange(false)) {
    if (impl_->thread.joinable()) impl_->thread.join();
  }
  if (impl_->handler_installed) {
    // A sample whose handler has not run yet is still pending on its target
    // thread. Restoring SIG_DFL straight away would let it terminate the
    // process; setting SIG_IGN first discards it (POSIX: a pending signal
    // whose action becomes SIG_IGN is discarded, blocked or not).
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    sigaction(SIGPROF, &ignore, nullptr);
    sigaction(SIGPROF, &impl_->old_action, nullptr);
    impl_->handler_installed = false;
    g_sampler_running.store(false);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->targets.clear();
}

bool StackSampler::running() const noexcept {
  return impl_->run.load(std::memory_order_relaxed);
}

void StackSampler::register_current_thread(std::string label) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->labels.push_back(std::move(label));
  impl_->targets.push_back(
      Impl::Target{pthread_self(), impl_->labels.size() - 1});
}

std::uint64_t StackSampler::samples() const noexcept {
  return impl_->samples.load(std::memory_order_relaxed);
}

std::uint64_t StackSampler::missed() const noexcept {
  return impl_->missed.load(std::memory_order_relaxed);
}

std::string StackSampler::folded() {
  stop();
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> lines;
  lines.reserve(impl_->stacks.size());
  for (const auto& [key, count] : impl_->stacks) {
    const auto& [label_idx, frames] = key;
    char** symbols = backtrace_symbols(
        const_cast<void* const*>(frames.data()), static_cast<int>(frames.size()));
    std::string line = impl_->labels[label_idx];
    // frames are leaf-first; folded output wants root-first.
    for (std::size_t i = frames.size(); i-- > 0;) {
      std::string name =
          demangle_frame(symbols != nullptr ? symbols[i] : nullptr);
      // Drop the signal plumbing the capture itself introduced.
      if (name.find("stack_signal_handler") != std::string::npos ||
          name.find("killpg") != std::string::npos ||
          name.find("__restore_rt") != std::string::npos)
        continue;
      line += ';';
      line += name;
    }
    std::free(symbols);
    line += ' ';
    line += std::to_string(count);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

#else  // !REMO_HAVE_STACK_SAMPLER

struct StackSampler::Impl {
  Config cfg;
};

bool StackSampler::supported() noexcept { return false; }
StackSampler::StackSampler(Config cfg) : impl_(new Impl) { impl_->cfg = cfg; }
StackSampler::~StackSampler() = default;
bool StackSampler::start() { return false; }
void StackSampler::stop() {}
bool StackSampler::running() const noexcept { return false; }
void StackSampler::register_current_thread(std::string) {}
std::uint64_t StackSampler::samples() const noexcept { return 0; }
std::uint64_t StackSampler::missed() const noexcept { return 0; }
std::string StackSampler::folded() { return std::string(); }

#endif  // REMO_HAVE_STACK_SAMPLER

bool StackSampler::write_folded(const std::string& path) {
  const std::string text = folded();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Reports

namespace {

std::string prof_table(const RankProfSnapshot& r, std::uint32_t available) {
  const bool hw = (available & prof_counter_bit(ProfCounter::kCycles)) != 0;
  const bool dtlb =
      (available & prof_counter_bit(ProfCounter::kDtlbLoads)) != 0;
  std::string out;
  out += strfmt("  %-14s %10s %12s %12s %6s %10s %7s %6s %7s %7s\n", "phase",
                "attr_ms", "cycles_k", "instr_k", "ipc", "llc_ld_k", "miss%",
                "stall%", "brm/ki", "dtlb%");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const CounterSet& c = r.phase[i];
    const double attr_ms =
        static_cast<double>(r.attributed_ns[i]) / 1e6;
    if (hw) {
      out += strfmt(
          "  %-14s %10.1f %12.0f %12.0f %6.2f %10.0f %6.1f%% %5.1f%% %7.2f",
          phase_name(static_cast<Phase>(i)), attr_ms,
          static_cast<double>(c[ProfCounter::kCycles]) / 1e3,
          static_cast<double>(c[ProfCounter::kInstructions]) / 1e3,
          prof_ipc(c), static_cast<double>(c[ProfCounter::kLlcLoads]) / 1e3,
          100.0 * prof_llc_miss_rate(c), 100.0 * prof_stalled_frac(c),
          prof_branch_miss_per_kinst(c));
      if (dtlb)
        out += strfmt(" %6.2f%%\n", 100.0 * prof_dtlb_miss_rate(c));
      else
        out += strfmt(" %7s\n", "-");
    } else {
      out += strfmt("  %-14s %10.1f %12s %12s %6s %10s %7s %6s %7s %7s",
                    phase_name(static_cast<Phase>(i)), attr_ms, "-", "-", "-",
                    "-", "-", "-", "-", "-");
      // The rusage fallback still carries measured locality evidence: the
      // thread's task-clock and its page-fault counters.
      out += strfmt("   task_clock_ms=%.1f minflt=%" PRIu64 " majflt=%" PRIu64
                    "\n",
                    static_cast<double>(c[ProfCounter::kTaskClockNs]) / 1e6,
                    c[ProfCounter::kMinorFaults],
                    c[ProfCounter::kMajorFaults]);
    }
  }
  return out;
}

}  // namespace

std::string format_prof_report(const ProfSnapshot& snap,
                               const SpanSnapshot* spans) {
  std::string out;
  out += strfmt("profiling report (backend: %s, sample shift %u)\n",
                snap.backend.c_str(), snap.sample_shift);
  if (!snap.enabled) {
    out += "  profiling disabled\n";
    return out;
  }
  if (snap.degraded) {
    out += strfmt(
        "  !! degraded backend: %s — hardware counters unavailable "
        "(perf_event access denied or unsupported); wall/task-clock "
        "attribution only\n",
        snap.backend.c_str());
  } else if (snap.available == 0) {
    // A forced perf_event backend on a host with no PMU access opens
    // nothing: say so rather than presenting a healthy table of zeros.
    out +=
        "  !! perf_event backend opened no counters (no PMU on this host?); "
        "all values below are zero — use --prof-backend auto to fall back\n";
  }
  const RankProfSnapshot t = snap.totals();
  out += strfmt("\ntotals (%zu rank%s, %" PRIu64 " reads, %" PRIu64
                " failed, %" PRIu64 " boundaries)\n",
                snap.per_rank.size(), snap.per_rank.size() == 1 ? "" : "s",
                t.reads, t.read_failures, t.boundaries);
  out += prof_table(t, snap.available);
  for (const auto& r : snap.per_rank) {
    out += strfmt("\nrank %u\n", r.rank);
    out += prof_table(r, snap.available);
  }
  if (spans != nullptr) {
    out += strfmt("\nwrite-path join (%" PRIu64
                  " completed spans): stage p50/p99 vs engine-phase "
                  "cycle attribution\n",
                  spans->completed);
    for (std::size_t i = 0; i < kWriteStageCount; ++i) {
      const auto& h = spans->stages[i].hist;
      out += strfmt("  %-14s p50 %10.3f ms   p99 %10.3f ms   count %" PRIu64
                    "\n",
                    write_stage_name(static_cast<WriteStage>(i)),
                    static_cast<double>(h.percentile(50.0)) / 1e6,
                    static_cast<double>(h.percentile(99.0)) / 1e6, h.count);
    }
    const CounterSet tot = t.total();
    if (tot[ProfCounter::kCycles] != 0) {
      const CounterSet& prop =
          t.phase[static_cast<std::size_t>(Phase::kPropagate)];
      out += strfmt(
          "  note: %.1f%% of attributed cycles are in propagate — the "
          "engine-side budget behind kInject/kDrain stage latencies above\n",
          100.0 * static_cast<double>(prop[ProfCounter::kCycles]) /
              static_cast<double>(tot[ProfCounter::kCycles]));
    }
  }
  return out;
}

}  // namespace remo::obs
