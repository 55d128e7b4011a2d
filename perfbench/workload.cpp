// perfbench_workload — runs ONE repetition of one benchmark workload through
// the public harness (ChurnSim, ShardedSim) and prints its raw measurements
// as a single JSON line. perfbench/run.py starts it once per repetition, a
// fresh process each time, so peak RSS is the repetition's own, and derives
// the benchmark's metrics from these lines (see perfbench/README.md).
//
//   perfbench_workload --workload steady_group|sharded_fleet|churn_wire
//                      --seed N [--threads T] [--trace] [--codec off]
//                      [--smoke]
//
// --trace installs the per-layer probes, all from this file and all through
// public seams: a Network transcoder on every runtime that sizes each
// payload with wire::encode_message and times an encode -> decode round
// trip, and a harness loop that steps run_until one gossip period at a time
// and samples Scheduler::pending() at each step. None of it draws from an
// RNG, so the traced fingerprint must equal the untraced one; run.py checks.
//
// Wall-clock reads below are the measurement instrument: they are printed
// as metrics and never reach a draw, a message or a fingerprint.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/shard.hpp"
#include "wire/messages.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace pmc;
// detlint:allow(banned-source) benchmark timing instrument, printed only
using Clock = std::chrono::steady_clock;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

/// UBSan defines no macro under gcc, so the recorded flags are checked too.
bool built_for_timing() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  return !kAssertions && !kSanitized &&
         flags.find("-fsanitize") == std::string::npos;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak RSS of this process (ru_maxrss is in KiB on Linux).
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 2027;
  std::size_t threads = 1;
  bool trace = false;
  bool codec = true;  ///< churn_wire only: off reruns without the codec
  bool smoke = false;  ///< reduced sizes for the benchmark's own tests
};

/// table_scale's publish script: 4 events at 300 ms and 4 at 700 ms.
ScenarioScript publish_script() {
  ScenarioScript s;
  s.add(sim_ms(300), PublishBurst{4, sim_ms(40)});
  s.add(sim_ms(700), PublishBurst{4, sim_ms(40)});
  return s;
}

ChurnConfig base_config(const Options& o) {
  ChurnConfig cfg;
  cfg.r = 2;
  cfg.pd = 0.5;
  cfg.loss = 0.02;
  cfg.seed = o.seed;
  return cfg;
}

ChurnConfig steady_group_config(const Options& o) {
  ChurnConfig cfg = base_config(o);
  cfg.a = o.smoke ? 6 : 12;
  cfg.d = o.smoke ? 2 : 3;
  cfg.initial_fill = 0.8;
  return cfg;
}

ShardedConfig sharded_fleet_config(const Options& o) {
  ShardedConfig cfg;
  cfg.shards = o.smoke ? 48 : 3125;
  cfg.shard = base_config(o);
  cfg.shard.a = 4;
  cfg.shard.d = 2;
  cfg.shard.initial_fill = 0.8;
  cfg.threads = o.threads;
  return cfg;
}

ChurnConfig churn_wire_config(const Options& o) {
  ChurnConfig cfg = base_config(o);
  cfg.a = o.smoke ? 6 : 8;
  cfg.d = o.smoke ? 2 : 3;
  cfg.initial_fill = 0.6;
  cfg.wire_transcode = o.codec;
  return cfg;
}

/// The smoke script ends its join storm before the first publish: a process
/// that joins after an event was published may still deliver it, but is
/// not counted in that event's expected deliveries, so at the smoke size
/// (delivery ratio ~0.93) such deliveries alone can lift delivered above
/// expected without any process delivering an event twice. The full
/// script keeps joins and publishes overlapping.
ScenarioScript churn_wire_script(bool smoke) {
  return ScenarioScript::parse(
      smoke ? "at 100ms joinstorm 8 over 150ms\n"
              "at 300ms publish 20 every 15ms\n"
              "at 800ms crash 4\n"
              "at 1000ms partition 0,1 heal 1400ms\n"
              "at 1200ms leave 2\n"
              "at 1500ms loss 0.2 for 200ms\n"
              "at 1600ms recover 3\n"
              "at 1800ms duplicate 0.1 for 300ms\n"
            : "at 200ms joinstorm 120 over 400ms\n"
              "at 300ms publish 100 every 15ms\n"
              "at 800ms crash 40\n"
              "at 1000ms partition 0,1 heal 1400ms\n"
              "at 1200ms leave 20\n"
              "at 1500ms loss 0.2 for 200ms\n"
              "at 1600ms recover 30\n"
              "at 1800ms duplicate 0.1 for 300ms\n");
}

// ---------------------------------------------------------------------------
// Probes (--trace)
// ---------------------------------------------------------------------------

constexpr std::size_t kKinds = static_cast<std::size_t>(MsgKind::Treecast) + 1;

const char* kind_name(std::size_t k) {
  // Indexed by MsgKind's value.
  static constexpr std::array<const char*, kKinds> kNames = {
      "Other",        "Gossip",           "MembershipDigest",
      "MembershipUpdate", "JoinRequest",  "ViewTransfer",
      "Leave",        "FloodGossip",      "GenuineGossip",
      "SuspectQuery", "SuspectReply",     "EventDigest",
      "EventRequest", "EventPayload",     "Treecast"};
  return kNames[k];
}

/// One runtime's wire tally. Each runtime (one per shard) gets its own
/// slot, written only from the lane running that shard and merged after
/// the run, so worker lanes share nothing.
struct alignas(64) WireTally {
  std::array<std::uint64_t, kKinds> payloads{};
  std::array<std::uint64_t, kKinds> bytes{};
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;

  WireTally& operator+=(const WireTally& o) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      payloads[k] += o.payloads[k];
      bytes[k] += o.bytes[k];
    }
    encode_ns += o.encode_ns;
    decode_ns += o.decode_ns;
    return *this;
  }
};

/// Replaces the network's transcoder with a tap that encodes and decodes
/// every payload, timing both halves. With `deliver_decoded` the decoded
/// copy travels on, exactly as ChurnSim's own wire_transcode hook does;
/// otherwise the original message does and the round trip is measured
/// beside the delivery path.
void install_wire_tap(Network& net, WireTally& tally, bool deliver_decoded) {
  net.set_transcoder([&tally, deliver_decoded](const MessagePtr& msg) {
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> bytes = wire::encode_message(*msg);
    const auto t1 = Clock::now();
    MessagePtr decoded = wire::decode_message(bytes);
    const auto t2 = Clock::now();
    const auto k = static_cast<std::size_t>(msg->kind);
    ++tally.payloads[k];
    tally.bytes[k] += bytes.size();
    tally.encode_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    tally.decode_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    return deliver_decoded ? decoded : msg;
  });
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

struct Outcome {
  GroupSummary group;  ///< the aggregate for a sharded run
  NetworkCounters net;
  std::uint64_t sched_executed = 0;
  std::uint64_t fingerprint = 0;
};

Outcome outcome(const ChurnSim& sim) {
  const ChurnSummary s = sim.summary();
  return {sim.group_summary(), s.network, s.scheduler_executed, s.fingerprint};
}

Outcome outcome(const ShardedSim& sim) {
  const ShardedSummary s = sim.summary();
  return {s.aggregate, s.network, s.scheduler_executed, s.fingerprint};
}

std::vector<Runtime*> runtimes(ChurnSim& sim) { return {&sim.runtime()}; }

std::vector<Runtime*> runtimes(ShardedSim& sim) {
  std::vector<Runtime*> out;
  for (std::size_t s = 0; s < sim.shard_count(); ++s)
    out.push_back(&sim.shard_runtime(s));
  return out;
}

std::size_t lanes(const ChurnSim&) { return 1; }
std::size_t lanes(const ShardedSim& sim) { return sim.thread_count(); }

struct Rep {
  std::size_t processes = 0;
  std::size_t threads = 1;
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  Outcome out;
  // --trace only
  std::vector<double> period_ms;        ///< one span per run_until step
  std::vector<std::uint64_t> pending;   ///< summed over runtimes, per step
  WireTally wire;
};

/// Builds the harness with `make` (timed as set-up), runs it to `horizon`
/// (timed as the run) and collects the outcome; with `trace`, probes every
/// runtime and steps the loop one gossip period at a time.
template <class Make>
Rep run_rep(Make make, std::size_t processes, SimTime horizon,
            SimTime period, bool trace, bool deliver_decoded) {
  Rep rep;
  rep.processes = processes;
  // Declared before the harness so the taps' references outlive it.
  std::vector<WireTally> tallies;
  const auto setup_start = Clock::now();
  auto sim = make();
  const auto setup_end = Clock::now();
  rep.setup_s = seconds(setup_end - setup_start);
  rep.threads = lanes(*sim);

  const std::vector<Runtime*> rts = runtimes(*sim);
  tallies.resize(trace ? rts.size() : 0);
  for (std::size_t i = 0; i < tallies.size(); ++i)
    install_wire_tap(rts[i]->network(), tallies[i], deliver_decoded);

  const double cpu_start = cpu_seconds();
  const auto run_start = Clock::now();
  if (!trace) {
    sim->run_until(horizon);
  } else {
    for (SimTime t = sim->now(); t < horizon;) {
      const SimTime next = std::min(t + period, horizon);
      const auto span_start = Clock::now();
      sim->run_until(next);
      rep.period_ms.push_back(1e3 * seconds(Clock::now() - span_start));
      std::uint64_t pending = 0;
      for (Runtime* rt : rts) pending += rt->scheduler().pending();
      rep.pending.push_back(pending);
      t = next;
    }
  }
  rep.run_s = seconds(Clock::now() - run_start);
  rep.cpu_s = cpu_seconds() - cpu_start;
  rep.out = outcome(*sim);
  for (const WireTally& t : tallies) rep.wire += t;
  return rep;
}

Rep run_workload(const Options& o) {
  if (o.workload == "steady_group") {
    const ChurnConfig cfg = steady_group_config(o);
    return run_rep(
        [&] {
          auto sim = std::make_unique<ChurnSim>(cfg);
          sim->play(publish_script());
          return sim;
        },
        2 * cfg.capacity(), sim_ms(o.smoke ? 1000 : 3000), cfg.period,
        o.trace, false);
  }
  if (o.workload == "sharded_fleet") {
    const ShardedConfig cfg = sharded_fleet_config(o);
    return run_rep(
        [&] {
          auto sim = std::make_unique<ShardedSim>(cfg);
          sim->play_all(publish_script());
          return sim;
        },
        2 * cfg.total_capacity(), sim_ms(1200), cfg.shard.period, o.trace,
        false);
  }
  if (o.workload == "churn_wire") {
    const ChurnConfig cfg = churn_wire_config(o);
    const ScenarioScript script = churn_wire_script(o.smoke);
    return run_rep(
        [&] {
          auto sim = std::make_unique<ChurnSim>(cfg);
          sim->play(script);
          return sim;
        },
        2 * cfg.capacity(), sim_ms(2500), cfg.period, o.trace, o.codec);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class T>
std::string list(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_floating_point_v<T>) {
      out += number(values[i]);
    } else {
      out += std::to_string(values[i]);
    }
  }
  return out + "]";
}

std::string kind_map(const std::array<std::uint64_t, kKinds>& counts) {
  std::string out = "{";
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (k > 0) out += ",";
    out += quoted(kind_name(k)) + ":" + std::to_string(counts[k]);
  }
  return out + "}";
}

void print_rep(const Options& o, const Rep& r) {
  const GroupSummary& g = r.out.group;
  const NetworkCounters& n = r.out.net;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(r.out.fingerprint));
  std::ostringstream j;
  j << "{\"workload\":" << quoted(o.workload) << ",\"seed\":" << o.seed
    << ",\"trace\":" << (o.trace ? "true" : "false")
    << ",\"codec\":" << (o.codec ? "true" : "false")
    << ",\"smoke\":" << (o.smoke ? "true" : "false")
    << ",\"meta\":{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"threads\":" << r.threads << ",\"compiler\":" << quoted(compiler())
    << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
    << ",\"build_flags\":" << quoted(PERFBENCH_CXX_FLAGS)
    << ",\"assertions\":" << (kAssertions ? "true" : "false")
    << ",\"sanitizer\":" << (kSanitized ? "true" : "false") << "}"
    << ",\"processes\":" << r.processes
    << ",\"setup_s\":" << number(r.setup_s) << ",\"run_s\":" << number(r.run_s)
    << ",\"cpu_s\":" << number(r.cpu_s)
    << ",\"peak_rss_bytes\":" << peak_rss_bytes()
    << ",\"published\":" << g.counters.published
    << ",\"delivered\":" << g.counters.delivered
    << ",\"expected\":" << g.counters.expected_deliveries
    << ",\"latency_samples\":" << g.latency_samples
    << ",\"latency_total_ms\":"
    << number(static_cast<double>(g.latency_total) /
              static_cast<double>(sim_ms(1)))
    << ",\"latency_max_ms\":"
    << number(static_cast<double>(g.latency_max) /
              static_cast<double>(sim_ms(1)))
    << ",\"live\":" << g.live << ",\"joined\":" << g.joined
    << ",\"tombstones\":" << g.membership_tombstones
    << ",\"joins_served\":" << g.joins_served
    << ",\"dup_suppressed\":" << g.dup_suppressed
    << ",\"shed_events\":" << g.shed_events
    << ",\"bound_collapsed\":" << g.bound_collapsed
    << ",\"sched_executed\":" << r.out.sched_executed
    << ",\"net\":{\"sent\":" << n.sent << ",\"delivered\":" << n.delivered
    << ",\"lost\":" << n.lost << ",\"filtered\":" << n.filtered
    << ",\"dead_target\":" << n.dead_target
    << ",\"duplicated\":" << n.duplicated << ",\"reordered\":" << n.reordered
    << "},\"fingerprint\":\"" << fp << "\"";
  if (o.trace) {
    j << ",\"period_ms\":" << list(r.period_ms)
      << ",\"pending\":" << list(r.pending)
      << ",\"payloads\":" << kind_map(r.wire.payloads)
      << ",\"bytes\":" << kind_map(r.wire.bytes)
      << ",\"encode_s\":" << number(static_cast<double>(r.wire.encode_ns) / 1e9)
      << ",\"decode_s\":"
      << number(static_cast<double>(r.wire.decode_ns) / 1e9);
  }
  j << "}";
  std::cout << j.str() << std::endl;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--threads") {
      o.threads = std::stoul(value());
    } else if (arg == "--codec") {
      const std::string v = value();
      if (v != "on" && v != "off")
        throw std::invalid_argument("--codec takes on or off");
      o.codec = v == "on";
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (!built_for_timing()) {
      std::cerr << "perfbench_workload: refusing a timed run from an "
                   "assert-enabled or sanitizer build ("
                << PERFBENCH_BUILD_TYPE << ": " << PERFBENCH_CXX_FLAGS
                << ")\n";
      return 3;
    }
    print_rep(o, run_workload(o));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 2;
  }
}
