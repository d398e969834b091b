// Scenario driver for the repository benchmark (run by perfbench/run.py).
//
//   dkg_bench setup <workload>
//       Cold start in this fresh process: builds the workload's group and
//       runs one n=4 scenario on it, so every lazily built per-process table
//       (comb tables, Montgomery contexts) is paid for once. Reports the
//       time from static initialization to the end of that scenario.
//   dkg_bench run <workload> <seed> <seconds> [setup]
//       Warms up with a checked run of the first scenario, then runs
//       scenarios through engine::run_scenario one after another (a closed
//       loop with one client) until `seconds` have passed, with verification
//       sized as the bench binaries size it for --jobs 1. With `setup`, one
//       `dkg_bench setup` process runs after each scenario.
//   dkg_bench_traced traced <workload> <seed> <count>
//       The same warm-up, then the first `count` scenarios of `seed`, each
//       run twice with one verify thread: untraced and traced.
//
// Every line on stdout is one JSON object. Scenario i of a run uses the
// spec seed scenario_seed(seed, i), so the same seed replays the same
// inputs. In the traced build (PERFBENCH_TRACED) a traced scenario's line
// also carries its layer counters from trace.hpp.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "crypto/element.hpp"
#include "crypto/group.hpp"
#include "crypto/sigverify.hpp"
#include "dkg/runner.hpp"
#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/verify_pool.hpp"

#ifdef PERFBENCH_TRACED
#include "trace.hpp"
#endif

namespace {

using dkg::crypto::Group;
using dkg::engine::AdversaryKind;
using dkg::engine::ScenarioResult;
using dkg::engine::ScenarioSpec;
using dkg::vss::CommitmentMode;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  const Group& (*group)();
  CommitmentMode mode;
  std::size_t n, t, f;
  AdversaryKind adversary;
};

// The workload names are those of BENCHMARK.json; run.py takes its list
// from there and this driver rejects any name it does not define.
const Workload kWorkloads[] = {
    {"e4-full-ec256", &Group::ec256, CommitmentMode::Full, 31, 10, 0, AdversaryKind::None},
    {"e4-full-mod1024", &Group::mod1024, CommitmentMode::Full, 31, 10, 0, AdversaryKind::None},
    {"e4-hashed-tiny256", &Group::tiny256, CommitmentMode::Hashed, 40, 13, 0, AdversaryKind::None},
    {"churn-tiny256", &Group::tiny256, CommitmentMode::Hashed, 31, 8, 3, AdversaryKind::ChurnStorm},
};

const Workload* find_workload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

/// splitmix64 over (run seed, scenario index): distinct, reproducible
/// per-scenario seeds without hand-picked constants.
std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ScenarioSpec make_spec(const Workload& w, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.label = w.name;
  spec.variant = dkg::engine::Variant::Dkg;
  spec.grp = &w.group();
  spec.n = w.n;
  spec.t = w.t;
  spec.f = w.f;
  spec.mode = w.mode;
  spec.seed = seed;
  spec.adversary.kind = w.adversary;
  return spec;
}

// Taken before the program's own static initializers run: priority 101
// precedes every default-priority initializer in libdkg_core. The exec and
// dynamic-loader time before it is the operating system's, not the
// program's, and it varies with host load far more than set-up does.
const Clock::time_point g_process_start __attribute__((init_priority(101))) = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& v) { return static_cast<double>(v.tv_sec) + v.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

std::string extra_json(const ScenarioResult& r, const char* key) {
  const dkg::engine::MetricValue* v = r.extra(key);
  if (v == nullptr) return "null";
  if (const bool* b = std::get_if<bool>(v)) return json_bool(*b);
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(v)) return std::to_string(*u);
  return "null";
}

/// Warm-up that doubles as the output check: drives the first scenario's
/// DKG directly (honest nodes, same group/size/seed; the churn workload's
/// crash plan is left out) and checks Definition 4.1 plus the secret: every
/// honest node completes, all outputs agree and verify against the
/// commitment, and g^(interpolated secret) is the agreed public key.
void check_run(const Workload& w, std::uint64_t seed) {
  ScenarioSpec spec = make_spec(w, seed);
  dkg::core::RunnerConfig cfg;
  cfg.grp = spec.grp;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.f = spec.f;
  cfg.seed = spec.seed;
  cfg.mode = spec.mode;
  dkg::core::DkgRunner runner(cfg);
  runner.start_all();
  const Clock::time_point start = Clock::now();
  const bool completed = runner.run_to_completion();
  const double wall = seconds_since(start);
  const std::size_t done = runner.completed_nodes().size();
  const std::size_t honest = runner.honest_nodes().size();
  const bool consistent = completed && runner.outputs_consistent();
  bool secret_ok = false;
  if (consistent) {
    const dkg::core::DkgOutput& out = runner.dkg_node(runner.completed_nodes().front()).output();
    secret_ok = dkg::crypto::Element::exp_g(runner.reconstruct_secret()) == out.public_key;
  }
  const dkg::sim::Metrics& m = runner.simulator().metrics();
  std::printf(
      "{\"kind\":\"check\",\"seed\":%llu,\"adversary_omitted\":%s,\"completed\":%s,"
      "\"honest_completed\":%zu,\"honest_total\":%zu,\"outputs_consistent\":%s,"
      "\"secret_matches_public_key\":%s,\"messages\":%llu,\"wire_bytes\":%llu,"
      "\"completion_ticks\":%llu,\"wall_s\":%.6f}\n",
      static_cast<unsigned long long>(seed), json_bool(w.adversary != AdversaryKind::None).c_str(),
      json_bool(completed).c_str(), done, honest, json_bool(consistent).c_str(),
      json_bool(secret_ok).c_str(), static_cast<unsigned long long>(m.total_messages()),
      static_cast<unsigned long long>(m.total_bytes()),
      static_cast<unsigned long long>(runner.simulator().now()), wall);
  std::fflush(stdout);
}

void print_scenario(const char* pass, std::size_t index, std::uint64_t seed,
                    const ScenarioResult& r, double wall, double cpu) {
  const dkg::crypto::SigVerifyStats s = dkg::crypto::sig_verify_stats();
  std::printf(
      "{\"kind\":\"scenario\",\"pass\":\"%s\",\"index\":%zu,\"seed\":%llu,\"wall_s\":%.6f,"
      "\"cpu_s\":%.6f,\"completed\":%s,\"ok\":%s,\"safety_ok\":%s,\"liveness_ok\":%s,"
      "\"honest_completed\":%s,\"honest_total\":%s,\"messages\":%llu,\"wire_bytes\":%llu,"
      "\"completion_ticks\":%llu,\"vss_messages\":%s,\"agreement_messages\":%s,"
      "\"sig\":{\"cache_hits\":%llu,\"cache_misses\":%llu,\"batch_calls\":%llu,"
      "\"batch_items\":%llu,\"batch_fallbacks\":%llu,\"comb_builds\":%llu,"
      "\"point_memo_hits\":%llu,\"point_memo_misses\":%llu}",
      pass, index, static_cast<unsigned long long>(seed), wall, cpu,
      json_bool(r.completed).c_str(), json_bool(r.ok).c_str(), extra_json(r, "safety_ok").c_str(),
      extra_json(r, "liveness_ok").c_str(), extra_json(r, "honest_completed").c_str(),
      extra_json(r, "honest_total").c_str(), static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.bytes),
      static_cast<unsigned long long>(r.completion_time), extra_json(r, "vss_messages").c_str(),
      extra_json(r, "agreement_messages").c_str(),
      static_cast<unsigned long long>(s.cache_hits), static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.batch_calls), static_cast<unsigned long long>(s.batch_items),
      static_cast<unsigned long long>(s.batch_fallbacks),
      static_cast<unsigned long long>(s.comb_builds),
      static_cast<unsigned long long>(s.point_memo_hits),
      static_cast<unsigned long long>(s.point_memo_misses));
}

#ifdef PERFBENCH_TRACED
void print_trace(const perfbench::trace::Snapshot& snap) {
  std::printf(",\"trace\":{\"root_total_s\":%.9f,\"root_self_s\":%.9f,\"dropped_messages\":%llu,"
              "\"off_thread_calls\":%llu,\"unclosed_spans\":%d,\"layers\":{",
              snap.root_total_s, snap.root_self_s,
              static_cast<unsigned long long>(snap.dropped_messages),
              static_cast<unsigned long long>(snap.off_thread_calls), snap.unclosed_spans);
  for (int l = 0; l < perfbench::trace::kLayerCount; ++l) {
    const perfbench::trace::LayerStats& s = snap.layer[l];
    std::printf("%s\"%s\":{\"calls\":%llu,\"rejects\":%llu,\"items\":%llu,\"self_s\":%.9f,"
                "\"total_s\":%.9f}",
                l == 0 ? "" : ",", perfbench::trace::kLayerNames[l],
                static_cast<unsigned long long>(s.calls), static_cast<unsigned long long>(s.rejects),
                static_cast<unsigned long long>(s.items), s.self_s, s.total_s);
  }
  std::printf("}}");
}
#endif

int cmd_setup(const Workload& w) {
  ScenarioSpec spec = make_spec(w, 1);
  spec.n = 4;
  spec.t = 1;
  spec.f = 0;
  spec.adversary = {};
  const ScenarioResult r = dkg::engine::run_scenario(spec);
  std::printf("{\"kind\":\"setup\",\"ok\":%s,\"setup_s\":%.9f}\n", json_bool(r.ok).c_str(),
              seconds_since(g_process_start));
  return r.ok ? 0 : 1;
}

constexpr std::size_t kMinSetupSamples = 9;

/// The CPUs this process may run on, in increasing order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) throw std::runtime_error("no CPU in the affinity mask");
  return cpus;
}

/// Runs `dkg_bench setup` for this workload in a fresh process pinned to
/// `cpu`, waits for it and prints the line it reports. The pooled loop calls
/// this between scenarios, so the set-up samples are spread over the whole
/// run and never overlap a timed scenario. The CPU goes round-robin because
/// the vCPUs of a shared host run at different speeds: left to the
/// scheduler, a whole run's samples can land on one slow or one fast vCPU.
void spawn_setup(const Workload& w, int cpu) {
  cpu_set_t saved;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // The child inherits the spawning thread's affinity.
  const bool pinned = sched_getaffinity(0, sizeof(saved), &saved) == 0 &&
                      sched_setaffinity(0, sizeof(one), &one) == 0;
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char self[] = "/proc/self/exe";
  char setup[] = "setup";
  std::string name = w.name;
  char* const args[] = {self, setup, name.data(), nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self, &actions, nullptr, args, environ);
  if (pinned) sched_setaffinity(0, sizeof(saved), &saved);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    for (ssize_t k; (k = read(fds[0], buf, sizeof(buf))) > 0;) {
      out.append(buf, static_cast<std::size_t>(k));
    }
  }
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  std::fputs(out.c_str(), stdout);
}

/// Runs one scenario and prints its line. `traced` opens a trace around
/// it (traced build only).
void run_one(const ScenarioSpec& spec, const char* pass, std::size_t index, bool traced) {
  dkg::crypto::sig_verify_reset_stats();
#ifdef PERFBENCH_TRACED
  if (traced) perfbench::trace::begin();
#else
  (void)traced;
#endif
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const ScenarioResult r = dkg::engine::run_scenario(spec);
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_s() - cpu0;
#ifdef PERFBENCH_TRACED
  perfbench::trace::Snapshot snap;
  if (traced) snap = perfbench::trace::end();
#endif
  print_scenario(pass, index, spec.seed, r, wall, cpu);
#ifdef PERFBENCH_TRACED
  if (traced) print_trace(snap);
#endif
  std::printf("}\n");
  std::fflush(stdout);
}

/// Sizes the verify pool, prints the config line and runs the checked
/// warm-up scenario: the common start of `run` and `traced`.
void start_run(const Workload& w, std::uint64_t seed) {
  dkg::engine::VerifyPool& pool = dkg::engine::VerifyPool::instance();
  pool.configure(dkg::engine::VerifyPool::cooperative_jobs(1));
  std::printf("{\"kind\":\"config\",\"verify_threads\":%u,\"n\":%zu,\"t\":%zu,\"f\":%zu,"
              "\"honest\":%s}\n",
              pool.configured_jobs(), w.n, w.t, w.f,
              json_bool(w.adversary == AdversaryKind::None).c_str());
  check_run(w, scenario_seed(seed, 0));
}

void end_run() { std::printf("{\"kind\":\"end\",\"peak_rss_mb\":%.3f}\n", peak_rss_mb()); }

int cmd_run(const Workload& w, std::uint64_t seed, double budget_s, bool setups) {
  start_run(w, seed);
  const std::vector<int> cpus = allowed_cpus();
  std::size_t spawned = 0;
  auto next_setup = [&] { spawn_setup(w, cpus[spawned++ % cpus.size()]); };

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i == 0 || seconds_since(start) < budget_s; ++i) {
    ScenarioSpec spec = make_spec(w, scenario_seed(seed, i));
    spec.verify_jobs = 0;  // the pool's configured size
    run_one(spec, "pool", i, false);
    if (setups) next_setup();
  }
  // At least kMinSetupSamples set-up samples, every CPU used equally often.
  while (setups && (spawned < kMinSetupSamples || spawned % cpus.size() != 0)) next_setup();
  end_run();
  return 0;
}

#ifdef PERFBENCH_TRACED
int cmd_traced(const Workload& w, std::uint64_t seed, long count) {
  start_run(w, seed);
  for (std::size_t i = 0; static_cast<long>(i) < count; ++i) {
    ScenarioSpec spec = make_spec(w, scenario_seed(seed, i));
    spec.verify_jobs = 1;
    // Each seed runs untraced and traced back to back, in alternating
    // order, so the pair sees the same host conditions and any warm-cache
    // advantage of going second is shared evenly: the pair's ratio is the
    // trace overhead.
    const bool traced_first = i % 2 == 0;
    run_one(spec, traced_first ? "traced" : "untraced", i, traced_first);
    run_one(spec, traced_first ? "untraced" : "traced", i, !traced_first);
  }
  end_run();
  return 0;
}
#endif

int usage() {
  std::fprintf(stderr,
               "usage: dkg_bench setup <workload>\n"
               "       dkg_bench run <workload> <seed> <seconds> [setup]\n"
#ifdef PERFBENCH_TRACED
               "       dkg_bench_traced traced <workload> <seed> <count>\n"
#endif
  );
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const Workload* w = find_workload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "dkg_bench: unknown workload '%s'\n", argv[2]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "setup" && argc == 3) return cmd_setup(*w);
    if (cmd == "run" && (argc == 5 || (argc == 6 && std::strcmp(argv[5], "setup") == 0))) {
      return cmd_run(*w, std::strtoull(argv[3], nullptr, 10), std::strtod(argv[4], nullptr),
                     argc == 6);
    }
#ifdef PERFBENCH_TRACED
    if (cmd == "traced" && argc == 5) {
      return cmd_traced(*w, std::strtoull(argv[3], nullptr, 10), std::strtol(argv[4], nullptr, 10));
    }
#endif
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dkg_bench: %s\n", e.what());
    return 1;
  }
  return usage();
}
