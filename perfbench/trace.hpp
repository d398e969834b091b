// Outside-in layer trace for the benchmark's traced driver.
//
// trace_shims.cpp defines one link-time shim per public entry point it
// traces (`-Wl,--wrap=<mangled symbol>`, see CMakeLists.txt). Each shim
// opens a span on a thread-local stack, calls the real function, and on
// return charges the span's duration to its layer: `total` is the whole
// duration, `self` the duration minus the part its child spans covered. The
// root span opened by begin() collects whatever runs outside every traced
// layer (the unattributed remainder).
//
// Only cross-object calls are caught: a call that stays inside the
// translation unit defining the callee is resolved by the compiler and never
// reaches the shim, so its time is charged to the nearest traced caller.
//
// The traced pass runs scenarios with verification forced sequential, so
// every span opens on the scenario thread and self times partition the
// scenario's wall time. A shim that fires on any other thread is counted in
// `off_thread_calls` and not timed; the driver fails its check if any did.
#pragma once

#include <cstdint>

namespace perfbench::trace {

// Every traced layer, once: its enumerator, its metric-name stem, and the
// public entry points whose shims in trace_shims.cpp charge it.
#define PERFBENCH_TRACE_LAYERS(X)                             \
  /* SecretScalar::commit_to (both overloads) */              \
  X(kCommitTo, "crypto.secret.commit_to")                     \
  /* FeldmanMatrix::commit, FeldmanVector::commit */          \
  X(kFeldmanCommit, "crypto.feldman.commit")                  \
  /* FeldmanMatrix::verify_point */                           \
  X(kVerifyPoint, "crypto.feldman.verify_point")              \
  /* FeldmanVector::verify_share */                           \
  X(kVerifyShare, "crypto.feldman.verify_share")              \
  /* FeldmanMatrix::row_commitment */                         \
  X(kRowCommitment, "crypto.feldman.row_commitment")          \
  /* FeldmanMatrix::verify_poly */                            \
  X(kVerifyPoly, "crypto.feldman.verify_poly")                \
  /* Keyring::verify_from */                                  \
  X(kVerifyFrom, "crypto.keyring.verify_from")                \
  /* Keyring::verify_many */                                  \
  X(kVerifyMany, "crypto.keyring.verify_many")                \
  /* Keyring::sign_as */                                      \
  X(kSignAs, "crypto.keyring.sign_as")                        \
  /* sha256, sha256_into, sha256_framed */                    \
  X(kSha256, "crypto.sha256")                                 \
  /* crypto::interpolate */                                   \
  X(kInterpolate, "crypto.lagrange.interpolate")              \
  /* FeldmanMatrix::from_bytes_interned */                    \
  X(kFromBytesInterned, "crypto.feldman.from_bytes_interned") \
  /* sim::Message::wire_size */                               \
  X(kWireSize, "sim.message.wire_size")                       \
  /* sim::Simulator::run_until */                             \
  X(kRunUntil, "sim.simulator.run_until")

enum Layer : int {
#define PERFBENCH_LAYER_ENUM(id, name) id,
  PERFBENCH_TRACE_LAYERS(PERFBENCH_LAYER_ENUM)
#undef PERFBENCH_LAYER_ENUM
  kLayerCount,
};

/// Metric-name stem of each layer ("crypto.feldman.verify_point", ...).
inline constexpr const char* kLayerNames[kLayerCount] = {
#define PERFBENCH_LAYER_NAME(id, name) name,
    PERFBENCH_TRACE_LAYERS(PERFBENCH_LAYER_NAME)
#undef PERFBENCH_LAYER_NAME
};

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t rejects = 0;  // calls that returned false (bool layers)
  std::uint64_t items = 0;    // verify_many: signatures passed in
  double self_s = 0.0;
  double total_s = 0.0;
};

struct Snapshot {
  LayerStats layer[kLayerCount];
  double root_total_s = 0.0;  // begin() .. end() on the scenario thread
  double root_self_s = 0.0;   // time inside no traced layer
  std::uint64_t dropped_messages = 0;  // sim::Metrics::record_drop calls
  std::uint64_t off_thread_calls = 0;
  int unclosed_spans = 0;  // spans still open at end(); 0 when balanced
};

/// Resets every counter and opens the root span on the calling thread,
/// which becomes the only thread whose spans are timed.
void begin();
/// Closes the root span and returns the counters since begin().
Snapshot end();

}  // namespace perfbench::trace
