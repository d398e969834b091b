// Link-time trace shims (see trace.hpp). Each traced entry point gets a pair
// of declarations bound by asm label to the linker's --wrap names:
//   __wrap_<sym>  — defined here; every cross-object call to <sym> lands here;
//   __real_<sym>  — resolved by the linker to the original definition.
// A member function is declared as a free function taking `this` first,
// which is how the Itanium C++ ABI passes it (a returned class object's
// hidden pointer comes before `this` in both forms). CMakeLists.txt reads
// the __wrap_ labels from this file to build the --wrap list.
#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/feldman.hpp"
#include "crypto/keyring.hpp"
#include "crypto/lagrange.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace perfbench::trace {

namespace {

using Clock = std::chrono::steady_clock;

struct Frame {
  Clock::time_point start;
  Clock::duration child{};
};

struct Acc {
  std::uint64_t calls = 0;
  std::uint64_t rejects = 0;
  std::uint64_t items = 0;
  Clock::duration self{};
  Clock::duration total{};
};

std::atomic<bool> g_active{false};  // between begin() and end()
thread_local bool tl_scenario_thread = false;
thread_local std::vector<Frame> tl_stack;

Acc g_acc[kLayerCount];
Clock::time_point g_root_start;
std::uint64_t g_drops = 0;
std::atomic<std::uint64_t> g_off_thread{0};

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Counts a traced call made while a trace is open on another thread.
bool off_thread() {
  if (tl_scenario_thread || !g_active.load(std::memory_order_relaxed)) return false;
  g_off_thread.fetch_add(1, std::memory_order_relaxed);
  return true;
}

/// One traced call: timed on the scenario thread while a trace is open,
/// otherwise passed straight through. The destructor charges the span even
/// if the call throws.
class Span {
 public:
  explicit Span(Layer layer) : layer_(layer), timed_(tl_scenario_thread) {
    if (!timed_) {
      off_thread();
      return;
    }
    tl_stack.push_back(Frame{Clock::now()});
  }
  ~Span() {
    if (!timed_) return;
    const Clock::time_point end = Clock::now();
    const Frame frame = tl_stack.back();
    tl_stack.pop_back();
    const Clock::duration total = end - frame.start;
    Acc& acc = g_acc[layer_];
    acc.calls += 1;
    acc.self += total - frame.child;
    acc.total += total;
    tl_stack.back().child += total;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Passes a verdict through, counting a false one as a reject.
  bool verdict(bool ok) {
    if (timed_ && !ok) g_acc[layer_].rejects += 1;
    return ok;
  }
  void add_items(std::size_t k) {
    if (timed_) g_acc[layer_].items += k;
  }

 private:
  Layer layer_;
  bool timed_;
};

}  // namespace

void begin() {
  for (Acc& a : g_acc) a = Acc{};
  g_drops = 0;
  g_off_thread.store(0, std::memory_order_relaxed);
  tl_scenario_thread = true;
  tl_stack.clear();
  tl_stack.reserve(64);
  g_active.store(true, std::memory_order_relaxed);
  g_root_start = Clock::now();
  tl_stack.push_back(Frame{g_root_start});
}

Snapshot end() {
  const Clock::time_point stop = Clock::now();
  Snapshot snap;
  snap.unclosed_spans = static_cast<int>(tl_stack.size()) - 1;
  const Clock::duration root_total = stop - g_root_start;
  snap.root_total_s = seconds(root_total);
  snap.root_self_s = tl_stack.empty() ? 0.0 : seconds(root_total - tl_stack.front().child);
  for (int l = 0; l < kLayerCount; ++l) {
    snap.layer[l] = LayerStats{g_acc[l].calls, g_acc[l].rejects, g_acc[l].items,
                               seconds(g_acc[l].self), seconds(g_acc[l].total)};
  }
  snap.dropped_messages = g_drops;
  snap.off_thread_calls = g_off_thread.load(std::memory_order_relaxed);
  tl_stack.clear();
  tl_scenario_thread = false;
  g_active.store(false, std::memory_order_relaxed);
  return snap;
}

// --- shims ------------------------------------------------------------------

namespace shims {

using dkg::Bytes;
using dkg::crypto::BiPolynomial;
using dkg::crypto::Element;
using dkg::crypto::FeldmanMatrix;
using dkg::crypto::FeldmanVector;
using dkg::crypto::Group;
using dkg::crypto::Keyring;
using dkg::crypto::Polynomial;
using dkg::crypto::Scalar;
using dkg::crypto::SecretScalar;
using dkg::crypto::Signature;
using ScalarPoints = std::vector<std::pair<std::uint64_t, Scalar>>;

// crypto::SecretScalar::commit_to() const
Element real_commit_to_g(const SecretScalar* self)
    asm("__real__ZNK3dkg6crypto12SecretScalar9commit_toEv");
Element wrap_commit_to_g(const SecretScalar* self)
    asm("__wrap__ZNK3dkg6crypto12SecretScalar9commit_toEv");
Element wrap_commit_to_g(const SecretScalar* self) {
  Span s(kCommitTo);
  return real_commit_to_g(self);
}

// crypto::SecretScalar::commit_to(const Element&) const
Element real_commit_to_base(const SecretScalar* self, const Element& base)
    asm("__real__ZNK3dkg6crypto12SecretScalar9commit_toERKNS0_7ElementE");
Element wrap_commit_to_base(const SecretScalar* self, const Element& base)
    asm("__wrap__ZNK3dkg6crypto12SecretScalar9commit_toERKNS0_7ElementE");
Element wrap_commit_to_base(const SecretScalar* self, const Element& base) {
  Span s(kCommitTo);
  return real_commit_to_base(self, base);
}

// static crypto::FeldmanMatrix::commit(const BiPolynomial&)
FeldmanMatrix real_matrix_commit(const BiPolynomial& f)
    asm("__real__ZN3dkg6crypto13FeldmanMatrix6commitERKNS0_12BiPolynomialE");
FeldmanMatrix wrap_matrix_commit(const BiPolynomial& f)
    asm("__wrap__ZN3dkg6crypto13FeldmanMatrix6commitERKNS0_12BiPolynomialE");
FeldmanMatrix wrap_matrix_commit(const BiPolynomial& f) {
  Span s(kFeldmanCommit);
  return real_matrix_commit(f);
}

// static crypto::FeldmanVector::commit(const Polynomial&)
FeldmanVector real_vector_commit(const Polynomial& a)
    asm("__real__ZN3dkg6crypto13FeldmanVector6commitERKNS0_10PolynomialE");
FeldmanVector wrap_vector_commit(const Polynomial& a)
    asm("__wrap__ZN3dkg6crypto13FeldmanVector6commitERKNS0_10PolynomialE");
FeldmanVector wrap_vector_commit(const Polynomial& a) {
  Span s(kFeldmanCommit);
  return real_vector_commit(a);
}

// crypto::FeldmanMatrix::verify_point(uint64, uint64, const Scalar&) const
bool real_verify_point(const FeldmanMatrix* self, std::uint64_t i, std::uint64_t m,
                       const Scalar& alpha)
    asm("__real__ZNK3dkg6crypto13FeldmanMatrix12verify_pointEmmRKNS0_6ScalarE");
bool wrap_verify_point(const FeldmanMatrix* self, std::uint64_t i, std::uint64_t m,
                       const Scalar& alpha)
    asm("__wrap__ZNK3dkg6crypto13FeldmanMatrix12verify_pointEmmRKNS0_6ScalarE");
bool wrap_verify_point(const FeldmanMatrix* self, std::uint64_t i, std::uint64_t m,
                       const Scalar& alpha) {
  Span s(kVerifyPoint);
  return s.verdict(real_verify_point(self, i, m, alpha));
}

// crypto::FeldmanVector::verify_share(uint64, const Scalar&) const
bool real_verify_share(const FeldmanVector* self, std::uint64_t i, const Scalar& share)
    asm("__real__ZNK3dkg6crypto13FeldmanVector12verify_shareEmRKNS0_6ScalarE");
bool wrap_verify_share(const FeldmanVector* self, std::uint64_t i, const Scalar& share)
    asm("__wrap__ZNK3dkg6crypto13FeldmanVector12verify_shareEmRKNS0_6ScalarE");
bool wrap_verify_share(const FeldmanVector* self, std::uint64_t i, const Scalar& share) {
  Span s(kVerifyShare);
  return s.verdict(real_verify_share(self, i, share));
}

// crypto::FeldmanMatrix::row_commitment(uint64) const
FeldmanVector real_row_commitment(const FeldmanMatrix* self, std::uint64_t i)
    asm("__real__ZNK3dkg6crypto13FeldmanMatrix14row_commitmentEm");
FeldmanVector wrap_row_commitment(const FeldmanMatrix* self, std::uint64_t i)
    asm("__wrap__ZNK3dkg6crypto13FeldmanMatrix14row_commitmentEm");
FeldmanVector wrap_row_commitment(const FeldmanMatrix* self, std::uint64_t i) {
  Span s(kRowCommitment);
  return real_row_commitment(self, i);
}

// crypto::FeldmanMatrix::verify_poly(uint64, const Polynomial&) const
bool real_verify_poly(const FeldmanMatrix* self, std::uint64_t i, const Polynomial& a)
    asm("__real__ZNK3dkg6crypto13FeldmanMatrix11verify_polyEmRKNS0_10PolynomialE");
bool wrap_verify_poly(const FeldmanMatrix* self, std::uint64_t i, const Polynomial& a)
    asm("__wrap__ZNK3dkg6crypto13FeldmanMatrix11verify_polyEmRKNS0_10PolynomialE");
bool wrap_verify_poly(const FeldmanMatrix* self, std::uint64_t i, const Polynomial& a) {
  Span s(kVerifyPoly);
  return s.verdict(real_verify_poly(self, i, a));
}

// crypto::Keyring::verify_from(uint32, const Bytes&, const Signature&) const
bool real_verify_from(const Keyring* self, std::uint32_t node, const Bytes& msg,
                      const Signature& sig)
    asm("__real__ZNK3dkg6crypto7Keyring11verify_fromEjRKSt6vectorIhSaIhEERKNS0_9SignatureE");
bool wrap_verify_from(const Keyring* self, std::uint32_t node, const Bytes& msg,
                      const Signature& sig)
    asm("__wrap__ZNK3dkg6crypto7Keyring11verify_fromEjRKSt6vectorIhSaIhEERKNS0_9SignatureE");
bool wrap_verify_from(const Keyring* self, std::uint32_t node, const Bytes& msg,
                      const Signature& sig) {
  Span s(kVerifyFrom);
  return s.verdict(real_verify_from(self, node, msg, sig));
}

// crypto::Keyring::verify_many(const vector<SignerRef>&, const Bytes&, vector<uint32>*) const
bool real_verify_many(const Keyring* self, const std::vector<Keyring::SignerRef>& sigs,
                      const Bytes& payload, std::vector<std::uint32_t>* bad)
    asm("__real__ZNK3dkg6crypto7Keyring11verify_manyERKSt6vectorINS1_9SignerRefESaIS3_EERKS2_IhSaIhEEPS2_IjSaIjEE");
bool wrap_verify_many(const Keyring* self, const std::vector<Keyring::SignerRef>& sigs,
                      const Bytes& payload, std::vector<std::uint32_t>* bad)
    asm("__wrap__ZNK3dkg6crypto7Keyring11verify_manyERKSt6vectorINS1_9SignerRefESaIS3_EERKS2_IhSaIhEEPS2_IjSaIjEE");
bool wrap_verify_many(const Keyring* self, const std::vector<Keyring::SignerRef>& sigs,
                      const Bytes& payload, std::vector<std::uint32_t>* bad) {
  Span s(kVerifyMany);
  s.add_items(sigs.size());
  return s.verdict(real_verify_many(self, sigs, payload, bad));
}

// crypto::Keyring::sign_as(uint32, const Bytes&) const
Signature real_sign_as(const Keyring* self, std::uint32_t node, const Bytes& msg)
    asm("__real__ZNK3dkg6crypto7Keyring7sign_asEjRKSt6vectorIhSaIhEE");
Signature wrap_sign_as(const Keyring* self, std::uint32_t node, const Bytes& msg)
    asm("__wrap__ZNK3dkg6crypto7Keyring7sign_asEjRKSt6vectorIhSaIhEE");
Signature wrap_sign_as(const Keyring* self, std::uint32_t node, const Bytes& msg) {
  Span s(kSignAs);
  return real_sign_as(self, node, msg);
}

// crypto::sha256(const Bytes&)
Bytes real_sha256(const Bytes& data)
    asm("__real__ZN3dkg6crypto6sha256ERKSt6vectorIhSaIhEE");
Bytes wrap_sha256(const Bytes& data)
    asm("__wrap__ZN3dkg6crypto6sha256ERKSt6vectorIhSaIhEE");
Bytes wrap_sha256(const Bytes& data) {
  Span s(kSha256);
  return real_sha256(data);
}

// crypto::sha256_into(const uint8_t*, size_t, uint8_t*)
void real_sha256_into(const std::uint8_t* data, std::size_t len, std::uint8_t* out)
    asm("__real__ZN3dkg6crypto11sha256_intoEPKhmPh");
void wrap_sha256_into(const std::uint8_t* data, std::size_t len, std::uint8_t* out)
    asm("__wrap__ZN3dkg6crypto11sha256_intoEPKhmPh");
void wrap_sha256_into(const std::uint8_t* data, std::size_t len, std::uint8_t* out) {
  Span s(kSha256);
  real_sha256_into(data, len, out);
}

// crypto::sha256_framed(std::initializer_list<const Bytes*>)
Bytes real_sha256_framed(std::initializer_list<const Bytes*> parts)
    asm("__real__ZN3dkg6crypto13sha256_framedESt16initializer_listIPKSt6vectorIhSaIhEEE");
Bytes wrap_sha256_framed(std::initializer_list<const Bytes*> parts)
    asm("__wrap__ZN3dkg6crypto13sha256_framedESt16initializer_listIPKSt6vectorIhSaIhEEE");
Bytes wrap_sha256_framed(std::initializer_list<const Bytes*> parts) {
  Span s(kSha256);
  return real_sha256_framed(parts);
}

// crypto::interpolate(const Group&, const vector<pair<uint64, Scalar>>&)
Polynomial real_interpolate(const Group& grp, const ScalarPoints& pts)
    asm("__real__ZN3dkg6crypto11interpolateERKNS0_5GroupERKSt6vectorISt4pairImNS0_6ScalarEESaIS7_EE");
Polynomial wrap_interpolate(const Group& grp, const ScalarPoints& pts)
    asm("__wrap__ZN3dkg6crypto11interpolateERKNS0_5GroupERKSt6vectorISt4pairImNS0_6ScalarEESaIS7_EE");
Polynomial wrap_interpolate(const Group& grp, const ScalarPoints& pts) {
  Span s(kInterpolate);
  return real_interpolate(grp, pts);
}

// static crypto::FeldmanMatrix::from_bytes_interned(const Group&, const Bytes&, uint64)
std::shared_ptr<const FeldmanMatrix> real_from_bytes_interned(const Group& grp, const Bytes& b, std::uint64_t t)
    asm("__real__ZN3dkg6crypto13FeldmanMatrix19from_bytes_internedERKNS0_5GroupERKSt6vectorIhSaIhEEm");
std::shared_ptr<const FeldmanMatrix> wrap_from_bytes_interned(const Group& grp, const Bytes& b, std::uint64_t t)
    asm("__wrap__ZN3dkg6crypto13FeldmanMatrix19from_bytes_internedERKNS0_5GroupERKSt6vectorIhSaIhEEm");
std::shared_ptr<const FeldmanMatrix> wrap_from_bytes_interned(const Group& grp, const Bytes& b, std::uint64_t t) {
  Span s(kFromBytesInterned);
  return real_from_bytes_interned(grp, b, t);
}

// sim::Message::wire_size() const
std::size_t real_wire_size(const dkg::sim::Message* self)
    asm("__real__ZNK3dkg3sim7Message9wire_sizeEv");
std::size_t wrap_wire_size(const dkg::sim::Message* self)
    asm("__wrap__ZNK3dkg3sim7Message9wire_sizeEv");
std::size_t wrap_wire_size(const dkg::sim::Message* self) {
  Span s(kWireSize);
  return real_wire_size(self);
}

// sim::Simulator::run_until(const std::function<bool()>&, uint64)
bool real_run_until(dkg::sim::Simulator* self, const std::function<bool()>& pred, std::uint64_t max_events)
    asm("__real__ZN3dkg3sim9Simulator9run_untilERKSt8functionIFbvEEm");
bool wrap_run_until(dkg::sim::Simulator* self, const std::function<bool()>& pred, std::uint64_t max_events)
    asm("__wrap__ZN3dkg3sim9Simulator9run_untilERKSt8functionIFbvEEm");
bool wrap_run_until(dkg::sim::Simulator* self, const std::function<bool()>& pred, std::uint64_t max_events) {
  Span s(kRunUntil);
  return real_run_until(self, pred, max_events);
}

// sim::Metrics::record_drop(std::string_view) — counted, not timed.
void real_record_drop(dkg::sim::Metrics* self, std::string_view type)
    asm("__real__ZN3dkg3sim7Metrics11record_dropESt17basic_string_viewIcSt11char_traitsIcEE");
void wrap_record_drop(dkg::sim::Metrics* self, std::string_view type)
    asm("__wrap__ZN3dkg3sim7Metrics11record_dropESt17basic_string_viewIcSt11char_traitsIcEE");
void wrap_record_drop(dkg::sim::Metrics* self, std::string_view type) {
  if (tl_scenario_thread) {
    g_drops += 1;
  } else {
    off_thread();
  }
  real_record_drop(self, type);
}

}  // namespace shims

}  // namespace perfbench::trace
