// pprox_ct_bench — dudect-style dynamic timing-leakage harness (DESIGN.md
// §13.6). The static pass (pprox_lint --ct) proves the *code shape* is
// branch-free; this harness cross-validates the *compiled artifact*: the
// optimizer, the CPU, and the library are all in the measurement loop.
//
// Method (after Reparaz/Balasch/Verbauwhede, "dude, is my code constant
// time?"): for each primitive, prepare two input classes that take the same
// macro path — class 0 a fixed secret-side input, class 1 a fresh
// pseudo-random one — interleave them in a fixed-seed random order, measure
// each invocation in cycles (rdtscp on x86, steady_clock elsewhere), and run
// Welch's t-test on the two timing populations. As in dudect, samples are
// taken in batches whose classes and inputs are all prepared before any of
// them is timed: class-dependent preparation between two measurements
// (an RNG fill for class 1 only, say) shifts the next timing by a fraction
// of a cycle, which a cropped test resolves.
//
// Post-processing is dudect's: raw means are driven by the upper tail
// (preemptions, interrupts, frequency steps), so a measured warm-up batch
// sets a ladder of crop thresholds at upper percentiles of its pooled
// timings, and each rung runs its own Welch test on the samples below its
// threshold. The verdict is the largest |t| over the cropped tests; the raw
// t is printed for reference only. |t| > 10 flags a leak. The threshold is
// deliberately far above dudect's canonical 4.5: CI boxes are noisy, and a
// miss here is backstopped by the static pass; what this gate must never do
// is flake.
//
// Primitives measured (shipped build):
//   ct_equal           4 KiB unequal compare — both classes reject
//   gcm_tag_check      AesGcm::open with a corrupted tag — both reject
//                      before any plaintext is released
//   rsa_unpad_pkcs1    128-byte em with no 0x00 separator — both reject
//                      after scanning the full block
//   rsa_unpad_oaep     128-byte em that fails the lHash/separator check —
//                      both reject after full unmasking
//   modexp_montgomery  fixed 1024-bit odd modulus, 256-bit exponents with
//                      the top bit pinned (mont_mul count is a function of
//                      bit_length alone after the always-multiply hardening)
//
// Under -DPPROX_CHECK_SELFTEST the harness instead measures ONLY a
// deliberately leaky early-exit compare (difference at byte 0 vs. byte
// 65535 of 64 KiB) and must exit 1 — a WILL_FAIL ctest that proves the
// statistics can still see a leak, mirroring the model-checker selftest.
//
// PPROX_CT_SAMPLES overrides the per-primitive sample count (default 20000;
// modexp runs 1/10th of it); each primitive also runs a warm-up batch of a
// tenth of its count (at least 100) before the record.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/ct.hpp"
#include "crypto/gcm.hpp"
#include "crypto/rsa.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace {

using pprox::Bytes;
using pprox::ByteView;
using pprox::crypto::AesGcm;
using pprox::crypto::BigInt;

std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Fixed-seed splitmix64: the class schedule and the "random" class inputs
/// are identical on every run, so the gate's verdict is reproducible.
struct SplitMix {
  std::uint64_t s;
  explicit SplitMix(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next()); }
  void fill(Bytes& b) {
    for (auto& x : b) x = byte();
  }
};

/// Welch's t statistic over two online-accumulated populations.
struct Welch {
  double n[2] = {0, 0};
  double mean[2] = {0, 0};
  double m2[2] = {0, 0};

  void push(int cls, double x) {
    n[cls] += 1;
    const double d = x - mean[cls];
    mean[cls] += d / n[cls];
    m2[cls] += d * (x - mean[cls]);
  }
  double t() const {
    if (n[0] < 2 || n[1] < 2) return 0;
    const double v0 = m2[0] / (n[0] - 1);
    const double v1 = m2[1] / (n[1] - 1);
    const double denom = v0 / n[0] + v1 / n[1];
    if (denom <= 0) return 0;
    return (mean[0] - mean[1]) / std::sqrt(denom);
  }
};

volatile std::uint64_t g_sink;  // keeps measured results alive

/// One primitive under test.
struct Case {
  std::string name;
  std::size_t samples;
  Bytes fixed;  ///< the class 0 input
  /// Writes a fresh class 1 input into `out` (sized like `fixed`).
  std::function<void(SplitMix&, Bytes& out)> draw;
  /// One measured invocation over `input`.
  std::function<std::uint64_t(const Bytes& input)> run;
};

constexpr std::size_t kBatch = 128;

/// Takes `n` samples of `c` in batches of kBatch and hands each to
/// sink(cls, cycles). A batch's classes and inputs are all prepared before
/// the first of them is timed.
template <typename Sink>
void take_samples(const Case& c, SplitMix& rng, std::size_t n, Sink&& sink) {
  std::vector<Bytes> inputs(kBatch, Bytes(c.fixed.size()));
  std::array<int, kBatch> cls{};
  std::array<double, kBatch> cycles{};
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kBatch, n - done);
    for (std::size_t i = 0; i < m; ++i) {
      cls[i] = static_cast<int>(rng.next() & 1);
      if (cls[i] == 0) {
        std::memcpy(inputs[i].data(), c.fixed.data(), c.fixed.size());
      } else {
        c.draw(rng, inputs[i]);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t t0 = now_ticks();
      g_sink = g_sink + c.run(inputs[i]);
      const std::uint64_t t1 = now_ticks();
      cycles[i] = static_cast<double>(t1 - t0);
    }
    for (std::size_t i = 0; i < m; ++i) sink(cls[i], cycles[i]);
    done += m;
  }
}

/// Crop ladder: rung r keeps the samples below the 1 - 0.5^(10 (r+1) / kRungs)
/// percentile of the warm-up batch, from about the 29th to the 99.9th,
/// densest near the top (dudect's spacing over fewer rungs).
constexpr std::size_t kRungs = 20;
/// A cropped test needs this many samples of each class to vote.
constexpr double kMinPerClass = 100;

bool measure(const Case& c) {
  SplitMix rng(0x5050726f78ull);  // constant: "PProx"

  // Warm-up batch: settles caches and predictors and sets the crop
  // thresholds; its samples enter no test.
  std::vector<double> warm;
  take_samples(c, rng, std::max<std::size_t>(c.samples / 10, 100),
               [&warm](int, double x) { warm.push_back(x); });
  std::sort(warm.begin(), warm.end());
  std::array<double, kRungs> crop{};
  for (std::size_t r = 0; r < kRungs; ++r) {
    const double p = 1.0 - std::pow(0.5, 10.0 * static_cast<double>(r + 1) /
                                             static_cast<double>(kRungs));
    crop[r] = warm[static_cast<std::size_t>(
        p * static_cast<double>(warm.size() - 1))];
  }

  Welch raw;
  std::array<Welch, kRungs> cropped;
  take_samples(c, rng, c.samples, [&](int cls, double x) {
    raw.push(cls, x);
    for (std::size_t r = 0; r < kRungs; ++r) {
      if (x < crop[r]) cropped[r].push(cls, x);
    }
  });

  double t = 0;
  std::size_t rung = kRungs;
  for (std::size_t r = 0; r < kRungs; ++r) {
    const Welch& w = cropped[r];
    if (w.n[0] < kMinPerClass || w.n[1] < kMinPerClass) continue;
    if (rung == kRungs || std::fabs(w.t()) > std::fabs(t)) {
      t = w.t();
      rung = r;
    }
  }
  const bool leaky = t > 10.0 || t < -10.0;
  std::cout << (leaky ? "LEAKY " : "ok    ") << c.name << "  n0="
            << static_cast<std::uint64_t>(raw.n[0])
            << " n1=" << static_cast<std::uint64_t>(raw.n[1])
            << " mean0=" << raw.mean[0] << " mean1=" << raw.mean[1]
            << " raw_t=" << raw.t() << " t=" << t;
  if (rung != kRungs) {
    std::cout << " (rung " << rung << ", crop " << crop[rung] << " cycles)";
  }
  std::cout << "\n";
  return !leaky;
}

std::size_t sample_budget() {
  if (const char* e = std::getenv("PPROX_CT_SAMPLES")) {
    const long v = std::atol(e);
    if (v > 100) return static_cast<std::size_t>(v);
  }
  return 20000;
}

#if defined(PPROX_CHECK_SELFTEST)

/// The planted leak: an early-exit compare over 64 KiB. Class 0 differs at
/// byte 0 (returns immediately), class 1 differs at the last byte (scans
/// everything). Any working t-test sees this from orbit; if this build
/// exits 0 the harness has lost its eyes.
int run_selftest(std::size_t samples) {
  constexpr std::size_t kN = 64 * 1024;
  const Bytes a(kN, 0xAB);
  Case c;
  c.name = "leaky_equal(selftest)";
  c.samples = samples;
  c.fixed = a;
  c.fixed[0] ^= 0xFF;
  c.draw = [&a](SplitMix&, Bytes& out) {
    std::memcpy(out.data(), a.data(), kN);
    out[kN - 1] ^= 0xFF;
  };
  c.run = [&a](const Bytes& b) -> std::uint64_t {
    for (std::size_t i = 0; i < kN; ++i) {
      if (a[i] != b[i]) return i;
    }
    return kN;
  };
  const bool ok = measure(c);
  std::cout << (ok ? "selftest FAILED to detect the planted leak\n"
                   : "selftest detected the planted leak (expected)\n");
  return ok ? 0 : 1;  // WILL_FAIL: the leak must be found -> exit 1
}

#endif  // PPROX_CHECK_SELFTEST

}  // namespace

int main() {
  const std::size_t samples = sample_budget();
#if defined(PPROX_CHECK_SELFTEST)
  return run_selftest(samples);
#else
  bool all_ok = true;
  SplitMix setup(0x646f7263ull);

  // --- ct_equal: 4 KiB unequal buffers, both classes reject ---------------
  {
    constexpr std::size_t kN = 4096;
    Bytes pub(kN);
    setup.fill(pub);
    Case c;
    c.name = "ct_equal";
    c.samples = samples;
    c.fixed = pub;
    c.fixed[0] ^= 0xFF;  // fixed: differs at the first byte
    c.draw = [&pub](SplitMix& rng, Bytes& out) {
      rng.fill(out);  // random: differs (w.h.p.) everywhere
      out[0] ^= static_cast<std::uint8_t>(out[0] == pub[0]);
    };
    c.run = [&pub](const Bytes& probe) -> std::uint64_t {
      return pprox::crypto::ct_equal(pub, probe) ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- GCM tag check: corrupted tag, both classes reject ------------------
  {
    Bytes key(32);  // pprox-lint: allow(secure-wipe): throwaway bench key
    setup.fill(key);
    AesGcm gcm(key);
    std::array<std::uint8_t, AesGcm::kNonceSize> nonce{};
    Bytes plain(1024);
    setup.fill(plain);
    const Bytes sealed = gcm.seal(nonce, plain);
    const std::size_t tag_at = sealed.size() - AesGcm::kTagSize;
    Case c;
    c.name = "gcm_tag_check";
    c.samples = samples;
    c.fixed = sealed;
    c.fixed[tag_at] ^= 0xFF;  // fixed single-byte corruption
    c.draw = [&](SplitMix& rng, Bytes& out) {
      std::memcpy(out.data(), sealed.data(), tag_at);
      for (std::size_t i = tag_at; i < out.size(); ++i) {
        out[i] = rng.byte();  // fully random wrong tag
      }
      out[tag_at] ^= static_cast<std::uint8_t>(out[tag_at] == sealed[tag_at]);
    };
    c.run = [&](const Bytes& tampered) -> std::uint64_t {
      return gcm.open(nonce, tampered).ok() ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- PKCS#1 v1.5 unpad: no separator anywhere, both classes reject ------
  // Nonzero fill: the separator scan must sweep the whole block.
  {
    constexpr std::size_t kK = 128;
    Case c;
    c.name = "rsa_unpad_pkcs1";
    c.samples = samples;
    c.fixed = Bytes(kK, 0x5A);
    c.fixed[0] = 0x00;
    c.fixed[1] = 0x02;
    c.draw = [](SplitMix& rng, Bytes& out) {
      out[0] = 0x00;
      out[1] = 0x02;
      for (std::size_t i = 2; i < kK; ++i) {
        out[i] = static_cast<std::uint8_t>(rng.byte() | 1);
      }
    };
    c.run = [](const Bytes& em) -> std::uint64_t {
      return pprox::crypto::rsa_unpad_pkcs1(em).ok() ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- OAEP unpad: lHash check fails, both classes reject -----------------
  // A nonzero leading byte guarantees the reject either way.
  {
    constexpr std::size_t kK = 128;
    Case c;
    c.name = "rsa_unpad_oaep";
    c.samples = samples;
    c.fixed = Bytes(kK);
    for (std::size_t i = 0; i < kK; ++i) {
      c.fixed[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    c.fixed[0] = 0x01;
    c.draw = [](SplitMix& rng, Bytes& out) {
      rng.fill(out);
      out[0] = 0x01;
    };
    c.run = [](const Bytes& em) -> std::uint64_t {
      return pprox::crypto::rsa_unpad_oaep(em).ok() ? 1 : 0;
    };
    all_ok = measure(c) && all_ok;
  }

  // --- Montgomery modexp: secret exponent, pinned bit length --------------
  // The measured call also decodes the 32-byte exponent; that decode walks
  // the fixed length whatever the bytes are.
  {
    Bytes mod_bytes(128);
    setup.fill(mod_bytes);
    mod_bytes[0] |= 0x80;    // full 1024 bits
    mod_bytes[127] |= 0x01;  // odd: Montgomery path
    const BigInt modulus = BigInt::from_bytes_be(mod_bytes);
    const BigInt base(0x10001);
    Case c;
    c.name = "modexp_montgomery";
    c.samples = samples / 10 < 1000 ? 1000 : samples / 10;
    c.fixed = Bytes(32);
    setup.fill(c.fixed);
    c.fixed[0] |= 0x80;
    c.draw = [](SplitMix& rng, Bytes& out) {
      rng.fill(out);
      out[0] |= 0x80;  // same bit_length as the fixed class
    };
    c.run = [&](const Bytes& exp_bytes) -> std::uint64_t {
      return base.modexp_montgomery(BigInt::from_bytes_be(exp_bytes), modulus)
          .bit_length();
    };
    all_ok = measure(c) && all_ok;
  }

  std::cout << (all_ok ? "all primitives pass (|t| <= 10)\n"
                       : "timing leak detected\n");
  return all_ok ? 0 : 1;
#endif
}
