// PPROX-LAYER: shared
//
// The proxy service instance (paper §5): an untrusted server part (request
// scheduling, shuffling, routing — here hosted on any RequestSink transport)
// driving in-enclave data processing through ecalls into the hosted TEE.
// One ProxyServer is one UA or IA instance; horizontal scaling runs several
// behind a RoundRobinChannel.
//
// This TU is the *host*: it schedules and routes but never touches
// identifier plaintext — every transform it invokes is ciphertext-in/
// ciphertext-out on the enclave logic. The flow lint (`pprox_lint --flow`)
// holds it to that: shared TUs may reference neither taint domain nor any
// declassifier.
#pragma once

#include <chrono>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hotpath.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "concurrent/thread_pool.hpp"
#include "crypto/drbg.hpp"
#include "enclave/enclave.hpp"
#include "net/channel.hpp"
#include "pprox/batch.hpp"
#include "pprox/logic.hpp"
#include "pprox/shuffle.hpp"
#include "pprox/tenancy.hpp"

namespace pprox {

/// In-EPC store for per-request state awaiting the LRS response (paper §5:
/// "an in-memory key-value store in the EPC holds the information necessary
/// for handling request responses"). Holds k_u for in-flight get calls.
class PendingStore {
 public:
  PPROX_HOT std::uint64_t put(Bytes k_u) PPROX_EXCLUDES(mutex_);
  /// Fetches and removes; empty result when the handle is unknown.
  PPROX_HOT Result<Bytes> take(std::uint64_t handle) PPROX_EXCLUDES(mutex_);
  std::size_t size() const PPROX_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, Bytes> pending_ PPROX_GUARDED_BY(mutex_);
  std::uint64_t next_ PPROX_GUARDED_BY(mutex_) = 1;
};

struct ProxyOptions {
  enum class Layer { kUa, kIa };
  Layer layer = Layer::kUa;
  bool pseudonymize_items = true;  ///< §6.3 opt-out when false (IA only)
  bool authenticated_responses = false;  ///< AES-GCM for get responses (IA)
  int shuffle_size = 0;            ///< S; <=1 disables shuffling
  std::chrono::milliseconds shuffle_timeout{500};
  std::size_t worker_threads = 2;  ///< enclave data-processing pool (2-core NUC)
};

/// One proxy instance. The enclave must be attested and provisioned before
/// construction (the ctor performs the initial ecall that deserializes the
/// layer secrets into enclave-resident logic state). The provisioning blob
/// may be a single application's LayerSecrets or a multi-tenant
/// TenantKeyring (paper §6.3): with a keyring, requests select their tenant
/// via the X-PProx-App header and all tenants share the shuffle buffers.
class ProxyServer final : public net::RequestSink {
 public:
  ProxyServer(ProxyOptions options, enclave::Enclave& enclave,
              std::shared_ptr<net::HttpChannel> next);
  ~ProxyServer() override;

  PPROX_HOT void handle(http::HttpRequest request, net::RespondFn done) override;

  /// Counters for tests/benches.
  std::uint64_t requests_seen() const { return requests_seen_.load(); }
  std::uint64_t errors() const { return errors_.load(); }
  std::size_t tenant_count() const {
    return options_.layer == ProxyOptions::Layer::kUa ? ua_logics_.size()
                                                      : ia_logics_.size();
  }
  const enclave::Enclave& hosted_enclave() const { return *enclave_; }
  std::size_t pending_responses() const { return pending_.size(); }

 private:
  /// One buffered inbound request awaiting its batched enclave transform.
  /// The body is still the client's ciphertext — the transform happens at
  /// release time, inside the per-flush ecall.
  struct PendingRequest {
    http::HttpRequest request;
    net::RespondFn done;
    const UaLogic* ua_logic = nullptr;
    const IaLogic* ia_logic = nullptr;
    bool is_get = false;
  };

  /// One buffered outbound response (IA). `logic == nullptr` marks a
  /// passthrough (post response or LRS error); otherwise the LRS body is
  /// sealed under `k_u` at release time, inside the per-flush ecall. Every
  /// `k_u` a get took from the PendingStore, an LRS error's included, is
  /// wiped at release.
  struct PendingResponse {
    http::HttpResponse response;
    net::RespondFn done;
    const IaLogic* logic = nullptr;
    Bytes k_u;
  };

  /// Reusable per-flush scratch: the arena the batch entry points stage
  /// identifier blocks in, plus the slot vectors that describe the batch to
  /// the enclave. Pooled so the steady-state flush cycle allocates nothing.
  struct BatchScratch {
    BatchScratch(std::size_t arena_bytes, std::size_t slots)
        : arena(arena_bytes) {
      ua_slots.reserve(slots);
      ia_slots.reserve(slots);
      seal_slots.reserve(slots);
    }
    BatchArena arena;
    std::vector<UaBatchSlot> ua_slots;
    std::vector<IaRequestSlot> ia_slots;
    std::vector<IaSealSlot> seal_slots;
  };

  PPROX_HOT void handle_ua(http::HttpRequest request, net::RespondFn done);
  PPROX_HOT void handle_ia(http::HttpRequest request, net::RespondFn done);
  /// Batch sinks: ONE ecall per released batch (ROADMAP item 3).
  PPROX_HOT void release_request_batch(std::span<PendingRequest> batch);
  PPROX_HOT void release_response_batch(std::span<PendingResponse> batch);
  PPROX_HOT std::unique_ptr<BatchScratch> acquire_scratch()
      PPROX_EXCLUDES(scratch_mutex_);
  PPROX_HOT void recycle_scratch(std::unique_ptr<BatchScratch> scratch)
      PPROX_EXCLUDES(scratch_mutex_);
  void fail(const net::RespondFn& done, int status, std::string_view message);
  /// Tenant id named by the request header (kDefaultTenant when absent).
  static std::string tenant_of(const http::HttpRequest& request);
  const UaLogic* ua_logic_for(const std::string& tenant) const;
  const IaLogic* ia_logic_for(const std::string& tenant) const;

  ProxyOptions options_;
  enclave::Enclave* enclave_;
  std::shared_ptr<net::HttpChannel> next_;

  // Enclave-resident state (created inside the provisioning ecall; modelled
  // as living in EPC memory — never readable by the host). One logic
  // instance per tenant; single-application deployments use kDefaultTenant.
  std::map<std::string, UaLogic> ua_logics_;
  std::map<std::string, IaLogic> ia_logics_;
  PendingStore pending_;
  crypto::Drbg enclave_rng_;

  // Scratch pool (declared before the pool/queues so it outlives every
  // in-flight flush during destruction).
  Mutex scratch_mutex_;
  std::vector<std::unique_ptr<BatchScratch>> scratch_pool_
      PPROX_GUARDED_BY(scratch_mutex_);

  concurrent::ThreadPool workers_;
  ShuffleQueue<PendingRequest> request_shuffle_;    ///< outbound requests
  ShuffleQueue<PendingResponse> response_shuffle_;  ///< IA: outbound responses

  Atomic<std::uint64_t> requests_seen_{0};
  Atomic<std::uint64_t> errors_{0};
};

}  // namespace pprox
