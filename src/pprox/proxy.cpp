// PPROX-LAYER: shared
#include "pprox/proxy.hpp"

namespace pprox {

std::uint64_t PendingStore::put(Bytes k_u) {
  LockGuard lock(mutex_);
  const std::uint64_t handle = next_++;
  pending_.emplace(handle, std::move(k_u));
  return handle;
}

Result<Bytes> PendingStore::take(std::uint64_t handle) {
  LockGuard lock(mutex_);
  const auto it = pending_.find(handle);
  if (it == pending_.end()) {
    return Error::not_found("no pending state for handle");
  }
  Bytes k_u = std::move(it->second);
  pending_.erase(it);
  return k_u;
}

std::size_t PendingStore::size() const {
  LockGuard lock(mutex_);
  return pending_.size();
}

ProxyServer::ProxyServer(ProxyOptions options, enclave::Enclave& enclave,
                         std::shared_ptr<net::HttpChannel> next)
    : options_(options),
      enclave_(&enclave),
      next_(std::move(next)),
      workers_(options.worker_threads),
      // Both layers batch their inbound requests: the per-flush ecall
      // amortizes the transition cost for the IA exactly as for the UA. The
      // whole shuffled batch crosses the enclave boundary as ONE ecall
      // inside these sinks.
      request_shuffle_(options.shuffle_size, options.shuffle_timeout,
                       [this](std::span<PendingRequest> batch,
                              const FlushInfo&) {
                         release_request_batch(batch);
                       }),
      response_shuffle_(options.layer == ProxyOptions::Layer::kIa
                            ? options.shuffle_size
                            : 0,
                        options.shuffle_timeout,
                        [this](std::span<PendingResponse> batch,
                               const FlushInfo&) {
                          release_response_batch(batch);
                        }) {
  // Initial ecall: deserialize the provisioned secrets into enclave-resident
  // logic objects. Throws if the enclave was not attested+provisioned first.
  // The blob is either one application's LayerSecrets or a TenantKeyring.
  enclave_->ecall([this](ByteView secrets) {
    std::map<std::string, Bytes> blobs;
    if (TenantKeyring::looks_like_keyring(secrets)) {
      auto keyring = TenantKeyring::deserialize(secrets);
      if (!keyring.ok()) throw std::runtime_error(keyring.error().message);
      for (const auto& [id, layer_secrets] : keyring.value().tenants) {
        blobs.emplace(id, layer_secrets.serialize());
      }
    } else {
      blobs.emplace(kDefaultTenant, Bytes(secrets.begin(), secrets.end()));
    }
    for (const auto& [id, blob] : blobs) {
      if (options_.layer == ProxyOptions::Layer::kUa) {
        auto logic = UaLogic::from_secrets(blob);
        if (!logic.ok()) throw std::runtime_error(logic.error().message);
        ua_logics_.emplace(id, std::move(logic.value()));
      } else {
        auto logic = IaLogic::from_secrets(blob);
        if (!logic.ok()) throw std::runtime_error(logic.error().message);
        ia_logics_.emplace(id, std::move(logic.value()));
      }
    }
    return 0;
  });
}

std::string ProxyServer::tenant_of(const http::HttpRequest& request) {
  const std::string* header = request.header(kTenantHeader);
  return header != nullptr ? *header : kDefaultTenant;
}

const UaLogic* ProxyServer::ua_logic_for(const std::string& tenant) const {
  const auto it = ua_logics_.find(tenant);
  return it == ua_logics_.end() ? nullptr : &it->second;
}

const IaLogic* ProxyServer::ia_logic_for(const std::string& tenant) const {
  const auto it = ia_logics_.find(tenant);
  return it == ia_logics_.end() ? nullptr : &it->second;
}

ProxyServer::~ProxyServer() {
  // Release queued work before tearing down the worker pool. Order matters:
  // flushing pending requests can produce responses (synchronous channels)
  // whose processing rides the worker pool into response_shuffle_, so the
  // response flush must come after the pool drains.
  request_shuffle_.flush_now();
  workers_.shutdown();
  response_shuffle_.flush_now();
}

std::unique_ptr<ProxyServer::BatchScratch> ProxyServer::acquire_scratch() {
  {
    LockGuard lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      auto scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  // PPROX-HOTPATH-OK(alloc): cold — first flush (or concurrent flushes
  // beyond the pooled count); the scratch returns to the pool afterwards,
  // so steady state reuses it allocation-free.
  const auto slots = static_cast<std::size_t>(
      options_.shuffle_size > 1 ? options_.shuffle_size : 1);
  return std::make_unique<BatchScratch>(slots * kResponseBlockSize + 4096,
                                        slots);
}

void ProxyServer::recycle_scratch(std::unique_ptr<BatchScratch> scratch) {
  scratch->arena.wipe_and_reset();
  scratch->ua_slots.clear();
  scratch->ia_slots.clear();
  scratch->seal_slots.clear();
  LockGuard lock(scratch_mutex_);
  scratch_pool_.push_back(std::move(scratch));
}

void ProxyServer::fail(const net::RespondFn& done, int status,
                       std::string_view message) {
  errors_.fetch_add(1);
  done(http::HttpResponse::error_response(status, message));
}

void ProxyServer::handle(http::HttpRequest request, net::RespondFn done) {
  requests_seen_.fetch_add(1);
  // The server part only schedules; all payload access happens in the
  // enclave data-processing pool.
  workers_.submit([this, request = std::move(request),
                   done = std::move(done)]() mutable {
    if (options_.layer == ProxyOptions::Layer::kUa) {
      handle_ua(std::move(request), std::move(done));
    } else {
      handle_ia(std::move(request), std::move(done));
    }
  });
}

void ProxyServer::handle_ua(http::HttpRequest request, net::RespondFn done) {
  const UaLogic* logic = ua_logic_for(tenant_of(request));
  // PPROX-CT-OK(branch): tenant routing on the public Host/tenant header;
  // the 403 is the deliberate public answer for unknown tenants.
  if (logic == nullptr) {
    fail(done, 403, "unknown tenant application");
    return;
  }
  // Only scheduling here: the user-field transform happens at release time,
  // batched with the rest of the flush inside one ecall.
  request_shuffle_.add(PendingRequest{std::move(request), std::move(done),
                                      logic, nullptr, false});
}

void ProxyServer::handle_ia(http::HttpRequest request, net::RespondFn done) {
  const IaLogic* logic = ia_logic_for(tenant_of(request));
  // PPROX-CT-OK(branch): tenant routing on the public Host/tenant header.
  if (logic == nullptr) {
    fail(done, 403, "unknown tenant application");
    return;
  }
  const bool is_get = request.target == paths::kQueries;
  request_shuffle_.add(PendingRequest{std::move(request), std::move(done),
                                      nullptr, logic, is_get});
}

void ProxyServer::release_request_batch(std::span<PendingRequest> batch) {
  std::unique_ptr<BatchScratch> scratch = acquire_scratch();

  // Describe the batch to the enclave: one slot per request, transformed
  // bodies written back in place.
  // PPROX-CT-OK(branch): layer selection is fixed deployment config.
  if (options_.layer == ProxyOptions::Layer::kUa) {
    for (PendingRequest& item : batch) {
      scratch->ua_slots.push_back(
          UaBatchSlot{item.ua_logic, &item.request.body, {}, {}});
    }
    // ONE ecall for the whole flush (ROADMAP item 3): S pseudonymizations
    // amortize a single simulated SGX transition.
    enclave_->ecall([&scratch](ByteView) {
      UaLogic::transform_batch(std::span<UaBatchSlot>(scratch->ua_slots),
                               scratch->arena);
      return 0;
    });
    scratch->arena.wipe_and_reset();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PendingRequest& item = batch[i];
      const Status& status = scratch->ua_slots[i].status;
      if (!status.ok()) {
        fail(item.done, 400, status.error().message);
        continue;
      }
      next_->send(std::move(item.request),
                  [done = std::move(item.done)](http::HttpResponse response) {
                    // Responses pass through the UA untouched (opaque here).
                    done(std::move(response));
                  });
    }
    recycle_scratch(std::move(scratch));
    return;
  }

  for (PendingRequest& item : batch) {
    scratch->ia_slots.push_back(IaRequestSlot{item.ia_logic,
                                              &item.request.body, item.is_get,
                                              options_.pseudonymize_items,
                                              {},
                                              {}});
  }
  enclave_->ecall([&scratch](ByteView) {
    IaLogic::transform_batch(std::span<IaRequestSlot>(scratch->ia_slots),
                             scratch->arena);
    return 0;
  });
  scratch->arena.wipe_and_reset();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& item = batch[i];
    IaRequestSlot& slot = scratch->ia_slots[i];
    if (!slot.status.ok()) {
      fail(item.done, 400, slot.status.error().message);
      continue;
    }
    // PPROX-CT-OK(branch): GET vs POST dispatch on the public request line.
    if (!item.is_get) {
      next_->send(
          std::move(item.request),
          [this, done = std::move(item.done)](http::HttpResponse response) {
            // Post responses carry no payload worth hiding, but they are
            // shuffled like everything else on the return path.
            response_shuffle_.add(PendingResponse{std::move(response),
                                                  std::move(done), nullptr,
                                                  {}});
          });
      continue;
    }
    // get: k_u was recovered inside the batch ecall; park it in the EPC
    // store until the LRS response arrives.
    const std::uint64_t handle = pending_.put(std::move(slot.k_u));
    const IaLogic* logic = item.ia_logic;
    next_->send(
        std::move(item.request),
        [this, logic, handle,
         done = std::move(item.done)](http::HttpResponse response) mutable {
          // Process the LRS response in the enclave pool, not the transport
          // thread.
          workers_.submit([this, logic, handle, done = std::move(done),
                           response = std::move(response)]() mutable {
            auto k_u = pending_.take(handle);
            if (!k_u.ok()) {
              fail(done, 500, "lost pending response state");
              return;
            }
            if (response.status != 200) {
              // Propagate LRS errors (still shuffled, passthrough); k_u
              // rides along only to be wiped at release.
              response_shuffle_.add(PendingResponse{
                  std::move(response), std::move(done), nullptr,
                  std::move(k_u.value())});
              return;
            }
            // No per-response ecall here: the seal happens batched, at
            // response-flush release time.
            response_shuffle_.add(PendingResponse{std::move(response),
                                                  std::move(done), logic,
                                                  std::move(k_u.value())});
          });
        });
  }
  recycle_scratch(std::move(scratch));
}

void ProxyServer::release_response_batch(std::span<PendingResponse> batch) {
  std::unique_ptr<BatchScratch> scratch;
  for (PendingResponse& item : batch) {
    if (item.logic == nullptr) continue;  // passthrough: nothing to seal
    if (!scratch) scratch = acquire_scratch();
    scratch->seal_slots.push_back(IaSealSlot{item.logic, &item.response.body,
                                             ByteView(item.k_u),
                                             options_.authenticated_responses,
                                             {},
                                             {},
                                             {},
                                             0});
  }
  if (scratch) {
    // ONE ecall seals every response in the flush: the de-pseudonymize
    // keystream is shared per tenant and the GCM/CTR batch kernels run over
    // the whole set of response blocks.
    enclave_->ecall([this, &scratch](ByteView) {
      IaLogic::seal_batch(std::span<IaSealSlot>(scratch->seal_slots),
                          enclave_rng_, scratch->arena);
      return 0;
    });
    // Wipe before any response leaves: de-pseudonymized item plaintext must
    // not outlive the transition that produced it.
    scratch->arena.wipe_and_reset();
  }

  std::size_t sealed_index = 0;
  for (PendingResponse& item : batch) {
    if (item.logic == nullptr) {
      item.done(std::move(item.response));
    } else {
      IaSealSlot& slot = scratch->seal_slots[sealed_index++];
      if (!slot.status.ok()) {
        fail(item.done, 502, slot.status.error().message);
      } else {
        item.done(http::HttpResponse::json_response(200,
                                                    std::move(slot.sealed)));
      }
    }
    // The one wipe site for every k_u taken from pending_, sealed or not.
    secure_wipe(MutByteView(item.k_u.data(), item.k_u.size()));
  }
  if (scratch) recycle_scratch(std::move(scratch));
}

}  // namespace pprox
