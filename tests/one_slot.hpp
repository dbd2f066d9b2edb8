// One-slot drivers for the batched enclave entry points. The enclave logic
// has exactly one entry point per message kind — UaLogic::transform_batch,
// IaLogic::transform_batch and IaLogic::seal_batch, the three that
// ProxyServer's ecalls call — so a test that follows one request through a
// layer runs it as a batch of one.
#pragma once

#include <span>
#include <string>
#include <utility>

#include "common/rand.hpp"
#include "common/result.hpp"
#include "pprox/batch.hpp"
#include "pprox/logic.hpp"

namespace pprox::one_slot {

/// The UA's rewrite of one post or get body.
inline Result<std::string> ua_request(const UaLogic& ua, std::string body) {
  BatchArena arena(2 * kIdBlockSize);
  UaBatchSlot slot{&ua, &body, {}, {}};
  UaLogic::transform_batch(std::span<UaBatchSlot>(&slot, 1), arena);
  arena.wipe_and_reset();
  if (!slot.status.ok()) return slot.status.error();
  return body;
}

/// The IA's rewrite of one post body (`pseudonymize_items = false` is the
/// §6.3 opt-out).
inline Result<std::string> ia_post(const IaLogic& ia, std::string body,
                                   bool pseudonymize_items = true) {
  BatchArena arena(0);
  IaRequestSlot slot{&ia, &body, false, pseudonymize_items, {}, {}};
  IaLogic::transform_batch(std::span<IaRequestSlot>(&slot, 1), arena);
  if (!slot.status.ok()) return slot.status.error();
  return body;
}

/// The IA's rewrite of one get body, and the k_u it recovered.
struct IaGet {
  std::string body;
  Bytes k_u;
};
inline Result<IaGet> ia_get(const IaLogic& ia, std::string body) {
  BatchArena arena(0);
  IaRequestSlot slot{&ia, &body, true, true, {}, {}};
  IaLogic::transform_batch(std::span<IaRequestSlot>(&slot, 1), arena);
  if (!slot.status.ok()) return slot.status.error();
  return IaGet{std::move(body), std::move(slot.k_u)};
}

/// The IA's sealed reply to one LRS response body, under `k_u`.
inline Result<std::string> ia_seal(const IaLogic& ia,
                                   const std::string& lrs_body, ByteView k_u,
                                   RandomSource& rng,
                                   bool authenticated = false) {
  BatchArena arena(kIdBlockSize);
  IaSealSlot slot;
  slot.logic = &ia;
  slot.lrs_body = &lrs_body;
  slot.k_u = k_u;
  slot.authenticated = authenticated;
  IaLogic::seal_batch(std::span<IaSealSlot>(&slot, 1), rng, arena);
  arena.wipe_and_reset();
  if (!slot.status.ok()) return slot.status.error();
  return std::move(slot.sealed);
}

}  // namespace pprox::one_slot
