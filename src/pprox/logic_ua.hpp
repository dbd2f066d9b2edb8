// PPROX-LAYER: ua
//
// User-Anonymizer enclave code (paper §4.2). The UA sees the user identity
// in the clear — and nothing else: item identifiers reach it only as
// pkIA-encrypted blobs, and responses are opaque k_u-ciphertexts. This
// translation unit must therefore never reference an item-plaintext API;
// `pprox_lint --flow` fails the build if it does.
//
//  post/get request:  enc(u,pkUA) -> det_enc(u,kUA)
//  responses:         pass through untouched (they are opaque to UA).
#pragma once

#include <span>
#include <string>

#include "common/hotpath.hpp"
#include "common/result.hpp"
#include "crypto/ctr.hpp"
#include "pprox/batch.hpp"
#include "pprox/keys.hpp"
#include "pprox/message.hpp"

namespace pprox {

class UaLogic;

/// One pending request inside a batched UA ecall. The host fills `logic`
/// (the request's tenant) and `body`; the enclave rewrites `body` in place
/// and reports per-slot success in `status`. `staged` is enclave-internal
/// arena scratch — hosts must not touch it.
struct UaBatchSlot {
  const UaLogic* logic = nullptr;
  std::string* body = nullptr;
  Status status;
  MutByteView staged{};
};

/// User-Anonymizer enclave code.
class UaLogic {
 public:
  /// Deserializes the provisioned secrets blob (called inside an ecall).
  static Result<UaLogic> from_secrets(ByteView secrets_blob);

  /// Pseudonymizes every slot's "user" field (post or get body) inside ONE
  /// ecall. Identifier blocks are staged in `arena` and the zero-IV CTR
  /// keystream is computed once per distinct tenant logic, then XORed across
  /// all of that tenant's blocks — bit-for-bit identical to S one-slot
  /// batches (the keystream is message-independent). Per-slot failures land
  /// in slot.status and leave slot.body untouched; other slots still
  /// complete. The caller owns wiping `arena` after results are copied out.
  /// PPROX_ECALL_BOUNDARY: runs inside an ecall — per-request allocation
  /// here is an enclave-boundary violation; today's JSON/base64 round trips
  /// are ratcheted in tools/hotpath_baseline.json.
  PPROX_ECALL_BOUNDARY static void transform_batch(
      std::span<UaBatchSlot> slots, BatchArena& arena);

  /// Pseudonym of a cleartext user id, as the LRS will store it. The only
  /// UA entry point that accepts user plaintext — and it demands the typed
  /// wrapper, so an ItemId cannot be passed by accident (compile error).
  Result<PseudonymizedId> pseudonym_of(const UserId& user) const;

 private:
  explicit UaLogic(LayerSecrets secrets);
  LayerSecrets secrets_;
  crypto::DeterministicCipher det_;
};

}  // namespace pprox
