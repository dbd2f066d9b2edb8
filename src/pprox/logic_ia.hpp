// PPROX-LAYER: ia
//
// Item-Anonymizer enclave code (paper §4.2). The IA sees item identifiers
// in the clear — and never the user: the user field reaches it already
// pseudonymized by the UA, and no user-plaintext API may be referenced from
// this translation unit (`pprox_lint --flow` fails the build if one is).
//
//  post request:  enc(i,pkIA) -> det_enc(i,kIA)
//  get request:   extract k_u = dec(enc(k_u,pkIA)); strip it from the call
//  get response:  det_enc(i_x,kIA) list -> pad to 20 -> enc(list, k_u)
#pragma once

#include <span>
#include <string>

#include "common/hotpath.hpp"
#include "common/rand.hpp"
#include "common/result.hpp"
#include "crypto/ctr.hpp"
#include "pprox/batch.hpp"
#include "pprox/keys.hpp"
#include "pprox/message.hpp"

namespace pprox {

class IaLogic;

/// One pending request inside a batched IA ecall. The host fills the inputs
/// (`logic`, `body`, `is_get`, `pseudonymize_items`); the enclave rewrites
/// `body` in place, deposits the recovered temporary key in `k_u` for gets,
/// and reports per-slot success in `status`.
struct IaRequestSlot {
  const IaLogic* logic = nullptr;
  std::string* body = nullptr;
  bool is_get = false;
  bool pseudonymize_items = true;
  Bytes k_u;  ///< out: per-request response key (gets only); key material.
  Status status;
};

/// One pending LRS response inside a batched IA seal ecall. `blocks` and
/// `item_count` are enclave-internal arena scratch — hosts must not touch
/// them.
struct IaSealSlot {
  const IaLogic* logic = nullptr;
  const std::string* lrs_body = nullptr;
  ByteView k_u{};
  bool authenticated = false;
  std::string sealed;  ///< out: constant-size k_u-ciphertext JSON envelope.
  Status status;
  MutByteView blocks{};
  std::size_t item_count = 0;
};

/// Item-Anonymizer enclave code.
class IaLogic {
 public:
  static Result<IaLogic> from_secrets(ByteView secrets_blob);

  /// Rewrites every slot's post or get body inside ONE ecall, so the
  /// simulated transition cost is paid once per flush instead of once per
  /// request. Per-slot failures land in slot.status and leave slot.body
  /// untouched; other slots complete.
  /// PPROX_ECALL_BOUNDARY (here and on seal_batch): these run inside ecalls,
  /// so per-request allocation is an enclave-boundary violation; the current
  /// JSON/base64 round trips are ratcheted in tools/hotpath_baseline.json.
  PPROX_ECALL_BOUNDARY static void transform_batch(
      std::span<IaRequestSlot> slots, BatchArena& arena);

  /// De-pseudonymizes, pads and seals every slot's LRS item list inside ONE
  /// ecall. Pseudonym blocks are gathered contiguously in `arena` and the
  /// zero-IV CTR keystream is computed once per distinct tenant logic, then
  /// XORed across all of that tenant's blocks (det decrypt, vectorized).
  /// `slot.authenticated` selects AES-GCM (tamper-evident, +28 bytes)
  /// instead of the paper's plain AES-CTR; the response self-describes its
  /// mode. `rng` is consumed in slot order by successful seals only —
  /// bit-for-bit identical to S one-slot batches against an equally-seeded
  /// source. The caller owns wiping `arena` after results are copied out.
  PPROX_ECALL_BOUNDARY static void seal_batch(std::span<IaSealSlot> slots,
                                              RandomSource& rng,
                                              BatchArena& arena);

 private:
  explicit IaLogic(LayerSecrets secrets);

  /// post: pseudonymizes the "item" field and decrypts the optional payload
  /// for the LRS. `slot.pseudonymize_items = false` implements the §6.3
  /// opt-out (item sent in the clear to the LRS).
  Status transform_post_request(IaRequestSlot& slot) const;
  /// get: recovers k_u into the slot and strips it from the forwarded call.
  Status transform_get_request(IaRequestSlot& slot) const;

  LayerSecrets secrets_;
  crypto::DeterministicCipher det_;
};

}  // namespace pprox
