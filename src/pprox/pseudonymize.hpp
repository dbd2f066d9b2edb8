// PPROX-LAYER: vocab
//
// How an enclave layer opens what the client sealed for it (paper §4.2).
// `open_field` is the one unwrap of a client field: every identifier, payload
// and temporary key a layer recovers goes through it, so the key-wrap scheme
// changes in one place. `pseudonymize_field` is the decrypt-then-pseudonymize
// transform over it. Domain-generic: the instantiating translation unit names
// what kind of cleartext transits through it (IA: ItemDomain), and the
// decrypted block is wrapped the instant it exists, leaving only through the
// pseudonymization declassifier.
#pragma once

#include <string>
#include <string_view>

#include "common/encoding.hpp"
#include "common/result.hpp"
#include "common/taint.hpp"
#include "crypto/ctr.hpp"
#include "crypto/rsa.hpp"
#include "pprox/message.hpp"

namespace pprox {

/// Base64-decodes a client field and RSA-OAEP-unwraps it under the layer's
/// private key. The result is raw cleartext: callers wrap it in its domain
/// (or keep it as key material) as soon as it returns.
inline Result<Bytes> open_field(const crypto::RsaPrivateKey& sk,
                                std::string_view base64_cipher) {
  const auto cipher = base64_decode(base64_cipher);
  // PPROX-CT-OK(branch): base64 framing of adversary-chosen wire input;
  // rejection is observable through the error response regardless.
  if (!cipher) return Error::parse("field is not valid base64");
  return crypto::rsa_decrypt_oaep(sk, *cipher);
}

/// Opens a base64 identifier field and returns its deterministic pseudonym
/// under `det` (base64).
template <typename Domain>
Result<std::string> pseudonymize_field(const crypto::RsaPrivateKey& sk,
                                       const crypto::DeterministicCipher& det,
                                       std::string_view base64_cipher) {
  auto plain = open_field(sk, base64_cipher);
  if (!plain.ok()) return plain.error();
  if (plain.value().size() != kIdBlockSize) {
    return Error::crypto("decrypted identifier block has wrong size");
  }
  const SensitiveBlock<Domain> block{std::move(plain.value())};
  // Deterministic pseudonym over the *padded block*: constant size, and the
  // LRS sees equal pseudonyms for equal identifiers.
  // PPROX-DECLASSIFY: det_enc under the layer's permanent key k; the output
  // is the pseudonym that the protocol is designed to expose.
  return base64_encode(det.encrypt(taint::declassify_for_pseudonymization(block)));
}

}  // namespace pprox
