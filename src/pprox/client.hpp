// PPROX-LAYER: client
//
// User-side library (paper §2.1 ➄, §4.2): intercepts the application's REST
// calls, encrypts identifiers for the two proxy layers, generates the
// per-request temporary key k_u for get calls, and transparently decrypts
// and unpads the returned recommendations. Holds no per-user state beyond
// the globally-known public parameters — the "thin static code" requirement.
//
// The client is the one place both taint domains legitimately coexist in
// the clear (the user owns their identity and their feedback). Identifiers
// are wrapped into Sensitive<_, Domain> at the API boundary and only leave
// through encryption declassifiers, so a refactor cannot accidentally put
// an id on the wire unencrypted.
#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rand.hpp"
#include "common/result.hpp"
#include "net/channel.hpp"
#include "pprox/keys.hpp"
#include "pprox/message.hpp"

namespace pprox {

class ClientLibrary {
 public:
  /// `channel` reaches the UA layer (through any load balancer); `rng`
  /// must be cryptographically strong in production (defaults to the
  /// process DRBG).
  ClientLibrary(ClientParams params, std::shared_ptr<net::HttpChannel> channel,
                RandomSource* rng = nullptr, std::string tenant_id = "");

  /// post(u, i[, p]): inserts feedback with an optional payload (e.g. a
  /// rating), required by some recommendation algorithms (paper §2.1).
  /// The payload is encrypted for the IA layer and forwarded to the LRS in
  /// usable form. Completion carries the HTTP status.
  void post(const std::string& user, const std::string& item,
            std::function<void(Status)> done);
  void post(const std::string& user, const std::string& item,
            const std::string& payload, std::function<void(Status)> done);

  /// get(u): collects recommendations (plaintext item ids, padding removed).
  void get(const std::string& user,
           std::function<void(Result<std::vector<std::string>>)> done);

  /// Blocking conveniences for tests and examples.
  Status post_sync(const std::string& user, const std::string& item,
                   const std::string& payload = "");
  Result<std::vector<std::string>> get_sync(const std::string& user);

  /// Builds the encrypted post request (exposed for tests/attack harness).
  Result<http::HttpRequest> build_post_request(const std::string& user,
                                               const std::string& item,
                                               const std::string& payload = "");

  struct GetCall {
    http::HttpRequest request;
    Bytes k_u;  ///< temporary key; needed to decrypt the response
  };
  Result<GetCall> build_get_request(const std::string& user);

  /// Decrypts and unpads a get response given the call's k_u.
  static Result<std::vector<std::string>> decode_get_response(
      const http::HttpResponse& response, ByteView k_u);

 private:
  /// Pads and RSA-OAEP-encrypts a domain-typed identifier for the layer
  /// holding `pk`. The id's cleartext exits its domain only into the OAEP
  /// ciphertext (declassify_for_encryption inside).
  template <typename Domain>
  Result<std::string> encrypt_sensitive_for(
      const crypto::RsaPublicKey& pk,
      const taint::Sensitive<std::string, Domain>& id) {
    auto block = pad_sensitive_id(id);
    if (!block.ok()) return block.error();
    // PPROX-DECLASSIFY: randomized RSA-OAEP under the layer public key —
    // only the target layer's enclave can recover the block.
    return encrypt_block_for(pk,
                             taint::declassify_for_encryption(block.value()));
  }
  /// RSA-OAEP-wraps `block` for the layer holding `pk`, base64-encoded: the
  /// client side of that layer's open_field.
  Result<std::string> encrypt_block_for(const crypto::RsaPublicKey& pk,
                                        ByteView block);

  ClientParams params_;
  std::shared_ptr<net::HttpChannel> channel_;
  RandomSource* rng_;
  std::string tenant_id_;  ///< multi-tenant deployments: X-PProx-App value
};

}  // namespace pprox
