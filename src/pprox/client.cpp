// PPROX-LAYER: client
#include "pprox/client.hpp"

#include "common/encoding.hpp"
#include "crypto/ctr.hpp"
#include "crypto/gcm.hpp"
#include "crypto/drbg.hpp"
#include "json/json.hpp"
#include "pprox/tenancy.hpp"

namespace pprox {

ClientLibrary::ClientLibrary(ClientParams params,
                             std::shared_ptr<net::HttpChannel> channel,
                             RandomSource* rng, std::string tenant_id)
    : params_(std::move(params)),
      channel_(std::move(channel)),
      rng_(rng != nullptr ? rng : &crypto::global_drbg()),
      tenant_id_(std::move(tenant_id)) {}

Result<std::string> ClientLibrary::encrypt_block_for(
    const crypto::RsaPublicKey& pk, ByteView block) {
  auto cipher = crypto::rsa_encrypt_oaep(pk, block, *rng_);
  if (!cipher.ok()) return cipher.error();
  return base64_encode(cipher.value());
}

Result<http::HttpRequest> ClientLibrary::build_post_request(
    const std::string& user, const std::string& item,
    const std::string& payload) {
  // Wrap at the application boundary: from here on the identifiers are
  // domain-typed and can only exit through an encryption declassifier.
  const UserId user_id{user};
  const ItemId item_id{item};
  auto enc_user = encrypt_sensitive_for(params_.pk_ua, user_id);
  if (!enc_user.ok()) return enc_user.error();
  auto enc_item = encrypt_sensitive_for(params_.pk_ia, item_id);
  if (!enc_item.ok()) return enc_item.error();

  json::JsonValue body{json::JsonObject{}};
  body.set(fields::kUser, enc_user.value());
  body.set(fields::kItem, enc_item.value());
  if (!payload.empty()) {
    // The payload rides in the same fixed-size encrypted block format as
    // identifiers, for exclusive visibility by the IA layer (ItemDomain).
    const ItemId payload_value{payload};
    auto enc_payload = encrypt_sensitive_for(params_.pk_ia, payload_value);
    if (!enc_payload.ok()) return enc_payload.error();
    body.set(fields::kPayload, enc_payload.value());
  }

  http::HttpRequest request;
  request.method = "POST";
  request.target = paths::kEvents;
  request.set_header("Content-Type", "application/json");
  if (!tenant_id_.empty()) request.set_header(kTenantHeader, tenant_id_);
  request.body = body.dump();
  return request;
}

Result<ClientLibrary::GetCall> ClientLibrary::build_get_request(
    const std::string& user) {
  const UserId user_id{user};
  auto enc_user = encrypt_sensitive_for(params_.pk_ua, user_id);
  if (!enc_user.ok()) return enc_user.error();

  // Fresh temporary key per get call (paper §4.1): protects the returned
  // list from the UA layer; encrypted so only the IA layer can recover it.
  Bytes k_u = rng_->bytes(32);
  auto enc_key = encrypt_block_for(params_.pk_ia, k_u);
  if (!enc_key.ok()) return enc_key.error();

  json::JsonValue body{json::JsonObject{}};
  body.set(fields::kUser, enc_user.value());
  body.set(fields::kTempKey, enc_key.value());

  GetCall call;
  call.request.method = "POST";
  call.request.target = paths::kQueries;
  call.request.set_header("Content-Type", "application/json");
  if (!tenant_id_.empty()) call.request.set_header(kTenantHeader, tenant_id_);
  call.request.body = body.dump();
  call.k_u = std::move(k_u);
  return call;
}

Result<std::vector<std::string>> ClientLibrary::decode_get_response(
    const http::HttpResponse& response, ByteView k_u) {
  if (response.status != 200) {
    return Error::unavailable("get failed with HTTP " +
                              std::to_string(response.status));
  }
  const auto payload_b64 =
      json::get_string_field(response.body, fields::kPayload);
  if (!payload_b64) return Error::parse("response has no payload field");
  const auto payload = base64_decode(*payload_b64);
  if (!payload) return Error::parse("payload is not valid base64");

  // The response self-describes its encryption mode; GCM additionally
  // authenticates (a tampered list is rejected, not silently garbled).
  const auto mode = json::get_string_field(response.body, fields::kEncryptionMode);
  Result<Bytes> block = Error::internal("unset");
  if (mode.has_value() && *mode == "gcm") {
    const crypto::AesGcm cipher(k_u);
    block = cipher.open_with_nonce(*payload);
  } else {
    const crypto::RandomIvCipher cipher(k_u);
    block = cipher.decrypt(*payload);
  }
  if (!block.ok()) return block.error();
  // The freshly decrypted list is item-domain plaintext; it is released to
  // the application only because this code runs on the user's side.
  auto items =
      decode_sensitive_response_block<taint::ItemDomain>(block.value());
  if (!items.ok()) return items.error();
  std::vector<std::string> plain;
  plain.reserve(items.value().size());
  for (ItemId& item : items.value()) {
    // PPROX-DECLASSIFY: client-side release of the user's own recommendation
    // list to the calling application (paper §2.2 trust model).
    plain.push_back(taint::declassify_for_client(std::move(item)));
  }
  return strip_pad_items(std::move(plain));
}

void ClientLibrary::post(const std::string& user, const std::string& item,  // PPROX-HOTPATH-OK(recursion): overload delegation — the 3-arg post forwards to the 4-arg one; merged-by-name nodes read it as a self call
                         std::function<void(Status)> done) {
  post(user, item, "", std::move(done));
}

void ClientLibrary::post(const std::string& user, const std::string& item,
                         const std::string& payload,
                         std::function<void(Status)> done) {
  auto request = build_post_request(user, item, payload);
  if (!request.ok()) {
    done(request.error());
    return;
  }
  channel_->send(std::move(request.value()),
                 [done = std::move(done)](http::HttpResponse response) {
                   if (response.status >= 200 && response.status < 300) {
                     done(Status::ok_status());
                   } else {
                     done(Error::unavailable("post failed with HTTP " +
                                             std::to_string(response.status)));
                   }
                 });
}

void ClientLibrary::get(
    const std::string& user,
    std::function<void(Result<std::vector<std::string>>)> done) {
  auto call = build_get_request(user);
  if (!call.ok()) {
    done(call.error());
    return;
  }
  auto k_u = std::move(call.value().k_u);
  channel_->send(std::move(call.value().request),
                 [done = std::move(done), k_u = std::move(k_u)](
                     http::HttpResponse response) {
                   done(decode_get_response(response, k_u));
                 });
}

Status ClientLibrary::post_sync(const std::string& user, const std::string& item,
                                const std::string& payload) {
  std::promise<Status> promise;
  auto future = promise.get_future();
  post(user, item, payload,
       [&promise](Status s) { promise.set_value(std::move(s)); });
  return future.get();
}

Result<std::vector<std::string>> ClientLibrary::get_sync(const std::string& user) {
  std::promise<Result<std::vector<std::string>>> promise;
  auto future = promise.get_future();
  get(user, [&promise](Result<std::vector<std::string>> r) {
    promise.set_value(std::move(r));
  });
  return future.get();
}

}  // namespace pprox
