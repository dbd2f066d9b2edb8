// PPROX-LAYER: ia
#include "pprox/logic_ia.hpp"

#include <algorithm>
#include <optional>

#include "common/encoding.hpp"
#include "crypto/gcm.hpp"
#include "json/json.hpp"
#include "pprox/pseudonymize.hpp"

namespace pprox {

IaLogic::IaLogic(LayerSecrets secrets)
    : secrets_(std::move(secrets)), det_(secrets_.k) {}

Result<IaLogic> IaLogic::from_secrets(ByteView secrets_blob) {
  auto secrets = LayerSecrets::deserialize(secrets_blob);
  if (!secrets.ok()) return secrets.error();
  return IaLogic(std::move(secrets.value()));
}

Status IaLogic::transform_post_request(IaRequestSlot& slot) const {
  std::string& body = *slot.body;
  const auto item_cipher = json::get_string_field(body, fields::kItem);
  // PPROX-CT-OK(branch): presence of the item field is public JSON framing.
  if (!item_cipher) return Error::parse("post has no item field");
  std::string item;
  // PPROX-CT-OK(branch): deployment-config flag (paper §6.3 opt-out), fixed
  // per tenant at startup — not per-request secret data.
  if (slot.pseudonymize_items) {
    auto pseudonym =
        pseudonymize_field<taint::ItemDomain>(secrets_.sk, det_, *item_cipher);
    if (!pseudonym.ok()) return pseudonym.error();
    item = std::move(pseudonym.value());
  } else {
    auto plain = open_field(secrets_.sk, *item_cipher);
    if (!plain.ok()) return plain.error();
    auto id = unpad_sensitive_id(
        SensitiveBlock<taint::ItemDomain>{std::move(plain.value())});
    if (!id.ok()) return id.error();
    // PPROX-DECLASSIFY: §6.3 item-pseudonymization opt-out — the operator
    // chose a semantics-aware LRS; item ids (never user ids — the domain
    // constraint enforces it) are forwarded in the clear.
    item = json::escape(taint::declassify_for_lrs(std::move(id.value())));
  }
  // Optional payload (rating, weight, ...): decrypt and forward in usable
  // form — the LRS needs the actual value, and it carries no identifier.
  std::optional<std::string> payload;
  // PPROX-CT-OK(branch): presence of the optional payload field is public
  // JSON framing of the adversary-visible request body.
  if (const auto payload_cipher =
          json::get_string_field(body, fields::kPayload)) {
    auto plain = open_field(secrets_.sk, *payload_cipher);
    if (!plain.ok()) return plain.error();
    auto value = unpad_sensitive_id(
        SensitiveBlock<taint::ItemDomain>{std::move(plain.value())});
    if (!value.ok()) return value.error();
    // PPROX-DECLASSIFY: event payloads are identifier-free values the LRS
    // must read to train (paper §2.1); they ride the IA path so only the IA
    // layer ever decrypts them.
    payload = json::escape(taint::declassify_for_lrs(std::move(value.value())));
  }
  // Every field opened: only now is the body rewritten.
  json::replace_string_field(body, fields::kItem, item);
  if (payload) json::replace_string_field(body, fields::kPayload, *payload);
  return Status::ok_status();
}

Status IaLogic::transform_get_request(IaRequestSlot& slot) const {
  const auto key_cipher = json::get_string_field(*slot.body, fields::kTempKey);
  // PPROX-CT-OK(branch): presence of the field is public JSON framing.
  if (!key_cipher) return Error::parse("get has no temporary key field");
  // Key material, not an identifier: k_u stays raw Bytes and lives in the EPC.
  auto k_u = open_field(secrets_.sk, *key_cipher);
  if (!k_u.ok()) return k_u.error();
  if (k_u.value().size() != 32) {
    return Error::crypto("temporary key has wrong length");
  }
  // Strip the key from the forwarded call: the LRS never sees k_u, and all
  // forwarded get calls look identical in shape.
  json::replace_string_field(*slot.body, fields::kTempKey, "");
  slot.k_u = std::move(k_u.value());
  return Status::ok_status();
}

void IaLogic::transform_batch(std::span<IaRequestSlot> slots,
                              BatchArena& /*arena*/) {
  // Posts and gets are JSON rewrites around one or two RSA unwraps each —
  // there is no shared keystream to vectorize, so the batch win here is
  // purely the amortized transition: S transforms under ONE ecall.
  for (IaRequestSlot& slot : slots) {
    // PPROX-CT-OK(branch): request kind is the HTTP method — adversary-
    // visible wire metadata, not secret plaintext.
    slot.status = slot.is_get ? slot.logic->transform_get_request(slot)
                              : slot.logic->transform_post_request(slot);
  }
}

void IaLogic::seal_batch(std::span<IaSealSlot> slots, RandomSource& rng,
                         BatchArena& arena) {
  // Phase 1 — parse every LRS body and gather its pseudonym blocks into one
  // contiguous arena region per slot.
  for (IaSealSlot& slot : slots) {
    const auto doc = json::parse(*slot.lrs_body);
    if (!doc.ok()) {
      slot.status = doc.error();
      continue;
    }
    const json::JsonValue* items = doc.value().find(fields::kItems);
    // PPROX-CT-OK(branch): JSON framing of the LRS response body.
    if (items == nullptr || !items->is_array()) {
      slot.status = Error::parse("LRS response has no items list");
      continue;
    }
    const auto& array = items->as_array();
    slot.blocks = arena.alloc(array.size() * kIdBlockSize);
    slot.item_count = 0;
    for (const auto& entry : array) {
      // PPROX-CT-OK(branch): base64/size framing of stored wire-format rows.
      if (!entry.is_string()) {
        slot.status = Error::parse("non-string item in response");
        break;
      }
      const auto cipher = base64_decode(entry.as_string());
      // PPROX-CT-OK(branch): base64 framing of stored wire-format rows.
      if (!cipher) {
        slot.status = Error::parse("pseudonym is not valid base64");
        break;
      }
      // PPROX-CT-OK(branch): size framing of stored wire-format rows.
      if (cipher->size() != kIdBlockSize) {
        slot.status = Error::parse("pseudonym block has wrong size");
        break;
      }
      std::copy(cipher->begin(), cipher->end(),
                slot.blocks.begin() +
                    static_cast<std::ptrdiff_t>(slot.item_count * kIdBlockSize));
      ++slot.item_count;
    }
  }

  // Phase 2 — vectorized de-pseudonymize. det decrypt is zero-IV CTR, i.e.
  // a message-independent keystream XOR: compute it once per tenant logic
  // (the 8-wide AES kernel runs once per tenant per flush) and sweep it
  // across every gathered block.
  const IaLogic* keyed_for = nullptr;
  MutByteView ks{};
  for (IaSealSlot& slot : slots) {
    if (!slot.status.ok()) continue;
    // PPROX-CT-OK(branch): tenant-routing identity of the slot, not secret
    // plaintext — which logic instance a response targets is adversary-visible
    // wire metadata; the gathered blocks stay branch-free (XOR only).
    if (slot.logic != keyed_for) {
      ks = arena.alloc(kIdBlockSize);
      slot.logic->det_.keystream(ks);
      keyed_for = slot.logic;
    }
    for (std::size_t i = 0; i < slot.item_count; ++i) {
      xor_into(slot.blocks.subspan(i * kIdBlockSize, kIdBlockSize), ks);
    }
  }

  // Phase 3 — unpad, pad to the constant list length, and seal under k_u.
  // Slot order fixes the rng consumption order, and failed slots consume
  // none — exactly what S one-slot batches against the same source do.
  for (IaSealSlot& slot : slots) {
    if (!slot.status.ok()) continue;
    std::vector<ItemId> plain_items;
    plain_items.reserve(slot.item_count);
    for (std::size_t i = 0; i < slot.item_count; ++i) {
      const auto sub = slot.blocks.subspan(i * kIdBlockSize, kIdBlockSize);
      const SensitiveBlock<taint::ItemDomain> block{Bytes(sub.begin(), sub.end())};
      auto id = unpad_sensitive_id(block);
      if (!id.ok()) {
        slot.status = id.error();
        break;
      }
      plain_items.push_back(std::move(id.value()));
    }
    if (!slot.status.ok()) continue;
    auto block = encode_sensitive_response_block(
        pad_sensitive_recommendations(std::move(plain_items)));
    if (!block.ok()) {
      slot.status = block.error();
      continue;
    }
    // PPROX-DECLASSIFY: the serialized list is immediately sealed under the
    // per-request key k_u, which only this enclave and the requesting client
    // hold; the UA and the network observe ciphertext of constant size.
    const Bytes& raw_block = taint::declassify_for_encryption(block.value());
    Bytes encrypted;
    // PPROX-CT-OK(branch): deployment-config flag, fixed per proxy.
    if (slot.authenticated) {
      const crypto::AesGcm cipher(slot.k_u);
      encrypted = cipher.seal_with_random_nonce(raw_block, rng);
    } else {
      const crypto::RandomIvCipher cipher(slot.k_u);
      encrypted = cipher.encrypt(raw_block, rng);
    }
    json::JsonValue out{json::JsonObject{}};
    out.set(fields::kPayload, base64_encode(encrypted));
    out.set(fields::kEncryptionMode, slot.authenticated ? "gcm" : "ctr");
    slot.sealed = out.dump();
  }
}

}  // namespace pprox
