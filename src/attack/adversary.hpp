// PPROX-LAYER: attack
//
// The paper's adversary (§2.3): observes all RaaS-internal traffic and the
// LRS database in the clear, and can break into at most ONE enclave layer at
// a time. This module makes the §6.1 security analysis executable: given a
// set of stolen secrets and a set of observations, what can be linked?
//
// Flow-lint note: the attack layer deliberately sits OUTSIDE the trusted
// computing base — it models what a breached enclave's loot can derive, so
// it may reference both layers' recovery APIs. The layering rules that bind
// ua/ia/lrs/shared TUs do not apply here; the justification-comment and
// crypto-hygiene rules still do.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "pprox/keys.hpp"
#include "pprox/logic.hpp"

namespace pprox::attack {

/// One pseudonymized event row as stored by the LRS (what the adversary
/// reads when it dumps the database, §2.3 ➋).
struct LrsDbRow {
  std::string user_pseudonym;  // base64(det_enc(u, kUA))
  std::string item_pseudonym;  // base64(det_enc(i, kIA)) or cleartext i
};

/// An intercepted client->UA message (ciphertext fields, plus the source
/// address the adversary always sees).
struct InterceptedPost {
  std::string source_address;
  std::string user_field;  // base64(enc(u, pkUA))
  std::string item_field;  // base64(enc(i, pkIA))
};

/// The adversary's toolbox. Stolen secrets are added as enclaves are
/// breached; every query returns what the adversary can derive — and
/// nothing more.
class Adversary {
 public:
  /// Loot from a breached UA enclave (paper Case 1).
  void steal_ua_secrets(LayerSecrets secrets);
  /// Loot from a breached IA enclave (paper Case 2).
  void steal_ia_secrets(LayerSecrets secrets);

  /// Case 1(a): decrypt the user identity from an intercepted post.
  /// Requires skUA; fails without UA loot.
  Result<std::string> recover_user(const InterceptedPost& message) const;

  /// Case 1(a) continued: decrypt the item from the same message.
  /// Requires skIA; fails with only UA loot.
  Result<std::string> recover_item(const InterceptedPost& message) const;

  /// Case 1(c)/2(c): de-pseudonymize an LRS database row. Each half needs
  /// the corresponding layer's permanent key.
  Result<std::string> de_pseudonymize_user(const LrsDbRow& row) const;
  Result<std::string> de_pseudonymize_item(const LrsDbRow& row) const;

  /// The unlinkability predicate itself: can this adversary, with its
  /// current loot, link user `u` to item `i` given the full LRS dump and
  /// all intercepted messages? Mirrors the case analysis of §6.1.
  bool can_link(const std::string& user, const std::string& item,
                const std::vector<LrsDbRow>& database,
                const std::vector<InterceptedPost>& intercepts) const;

 private:
  Result<std::string> decrypt_identifier(const crypto::RsaPrivateKey& sk,
                                         const std::string& base64_field) const;
  Result<std::string> de_pseudonymize(const Bytes& key,
                                      const std::string& base64_field) const;

  std::optional<LayerSecrets> ua_;
  std::optional<LayerSecrets> ia_;
};

/// §6.3 history-based attack: the adversary targets one source address and
/// collects, for each of that user's get requests, the candidate set of S
/// pseudonymous outputs it cannot distinguish between. Recurring elements
/// across rounds eventually isolate the victim's pseudonym.
class HistoryAttack {
 public:
  /// Adds one observation round (the candidate pseudonyms for the victim).
  void observe_round(const std::vector<std::string>& candidates);

  /// Pseudonyms still consistent with every round.
  std::vector<std::string> surviving_candidates() const;

  /// True when exactly one candidate survives (victim identified).
  bool victim_identified() const { return surviving_candidates().size() == 1; }

  std::size_t rounds() const { return rounds_; }

 private:
  bool first_ = true;
  std::vector<std::string> survivors_;
  std::size_t rounds_ = 0;
};

}  // namespace pprox::attack
