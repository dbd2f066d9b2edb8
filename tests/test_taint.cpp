// PPROX-LAYER: tooling
//
// The taint-domain layer (common/taint.hpp + the typed helpers threaded
// through the pipeline): zero-overhead guarantees, compile-time domain
// separation, bit-for-bit agreement between the typed transforms and the
// untyped wire functions they wrap, and the end-to-end property the types
// exist for — an adversary without layer secrets still links nothing when
// the pipeline runs through the typed entry points.
#include <gtest/gtest.h>

#include <type_traits>

#include "attack/adversary.hpp"
#include "common/encoding.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "json/json.hpp"
#include "lrs/harness.hpp"
#include "pprox/client.hpp"
#include "pprox/logic.hpp"
#include "one_slot.hpp"

namespace pprox {
namespace {

using taint::ItemDomain;
using taint::PseudonymDomain;
using taint::Sensitive;
using taint::UserDomain;

// ---------------------------------------------------------------------------
// Compile-time contract. Every assertion here is part of the security
// argument: if one of these starts failing, the type system has stopped
// enforcing the corresponding flow rule.
// ---------------------------------------------------------------------------

// Zero overhead: the wrapper adds no bytes and keeps the payload's layout
// properties, for the concrete instantiations the pipeline uses.
static_assert(sizeof(UserId) == sizeof(std::string));
static_assert(sizeof(ItemId) == sizeof(std::string));
static_assert(sizeof(SensitiveBlock<ItemDomain>) == sizeof(Bytes));
static_assert(std::is_trivially_copyable_v<Sensitive<int, UserDomain>>);

// No implicit exit: a sensitive value never converts to its raw type.
static_assert(!std::is_convertible_v<UserId, std::string>);
static_assert(!std::is_convertible_v<ItemId, std::string>);
static_assert(!std::is_convertible_v<PseudonymizedId, std::string>);

// No implicit entry either: wrapping is an explicit, visible act.
static_assert(!std::is_convertible_v<std::string, UserId>);
static_assert(std::is_constructible_v<UserId, std::string>);

// No cross-domain flow: user and item values cannot mix, in either
// direction, by construction or assignment.
static_assert(!std::is_constructible_v<UserId, ItemId>);
static_assert(!std::is_constructible_v<ItemId, UserId>);
static_assert(!std::is_constructible_v<lrs::StoredPseudonym, UserId>);
static_assert(!std::is_assignable_v<UserId&, const ItemId&>);
static_assert(!std::is_assignable_v<ItemId&, const UserId&>);

// wire() exists exactly for pseudonyms: reading the protocol's *output*
// needs no declassification, reading its *input* is impossible.
template <typename S>
concept HasWire = requires(const S s) { s.wire(); };
static_assert(HasWire<PseudonymizedId>);
static_assert(HasWire<lrs::StoredPseudonym>);
static_assert(!HasWire<UserId>);
static_assert(!HasWire<ItemId>);

// The §6.3 opt-out declassifier is item-only: user pseudonymization has no
// off switch.
template <typename S>
concept LrsReleasable = requires(S s) { taint::declassify_for_lrs(std::move(s)); };
static_assert(LrsReleasable<ItemId>);
static_assert(!LrsReleasable<UserId>);
static_assert(!LrsReleasable<PseudonymizedId>);

static_assert(taint::is_sensitive_v<UserId>);
static_assert(!taint::is_sensitive_v<std::string>);

// ---------------------------------------------------------------------------
// Combinators and typed message helpers.
// ---------------------------------------------------------------------------

TEST(TaintCombinators, MapPreservesDomain) {
  const ItemId item{std::string("movie-7")};
  const auto length =
      taint::map(item, [](const std::string& s) { return s.size(); });
  static_assert(
      std::is_same_v<std::decay_t<decltype(length)>,
                     Sensitive<std::string::size_type, ItemDomain>>);
  EXPECT_EQ(taint::declassify_for_test(length), 7u);
}

TEST(TaintCombinators, TryMapPropagatesErrorsWithoutTheValue) {
  const UserId oversized{std::string(4096, 'x')};
  const auto block = pad_sensitive_id(oversized);
  ASSERT_FALSE(block.ok());
  // The error path must not leak the protected value.
  EXPECT_EQ(block.error().message.find(std::string(64, 'x')), std::string::npos);
}

TEST(TaintCombinators, SameDomainEqualityOnly) {
  const UserId a{std::string("alice")};
  const UserId b{std::string("alice")};
  const UserId c{std::string("bob")};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TaintMessage, TypedPaddingMatchesUntypedBitForBit) {
  const std::string raw_id = "movie-42";
  const ItemId typed{raw_id};
  const auto typed_block = pad_sensitive_id(typed);
  const auto untyped_block = pad_identifier(raw_id);
  ASSERT_TRUE(typed_block.ok());
  ASSERT_TRUE(untyped_block.ok());
  EXPECT_EQ(taint::declassify_for_test(typed_block.value()),
            untyped_block.value());

  const auto back = unpad_sensitive_id(typed_block.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(taint::declassify_for_test(back.value()), raw_id);
}

TEST(TaintMessage, TypedResponseBlockMatchesUntypedBitForBit) {
  const std::vector<std::string> raw_items = {"movie-1", "movie-2"};
  std::vector<ItemId> typed_items;
  for (const std::string& item : raw_items) typed_items.emplace_back(item);

  const auto typed_block =
      encode_sensitive_response_block(pad_sensitive_recommendations(typed_items));
  const auto untyped_block =
      encode_response_block(pad_recommendations(raw_items));
  ASSERT_TRUE(typed_block.ok());
  ASSERT_TRUE(untyped_block.ok());
  EXPECT_EQ(taint::declassify_for_test(typed_block.value()),
            untyped_block.value());

  const auto decoded = decode_sensitive_response_block<ItemDomain>(
      untyped_block.value());
  ASSERT_TRUE(decoded.ok());
  std::vector<std::string> released;
  for (auto& item : decoded.value()) {
    released.push_back(taint::declassify_for_test(std::move(item)));
  }
  EXPECT_EQ(strip_pad_items(std::move(released)), raw_items);
}

// ---------------------------------------------------------------------------
// Declassification round-trips: the typed pipeline entry points must produce
// byte-identical wire values to the pre-taint formulation (deterministic
// pseudonym = base64(det_enc(pad(id), k_layer))).
// ---------------------------------------------------------------------------

class TaintPipelineTest : public ::testing::Test {
 protected:
  TaintPipelineTest()
      : rng_(to_bytes("taint-test")),
        keys_(ApplicationKeys::generate(rng_)),
        ua_(UaLogic::from_secrets(keys_.ua.serialize()).value()),
        ia_(IaLogic::from_secrets(keys_.ia.serialize()).value()),
        client_(keys_.client_params(), nullptr, &rng_) {}

  /// The untyped ground truth a pre-taint build computed.
  static std::string manual_pseudonym(const LayerSecrets& layer,
                                      const std::string& id) {
    const crypto::DeterministicCipher det(layer.k);
    return base64_encode(det.encrypt(pad_identifier(id).value()));
  }

  crypto::Drbg rng_;
  ApplicationKeys keys_;
  UaLogic ua_;
  IaLogic ia_;
  ClientLibrary client_;
};

TEST_F(TaintPipelineTest, TypedUaPseudonymBitForBit) {
  const auto pseudonym = ua_.pseudonym_of(UserId{std::string("alice")});
  ASSERT_TRUE(pseudonym.ok());
  EXPECT_EQ(pseudonym.value().wire(), manual_pseudonym(keys_.ua, "alice"));
}

TEST_F(TaintPipelineTest, WireTransformsUnchangedByTyping) {
  // Full POST lifecycle: every wire value the typed pipeline emits equals
  // the manual composition of the untyped primitives.
  const auto request = client_.build_post_request("alice", "movie-7");
  ASSERT_TRUE(request.ok());
  const auto after_ua = one_slot::ua_request(ua_, request.value().body);
  ASSERT_TRUE(after_ua.ok());
  const auto after_ia = one_slot::ia_post(ia_, after_ua.value());
  ASSERT_TRUE(after_ia.ok());
  EXPECT_EQ(*json::get_string_field(after_ia.value(), fields::kUser),
            manual_pseudonym(keys_.ua, "alice"));
  EXPECT_EQ(*json::get_string_field(after_ia.value(), fields::kItem),
            manual_pseudonym(keys_.ia, "movie-7"));
}

TEST_F(TaintPipelineTest, TypedLrsEntryPointsMatchWireOverloads) {
  // Same events through the typed and the string overloads must produce
  // identical LRS state (the typed overloads are a compile-time gate, not a
  // different code path).
  lrs::HarnessServer typed_lrs;
  lrs::HarnessServer untyped_lrs;
  const std::string u = manual_pseudonym(keys_.ua, "alice");
  const std::string i = manual_pseudonym(keys_.ia, "movie-7");
  EXPECT_EQ(typed_lrs
                .post_event(lrs::StoredPseudonym{u}, lrs::StoredPseudonym{i})
                .status,
            untyped_lrs.post_event(u, i).status);
  EXPECT_EQ(typed_lrs.event_count(), untyped_lrs.event_count());
  EXPECT_EQ(typed_lrs.user_history(u), untyped_lrs.user_history(u));
  EXPECT_EQ(typed_lrs.query(lrs::StoredPseudonym{u}).status,
            untyped_lrs.query(u).status);
}

// ---------------------------------------------------------------------------
// The property all of this serves: running the pipeline through the typed
// entry points changes nothing for the adversary — without layer secrets,
// intercepted ciphertexts and the LRS database still link no user to any
// item (§6.1 cases with zero breached layers).
// ---------------------------------------------------------------------------

TEST_F(TaintPipelineTest, AdversaryWithoutSecretsStillLinksNothing) {
  std::vector<attack::InterceptedPost> intercepts;
  std::vector<attack::LrsDbRow> database;
  const std::vector<std::pair<std::string, std::string>> traffic = {
      {"alice", "diabetes-forum"}, {"bob", "political-news"}};
  for (const auto& [user, item] : traffic) {
    auto request = client_.build_post_request(user, item);
    ASSERT_TRUE(request.ok());
    attack::InterceptedPost intercept;
    intercept.user_field =
        *json::get_string_field(request.value().body, fields::kUser);
    intercept.item_field =
        *json::get_string_field(request.value().body, fields::kItem);
    intercepts.push_back(intercept);
    const auto after_ua = one_slot::ua_request(ua_, request.value().body);
    ASSERT_TRUE(after_ua.ok());
    const auto after_ia = one_slot::ia_post(ia_, after_ua.value());
    ASSERT_TRUE(after_ia.ok());
    database.push_back(
        {*json::get_string_field(after_ia.value(), fields::kUser),
         *json::get_string_field(after_ia.value(), fields::kItem)});
  }

  const attack::Adversary adversary;  // no stolen secrets
  for (const auto& [user, item] : traffic) {
    EXPECT_FALSE(adversary.can_link(user, item, database, intercepts));
  }
  // Sanity: the attack machinery itself still works when fully armed, so
  // the EXPECT_FALSE above is meaningful.
  attack::Adversary armed;
  armed.steal_ua_secrets(keys_.ua);
  armed.steal_ia_secrets(keys_.ia);
  EXPECT_TRUE(armed.can_link("alice", "diabetes-forum", database, intercepts));
}

}  // namespace
}  // namespace pprox
