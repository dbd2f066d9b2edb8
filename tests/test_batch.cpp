// Batched enclave transitions: one ECALL per shuffle flush.
//
// The batched entry points — UaLogic::transform_batch, IaLogic::transform_batch,
// IaLogic::seal_batch — are the only enclave path, so their differential is
// one batch of S against S batches of one, from equally seeded sources: bit
// for bit, covering per-slot error strings, the untouched bodies of failed
// slots and the seal's RNG consumption order. Each successful slot is also
// checked against an oracle the test computes from its own keys — the
// pseudonym base64(det_enc(pad(id))), the client's own k_u, the LRS list the
// client decodes — which uses no RSA and no keystream, so it is independent
// of both batch phases. The suite runs on both crypto backends (plain and
// `_noaccel` ctest registrations), so the 8-wide AES kernels and the portable
// reference must agree through the batch path too. A full-deployment test
// then pins Enclave::transition_count() to exactly one transition per flush.
#include <gtest/gtest.h>

#include <future>
#include <span>
#include <string>
#include <vector>

#include "common/encoding.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "json/json.hpp"
#include "lrs/harness.hpp"
#include "pprox/batch.hpp"
#include "pprox/client.hpp"
#include "pprox/deployment.hpp"
#include "pprox/logic.hpp"

namespace pprox {
namespace {

using namespace std::chrono_literals;

class BatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new crypto::Drbg(to_bytes("batch-test"));
    keys_ = new ApplicationKeys(ApplicationKeys::generate(*rng_));
    ua_ = new UaLogic(UaLogic::from_secrets(keys_->ua.serialize()).value());
    ia_ = new IaLogic(IaLogic::from_secrets(keys_->ia.serialize()).value());
    client_ = new ClientLibrary(keys_->client_params(), nullptr, rng_);
  }
  static void TearDownTestSuite() {
    delete client_;
    delete ia_;
    delete ua_;
    delete keys_;
    delete rng_;
  }

  /// Deterministic pseudonym as the LRS would store it: the oracle.
  static std::string pseudonym(const LayerSecrets& layer,
                               const std::string& id) {
    const crypto::DeterministicCipher det(layer.k);
    return base64_encode(det.encrypt(pad_identifier(id).value()));
  }

  /// An LRS get-response body listing `items` pseudonymized.
  static std::string lrs_items_body(const std::vector<std::string>& items) {
    json::JsonValue body{json::JsonObject{}};
    json::JsonArray array;
    for (const auto& item : items) array.emplace_back(pseudonym(keys_->ia, item));
    body.set("items", std::move(array));
    return body.dump();
  }

  static std::vector<UaBatchSlot> ua_slots(std::vector<std::string>& bodies) {
    std::vector<UaBatchSlot> slots;
    for (auto& body : bodies) slots.push_back({ua_, &body, {}, {}});
    return slots;
  }

  /// Runs every slot as its own batch of one, recycling `arena` between
  /// them as the proxy does between flushes.
  template <typename Slot, typename Run>
  static void each_alone(std::vector<Slot>& slots, BatchArena& arena,
                         Run run) {
    for (Slot& slot : slots) {
      run(std::span<Slot>(&slot, 1));
      arena.wipe_and_reset();
    }
  }

  static crypto::Drbg* rng_;
  static ApplicationKeys* keys_;
  static UaLogic* ua_;
  static IaLogic* ia_;
  static ClientLibrary* client_;
};

crypto::Drbg* BatchTest::rng_ = nullptr;
ApplicationKeys* BatchTest::keys_ = nullptr;
UaLogic* BatchTest::ua_ = nullptr;
IaLogic* BatchTest::ia_ = nullptr;
ClientLibrary* BatchTest::client_ = nullptr;

TEST_F(BatchTest, KeystreamMatchesZeroPlaintextEncryption) {
  // The batched paths XOR a cached zero-IV keystream instead of calling
  // encrypt/decrypt per message; the two must be the same bytes.
  const crypto::DeterministicCipher det(keys_->ua.k);
  Bytes ks(kIdBlockSize, 0xAA);
  det.keystream(MutByteView(ks.data(), ks.size()));
  EXPECT_EQ(ks, det.encrypt(Bytes(kIdBlockSize, 0)));
}

TEST_F(BatchTest, UaBatchMatchesBatchesOfOneBitForBit) {
  // Mixed batch: posts, gets, and two malformed bodies in the middle.
  // users[i] is the slot's cleartext user, empty where the slot must fail.
  std::vector<std::string> inputs;
  std::vector<std::string> users;
  for (int i = 0; i < 3; ++i) {
    users.push_back("user-" + std::to_string(i));
    inputs.push_back(
        client_->build_post_request(users.back(), "item-" + std::to_string(i))
            .value()
            .body);
  }
  inputs.push_back("{}");                          // no user field
  inputs.push_back(R"({"user":"not-base64!!!"})");  // undecodable field
  users.insert(users.end(), 2, "");
  for (int i = 0; i < 3; ++i) {
    users.push_back("getter-" + std::to_string(i));
    inputs.push_back(client_->build_get_request(users.back()).value().request.body);
  }

  BatchArena arena(inputs.size() * kIdBlockSize + kIdBlockSize);
  std::vector<std::string> alone_bodies = inputs;
  std::vector<UaBatchSlot> alone = ua_slots(alone_bodies);
  each_alone(alone, arena, [&](std::span<UaBatchSlot> one) {
    UaLogic::transform_batch(one, arena);
  });

  std::vector<std::string> bodies = inputs;
  std::vector<UaBatchSlot> slots = ua_slots(bodies);
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots), arena);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    EXPECT_EQ(bodies[i], alone_bodies[i]);
    ASSERT_EQ(slots[i].status.ok(), alone[i].status.ok());
    ASSERT_EQ(slots[i].status.ok(), !users[i].empty());
    if (slots[i].status.ok()) {
      EXPECT_EQ(*json::get_string_field(bodies[i], "user"),
                pseudonym(keys_->ua, users[i]));
    } else {
      EXPECT_EQ(slots[i].status.error().message,
                alone[i].status.error().message);
      EXPECT_EQ(bodies[i], inputs[i]) << "failed slot must not mutate body";
    }
  }

  // The arena is reusable: the same batch after wipe_and_reset produces the
  // same bytes again (per-proxy scratch is recycled across flushes).
  arena.wipe_and_reset();
  std::vector<std::string> again = inputs;
  std::vector<UaBatchSlot> slots2 = ua_slots(again);
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots2), arena);
  EXPECT_EQ(again, bodies);
}

TEST_F(BatchTest, UaBatchEmptyAndSingleSlot) {
  BatchArena arena(kIdBlockSize * 2);
  UaLogic::transform_batch({}, arena);  // no slots: no work, no crash

  std::string body = client_->build_post_request("solo", "item").value().body;
  std::vector<UaBatchSlot> slots{{ua_, &body, {}, {}}};
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots), arena);
  ASSERT_TRUE(slots[0].status.ok());
  EXPECT_EQ(*json::get_string_field(body, "user"),
            pseudonym(keys_->ua, "solo"));
}

TEST_F(BatchTest, IaRequestBatchMatchesBatchesOfOneBitForBit) {
  // Posts (both pseudonymization modes, one with a payload), gets, and two
  // malformed posts: one with no item, one whose payload fails to open
  // after its item already has.
  struct Case {
    std::string body;
    bool is_get;
    bool pseudonymize;
    std::string item;  ///< oracle: the IA-bound item, "" where the slot fails
  };
  std::vector<Case> cases;
  for (int i = 0; i < 2; ++i) {
    const std::string item = "i" + std::to_string(i);
    cases.push_back({client_->build_post_request("u" + std::to_string(i), item)
                         .value()
                         .body,
                     false, true, item});
  }
  // §6.3 opt-out slot mixed into the batch.
  cases.push_back({client_->build_post_request("u-opt", "i-opt").value().body,
                   false, false, "i-opt"});
  cases.push_back(
      {client_->build_post_request("u-pay", "i-pay", "4.5").value().body,
       false, true, "i-pay"});
  cases.push_back({"{}", false, true, ""});  // malformed post
  std::string bad_payload =
      client_->build_post_request("u-bad", "i-bad", "1").value().body;
  json::replace_string_field(bad_payload, "payload", "not-base64!!!");
  cases.push_back({bad_payload, false, true, ""});
  std::vector<Bytes> client_k_u(cases.size());
  for (int i = 0; i < 3; ++i) {
    auto call = client_->build_get_request("g" + std::to_string(i));
    client_k_u.push_back(call.value().k_u);
    cases.push_back({call.value().request.body, true, true, ""});
  }

  std::vector<std::string> alone_bodies;
  std::vector<std::string> bodies;
  for (const auto& c : cases) alone_bodies.push_back(c.body);
  bodies = alone_bodies;
  std::vector<IaRequestSlot> alone;
  std::vector<IaRequestSlot> slots;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    alone.push_back({ia_, &alone_bodies[i], cases[i].is_get,
                     cases[i].pseudonymize, {}, {}});
    slots.push_back(
        {ia_, &bodies[i], cases[i].is_get, cases[i].pseudonymize, {}, {}});
  }
  BatchArena arena(4096);
  each_alone(alone, arena, [&](std::span<IaRequestSlot> one) {
    IaLogic::transform_batch(one, arena);
  });
  IaLogic::transform_batch(std::span<IaRequestSlot>(slots), arena);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    EXPECT_EQ(bodies[i], alone_bodies[i]);
    EXPECT_EQ(slots[i].k_u, alone[i].k_u);
    ASSERT_EQ(slots[i].status.ok(), alone[i].status.ok());
    ASSERT_EQ(slots[i].status.ok(), cases[i].is_get || !cases[i].item.empty());
    if (!slots[i].status.ok()) {
      EXPECT_EQ(slots[i].status.error().message,
                alone[i].status.error().message);
      EXPECT_EQ(bodies[i], cases[i].body) << "failed slot must not mutate body";
    } else if (cases[i].is_get) {
      EXPECT_EQ(slots[i].k_u, client_k_u[i]);
      EXPECT_EQ(*json::get_string_field(bodies[i], "k"), "");
    } else {
      EXPECT_EQ(*json::get_string_field(bodies[i], "item"),
                cases[i].pseudonymize ? pseudonym(keys_->ia, cases[i].item)
                                      : cases[i].item);
    }
  }
  EXPECT_EQ(*json::get_string_field(bodies[3], "payload"), "4.5");
  EXPECT_EQ(slots[5].status.error().message, "field is not valid base64");
}

TEST_F(BatchTest, SealBatchMatchesBatchesOfOneBitForBit) {
  for (const bool authenticated : {false, true}) {
    SCOPED_TRACE(authenticated ? "gcm" : "ctr");
    // Responses of different lengths (1, 20 = already full, 3 items), one
    // malformed body in the middle, plus an empty list (unknown user).
    std::vector<std::vector<std::string>> lists;
    std::vector<std::string> lrs_bodies;
    std::vector<Bytes> keys;
    for (const int n : {1, 20, 3, 0}) {
      std::vector<std::string> items;
      for (int k = 0; k < n; ++k) {
        items.push_back("m" + std::to_string(lists.size()) + "-" +
                        std::to_string(k));
      }
      lrs_bodies.push_back(lrs_items_body(items));
      lists.push_back(std::move(items));
      keys.push_back(client_->build_get_request("s" + std::to_string(n))
                         .value()
                         .k_u);
    }
    // Malformed slot: framing error, consumes no randomness on either path.
    lrs_bodies.insert(lrs_bodies.begin() + 2, R"({"items":"nope"})");
    lists.insert(lists.begin() + 2, std::vector<std::string>{});
    keys.insert(keys.begin() + 2, Bytes(32, 7));

    const auto make_slots = [&] {
      std::vector<IaSealSlot> slots(lrs_bodies.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i].logic = ia_;
        slots[i].lrs_body = &lrs_bodies[i];
        slots[i].k_u = ByteView(keys[i]);
        slots[i].authenticated = authenticated;
      }
      return slots;
    };
    BatchArena arena(64 * kIdBlockSize);
    // Bit-for-bit equality requires rng draws in slot order, successful
    // slots only, against equally-seeded sources.
    crypto::Drbg alone_rng(to_bytes("seal-differential"));
    std::vector<IaSealSlot> alone = make_slots();
    each_alone(alone, arena, [&](std::span<IaSealSlot> one) {
      IaLogic::seal_batch(one, alone_rng, arena);
    });
    crypto::Drbg batch_rng(to_bytes("seal-differential"));
    std::vector<IaSealSlot> slots = make_slots();
    IaLogic::seal_batch(std::span<IaSealSlot>(slots), batch_rng, arena);
    EXPECT_EQ(alone_rng.bytes(16), batch_rng.bytes(16))
        << "both paths drew the same randomness";

    for (std::size_t i = 0; i < slots.size(); ++i) {
      SCOPED_TRACE("slot " + std::to_string(i));
      ASSERT_EQ(slots[i].status.ok(), alone[i].status.ok());
      ASSERT_EQ(slots[i].status.ok(), i != 2);
      if (!slots[i].status.ok()) {
        EXPECT_EQ(slots[i].status.error().message,
                  alone[i].status.error().message);
        continue;
      }
      EXPECT_EQ(slots[i].sealed, alone[i].sealed);
      // Oracle: the client decodes exactly the list the LRS returned.
      const auto decoded = ClientLibrary::decode_get_response(
          http::HttpResponse::json_response(200, slots[i].sealed), keys[i]);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value(), lists[i]);
    }
  }
}

TEST_F(BatchTest, ArenaOverflowKeepsEarlierViewsValid) {
  // A batch larger than the reservation must still be correct: overflow
  // allocations come from fresh chunks, never invalidating staged blocks.
  std::vector<std::string> bodies;
  for (int i = 0; i < 6; ++i) {
    bodies.push_back(
        client_->build_post_request("ov-" + std::to_string(i), "x")
            .value()
            .body);
  }
  std::vector<UaBatchSlot> slots = ua_slots(bodies);
  BatchArena tiny(kIdBlockSize);  // room for one block; rest overflows
  UaLogic::transform_batch(std::span<UaBatchSlot>(slots), tiny);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(slots[i].status.ok()) << "slot " << i;
    EXPECT_EQ(*json::get_string_field(bodies[i], "user"),
              pseudonym(keys_->ua, "ov-" + std::to_string(i)))
        << "slot " << i;
  }
  tiny.wipe_and_reset();
  EXPECT_EQ(tiny.used(), 0u);
}

TEST(BatchTransitions, ExactlyOneEcallPerFlush) {
  crypto::Drbg rng(to_bytes("batch-transitions"));
  lrs::HarnessServer lrs;
  DeploymentConfig config;
  config.shuffle_size = 4;
  config.shuffle_timeout = 10s;  // size-triggered flushes only
  Deployment deployment(config, lrs, rng);
  ClientLibrary client = deployment.make_client(&rng);

  const enclave::Enclave& ua = deployment.ua_proxy(0).hosted_enclave();
  const enclave::Enclave& ia = deployment.ia_proxy(0).hosted_enclave();
  const std::uint64_t ua0 = ua.transition_count();
  const std::uint64_t ia0 = ia.transition_count();

  // One buffer's worth of posts: exactly one UA request flush and one IA
  // request flush. Post responses traverse the IA response shuffle as
  // passthrough items — no seal, so no third ecall.
  std::vector<std::promise<Status>> post_done(4);
  std::vector<std::future<Status>> post_futures;
  for (std::size_t i = 0; i < post_done.size(); ++i) {
    post_futures.push_back(post_done[i].get_future());
    std::promise<Status>* p = &post_done[i];
    client.post("user-" + std::to_string(i), "item-" + std::to_string(i),
                [p](Status s) { p->set_value(std::move(s)); });
  }
  for (auto& f : post_futures) {
    ASSERT_TRUE(f.get().ok());
  }
  EXPECT_EQ(ua.transition_count() - ua0, 1u);
  EXPECT_EQ(ia.transition_count() - ia0, 1u);

  // One buffer's worth of gets: one UA request flush, one IA request flush,
  // and one IA seal flush for the four LRS responses — 1 and 2 transitions.
  const std::uint64_t ua1 = ua.transition_count();
  const std::uint64_t ia1 = ia.transition_count();
  using GetResult = Result<std::vector<std::string>>;
  std::vector<std::promise<GetResult>> get_done(4);
  std::vector<std::future<GetResult>> get_futures;
  for (std::size_t i = 0; i < get_done.size(); ++i) {
    get_futures.push_back(get_done[i].get_future());
    std::promise<GetResult>* p = &get_done[i];
    client.get("user-" + std::to_string(i),
               [p](GetResult r) { p->set_value(std::move(r)); });
  }
  for (auto& f : get_futures) {
    ASSERT_TRUE(f.get().ok());
  }
  EXPECT_EQ(ua.transition_count() - ua1, 1u);
  EXPECT_EQ(ia.transition_count() - ia1, 2u);
}

}  // namespace
}  // namespace pprox
