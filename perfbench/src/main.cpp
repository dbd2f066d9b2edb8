// PProx end-to-end benchmark driver.
//
//   pprox_perfbench --workload <get-direct|mix-shuffled|get-tcp> --seed <n>
//                   --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Builds a real UA+IA+LRS stack, seeds and trains the LRS through it,
// fetches every get user's reference recommendations, prebuilds all
// requests, then runs an open loop at a fixed rate and a closed loop with a
// fixed window. The last line of stdout is one JSON object: end-to-end
// metrics with --trace 0, per-layer metrics (from hop timing wrappers and
// direct calls into each layer) with --trace 1. See NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "loadgen.hpp"
#include "pprox/client.hpp"
#include "pprox/logic_ia.hpp"
#include "pprox/logic_ua.hpp"
#include "stack.hpp"
#include "trace.hpp"
#include "workload/movielens.hpp"

namespace perfbench {
namespace {

using pprox::SampleStats;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  Transport transport;
  int shuffle_size;      ///< S
  double get_share;      ///< fraction of gets; the rest are posts
  double rate;           ///< open-loop offered rate R (requests/s)
  std::size_t window;    ///< closed-loop outstanding requests
  double closed_budget;  ///< requests/s prebuilt for the closed loop
};

// R is ~40-50% of the closed-loop throughput on a 4-core x86 box; the
// closed-loop budget leaves headroom for the stack getting faster.
constexpr Workload kWorkloads[] = {
    {"get-direct", Transport::kInProc, 0, 1.0, 400, 16, 2500},
    {"mix-shuffled", Transport::kInProc, 32, 0.8, 400, 256, 2500},
    {"get-tcp", Transport::kTcp, 0, 1.0, 250, 4, 1500},
};

constexpr std::size_t kSeedEvents = 1024;  // multiple of every S used
constexpr std::size_t kGetUsers = 64;      // multiple of every S used
constexpr double kWarmupS = 0.5;
constexpr double kCooldownS = 0.5;
constexpr double kOpenShare = 0.7;  // of --seconds; the closed loop gets the rest
constexpr double kWindowSamples = 1000;  // open-loop requests per window, at least
constexpr double kDrainS = 10;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
constexpr double kProbeS = 2;  // sizes the network probe's request plan

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Request mix derived from the seed alone: which users and items are used.
struct Plan {
  struct Op {
    bool is_get;
    std::string user;
    std::string item;  // posts only
  };
  std::vector<pprox::lrs::Event> seed_events;
  std::vector<std::string> get_users;
  std::vector<Op> ops;  // open-loop ops, then closed-loop ops
  std::size_t open_count = 0;
};

Plan make_plan(const Options& options) {
  const Workload& w = *options.workload;
  const pprox::workload::MovieLensGenerator stream(
      pprox::workload::MovieLensParams::small(options.seed));
  const std::vector<pprox::lrs::Event> events = stream.events();
  pprox::SplitMix64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 17);

  Plan plan;
  plan.seed_events.assign(events.begin(), events.begin() + kSeedEvents);

  // Get users: users with some seeded history, so their lists are non-trivial.
  std::map<std::string, int> seeded;
  for (const auto& e : plan.seed_events) ++seeded[e.user];
  std::vector<std::string> candidates;
  for (const auto& [user, count] : seeded) {
    if (count >= 3) candidates.push_back(user);
  }
  pprox::shuffle(candidates, rng);
  if (candidates.size() < kGetUsers) {
    throw std::runtime_error("workload stream has too few active users");
  }
  candidates.resize(kGetUsers);
  plan.get_users = candidates;

  // Posts replay the stream for the remaining users (Zipf-skewed items).
  std::vector<const pprox::lrs::Event*> posts;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& e = events[(kSeedEvents + k) % events.size()];
    if (std::find(plan.get_users.begin(), plan.get_users.end(), e.user) ==
        plan.get_users.end()) {
      posts.push_back(&e);
    }
  }

  const double open_s = kOpenShare * options.seconds;
  const double closed_s = options.seconds - open_s;
  plan.open_count = static_cast<std::size_t>(
      std::ceil(w.rate * (kWarmupS + open_s + kCooldownS)));
  const auto closed_count = static_cast<std::size_t>(
      std::ceil(w.closed_budget * (kWarmupS + closed_s)));
  std::size_t next_post = 0;
  for (std::size_t i = 0; i < plan.open_count + closed_count; ++i) {
    if (rng.next_double() < w.get_share) {
      plan.ops.push_back(
          {true, plan.get_users[rng.next_below(plan.get_users.size())], ""});
    } else {
      const auto* e = posts[next_post++ % posts.size()];
      plan.ops.push_back({false, e->user, e->item});
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Set-up

/// Waits for `remaining` to reach zero; false on timeout.
bool wait_for(const std::atomic<std::size_t>& remaining, double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (remaining.load() > 0) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct Setup {
  std::unique_ptr<SpanTable> spans;  // traced runs only
  std::vector<std::vector<std::string>> reference;  // per get user
  std::vector<Prebuilt> requests;
  SampleStats wrap_get_us;
  SampleStats wrap_post_us;
  double seconds = 0;
  // Last, so it is torn down first: its teardown may still complete
  // requests, whose callbacks read the members above.
  std::unique_ptr<Stack> stack;
};

/// Builds and attests the stack, seeds and trains the LRS through it,
/// fetches the reference answers and prebuilds every request.
std::unique_ptr<Setup> set_up(const Options& options, const Plan& plan) {
  const std::int64_t start = now_ns();
  // Completion counters outlive the stack: if a step times out, tearing the
  // stack down still completes the stragglers.
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> failures{0};
  auto setup = std::make_unique<Setup>();
  StackConfig config;
  config.shuffle_size = options.workload->shuffle_size;
  config.transport = options.workload->transport;
  if (options.trace) {
    setup->spans = std::make_unique<SpanTable>(plan.ops.size());
    config.spans = setup->spans.get();
  }
  pprox::crypto::Drbg rng;
  setup->stack = std::make_unique<Stack>(config, rng);
  Stack& stack = *setup->stack;
  pprox::ClientLibrary client(stack.keys().client_params(), stack.entry(),
                              &rng);

  // Seed posts all in flight at once: shuffle buffers fill by size, and the
  // counts are multiples of S, so no set-up step waits for the timer.
  remaining.store(plan.seed_events.size());
  for (const auto& e : plan.seed_events) {
    client.post(e.user, e.item, [&](pprox::Status status) {
      if (!status.ok()) failures.fetch_add(1);
      remaining.fetch_sub(1);
    });
  }
  if (!wait_for(remaining, 60) || failures.load() > 0) {
    throw std::runtime_error("seeding the LRS failed");
  }
  stack.lrs().train();

  // Reference answers: the LRS is not retrained and get users never post,
  // so each get user's list is fixed for the rest of the run.
  setup->reference.resize(plan.get_users.size());
  remaining.store(plan.get_users.size());
  for (std::size_t u = 0; u < plan.get_users.size(); ++u) {
    client.get(plan.get_users[u],
               [&, u](pprox::Result<std::vector<std::string>> items) {
                 if (items.ok()) {
                   setup->reference[u] = std::move(items.value());
                 } else {
                   failures.fetch_add(1);
                 }
                 remaining.fetch_sub(1);
               });
  }
  if (!wait_for(remaining, 60) || failures.load() > 0) {
    throw std::runtime_error("fetching reference answers failed");
  }
  std::map<std::string, const std::vector<std::string>*> reference_of;
  for (std::size_t u = 0; u < plan.get_users.size(); ++u) {
    reference_of[plan.get_users[u]] = &setup->reference[u];
  }

  // Prebuild on every core, each thread with its own client and DRBG.
  setup->requests.resize(plan.ops.size());
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<SampleStats> get_us(threads);
  std::vector<SampleStats> post_us(threads);
  std::atomic<bool> build_failed{false};
  const auto prebuild = [&](std::size_t t) {
    pprox::crypto::Drbg thread_rng;
    pprox::ClientLibrary builder(stack.keys().client_params(), nullptr,
                                 &thread_rng);
    for (std::size_t i = t; i < plan.ops.size(); i += threads) {
      const Plan::Op& op = plan.ops[i];
      Prebuilt& out = setup->requests[i];
      const std::int64_t t0 = now_ns();
      if (op.is_get) {
        auto call = builder.build_get_request(op.user);
        if (!call.ok()) {
          build_failed = true;
          return;
        }
        out.request = std::move(call.value().request);
        out.k_u = std::move(call.value().k_u);
        out.is_get = true;
        out.expected = reference_of.at(op.user);
      } else {
        auto request = builder.build_post_request(op.user, op.item);
        if (!request.ok()) {
          build_failed = true;
          return;
        }
        out.request = std::move(request.value());
      }
      const double elapsed_us = static_cast<double>(now_ns() - t0) / 1e3;
      (op.is_get ? get_us : post_us)[t].add(elapsed_us);
      if (options.trace) {
        out.request.set_header(kSpanHeader, std::to_string(i));
      }
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        prebuild(t);
      } catch (const std::exception&) {
        build_failed = true;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (build_failed) throw std::runtime_error("prebuilding requests failed");
  for (std::size_t t = 0; t < threads; ++t) {
    setup->wrap_get_us.merge(get_us[t]);
    setup->wrap_post_us.merge(post_us[t]);
  }
  setup->seconds = static_cast<double>(now_ns() - start) / 1e9;
  return setup;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double pct(const SampleStats& stats, double q) {
  return stats.empty() ? 0 : stats.percentile(q);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Public counters of both proxies at one instant.
struct Counters {
  std::int64_t t = 0;
  double cpu = 0;
  std::uint64_t ua_ecalls = 0, ua_requests = 0, ia_ecalls = 0, ia_requests = 0;

  static Counters take(Stack& stack) {
    Counters c;
    c.t = now_ns();
    c.cpu = cpu_seconds();
    c.ua_ecalls = stack.ua_enclave().transition_count();
    c.ua_requests = stack.ua().requests_seen();
    c.ia_ecalls = stack.ia_enclave().transition_count();
    c.ia_requests = stack.ia().requests_seen();
    return c;
  }
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Times each layer's public entry points directly, on freshly built
/// inputs, after the timed phases: RSA-OAEP on the layer keys, then the
/// UA transform, IA transform and IA seal at the workload's batch size.
void time_layers(Stack& stack, const Plan& plan, int shuffle_size,
                 std::vector<Metric>& metrics) {
  using pprox::ByteView;
  pprox::crypto::Drbg rng;
  const pprox::ApplicationKeys& keys = stack.keys();

  SampleStats encrypt_us, decrypt_us;
  const pprox::crypto::RsaPublicKey pk = keys.ua.sk.public_key();
  const pprox::Bytes message = rng.bytes(32);
  for (int k = 0; k < 200; ++k) {
    std::int64_t t0 = now_ns();
    auto cipher = pprox::crypto::rsa_encrypt_oaep(pk, message, rng);
    encrypt_us.add(us(now_ns() - t0));
    t0 = now_ns();
    auto plain = pprox::crypto::rsa_decrypt_oaep(keys.ua.sk, cipher.value());
    decrypt_us.add(us(now_ns() - t0));
    if (!plain.ok() || plain.value() != message) {
      throw std::runtime_error("RSA-OAEP round trip failed");
    }
  }

  auto ua = pprox::UaLogic::from_secrets(keys.ua.serialize());
  auto ia = pprox::IaLogic::from_secrets(keys.ia.serialize());
  if (!ua.ok() || !ia.ok()) throw std::runtime_error("layer secrets rejected");
  pprox::ClientLibrary client(keys.client_params(), nullptr, &rng);
  const std::size_t batch = static_cast<std::size_t>(std::max(shuffle_size, 1));
  const std::size_t batches = std::max<std::size_t>(8, 64 / batch);
  pprox::BatchArena arena(batch * pprox::kResponseBlockSize + 4096);
  SampleStats ua_us, ia_us, seal_us;
  std::size_t user = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<std::string> bodies;
    for (std::size_t k = 0; k < batch; ++k) {
      const auto& name = plan.get_users[user++ % plan.get_users.size()];
      bodies.push_back(client.build_get_request(name).value().request.body);
    }
    std::vector<pprox::UaBatchSlot> ua_slots;
    std::vector<pprox::IaRequestSlot> ia_slots;
    for (auto& body : bodies) {
      ua_slots.push_back({&ua.value(), &body, {}, {}});
      ia_slots.push_back({&ia.value(), &body, true, true, {}, {}});
    }
    std::int64_t t0 = now_ns();
    pprox::UaLogic::transform_batch(ua_slots, arena);
    ua_us.add(us(now_ns() - t0) / static_cast<double>(batch));
    arena.wipe_and_reset();
    t0 = now_ns();
    pprox::IaLogic::transform_batch(ia_slots, arena);
    ia_us.add(us(now_ns() - t0) / static_cast<double>(batch));
    arena.wipe_and_reset();

    std::vector<std::string> lrs_bodies(batch);
    std::vector<pprox::IaSealSlot> seal_slots;
    for (std::size_t k = 0; k < batch; ++k) {
      if (!ua_slots[k].status.ok() || !ia_slots[k].status.ok()) {
        throw std::runtime_error("direct layer transform failed");
      }
      pprox::http::HttpRequest query;
      query.method = "POST";
      query.target = pprox::paths::kQueries;
      query.body = bodies[k];
      stack.lrs().handle(std::move(query),
                         [&lrs_bodies, k](pprox::http::HttpResponse r) {
                           lrs_bodies[k] = std::move(r.body);
                         });
      seal_slots.push_back({&ia.value(), &lrs_bodies[k],
                            ByteView(ia_slots[k].k_u), false, {}, {}, {}, 0});
    }
    t0 = now_ns();
    pprox::IaLogic::seal_batch(seal_slots, rng, arena);
    seal_us.add(us(now_ns() - t0) / static_cast<double>(batch));
    arena.wipe_and_reset();
    for (const auto& slot : seal_slots) {
      if (!slot.status.ok()) throw std::runtime_error("direct seal failed");
    }
  }
  metrics.push_back({"crypto.rsa_oaep_decrypt_us", pct(decrypt_us, 50), "us"});
  metrics.push_back({"crypto.rsa_oaep_encrypt_us", pct(encrypt_us, 50), "us"});
  metrics.push_back({"ua.transform_us", pct(ua_us, 50), "us"});
  metrics.push_back({"ia.transform_us", pct(ia_us, 50), "us"});
  metrics.push_back({"ia.seal_us", pct(seal_us, 50), "us"});
}

/// Per-layer figures from the hop spans of the traced requests
/// [begin, end), all sent while spans were being recorded. Returns the
/// share of those requests that crossed every hop. The stage-sum error
/// compares the mean stages with the mean round trip the load generator saw
/// (its own send and arrival stamps). Means, because medians do not add:
/// when host stalls skew the stages, the stage medians fall short of the
/// round-trip median by up to a fifth. How late sends ran is
/// loadgen.lag_p99_ms.
double span_metrics(const SpanTable& spans, const Setup& setup,
                    const LoadDriver& driver, std::size_t begin,
                    std::size_t end, bool tcp, std::vector<Metric>& metrics) {
  SampleStats ua_req, ia_req, lrs, lrs_query, lrs_event, ia_resp, ua_resp;
  SampleStats round_trip;  // load generator: send -> arrival
  SampleStats decode;
  std::size_t covered = 0;
  for (std::size_t i = begin; i < end; ++i) {
    std::int64_t t[kMarkCount];
    bool complete = true;
    for (int m = 0; m < kMarkCount; ++m) {
      t[m] = spans.at(i, static_cast<Mark>(m));
      const bool needed = m <= kClientReply || tcp;
      if (needed && t[m] == 0) complete = false;
    }
    if (!complete) continue;
    ++covered;
    ua_req.add(ms(t[kUaOut] - t[kClientSend]));
    ia_req.add(ms(t[kIaOut] - t[kUaOut]));
    lrs.add(ms(t[kLrsReply] - t[kIaOut]));
    (setup.requests[i].is_get ? lrs_query : lrs_event)
        .add(us(t[kLrsReply] - t[kIaOut]));
    ia_resp.add(ms(t[kIaReply] - t[kLrsReply]));
    ua_resp.add(ms(t[kClientReply] - t[kIaReply]));
    const Outcome& out = driver.outcome(i);
    round_trip.add(ms(out.done_ns.load() - out.sent_ns.load()));
    if (setup.requests[i].is_get) {
      decode.add(us(driver.outcome(i).decode_ns.load()));
    }
  }
  const double stage_sum = ua_req.mean() + ia_req.mean() + lrs.mean() +
                           ia_resp.mean() + ua_resp.mean();
  const double coverage = ratio(covered, end - begin);
  const double round_trip_mean = round_trip.mean();
  metrics.push_back({"client.decode_us", pct(decode, 50), "us"});
  metrics.push_back({"ua.req_p50_ms", pct(ua_req, 50), "ms"});
  metrics.push_back({"ua.req_p99_ms", pct(ua_req, 99), "ms"});
  metrics.push_back({"ua.resp_p50_ms", pct(ua_resp, 50), "ms"});
  metrics.push_back({"ia.req_p50_ms", pct(ia_req, 50), "ms"});
  metrics.push_back({"ia.req_p99_ms", pct(ia_req, 99), "ms"});
  metrics.push_back({"ia.resp_p50_ms", pct(ia_resp, 50), "ms"});
  metrics.push_back({"ia.resp_p99_ms", pct(ia_resp, 99), "ms"});
  metrics.push_back({"lrs.query_us", pct(lrs_query, 50), "us"});
  metrics.push_back({"lrs.event_us", pct(lrs_event, 50), "us"});
  metrics.push_back({"trace.coverage", coverage, "ratio"});
  metrics.push_back(
      {"trace.stage_sum_err",
       round_trip_mean > 0
           ? std::abs(stage_sum - round_trip_mean) / round_trip_mean
           : 0,
       "ratio"});
  return coverage;
}

/// Network-plane cost of each TCP hop: the TcpChannel round trip minus the
/// time the request spent in the sink inside that TcpServer, median over
/// the requests in [begin, end) that crossed both hops while recording.
void net_metrics(const SpanTable& spans, std::size_t begin, std::size_t end,
                 std::vector<Metric>& metrics) {
  SampleStats client_hop, ua_ia_hop;
  for (std::size_t i = begin; i < end; ++i) {
    std::int64_t t[kMarkCount];
    bool complete = true;
    for (int m = 0; m < kMarkCount; ++m) {
      t[m] = spans.at(i, static_cast<Mark>(m));
      if (t[m] == 0) complete = false;
    }
    if (!complete) continue;
    client_hop.add(us((t[kClientReply] - t[kClientSend]) -
                      (t[kUaSinkOut] - t[kUaSinkIn])));
    ua_ia_hop.add(us((t[kIaReply] - t[kUaOut]) -
                     (t[kIaSinkOut] - t[kIaSinkIn])));
  }
  metrics.push_back({"net.client_hop_us", pct(client_hop, 50), "us"});
  metrics.push_back({"net.ua_ia_hop_us", pct(ua_ia_hop, 50), "us"});
}

/// On an in-process workload the network plane is measured on a
/// loopback-TCP copy of the stack: get-tcp's wiring, this run's seed, and a
/// one-second closed loop after the timed phases.
void probe_network(const Options& options, std::vector<Metric>& metrics) {
  Options tcp = options;
  tcp.workload = &*std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [](const Workload& w) { return w.transport == Transport::kTcp; });
  tcp.seconds = kProbeS;
  const Plan plan = make_plan(tcp);
  std::unique_ptr<LoadDriver> driver;  // outlives the stack, as in run()
  const std::unique_ptr<Setup> setup = set_up(tcp, plan);
  driver = std::make_unique<LoadDriver>(*setup->stack->entry(),
                                        setup->requests);
  setup->spans->set_recording(true);
  driver->closed_loop(plan.open_count, plan.ops.size(), tcp.workload->window,
                      now_ns() + 1'000'000'000);
  if (driver->drain(now_ns() + static_cast<std::int64_t>(kDrainS * 1e9)) > 0) {
    throw std::runtime_error("network probe did not drain");
  }
  for (std::size_t i = plan.open_count; i < plan.ops.size(); ++i) {
    const Outcome& out = driver->outcome(i);
    if (out.sent_ns.load() != 0 && !out.ok.load()) {
      throw std::runtime_error("network probe got a wrong answer");
    }
  }
  net_metrics(*setup->spans, plan.open_count, plan.ops.size(), metrics);
}

std::string metrics_json(bool correct, std::size_t attempted,
                         std::size_t failed,
                         const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0;
    out << (k ? ", " : "") << '"' << metrics[k].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[k].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// The run

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int run(const Options& options) {
  const Workload& w = *options.workload;
  const Plan plan = make_plan(options);

  // Declared before the set-up so that it outlives the stack: tearing the
  // stack down flushes anything still parked into the driver's callbacks.
  std::unique_ptr<LoadDriver> driver;

  // Several complete set-ups; the last one is measured, the median is
  // reported (set-up time is gated, so it must be steady).
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();
    setup = set_up(options, plan);
    setup_seconds.push_back(setup->seconds);
  }
  Stack& stack = *setup->stack;
  SpanTable* spans = setup->spans.get();
  driver = std::make_unique<LoadDriver>(*stack.entry(), setup->requests);

  // Open loop. The measured part excludes a warm-up and a cool-down, so no
  // measured request waits for a shuffle timer at either end. It is cut into
  // windows of at least kWindowSamples requests (p99 keeps 10 beyond it), and
  // each figure is the median over the windows, so a short stall of the
  // machine moves one window, not the result. A traced run measures its
  // first half untraced and records spans in its second.
  const double open_s = kOpenShare * options.seconds;
  const std::int64_t start = now_ns() + 20'000'000;
  const auto index_at = [&](double seconds) {
    return static_cast<std::size_t>(std::ceil(seconds * w.rate));
  };
  const std::size_t w_begin = index_at(kWarmupS);
  const std::size_t w_end =
      std::min(index_at(kWarmupS + open_s), plan.open_count - 1);
  const std::size_t w_mid = options.trace ? (w_begin + w_end) / 2 : w_begin;
  const auto windows = std::clamp<std::size_t>(
      static_cast<std::size_t>(open_s * w.rate / kWindowSamples), 1,
      w_end - w_begin);
  std::vector<std::size_t> bounds;  // window k: due indices [b[k], b[k+1])
  for (std::size_t k = 0; k <= windows; ++k) {
    bounds.push_back(w_begin + (w_end - w_begin) * k / windows);
  }
  std::vector<Counters> at(windows + 1);
  // Ecalls per request are counted between two quiet points, before the
  // open loop and after its drain, so requests in flight at a snapshot
  // cannot skew the ratio. The one timer flush that ends the phase adds at
  // most one ecall per layer.
  const Counters at_idle = Counters::take(stack);
  driver->open_loop(0, plan.open_count, w.rate, start, [&](std::size_t i) {
    const auto b = std::lower_bound(bounds.begin(), bounds.end(), i);
    if (b != bounds.end() && *b == i) {
      at[b - bounds.begin()] = Counters::take(stack);
    }
    if (spans != nullptr && i == w_mid) spans->set_recording(true);
  });
  driver->drain(now_ns() + static_cast<std::int64_t>(kDrainS * 1e9));
  const Counters at_drained = Counters::take(stack);

  // Closed loop, its throughput counted per second and reported as the
  // median second.
  const double closed_s = options.seconds - open_s;
  const std::int64_t c_measure =
      now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t c_stop =
      c_measure + static_cast<std::int64_t>(closed_s * 1e9);
  driver->closed_loop(plan.open_count, plan.ops.size(), w.window, c_stop);
  const std::int64_t c_end = std::min(now_ns(), c_stop);
  const std::size_t outstanding =
      driver->drain(now_ns() + static_cast<std::int64_t>(kDrainS * 1e9));
  const auto seconds_measured = static_cast<std::size_t>(
      std::max<std::int64_t>(c_end - c_measure, 0) / 1'000'000'000);

  // Outcomes.
  std::size_t attempted = 0, failed = 0;
  std::vector<SampleStats> window_latency_ms(windows);
  std::vector<std::size_t> window_done(windows, 0);
  std::vector<std::size_t> second_done(seconds_measured, 0);
  std::vector<SampleStats> window_lag_ms(windows);
  SampleStats latency_untraced_ms, latency_traced_ms;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const Outcome& out = driver->outcome(i);
    const std::int64_t sent = out.sent_ns.load(std::memory_order_acquire);
    if (sent == 0) continue;
    ++attempted;
    const std::int64_t done = out.done_ns.load(std::memory_order_acquire);
    if (done == 0 || !out.ok.load()) ++failed;
    if (done == 0) continue;
    if (i >= plan.open_count) {
      if (done >= c_measure && done < c_end) {
        const auto second =
            static_cast<std::size_t>((done - c_measure) / 1'000'000'000);
        if (second < second_done.size()) ++second_done[second];
      }
      continue;
    }
    const auto by_time = std::upper_bound(
        at.begin(), at.end(), done,
        [](std::int64_t t, const Counters& c) { return t < c.t; });
    if (by_time != at.begin() && by_time != at.end()) {
      ++window_done[by_time - at.begin() - 1];
    }
    if (i < w_begin || i >= w_end) continue;
    const std::int64_t due = out.due_ns.load(std::memory_order_relaxed);
    const double latency = ms(done - due);
    const auto k = static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), i) - bounds.begin() - 1);
    window_latency_ms[k].add(latency);
    (i < w_mid ? latency_untraced_ms : latency_traced_ms).add(latency);
    window_lag_ms[k].add(ms(sent - due));
  }
  std::vector<double> p50s, p90s, p99s, lag_p99s, cpu_per_req, rps;
  for (std::size_t k = 0; k < windows; ++k) {
    p50s.push_back(pct(window_latency_ms[k], 50));
    p90s.push_back(pct(window_latency_ms[k], 90));
    p99s.push_back(pct(window_latency_ms[k], 99));
    lag_p99s.push_back(pct(window_lag_ms[k], 99));
    if (window_done[k] > 0) {
      cpu_per_req.push_back((at[k + 1].cpu - at[k].cpu) * 1e3 /
                            static_cast<double>(window_done[k]));
    }
  }
  for (const std::size_t done : second_done) {
    rps.push_back(static_cast<double>(done));
  }
  const double p50 = median(p50s);
  const double lag_p99 = median(lag_p99s);
  std::fprintf(stderr, "open-loop windows, p50/p90/p99/lag p99 ms:");
  for (std::size_t k = 0; k < windows; ++k) {
    std::fprintf(stderr, " %.2f/%.2f/%.2f/%.2f", p50s[k], p90s[k], p99s[k],
                 lag_p99s[k]);
  }
  std::fprintf(stderr, "; closed-loop completions per second:");
  for (const double r : rps) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  const double ua_ecalls =
      ratio(at_drained.ua_ecalls - at_idle.ua_ecalls,
            at_drained.ua_requests - at_idle.ua_requests);
  const double ia_ecalls =
      ratio(at_drained.ia_ecalls - at_idle.ia_ecalls,
            at_drained.ia_requests - at_idle.ia_requests);

  // Validity guards: conditions under which the figures do not mean what
  // they claim. They mark the run incorrect instead of reporting it as slow.
  bool valid = true;
  const auto guard = [&valid](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "invalid run: %s\n", what);
      valid = false;
    }
  };
  guard(lag_p99 <= 4 * p50,
        "load generator ran late (lag p99 > 4 x latency p50)");
  if (w.shuffle_size > 1) {
    guard(ua_ecalls <= 1.5 / w.shuffle_size,
          "UA flushed on the timer (ecalls per request > 1.5/S)");
  }
  guard(outstanding == 0, "requests still outstanding after the drain");
  guard(!rps.empty(), "closed loop measured less than one second");

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics.push_back({"setup_s", median(setup_seconds), "s"});
    metrics.push_back({"sat_rps", median(rps), "1/s"});
    metrics.push_back({"p50_ms", p50, "ms"});
    metrics.push_back({"cpu_ms_per_req", median(cpu_per_req), "ms"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    const double traced_p50 = pct(latency_traced_ms, 50);
    metrics.push_back({"loadgen.lag_p99_ms", lag_p99, "ms"});
    metrics.push_back({"client.p90_ms", median(p90s), "ms"});
    metrics.push_back({"client.p99_ms", median(p99s), "ms"});
    metrics.push_back(
        {"client.wrap_get_us", pct(setup->wrap_get_us, 50), "us"});
    metrics.push_back(
        {"client.wrap_post_us", pct(setup->wrap_post_us, 50), "us"});
    const double coverage =
        span_metrics(*spans, *setup, *driver, w_mid, w_end,
                     w.transport == Transport::kTcp, metrics);
    metrics.push_back({"ua.ecalls_per_req", ua_ecalls, "count"});
    metrics.push_back({"ua.errors", static_cast<double>(stack.ua().errors()),
                       "count"});
    metrics.push_back({"ia.ecalls_per_req", ia_ecalls, "count"});
    metrics.push_back(
        {"ia.pending_end", static_cast<double>(stack.ia().pending_responses()),
         "count"});
    metrics.push_back({"ia.errors", static_cast<double>(stack.ia().errors()),
                       "count"});
    metrics.push_back(
        {"trace.overhead_pct",
         100.0 * (traced_p50 / pct(latency_untraced_ms, 50) - 1.0), "%"});
    metrics.push_back({"fail_ratio", ratio(failed, attempted), "ratio"});
    guard(coverage >= 1.0, "not every traced request has every span");
    if (w.transport == Transport::kTcp) {
      net_metrics(*spans, w_mid, w_end, metrics);
    } else {
      probe_network(options, metrics);
    }
    if (!options.trace_out.empty() &&
        !spans->write_jsonl(options.trace_out, start)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   options.trace_out.c_str());
    }
    time_layers(stack, plan, w.shuffle_size, metrics);
  }
  guard(stack.ia().pending_responses() == 0, "IA still holds parked k_u");

  std::printf("%s\n", metrics_json(valid && failed == 0, attempted, failed,
                                   metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) options.workload = &w;
      }
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (options.workload == nullptr || options.seconds <= 0) return std::nullopt;
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const auto options = perfbench::parse(argc, argv);
    if (!options) {
      std::fprintf(
          stderr,
          "usage: %s --workload <get-direct|mix-shuffled|get-tcp> "
          "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
          argv[0]);
      return 2;
    }
    return perfbench::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
