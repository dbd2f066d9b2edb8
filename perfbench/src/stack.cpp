#include "stack.hpp"

#include <stdexcept>

#include "pprox/deployment.hpp"

namespace perfbench {

namespace {

// TcpChannel connections per TCP hop: one per core of the 4-core machine
// the workloads were sized on.
constexpr std::size_t kTcpPool = 4;

std::unique_ptr<pprox::enclave::Enclave> boot_layer(
    const char* code_identity, const pprox::LayerSecrets& secrets,
    pprox::enclave::AttestationService& authority, pprox::RandomSource& rng) {
  auto enclave = std::make_unique<pprox::enclave::Enclave>(code_identity, rng);
  authority.register_platform(*enclave);
  const pprox::Status provisioned = pprox::attest_and_provision(
      *enclave, authority, pprox::enclave::Measurement::of_code(code_identity),
      secrets, rng);
  if (!provisioned.ok()) {
    throw std::runtime_error(std::string(code_identity) +
                             " provisioning failed: " +
                             provisioned.error().message);
  }
  return enclave;
}

pprox::ProxyOptions layer_options(pprox::ProxyOptions::Layer layer,
                                  const pprox::DeploymentConfig& defaults,
                                  int shuffle_size) {
  pprox::ProxyOptions options;
  options.layer = layer;
  options.pseudonymize_items = defaults.pseudonymize_items;
  options.authenticated_responses = defaults.authenticated_responses;
  options.shuffle_size = shuffle_size;
  options.shuffle_timeout = defaults.shuffle_timeout;
  options.worker_threads = defaults.worker_threads;
  return options;
}

}  // namespace

Stack::Stack(const StackConfig& config, pprox::RandomSource& rng)
    : config_(config),
      authority_(rng),
      keys_(pprox::ApplicationKeys::generate(
          rng, pprox::DeploymentConfig{}.rsa_bits)) {
  using pprox::ProxyOptions;
  using pprox::net::InProcChannel;
  const pprox::DeploymentConfig defaults;

  ia_enclave_ = boot_layer(pprox::kIaCodeIdentity, keys_.ia, authority_, rng);
  ia_ = std::make_shared<pprox::ProxyServer>(
      layer_options(ProxyOptions::Layer::kIa, defaults, config.shuffle_size),
      *ia_enclave_,
      timed(std::make_shared<InProcChannel>(lrs_), kIaOut, kLrsReply));

  std::shared_ptr<pprox::net::HttpChannel> to_ia;
  if (config.transport == Transport::kTcp) {
    ia_server_ = serve(*ia_, ia_sink_, kIaSinkIn, kIaSinkOut);
    to_ia = std::make_shared<pprox::net::TcpChannel>(ia_server_->port(),
                                                     kTcpPool);
  } else {
    to_ia = std::make_shared<InProcChannel>(
        std::weak_ptr<pprox::net::RequestSink>(ia_));
  }

  ua_enclave_ = boot_layer(pprox::kUaCodeIdentity, keys_.ua, authority_, rng);
  ua_ = std::make_shared<pprox::ProxyServer>(
      layer_options(ProxyOptions::Layer::kUa, defaults, config.shuffle_size),
      *ua_enclave_, timed(std::move(to_ia), kUaOut, kIaReply));

  std::shared_ptr<pprox::net::HttpChannel> to_ua;
  if (config.transport == Transport::kTcp) {
    ua_server_ = serve(*ua_, ua_sink_, kUaSinkIn, kUaSinkOut);
    to_ua = std::make_shared<pprox::net::TcpChannel>(ua_server_->port(),
                                                     kTcpPool);
  } else {
    to_ua = std::make_shared<InProcChannel>(
        std::weak_ptr<pprox::net::RequestSink>(ua_));
  }
  entry_ = timed(std::move(to_ua), kClientSend, kClientReply);
}

Stack::~Stack() {
  // Front to back, so nothing is handed to a component already gone:
  // the client channel (joins its TCP workers), then each layer's server
  // before the proxy it serves, each proxy before its enclave.
  entry_.reset();
  ua_server_.reset();
  ua_.reset();
  ia_server_.reset();
  ia_.reset();
}

std::shared_ptr<pprox::net::HttpChannel> Stack::timed(
    std::shared_ptr<pprox::net::HttpChannel> channel, Mark on_send,
    Mark on_reply) const {
  if (config_.spans == nullptr) return channel;
  return std::make_shared<TimedChannel>(std::move(channel), *config_.spans,
                                        on_send, on_reply);
}

std::unique_ptr<pprox::net::TcpServer> Stack::serve(
    pprox::net::RequestSink& sink, std::unique_ptr<TimedSink>& wrapper,
    Mark on_in, Mark on_out) const {
  if (config_.spans == nullptr) {
    return std::make_unique<pprox::net::TcpServer>(0, sink);
  }
  wrapper = std::make_unique<TimedSink>(sink, *config_.spans, on_in, on_out);
  return std::make_unique<pprox::net::TcpServer>(0, *wrapper);
}

}  // namespace perfbench
