// The system under test: one UA + IA pair in front of an LRS, assembled from
// the same public pieces Deployment uses (ApplicationKeys, Enclave +
// attest_and_provision, ProxyServer, channels, lrs::HarnessServer) with
// DeploymentConfig's defaults. Only the shuffle size and the transport vary.
// When a SpanTable is given, every hop is wrapped in a timing channel or
// sink (see trace.hpp); otherwise the wiring is exactly the product's.
#pragma once

#include <memory>

#include "enclave/attestation.hpp"
#include "lrs/harness.hpp"
#include "net/tcp.hpp"
#include "pprox/keys.hpp"
#include "pprox/proxy.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Transport {
  kInProc,  ///< every hop an InProcChannel
  kTcp,     ///< client->UA and UA->IA over loopback TCP; IA->LRS in-process
};

struct StackConfig {
  int shuffle_size = 0;
  Transport transport = Transport::kInProc;
  SpanTable* spans = nullptr;  ///< non-null: wrap every hop for tracing
};

class Stack {
 public:
  Stack(const StackConfig& config, pprox::RandomSource& rng);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// What the user-side library talks to.
  std::shared_ptr<pprox::net::HttpChannel> entry() const { return entry_; }
  const pprox::ApplicationKeys& keys() const { return keys_; }
  pprox::lrs::HarnessServer& lrs() { return lrs_; }
  pprox::ProxyServer& ua() { return *ua_; }
  pprox::ProxyServer& ia() { return *ia_; }
  const pprox::enclave::Enclave& ua_enclave() const { return *ua_enclave_; }
  const pprox::enclave::Enclave& ia_enclave() const { return *ia_enclave_; }

 private:
  /// Wraps `channel` in a TimedChannel when tracing.
  std::shared_ptr<pprox::net::HttpChannel> timed(
      std::shared_ptr<pprox::net::HttpChannel> channel, Mark on_send,
      Mark on_reply) const;
  /// Starts a TcpServer in front of `sink` (behind a TimedSink when tracing).
  std::unique_ptr<pprox::net::TcpServer> serve(
      pprox::net::RequestSink& sink, std::unique_ptr<TimedSink>& wrapper,
      Mark on_in, Mark on_out) const;

  StackConfig config_;
  pprox::lrs::HarnessServer lrs_;
  pprox::enclave::AttestationService authority_;
  pprox::ApplicationKeys keys_;
  std::unique_ptr<pprox::enclave::Enclave> ia_enclave_;
  std::unique_ptr<pprox::enclave::Enclave> ua_enclave_;
  std::shared_ptr<pprox::ProxyServer> ia_;
  std::unique_ptr<TimedSink> ia_sink_;
  std::unique_ptr<pprox::net::TcpServer> ia_server_;
  std::shared_ptr<pprox::ProxyServer> ua_;
  std::unique_ptr<TimedSink> ua_sink_;
  std::unique_ptr<pprox::net::TcpServer> ua_server_;
  std::shared_ptr<pprox::net::HttpChannel> entry_;
};

}  // namespace perfbench
