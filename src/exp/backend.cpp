#include "exp/backend.hpp"

#include <stdexcept>
#include <string>

#include "core/detailed_runner.hpp"
#include "sampling/sampled_runner.hpp"

namespace maco::exp {
namespace {

class AnalyticBackend final : public ExecutionBackend {
 public:
  explicit AnalyticBackend(const core::SystemConfig& config)
      : model_(config) {}

  Fidelity fidelity() const noexcept override {
    return Fidelity::kAnalytic;
  }

  core::SystemTiming run(const core::TimingOptions& options,
                         obs::RunObservation* /*observation*/) override {
    return model_.run(options);
  }

  core::SystemTiming run_layers(
      const std::vector<sa::TileShape>& layers,
      const core::TimingOptions& options,
      obs::RunObservation* /*observation*/) override {
    return model_.run_layers(layers, options);
  }

 private:
  core::SystemTimingModel model_;
};

class DetailedBackend final : public ExecutionBackend {
 public:
  explicit DetailedBackend(const core::SystemConfig& config)
      : config_(config) {}

  Fidelity fidelity() const noexcept override {
    return Fidelity::kDetailed;
  }

  core::SystemTiming run(const core::TimingOptions& options,
                         obs::RunObservation* observation) override {
    return core::run_detailed_gemm(config_, {options.shape}, options,
                                   observation);
  }

  core::SystemTiming run_layers(
      const std::vector<sa::TileShape>& layers,
      const core::TimingOptions& options,
      obs::RunObservation* observation) override {
    return core::run_detailed_gemm(config_, layers, options, observation);
  }

 private:
  core::SystemConfig config_;
};

class SampledBackend final : public ExecutionBackend {
 public:
  explicit SampledBackend(const core::SystemConfig& config)
      : config_(config) {}

  Fidelity fidelity() const noexcept override {
    return Fidelity::kSampled;
  }

  core::SystemTiming run(const core::TimingOptions& options,
                         obs::RunObservation* /*observation*/) override {
    return sampling::run_sampled_gemm(config_, options);
  }

  core::SystemTiming run_layers(
      const std::vector<sa::TileShape>& layers,
      const core::TimingOptions& options,
      obs::RunObservation* /*observation*/) override {
    return sampling::run_sampled_layers(config_, layers, options);
  }

 private:
  core::SystemConfig config_;
};

}  // namespace

std::string_view fidelity_name(Fidelity fidelity) noexcept {
  switch (fidelity) {
    case Fidelity::kAnalytic: return "analytic";
    case Fidelity::kDetailed: return "detailed";
    case Fidelity::kSampled: return "sampled";
  }
  return "?";
}

Fidelity parse_fidelity(std::string_view name) {
  if (name == "analytic") return Fidelity::kAnalytic;
  if (name == "detailed") return Fidelity::kDetailed;
  if (name == "sampled") return Fidelity::kSampled;
  throw std::invalid_argument("unknown fidelity '" + std::string(name) +
                              "' (want analytic|detailed|sampled)");
}

std::unique_ptr<ExecutionBackend> make_backend(
    Fidelity fidelity, const core::SystemConfig& config) {
  // Backstop behind the declared cross-schema rules, for callers that
  // build a SystemConfig directly: the analytic closed forms have no
  // banked-DRAM or flit-level interconnect terms, so a non-default
  // backend there would be silently ignored.
  if (fidelity == Fidelity::kAnalytic &&
      (config.dram.kind != mem::DramKind::kSimple ||
       config.icnt != noc::IcntKind::kAnalytic)) {
    throw std::invalid_argument(
        "fidelity=analytic supports only dram=simple with icnt=analytic; "
        "run dram=queued or icnt=flit under fidelity=detailed|sampled");
  }
  switch (fidelity) {
    case Fidelity::kAnalytic:
      return std::make_unique<AnalyticBackend>(config);
    case Fidelity::kDetailed:
      return std::make_unique<DetailedBackend>(config);
    case Fidelity::kSampled:
      return std::make_unique<SampledBackend>(config);
  }
  throw std::invalid_argument("unknown fidelity");
}

}  // namespace maco::exp
