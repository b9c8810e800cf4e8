// Reproduces Figure 11: robustness of the embedded message passing scheme
// against lost messages. For every remote belief message, the network
// delivers it only with probability P(send) — a `FaultInjectingTransport`
// with drop rate 1 − P(send); the algorithm must still converge to the
// same posteriors, just more slowly.
//
// Setup per the paper: example network, ∆ = 0.1, priors at 0.8, feedback
// f1+, f2−, f3−. The paper observes convergence even when 90% of messages
// are discarded, with the required iterations growing roughly linearly in
// the discard rate.

#include <cstdio>
#include <memory>

#include "bench/fixtures.h"
#include "net/fault_injection.h"
#include "util/table.h"

namespace pdms {
namespace {

struct LossRun {
  double p_send = 1.0;
  size_t rounds = 0;
  bool converged = false;
  double m24_posterior = 0.0;
  double max_deviation = 0.0;
};

LossRun RunWithLoss(double p_send, const std::vector<double>* reference,
                    std::vector<double>* posteriors_out) {
  EngineOptions options;
  options.default_prior = 0.8;
  options.delta_override = 0.1;
  options.tolerance = 1e-7;
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_rate = 1.0 - p_send;
  // No discovery runs here, so every envelope the plan sees is a belief
  // message: arming it from the start is the paper's beliefs-only loss.
  bench::IntroFixture fixture = bench::MakeIntroFixture(
      options, 0, 17,
      [plan](size_t peer_count, const EngineOptions& engine_options) {
        return std::make_unique<FaultInjectingTransport>(
            std::make_unique<SimTransport>(peer_count, engine_options.network),
            plan);
      });
  bench::InjectPaperFeedback(fixture);
  Pdms& pdms = fixture.pdms;
  const ConvergenceReport report = pdms.session().Converge(4000);

  LossRun run;
  run.p_send = p_send;
  run.rounds = report.rounds;
  run.converged = report.converged;
  run.m24_posterior = pdms.Posterior(fixture.edges.m24, 0);

  std::vector<double> posteriors;
  for (EdgeId e :
       {fixture.edges.m12, fixture.edges.m23, fixture.edges.m34,
        fixture.edges.m41, fixture.edges.m24}) {
    posteriors.push_back(pdms.Posterior(e, 0));
  }
  if (reference != nullptr) {
    for (size_t i = 0; i < posteriors.size(); ++i) {
      run.max_deviation = std::max(
          run.max_deviation, std::abs(posteriors[i] - (*reference)[i]));
    }
  }
  if (posteriors_out != nullptr) *posteriors_out = posteriors;
  return run;
}

void Run() {
  std::printf("Figure 11 — robustness against lost messages\n");
  std::printf("(example graph, priors 0.8, delta 0.1, feedback f1+ f2- f3-)\n\n");

  std::vector<double> reference;
  const LossRun baseline = RunWithLoss(1.0, nullptr, &reference);

  TextTable table;
  table.SetHeader({"P(send)", "rounds", "converged", "P(m24)",
                   "max |dev| vs lossless", "rounds x P(send)"});
  for (double p_send : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    const LossRun run = RunWithLoss(p_send, &reference, nullptr);
    table.AddRow({StrFormat("%.1f", run.p_send),
                  StrFormat("%zu", run.rounds),
                  run.converged ? "yes" : "no",
                  StrFormat("%.4f", run.m24_posterior),
                  StrFormat("%.2e", run.max_deviation),
                  StrFormat("%.1f", static_cast<double>(run.rounds) * p_send)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("lossless baseline: %zu rounds\n", baseline.rounds);
  std::printf(
      "paper: converges even at 90%% loss; iterations grow roughly linearly\n"
      "with the discard rate (the last column should stay near-constant).\n");
}

}  // namespace
}  // namespace pdms

int main() {
  pdms::Run();
  return 0;
}
