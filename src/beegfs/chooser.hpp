// Target-choice heuristics (which OSTs a new file is striped over).
//
// The paper shows the heuristic matters enormously in Scenario 1: PlaFRIM's
// round-robin always produces a (1,3) allocation for the default stripe
// count of 4, pinning write bandwidth below 50% of the peak, while a
// balanced (2,2) choice would reach it (Section IV-C1, Lesson #4).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "beegfs/params.hpp"
#include "topology/cluster.hpp"
#include "util/rng.hpp"

namespace beesim::beegfs {

class ManagementService;

/// Eligibility predicate over flat target indices.  The filesystem passes
/// the mgmtd online-state here so choosers never pick a dead target; an
/// empty (default-constructed) filter means "every target is eligible".
using TargetFilter = std::function<bool(std::size_t flatIndex)>;

/// Strategy interface.  Implementations may keep state across create()
/// calls (the round-robin pointer does).
class TargetChooser {
 public:
  virtual ~TargetChooser() = default;

  /// Pick `count` distinct flat target indices for a new file.
  /// Preconditions: 1 <= count <= cluster.targetCount().
  std::vector<std::size_t> choose(std::size_t count, const topo::ClusterConfig& cluster,
                                  util::Rng& rng) {
    return choose(count, cluster, rng, TargetFilter{});
  }

  /// Filtered variant: only targets for which `eligible(flat)` holds may be
  /// picked.  Precondition (asserted): at least `count` eligible targets.
  /// With no filter -- or a filter that accepts everything -- every
  /// implementation consumes the rng identically to the unfiltered call, so
  /// healthy-cluster runs are bitwise-unchanged by the filtering machinery.
  virtual std::vector<std::size_t> choose(std::size_t count,
                                          const topo::ClusterConfig& cluster,
                                          util::Rng& rng,
                                          const TargetFilter& eligible) = 0;

  virtual ChooserKind kind() const = 0;
};

/// Deterministic round-robin over an explicit target order with a sliding
/// pointer that advances by `count` per create.
///
/// `raceProbability` models the create race observed on PlaFRIM: with that
/// probability a create reads the pointer but fails to advance it before the
/// next create reads it, so two files created back-to-back receive identical
/// target sets (the paper saw this for ~1/3 of concurrent-application
/// repetitions, Fig. 13).
class RoundRobinChooser final : public TargetChooser {
 public:
  RoundRobinChooser(std::vector<std::size_t> order, double raceProbability,
                    ChooserKind kind = ChooserKind::kRoundRobin);

  using TargetChooser::choose;
  std::vector<std::size_t> choose(std::size_t count, const topo::ClusterConfig& cluster,
                                  util::Rng& rng, const TargetFilter& eligible) override;
  ChooserKind kind() const override { return kind_; }

  std::size_t pointer() const { return pointer_; }
  void setPointer(std::size_t p);

  /// Randomize the initial pointer phase to `stride * k` for a uniform k.
  /// On a production system the pointer has been advanced by every file any
  /// user ever created, so an application observes an arbitrary phase; the
  /// stride encodes that the bulk of those creates used the system default
  /// stripe width (see FileSystem's kRrPointerPhaseStride).  Reproduces the
  /// paper's observed per-count allocation sets (e.g. count 4 is *always*
  /// (1,3), count 2 alternates between (1,1) and (0,2)).
  void randomizePhase(util::Rng& rng, std::size_t stride);

 private:
  std::vector<std::size_t> order_;
  double raceProbability_;
  ChooserKind kind_;
  std::size_t pointer_ = 0;
};

/// BeeGFS default: uniformly random distinct targets.
class RandomChooser final : public TargetChooser {
 public:
  using TargetChooser::choose;
  std::vector<std::size_t> choose(std::size_t count, const topo::ClusterConfig& cluster,
                                  util::Rng& rng, const TargetFilter& eligible) override;
  ChooserKind kind() const override { return ChooserKind::kRandom; }
};

/// Lesson #4's recommendation: distribute the stripe as evenly as possible
/// across storage hosts (|count/hosts| or +1 per host), random within a
/// host.  When count does not divide evenly, the hosts receiving the extra
/// target are chosen at random.
class BalancedChooser final : public TargetChooser {
 public:
  using TargetChooser::choose;
  std::vector<std::size_t> choose(std::size_t count, const topo::ClusterConfig& cluster,
                                  util::Rng& rng, const TargetFilter& eligible) override;
  ChooserKind kind() const override { return ChooserKind::kBalanced; }
};

/// Decorator that biases target choice toward under-loaded storage hosts
/// using the per-host weights published by the management service (the
/// rebalance controller's "retarget" lever).
///
/// While every weight equals 1.0 (the mgmtd default) the wrapper delegates
/// verbatim to the inner chooser -- same picks, same rng consumption -- so
/// wrapping is free until a controller actually skews the weights.  With
/// skewed weights the stripe is apportioned across hosts by largest-remainder
/// quota on the weights (deterministic, no rng), then targets are drawn
/// uniformly within each host's eligible set and the result shuffled.
class WeightedChooser final : public TargetChooser {
 public:
  WeightedChooser(std::unique_ptr<TargetChooser> inner, const ManagementService& mgmt);

  using TargetChooser::choose;
  std::vector<std::size_t> choose(std::size_t count, const topo::ClusterConfig& cluster,
                                  util::Rng& rng, const TargetFilter& eligible) override;
  /// Reports the inner chooser's kind: the wrapper is a bias, not a policy.
  ChooserKind kind() const override { return inner_->kind(); }

  const TargetChooser& inner() const { return *inner_; }

 private:
  std::unique_ptr<TargetChooser> inner_;
  const ManagementService& mgmt_;
};

/// The target order PlaFRIM's deployed round-robin walks, reconstructed from
/// the paper's observation that count-4 creates always produce
/// (101,201,202,203) or (204,102,103,104) -- i.e. always a (1,3) placement.
std::vector<std::size_t> plafrimRoundRobinOrder(const topo::ClusterConfig& cluster);

/// Host-interleaved order 101,201,102,202,... (ablation: count-4 creates
/// would be balanced (2,2)).
std::vector<std::size_t> interleavedOrder(const topo::ClusterConfig& cluster);

/// Instantiate the chooser configured in `params` for `cluster`.
std::unique_ptr<TargetChooser> makeChooser(const BeegfsParams& params,
                                           const topo::ClusterConfig& cluster);

}  // namespace beesim::beegfs
