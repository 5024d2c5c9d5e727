// Admission control for chain provisioning.
//
// Before the orchestrator spends work on placement and routing, a chain is
// checked against its slice's resources: the requested bandwidth must fit
// every switch port it could use, and the chain's aggregate VNF demand must
// fit the slice's aggregate free capacity (a cheap necessary condition;
// placement does the exact per-host check).
#pragma once

#include "cluster/virtual_cluster.h"
#include "graph/scratch.h"
#include "nfv/catalog.h"
#include "nfv/hosting.h"
#include "nfv/nfc.h"
#include "orchestrator/bandwidth_allocator.h"
#include "topology/topology.h"
#include "util/error.h"

namespace alvc::orchestrator {

using alvc::util::Status;

struct AdmissionStats {
  std::size_t admitted = 0;
  std::size_t admitted_downgraded = 0;  // admitted at a reduced ladder rung
  std::size_t rejected_bandwidth = 0;
  std::size_t rejected_capacity_flow = 0;  // anchors disconnected inside the slice
  std::size_t rejected_resources = 0;
  std::size_t rejected_malformed = 0;
};

/// Which stats counter an admission decision lands in.
enum class AdmissionOutcome {
  kAdmitted,
  kAdmittedDowngraded,  // bandwidth infeasible in full; a lower rung fits
  kRejectedMalformed,
  kRejectedBandwidth,
  kRejectedCapacityFlow,
  kRejectedResources,
};

/// A check() decision: the status handed to the caller, the counter it
/// belongs to, and the bandwidth actually granted (== the spec's demand
/// unless the decision is kAdmittedDowngraded, 0 on rejection).
struct AdmissionDecision {
  Status status;
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  double granted_gbps = 0;
};

class AdmissionController {
 public:
  AdmissionController(const alvc::topology::DataCenterTopology& topo,
                      const alvc::nfv::VnfCatalog& catalog)
      : topo_(&topo), catalog_(&catalog) {}

  /// Pure feasibility decision — no counter updates (reads topology/pool
  /// only; not const because the slice check runs on the controller's
  /// reused member set). kRejected with a reason when the chain cannot
  /// possibly be served by the cluster's slice. Under kStrictLadder a full demand that
  /// fails the bandwidth or min-cut check is rejected; under kWaterFill /
  /// kPriorityDowngrade it is admitted at the largest ladder rung the slice
  /// can carry (kAdmittedDowngraded) — admission under pressure downgrades
  /// rather than refuses. Malformed and resource rejections are the same
  /// under every policy.
  [[nodiscard]] AdmissionDecision check(const alvc::nfv::NfcSpec& spec,
                                        const alvc::cluster::VirtualCluster& cluster,
                                        const alvc::nfv::HostingPool& pool,
                                        AllocationPolicy policy);

  /// check() + recording the decision in the stats counters; the decision
  /// carries the granted bandwidth the caller must provision at.
  [[nodiscard]] AdmissionDecision admit(const alvc::nfv::NfcSpec& spec,
                                        const alvc::cluster::VirtualCluster& cluster,
                                        const alvc::nfv::HostingPool& pool,
                                        AllocationPolicy policy);

  [[nodiscard]] const AdmissionStats& stats() const noexcept { return stats_; }

 private:
  /// Applies a decision to the stats counters.
  void record(const AdmissionDecision& decision) noexcept;

  const alvc::topology::DataCenterTopology* topo_;
  const alvc::nfv::VnfCatalog* catalog_;
  AdmissionStats stats_;
  /// check()'s slice-membership scratch (graph/scratch.h reuse contract).
  alvc::graph::VertexSet anchor_members_;
};

}  // namespace alvc::orchestrator
