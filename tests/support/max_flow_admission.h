// Max-flow admission reference: AdmissionController::check as it decided
// before the anchor-reachability probe replaced the slice max-flow, kept
// as a test-only reference (the legacy_graph pattern).
//
// The reference computes the slice's max flow between the chain's anchor
// ToRs (per-link capacity = the smaller port of its two ends) and feeds it
// to the same bandwidth, min-cut, ladder and resource tests. The
// production check must reach the same decision — status, outcome and
// granted bandwidth — on every input.
#pragma once

#include "cluster/virtual_cluster.h"
#include "nfv/catalog.h"
#include "nfv/hosting.h"
#include "nfv/nfc.h"
#include "orchestrator/admission.h"
#include "topology/topology.h"

namespace alvc::test {

/// Max flow between two ToRs over the slice's live switch links.
[[nodiscard]] double slice_max_flow_gbps(const alvc::topology::DataCenterTopology& topo,
                                         const alvc::cluster::VirtualCluster& cluster,
                                         alvc::util::TorId ingress, alvc::util::TorId egress);

/// The max-flow admission decision for `spec` on `cluster`'s slice.
[[nodiscard]] alvc::orchestrator::AdmissionDecision max_flow_admission_check(
    const alvc::topology::DataCenterTopology& topo, const alvc::nfv::VnfCatalog& catalog,
    const alvc::nfv::NfcSpec& spec, const alvc::cluster::VirtualCluster& cluster,
    const alvc::nfv::HostingPool& pool, alvc::orchestrator::AllocationPolicy policy);

}  // namespace alvc::test
