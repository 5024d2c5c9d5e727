// Physical and virtual elements of the hybrid data-center network
// (paper Fig. 2): servers in racks behind ToR switches; the core built from
// Optical Packet Switches (OPS); servers hosting VMs. Some OPSs are
// optoelectronic routers (§IV-D): they add limited buffer/storage/CPU and
// can therefore host low-demand VNFs inside the optical domain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.h"

namespace alvc::topology {

using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;
using alvc::util::TorId;
using alvc::util::VmId;

/// Compute/storage resources. Used both for capacities (what a host offers)
/// and demands (what a VNF or VM needs).
struct Resources {
  double cpu_cores = 0;
  double memory_gb = 0;
  double storage_gb = 0;

  [[nodiscard]] bool fits_within(const Resources& capacity) const noexcept {
    return cpu_cores <= capacity.cpu_cores && memory_gb <= capacity.memory_gb &&
           storage_gb <= capacity.storage_gb;
  }
  Resources& operator+=(const Resources& other) noexcept {
    cpu_cores += other.cpu_cores;
    memory_gb += other.memory_gb;
    storage_gb += other.storage_gb;
    return *this;
  }
  Resources& operator-=(const Resources& other) noexcept {
    cpu_cores -= other.cpu_cores;
    memory_gb -= other.memory_gb;
    storage_gb -= other.storage_gb;
    return *this;
  }
  friend Resources operator+(Resources a, const Resources& b) noexcept { return a += b; }
  friend Resources operator-(Resources a, const Resources& b) noexcept { return a -= b; }
  [[nodiscard]] bool non_negative() const noexcept {
    return cpu_cores >= -1e-9 && memory_gb >= -1e-9 && storage_gb >= -1e-9;
  }
};

/// A physical machine in a rack. Besides its rack ToR a server may be
/// multi-homed to further ToRs (paper Fig. 4 shows machines with several
/// incoming ToR connections; that is what makes the stage-1 ToR selection a
/// non-trivial cover problem).
struct Server {
  ServerId id;
  TorId tor;            // the rack's (primary) ToR switch
  Resources capacity;   // what the server can host
  std::vector<VmId> vms;
  std::vector<TorId> secondary_tors;  // additional homings, excludes `tor`
  /// Failure injection: a failed server hosts no VNF instances and its VMs
  /// are unreachable until it is repaired.
  bool failed = false;
};

/// A virtual machine, pinned to a server and labelled with a service type
/// (the basis of the paper's service-based clustering, §III-A).
struct Vm {
  VmId id;
  ServerId server;
  ServiceId service;
  Resources demand;
};

/// Top-of-Rack electronic switch.
struct TorSwitch {
  TorId id;
  std::vector<ServerId> servers;
  std::vector<OpsId> uplinks;  // OPSs this ToR connects to
  double port_bandwidth_gbps = 10.0;
  /// Failure injection: a failed ToR strands its whole rack — it leaves the
  /// switch graph and every AL that contained it must be rebuilt.
  bool failed = false;
  /// How many of `uplinks` are cut (DataCenterTopology::set_link_failed
  /// keeps it), so a probe at an intact ToR reads neither the uplink list
  /// nor `uplink_cut`. Sits in the padding after `failed`.
  std::uint32_t failed_uplinks = 0;
  /// uplink_cut[i] != 0 when the cable to uplinks[i] is cut, for any
  /// uplink degree. Written only by DataCenterTopology (connect_tor_ops
  /// and set_link_failed), which stamps the ToR's footprint with it.
  std::vector<std::uint8_t> uplink_cut;
};

/// Optical packet switch in the core. `optoelectronic` marks the special
/// routers of §IV-D that can host VNFs; plain OPSs have zero compute.
struct OpticalSwitch {
  OpsId id;
  std::vector<TorId> tor_links;
  std::vector<OpsId> peer_links;  // OPS-OPS core links
  bool optoelectronic = false;
  Resources compute;              // zero unless optoelectronic
  double port_bandwidth_gbps = 100.0;
  /// Failure injection: a failed OPS carries no traffic, hosts no VNFs, and
  /// is skipped by AL construction until repaired.
  bool failed = false;
};

/// Which transmission domain a network element lives in. ToRs and servers
/// are electronic; OPSs are optical. Crossing optical->electronic->optical
/// costs an O/E/O conversion (§IV-D).
enum class Domain : std::uint8_t { kElectronic, kOptical };

[[nodiscard]] constexpr const char* to_string(Domain d) noexcept {
  return d == Domain::kElectronic ? "electronic" : "optical";
}

}  // namespace alvc::topology
