// Statistics, accounting and the metric catalog of the end-to-end
// control-plane benchmark.
//
// Everything here is pure: the quantile helper, the latency series, the
// call accounting behind op_failure_ratio, and the fixed list of metric
// names the driver may print. The JSON line the driver ends with is built
// from a MetricSet, which refuses names outside the catalog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace alvc::e2e {

/// A p99 is reported only from at least this many samples, so that at
/// least ten samples lie beyond it.
inline constexpr std::size_t kMinP99Samples = 1000;

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least ceil(q * n) samples at or below it. q in [0, 1]; nullopt
/// for an empty sample.
[[nodiscard]] std::optional<double> quantile_sorted(std::span<const double> sorted, double q);

/// Latency samples of one call class, in microseconds.
class LatencySeries {
 public:
  void add(double us) { samples_.push_back(us); }
  /// Appends every sample of `other`.
  void merge(const LatencySeries& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  /// Sorts the samples once; later add() calls are allowed and re-sort.
  [[nodiscard]] std::optional<double> p50();
  /// nullopt below kMinP99Samples.
  [[nodiscard]] std::optional<double> p99();

 private:
  void sort_if_needed();
  std::vector<double> samples_;
  std::size_t sorted_prefix_ = 0;
};

/// Calls attempted and calls that did not return ok. A refused provision
/// is a failed call.
struct OpAccounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failure_ratio() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// True when `name` is non-empty, at most 64 characters, starts with a
/// letter or digit and uses only [A-Za-z0-9_.-].
[[nodiscard]] bool valid_name(std::string_view name) noexcept;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by an untraced run (--trace 0).
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics() noexcept;
/// Per-layer metrics, printed by a traced run (--trace 1).
[[nodiscard]] std::span<const MetricDef> per_layer_metrics() noexcept;

/// One run's metric values, checked against a catalog.
class MetricSet {
 public:
  explicit MetricSet(std::span<const MetricDef> catalog) : catalog_(catalog) {}

  /// Throws std::invalid_argument for a name outside the catalog or a
  /// value set twice.
  void set(std::string_view name, double value);
  /// Names of catalog metrics not yet set.
  [[nodiscard]] std::vector<std::string> missing() const;
  /// {"name": {"value": v, "unit": u}, ...} in catalog order; every
  /// catalog metric must be set.
  [[nodiscard]] std::string to_json() const;

 private:
  std::span<const MetricDef> catalog_;
  std::vector<std::pair<std::string, double>> values_;
};

/// 64-bit FNV-1a, the digest behind the schedule and end-state digests.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void f64(double v) noexcept;
};

/// "0x" and 16 hex digits.
[[nodiscard]] std::string hex_digest(std::uint64_t digest);

/// Formats a double with all its significant digits (round-trippable).
[[nodiscard]] std::string format_number(double value);

}  // namespace alvc::e2e
