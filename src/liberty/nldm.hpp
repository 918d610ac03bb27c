// Non-linear delay model (NLDM) lookup tables.
//
// Exactly like a commercial .lib, timing is stored as a 2-D grid over
// (input slew, output load) and interpolated bilinearly at query time. The
// optimizer and STA consume only these tables -- they never see the
// analytical delay model that characterized them. The 1-D segment search
// and lerp are exposed inline (locate_segment, interpolate) so the STA's
// load-sliced rows (sta::LoadSlicedTables) reproduce lookup() bit for bit.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace svtox::liberty {

/// Interpolation segment [lo, lo + 1] of a query on one table axis and the
/// fractional position within it (t < 0 or t > 1 when extrapolating).
struct AxisSegment {
  std::size_t lo = 0;
  double t = 0.0;
};

/// Segment of `x` on an ascending axis of `knots` >= 1 entries: {0, 0} for a
/// single knot, otherwise the segment whose upper knot is the first of
/// axis[1 .. knots-2] at or above x (or the last knot), with
/// t = (x - axis[lo]) / (axis[lo+1] - axis[lo]). The search counts the
/// inner knots below x instead of scanning for the first one at or above:
/// on an ascending axis the two agree, and the count has no early exit.
/// NldmTable::lookup and the load-sliced STA tables both use it, so their
/// lerps see the same (lo, t) bits.
inline AxisSegment locate_segment(const double* axis, std::size_t knots, double x) {
  if (knots == 1) return {};
  std::size_t lo = 0;
  for (std::size_t i = 1; i + 1 < knots; ++i) lo += axis[i] < x ? 1 : 0;
  return {lo, (x - axis[lo]) / (axis[lo + 1] - axis[lo])};
}

/// `values` (one per knot) interpolated at `seg`: values[lo] + (values[lo+1]
/// - values[lo]) * t, or values[0] for a single knot -- NldmTable::lookup's
/// 1-D arithmetic.
inline double interpolate(const double* values, std::size_t knots, AxisSegment seg) {
  if (knots == 1) return values[0];
  const double v0 = values[seg.lo];
  const double v1 = values[seg.lo + 1];
  return v0 + (v1 - v0) * seg.t;
}

/// A 2-D characterization table over input slew [ps] x output load [fF].
class NldmTable {
 public:
  NldmTable() = default;

  /// Axes must be strictly ascending and non-empty; values has
  /// slew_axis.size() * load_axis.size() entries, row-major by slew.
  NldmTable(std::vector<double> slew_axis_ps, std::vector<double> load_axis_ff,
            std::vector<double> values);

  /// Bilinear interpolation inside the grid; linear extrapolation from the
  /// outermost segments when the query falls outside (delay grows ~linearly
  /// in load, so clamping would systematically underestimate).
  double lookup(double slew_ps, double load_ff) const;

  const std::vector<double>& slew_axis_ps() const { return slew_axis_; }
  const std::vector<double>& load_axis_ff() const { return load_axis_; }
  const std::vector<double>& values() const { return values_; }

  double at(std::size_t slew_idx, std::size_t load_idx) const {
    return values_[slew_idx * load_axis_.size() + load_idx];
  }

  bool empty() const { return values_.empty(); }

  /// Writes the table restricted to `load_ff` into out[0 .. slew knots):
  /// each slew row reduced with exactly lookup()'s load-axis arithmetic,
  /// so interpolate(out, knots, locate_segment(slew axis, knots, slew))
  /// returns the same bits as lookup(slew, load_ff).
  void reduce_to_load(double load_ff, double* out) const;

  /// Multiplies every table entry by `factor` (variant scaling).
  NldmTable scaled(double factor) const;

 private:
  std::vector<double> slew_axis_;
  std::vector<double> load_axis_;
  std::vector<double> values_;
};

/// Default characterization axes used by the library builder.
std::vector<double> default_slew_axis_ps();
std::vector<double> default_load_axis_ff();

}  // namespace svtox::liberty
