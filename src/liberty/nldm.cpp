#include "liberty/nldm.hpp"

#include "util/error.hpp"

namespace svtox::liberty {

namespace {

void check_axis(const std::vector<double>& axis, const char* what) {
  if (axis.empty()) throw ContractError(std::string("NldmTable: empty ") + what);
  for (std::size_t i = 1; i < axis.size(); ++i) {
    if (axis[i] <= axis[i - 1]) {
      throw ContractError(std::string("NldmTable: non-ascending ") + what);
    }
  }
}

}  // namespace

NldmTable::NldmTable(std::vector<double> slew_axis_ps, std::vector<double> load_axis_ff,
                     std::vector<double> values)
    : slew_axis_(std::move(slew_axis_ps)),
      load_axis_(std::move(load_axis_ff)),
      values_(std::move(values)) {
  check_axis(slew_axis_, "slew axis");
  check_axis(load_axis_, "load axis");
  if (values_.size() != slew_axis_.size() * load_axis_.size()) {
    throw ContractError("NldmTable: value count does not match axes");
  }
}

double NldmTable::lookup(double slew_ps, double load_ff) const {
  if (empty()) throw ContractError("NldmTable::lookup on empty table");
  const AxisSegment s = locate_segment(slew_axis_.data(), slew_axis_.size(), slew_ps);
  const AxisSegment l = locate_segment(load_axis_.data(), load_axis_.size(), load_ff);

  auto value = [&](std::size_t si, std::size_t li) { return at(si, li); };

  if (slew_axis_.size() == 1 && load_axis_.size() == 1) return value(0, 0);
  if (slew_axis_.size() == 1) {
    const double v0 = value(0, l.lo);
    const double v1 = value(0, l.lo + 1);
    return v0 + (v1 - v0) * l.t;
  }
  if (load_axis_.size() == 1) {
    const double v0 = value(s.lo, 0);
    const double v1 = value(s.lo + 1, 0);
    return v0 + (v1 - v0) * s.t;
  }
  const double v00 = value(s.lo, l.lo);
  const double v01 = value(s.lo, l.lo + 1);
  const double v10 = value(s.lo + 1, l.lo);
  const double v11 = value(s.lo + 1, l.lo + 1);
  const double lo = v00 + (v01 - v00) * l.t;
  const double hi = v10 + (v11 - v10) * l.t;
  return lo + (hi - lo) * s.t;
}

void NldmTable::reduce_to_load(double load_ff, double* out) const {
  if (empty()) throw ContractError("NldmTable::reduce_to_load on empty table");
  const AxisSegment l = locate_segment(load_axis_.data(), load_axis_.size(), load_ff);
  for (std::size_t i = 0; i < slew_axis_.size(); ++i) {
    if (load_axis_.size() == 1) {
      out[i] = at(i, 0);
    } else {
      const double v0 = at(i, l.lo);
      const double v1 = at(i, l.lo + 1);
      out[i] = v0 + (v1 - v0) * l.t;
    }
  }
}

NldmTable NldmTable::scaled(double factor) const {
  NldmTable out = *this;
  for (double& v : out.values_) v *= factor;
  return out;
}

std::vector<double> default_slew_axis_ps() { return {5.0, 15.0, 40.0, 100.0, 250.0}; }

std::vector<double> default_load_axis_ff() {
  return {0.5, 1.5, 4.0, 10.0, 25.0, 60.0};
}

}  // namespace svtox::liberty
