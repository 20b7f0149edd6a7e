#include "core/schedule.hpp"

#include <ostream>
#include <utility>

#include "common/error.hpp"

namespace flexrt::core {

const Slot& ModeSchedule::slot(rt::Mode mode) const noexcept {
  switch (mode) {
    case rt::Mode::FT:
      return ft;
    case rt::Mode::FS:
      return fs;
    case rt::Mode::NF:
      return nf;
  }
  return ft;
}

Slot& ModeSchedule::slot(rt::Mode mode) noexcept {
  return const_cast<Slot&>(std::as_const(*this).slot(mode));
}

hier::LinearSupply ModeSchedule::supply(rt::Mode mode) const {
  const Slot& s = slot(mode);
  return hier::LinearSupply(s.usable / period, period - s.usable);
}

hier::SlotSupply ModeSchedule::exact_supply(rt::Mode mode) const {
  return hier::SlotSupply(period, slot(mode).usable);
}

double ModeSchedule::slot_offset(rt::Mode mode) const noexcept {
  switch (mode) {
    case rt::Mode::FT:
      return 0.0;
    case rt::Mode::FS:
      return ft.total();
    case rt::Mode::NF:
      return ft.total() + fs.total();
  }
  return 0.0;
}

void ModeSchedule::validate() const {
  FLEXRT_REQUIRE(period > 0.0, "schedule period must be > 0");
  for (const rt::Mode mode : kAllModes) {
    const Slot& s = slot(mode);
    FLEXRT_REQUIRE(s.usable >= 0.0, "usable quantum must be >= 0");
    FLEXRT_REQUIRE(s.overhead >= 0.0, "overhead must be >= 0");
  }
  FLEXRT_REQUIRE(slack() >= -1e-9 * period,
                 "slots exceed the period: no valid frame");
}

std::ostream& operator<<(std::ostream& os, const ModeSchedule& schedule) {
  os << "ModeSchedule{P=" << schedule.period;
  for (const rt::Mode mode : kAllModes) {
    const Slot& s = schedule.slot(mode);
    os << ", " << rt::to_string(mode) << ": Q~=" << s.usable
       << " O=" << s.overhead;
  }
  os << ", slack=" << schedule.slack() << "}";
  return os;
}

}  // namespace flexrt::core
