#include "dc/delay_model.hpp"

#include <limits>
#include <stdexcept>

namespace coca::dc {

double mg1ps_mean_response_seconds(double lambda, double rate) {
  if (rate <= 0.0) throw std::domain_error("mg1ps: nonpositive rate");
  if (lambda < 0.0) throw std::domain_error("mg1ps: negative lambda");
  if (lambda >= rate) return std::numeric_limits<double>::infinity();
  return 1.0 / (rate - lambda);
}

double mg1ps_jobs_in_system(double lambda, double rate) {
  if (rate <= 0.0) throw std::domain_error("mg1ps: nonpositive rate");
  if (lambda < 0.0) throw std::domain_error("mg1ps: negative lambda");
  if (lambda >= rate) return std::numeric_limits<double>::infinity();
  return lambda / (rate - lambda);
}

double total_delay_jobs(const Fleet& fleet, const Allocation& alloc) {
  if (alloc.size() != fleet.group_count()) {
    throw std::invalid_argument("total_delay_jobs: allocation size mismatch");
  }
  double total = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    total += fleet.group(g).delay_cost(alloc[g].level, alloc[g].active,
                                       alloc[g].load);
  }
  return total;
}

}  // namespace coca::dc
