#include "service/metrics.h"

namespace aimq {

void ServiceMetrics::OnTenantAccepted(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  ++tenants_[tenant].accepted;
}

void ServiceMetrics::OnTenantRejected(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  ++tenants_[tenant].rejected;
}

void ServiceMetrics::OnTenantCompleted(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  ++tenants_[tenant].completed;
}

void ServiceMetrics::OnTenantFailed(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  ++tenants_[tenant].failed;
}

std::map<std::string, TenantCounters> ServiceMetrics::TenantSnapshot() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_;
}

double ServiceMetrics::RejectionRate() const {
  const uint64_t a = accepted();
  const uint64_t r = rejected();
  const uint64_t total = a + r;
  return total == 0 ? 0.0
                    : static_cast<double>(r) / static_cast<double>(total);
}

}  // namespace aimq
