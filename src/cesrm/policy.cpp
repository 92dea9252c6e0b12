#include "cesrm/policy.hpp"

#include "util/enum_names.hpp"

namespace cesrm::cesrm {

namespace {
constexpr util::EnumNames<ExpeditionPolicy, 2> kExpeditionPolicyNames{
    {{{ExpeditionPolicy::kMostRecent, "most-recent"},
      {ExpeditionPolicy::kMostFrequent, "most-frequent"}}}};
}  // namespace

const char* policy_name(ExpeditionPolicy policy) {
  return kExpeditionPolicyNames.name(policy);
}

const char* policy_names() {
  static const std::string joined = kExpeditionPolicyNames.joined_names();
  return joined.c_str();
}

std::optional<ExpeditionPolicy> try_parse_policy(const std::string& name) {
  return kExpeditionPolicyNames.try_parse(name);
}

std::optional<RecoveryTuple> select_pair(const RecoveryCache& cache,
                                         ExpeditionPolicy policy) {
  switch (policy) {
    case ExpeditionPolicy::kMostRecent: return cache.most_recent();
    case ExpeditionPolicy::kMostFrequent: return cache.most_frequent();
  }
  return std::nullopt;
}

}  // namespace cesrm::cesrm
