#include "serve/query_cache.h"

#include <algorithm>

namespace netclus::serve {

Engine::QuerySpec CanonicalizeSpec(const Engine::QuerySpec& spec) {
  Engine::QuerySpec canon = spec;
  std::sort(canon.existing_services.begin(), canon.existing_services.end());
  canon.existing_services.erase(
      std::unique(canon.existing_services.begin(),
                  canon.existing_services.end()),
      canon.existing_services.end());
  return canon;
}

uint64_t QueryCacheTraits::Bytes(const index::QueryResult& result) {
  return sizeof(result) +
         result.selection.sites.capacity() * sizeof(tops::SiteId) +
         result.selection.marginal_gains.capacity() * sizeof(double);
}

}  // namespace netclus::serve
