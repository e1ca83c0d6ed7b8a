#include "blob/client.h"

#include <algorithm>

#include "common/assert.h"
#include "common/container.h"
#include "net/replica_order.h"
#include "sim/parallel.h"

namespace bs::blob {

namespace {
// Max in-flight page transfers per operation (per-client striping width).
constexpr uint32_t kPageParallelism = 8;
// Max in-flight DHT puts while storing a version's tree nodes.
constexpr uint32_t kMetaParallelism = 16;
// How many times a writer re-requests replacement providers for a page
// whose replica stores failed (provider crashed mid-write).
constexpr uint32_t kWriteRetryLimit = 2;
}  // namespace

BlobClient::BlobClient(net::NodeId node, sim::Simulator& sim,
                       net::Network& net, VersionManager& vm,
                       ProviderManager& pm, const ProviderDirectory& providers,
                       dht::Dht& dht, ClientConfig cfg)
    : node_(node), sim_(sim), net_(net), vm_(vm), pm_(pm),
      providers_(providers), dht_(dht), cfg_(cfg) {}

sim::Task<BlobDescriptor> BlobClient::create(uint64_t page_size,
                                             uint32_t replication) {
  BlobDescriptor desc = co_await vm_.create_blob(node_, page_size, replication);
  desc_cache_[desc.id] = desc;
  co_return desc;
}

sim::Task<BlobDescriptor> BlobClient::descriptor(BlobId blob) {
  auto it = desc_cache_.find(blob);
  if (it != desc_cache_.end()) co_return it->second;
  BlobDescriptor desc = co_await vm_.describe(node_, blob);
  desc_cache_[blob] = desc;
  co_return desc;
}

sim::Task<Version> BlobClient::write(BlobId blob, uint64_t offset,
                                     DataSpec data) {
  BS_CHECK(data.size() > 0);
  const BlobDescriptor desc = co_await descriptor(blob);
  const uint64_t ps = desc.page_size;

  WriteTicket ticket = co_await vm_.assign_write(node_, blob, offset, data.size());
  const uint64_t first_page = ticket.offset / ps;
  const uint64_t page_count = pages_for_bytes(data.size(), ps);
  const PageRange range{first_page, page_count};

  // 2. Providers for every page replica.
  auto placement =
      co_await pm_.allocate(node_, page_count, ps, desc.replication);

  // 3. Store page replicas, bounded-parallel, tolerating providers that
  // crash mid-write: failed targets are dropped and re-placed, and the
  // leaf records only the replicas that actually hold the page.
  {
    std::vector<sim::Task<void>> stores;
    stores.reserve(page_count);
    for (uint64_t p = 0; p < page_count; ++p) {
      const uint64_t off = p * ps;
      const uint64_t len = std::min<uint64_t>(ps, data.size() - off);
      const PageKey key{blob, first_page + p, ticket.version};
      stores.push_back(store_page_replicas(key, data.slice(off, len), ps,
                                           desc.replication, &placement[p]));
    }
    co_await sim::when_all_limited(sim_, std::move(stores),
                                   kPageParallelism);
  }

  // 4. Build and store this version's metadata tree nodes.
  {
    std::vector<MetaNode> nodes = build_write_nodes(
        range, ticket.cap_pages, ticket.version, ticket.history());
    // Leaves come first, in page order: fill in placement and lengths.
    for (uint64_t p = 0; p < page_count; ++p) {
      MetaNode& leaf = nodes[p];
      BS_CHECK(leaf.is_leaf() && leaf.range.first == first_page + p);
      leaf.providers = placement[p];
      const uint64_t off = p * ps;
      leaf.page_length =
          static_cast<uint32_t>(std::min<uint64_t>(ps, data.size() - off));
    }
    std::vector<sim::Task<void>> puts;
    puts.reserve(nodes.size());
    for (const MetaNode& n : nodes) {
      puts.push_back(
          dht_.put(node_, meta_key(blob, n.range, n.version), n.serialize()));
    }
    co_await sim::when_all_limited(sim_, std::move(puts),
                                   kMetaParallelism);
  }

  // 5. Commit; wait for in-order publication (read-your-write).
  co_await vm_.commit(node_, blob, ticket.version);
  co_await vm_.wait_published(node_, blob, ticket.version);
  co_return ticket.version;
}

sim::Task<Version> BlobClient::append(BlobId blob, DataSpec data) {
  return write(blob, VersionManager::kAppendOffset, std::move(data));
}

sim::Task<void> BlobClient::store_page_replicas(
    PageKey key, DataSpec data, uint64_t page_size, uint32_t replication,
    std::vector<net::NodeId>* replicas) {
  std::vector<net::NodeId> targets = std::move(*replicas);
  std::vector<net::NodeId> stored;   // replicas that acknowledged the page
  std::vector<net::NodeId> failed;   // everyone who didn't
  for (uint32_t attempt = 0;; ++attempt) {
    std::vector<sim::Task<bool>> puts;
    puts.reserve(targets.size());
    for (net::NodeId target : targets) {
      puts.push_back(providers_.at(target).put_page(node_, key, data));
    }
    auto acks = co_await sim::when_all(sim_, std::move(puts));
    for (size_t i = 0; i < targets.size(); ++i) {
      if (acks[i]) {
        stored.push_back(targets[i]);
      } else {
        failed.push_back(targets[i]);
        ++write_replica_failures_;
      }
    }
    if (stored.size() >= replication || attempt >= kWriteRetryLimit) {
      break;
    }
    // Some targets died under us: ask the PM for live replacements (its
    // liveness view plus our explicit exclusions keep it off dead nodes).
    targets = co_await pm_.allocate_replacements(
        node_, page_size, stored, failed,
        replication - static_cast<uint32_t>(stored.size()));
    if (targets.empty()) break;  // cluster too degraded to re-place
  }
  BS_CHECK_MSG(!stored.empty(),
               "write failed: no provider stored the page (all replicas "
               "crashed and no live replacement exists)");
  *replicas = std::move(stored);
}

sim::Task<std::vector<MetaNode>> BlobClient::walk(BlobId blob, PageRange range,
                                                  Version version,
                                                  PageRange target) {
  if (version == kNoVersion || !range.intersects(target)) {
    co_return std::vector<MetaNode>{};
  }
  auto raw = co_await dht_.get(node_, meta_key(blob, range, version));
  BS_CHECK_MSG(raw.has_value(), "metadata node missing for published version");
  MetaNode node = MetaNode::deserialize(*raw);
  if (node.is_leaf()) {
    co_return std::vector<MetaNode>{std::move(node)};
  }
  std::vector<sim::Task<std::vector<MetaNode>>> subs;
  subs.push_back(walk(blob, left_child(range), node.left, target));
  subs.push_back(walk(blob, right_child(range), node.right, target));
  auto results = co_await sim::when_all(sim_, std::move(subs));
  std::vector<MetaNode> out = std::move(results[0]);
  out.insert(out.end(), std::make_move_iterator(results[1].begin()),
             std::make_move_iterator(results[1].end()));
  co_return out;
}

sim::Task<DataSpec> BlobClient::fetch_page(BlobId blob, uint64_t page_index,
                                           const MetaNode* leaf,
                                           uint64_t page_size,
                                           uint64_t blob_size) {
  // Bytes of this page that exist at this version.
  const uint64_t page_off = page_index * page_size;
  const uint64_t logical_len =
      std::min(page_size, blob_size > page_off ? blob_size - page_off : 0);
  if (leaf == nullptr) {
    // Hole: never-written pages read as zeros.
    co_return DataSpec::from_bytes(Bytes(logical_len, 0));
  }

  BS_CHECK_MSG(!leaf->providers.empty(), "leaf with no replicas");
  const std::vector<net::NodeId> order = net::replica_order(
      leaf->providers, node_, net_.config(), cfg_.liveness, page_index);

  const PageKey key{blob, page_index, leaf->version};
  for (size_t i = 0; i < order.size(); ++i) {
    Provider* provider = providers_.find(order[i]);
    if (provider == nullptr) continue;  // unknown/retired node in the leaf
    auto page = co_await provider->get_page(node_, key);
    // Down or lost the replica: fail over to the next one.
    if (!page.has_value()) continue;
    if (page->size() > logical_len) {
      // Stored page is longer than this version's logical extent (an old
      // full page under a version whose size ends inside it).
      co_return page->slice(0, logical_len);
    }
    if (page->size() < logical_len) {
      // A short page written as the then-end of the blob, later extended
      // past it by another version: the gap bytes read as zeros.
      Bytes padded = page->materialize();
      padded.resize(logical_len, 0);
      co_return DataSpec::from_bytes(std::move(padded));
    }
    co_return *std::move(page);
  }
  BS_CHECK_MSG(false,
               "read failed: every replica of the page is gone (all "
               "providers in the leaf are down, unknown, or lost it)");
  co_return DataSpec::from_bytes(Bytes{});  // unreachable
}

sim::Task<DataSpec> BlobClient::read(BlobId blob, Version version,
                                     uint64_t offset, uint64_t size) {
  const BlobDescriptor desc = co_await descriptor(blob);
  const uint64_t ps = desc.page_size;

  VersionInfo info;
  if (version == kNoVersion) {
    info = co_await vm_.latest(node_, blob);
  } else {
    auto maybe = co_await vm_.version_info(node_, blob, version);
    BS_CHECK_MSG(maybe.has_value(), "reading an unpublished version");
    info = *maybe;
  }
  if (info.version == kNoVersion || offset >= info.size || size == 0) {
    co_return DataSpec::from_bytes(Bytes{});
  }
  size = std::min(size, info.size - offset);

  const uint64_t first_page = offset / ps;
  const uint64_t end_page = pages_for_bytes(offset + size, ps);
  const PageRange target{first_page, end_page - first_page};

  std::vector<MetaNode> leaves = co_await walk(
      blob, PageRange{0, info.cap_pages}, info.version, target);
  bs::unordered_map<uint64_t, const MetaNode*> leaf_by_page;
  for (const MetaNode& l : leaves) leaf_by_page[l.range.first] = &l;

  // Fetch pages in parallel (bounded), in page order.
  std::vector<sim::Task<DataSpec>> fetches;
  fetches.reserve(target.count);
  for (uint64_t p = first_page; p < end_page; ++p) {
    auto it = leaf_by_page.find(p);
    const MetaNode* leaf = it == leaf_by_page.end() ? nullptr : it->second;
    fetches.push_back(fetch_page(blob, p, leaf, ps, info.size));
  }
  auto pages = co_await sim::when_all_limited(sim_, std::move(fetches),
                                              kPageParallelism);

  // Trim the first and last page to the requested byte range, then stitch.
  const uint64_t lead = offset - first_page * ps;
  if (lead > 0 && !pages.empty()) {
    pages[0] = pages[0].slice(lead, pages[0].size() - lead);
  }
  uint64_t have = 0;
  for (const auto& p : pages) have += p.size();
  BS_CHECK(have >= size);
  if (have > size) {
    auto& last = pages.back();
    last = last.slice(0, last.size() - (have - size));
  }
  co_return concat(pages);
}

sim::Task<uint64_t> BlobClient::size(BlobId blob, Version version) {
  if (version == kNoVersion) {
    const VersionInfo info = co_await vm_.latest(node_, blob);
    co_return info.size;
  }
  auto maybe = co_await vm_.version_info(node_, blob, version);
  BS_CHECK(maybe.has_value());
  co_return maybe->size;
}

sim::Task<VersionInfo> BlobClient::latest(BlobId blob) {
  co_return co_await vm_.latest(node_, blob);
}

sim::Task<std::vector<PageLocation>> BlobClient::locate(BlobId blob,
                                                        Version version,
                                                        uint64_t offset,
                                                        uint64_t size) {
  const BlobDescriptor desc = co_await descriptor(blob);
  const uint64_t ps = desc.page_size;
  VersionInfo info;
  if (version == kNoVersion) {
    info = co_await vm_.latest(node_, blob);
  } else {
    auto maybe = co_await vm_.version_info(node_, blob, version);
    BS_CHECK_MSG(maybe.has_value(), "locating an unpublished version");
    info = *maybe;
  }
  std::vector<PageLocation> out;
  if (info.version == kNoVersion || offset >= info.size || size == 0) {
    co_return out;
  }
  size = std::min(size, info.size - offset);
  const uint64_t first_page = offset / ps;
  const uint64_t end_page = pages_for_bytes(offset + size, ps);
  const PageRange target{first_page, end_page - first_page};

  std::vector<MetaNode> leaves = co_await walk(
      blob, PageRange{0, info.cap_pages}, info.version, target);
  bs::unordered_map<uint64_t, const MetaNode*> leaf_by_page;
  for (const MetaNode& l : leaves) leaf_by_page[l.range.first] = &l;
  for (uint64_t p = first_page; p < end_page; ++p) {
    PageLocation loc;
    loc.index = p;
    auto it = leaf_by_page.find(p);
    if (it != leaf_by_page.end()) {
      loc.version = it->second->version;
      loc.length = it->second->page_length;
      loc.providers = it->second->providers;
    }
    out.push_back(std::move(loc));
  }
  co_return out;
}

}  // namespace bs::blob
