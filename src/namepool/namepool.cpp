#include "ctwatch/namepool/namepool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <memory>
#include <new>
#include <stdexcept>

#include "ctwatch/obs/obs.hpp"

namespace ctwatch::namepool {

namespace {

struct PoolMetrics {
  obs::Gauge& bytes = obs::Registry::global().gauge("namepool.bytes");
  obs::Gauge& labels = obs::Registry::global().gauge("namepool.labels");
  obs::Gauge& names = obs::Registry::global().gauge("namepool.names");
  obs::Counter& label_hits = obs::Registry::global().counter("namepool.label_intern.hits");
  obs::Counter& name_hits = obs::Registry::global().counter("namepool.name_intern.hits");
  obs::Counter& name_misses = obs::Registry::global().counter("namepool.name_intern.misses");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

// FNV-1a over the bytes of a LabelId span, finalized with a splitmix step
// so short sequences still spread across the table.
std::uint64_t hash_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

// Accounts a change of `delta` held bytes to `bytes` and the
// namepool.bytes gauge (unsigned wrap-around subtracts a negative delta).
void account_bytes(std::atomic<std::size_t>& bytes, std::int64_t delta) {
  if (delta == 0) return;
  bytes.fetch_add(static_cast<std::size_t>(delta), std::memory_order_relaxed);
  pool_metrics().bytes.add(delta);
}

// Per stripe: an empty index's stripes start at 1024 slots in all.
constexpr std::size_t kInitialIndexSlots = 1024 / detail::StripedIndex::kStripes;

}  // namespace

// ------------------------------------------------------------ StripedIndex

namespace detail {

StripedIndex::Table::Table(std::size_t size) : mask_(size - 1) {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  bytes_ = (size * sizeof(std::atomic<std::uint32_t>) + page - 1) / page * page;
  void* pages = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  slots_ = static_cast<std::atomic<std::uint32_t>*>(pages);
  std::uninitialized_value_construct_n(slots_, size);
}

StripedIndex::Table::~Table() { munmap(slots_, bytes_); }

void StripedIndex::Table::release() {
  // Private anonymous pages read back as zeros after MADV_DONTNEED; a
  // reader probing this table concurrently sees either the old slots or
  // empty ones, never anything else.
  madvise(slots_, bytes_, MADV_DONTNEED);
}

template <typename Match>
std::optional<std::uint32_t> StripedIndex::probe(const Stripe& stripe, std::uint64_t hash,
                                                 Match& match) {
  const Table* table = stripe.current.load(std::memory_order_acquire);
  if (table == nullptr) return std::nullopt;
  for (std::size_t slot = static_cast<std::size_t>(hash) & table->mask();;
       slot = (slot + 1) & table->mask()) {
    // Acquire pairs with the inserter's release: the entry is visible.
    const std::uint32_t stored = table->slot(slot).load(std::memory_order_acquire);
    if (stored == 0) return std::nullopt;
    if (match(stored - 1)) return stored - 1;
  }
}

template <typename Match>
std::optional<std::uint32_t> StripedIndex::find(std::uint64_t hash, Match&& match) const {
  Stripe& stripe = stripes_[stripe_of(hash)];
  if (const auto value = probe(stripe, hash, match)) return value;
  // A lock-free miss can be stale: the value may have been inserted into
  // a table published after ours. Inserts happen under mu, so this
  // re-probe is authoritative.
  std::lock_guard<std::mutex> lock(stripe.mu);
  return probe(stripe, hash, match);
}

template <typename Match, typename Create, typename Rehash>
StripedIndex::Found StripedIndex::find_or_insert(std::uint64_t hash, Match&& match,
                                                 Create&& create, Rehash&& rehash,
                                                 std::int64_t& bytes) {
  const std::size_t index = stripe_of(hash);
  Stripe& stripe = stripes_[index];
  if (const auto value = probe(stripe, hash, match)) return Found{*value, false};
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (const auto value = probe(stripe, hash, match)) return Found{*value, false};

  const auto place = [](const Table& table, std::uint64_t h, std::uint32_t stored) {
    std::size_t slot = static_cast<std::size_t>(h) & table.mask();
    while (table.slot(slot).load(std::memory_order_relaxed) != 0) slot = (slot + 1) & table.mask();
    table.slot(slot).store(stored, std::memory_order_release);
  };
  if (stripe.tables.empty()) {
    stripe.tables.push_back(std::make_unique<Table>(kInitialIndexSlots));
    bytes += static_cast<std::int64_t>(stripe.tables.back()->bytes());
    stripe.current.store(stripe.tables.back().get(), std::memory_order_release);
  }
  const std::uint32_t value = create(index);  // published before it is indexed
  Table& table = *stripe.tables.back();
  place(table, hash, value + 1);
  const std::size_t used = stripe.used.load(std::memory_order_relaxed) + 1;
  stripe.used.store(used, std::memory_order_relaxed);
  const std::size_t size = table.mask() + 1;
  if (used * 10 > size * 7) {
    // Build the bigger table in full, then publish it; readers holding
    // the old one keep a consistent (if stale) view of it until its
    // pages are released, and an empty one after.
    auto bigger = std::make_unique<Table>(size * 2);
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint32_t stored = table.slot(i).load(std::memory_order_relaxed);
      if (stored != 0) place(*bigger, rehash(stored - 1), stored);
    }
    stripe.current.store(bigger.get(), std::memory_order_release);
    table.release();
    bytes += static_cast<std::int64_t>(bigger->bytes()) - static_cast<std::int64_t>(table.bytes());
    stripe.tables.push_back(std::move(bigger));
  }
  return Found{value, true};
}

std::size_t StripedIndex::size() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) total += stripe.used.load(std::memory_order_relaxed);
  return total;
}

}  // namespace detail

// ---------------------------------------------------------------- LabelTable

LabelTable::~LabelTable() {
  PoolMetrics& metrics = pool_metrics();
  metrics.bytes.add(-static_cast<std::int64_t>(bytes_.load(std::memory_order_relaxed)));
  metrics.labels.add(-static_cast<std::int64_t>(count_.load(std::memory_order_relaxed)));
  for (auto& block : blocks_) {
    delete[] block.load(std::memory_order_relaxed);
  }
}

std::string_view LabelTable::text(LabelId id) const {
  const Entry& e = entry(id);
  return {e.ptr, e.len};
}

LabelId LabelTable::create(std::size_t stripe, std::string_view text) {
  const LabelId id = count_.fetch_add(1, std::memory_order_relaxed);
  if (id / kEntriesPerBlock >= kMaxBlocks) {
    throw std::length_error("LabelTable: table full");
  }
  std::atomic<Entry*>& slot = blocks_[id / kEntriesPerBlock];
  Entry* block = slot.load(std::memory_order_acquire);
  if (block == nullptr) {
    // Stripes race to allocate a block; exactly one wins the CAS.
    auto* fresh = new Entry[kEntriesPerBlock];
    if (slot.compare_exchange_strong(block, fresh, std::memory_order_acq_rel)) {
      block = fresh;
      account_bytes(bytes_, kEntriesPerBlock * sizeof(Entry));
    } else {
      delete[] fresh;
    }
  }
  // The stripe's text arena; a zero-length first intern still gets a
  // chunk, so the entry's pointer is never null.
  TextArena& arena = arenas_[stripe];
  if (arena.chunks.empty() || arena.cap - arena.used < text.size()) {
    const std::size_t cap = text.size() > kMinChunk ? text.size() : kMinChunk;
    arena.chunks.push_back(std::unique_ptr<char[]>(new char[cap]));
    arena.cap = cap;
    arena.used = 0;
    account_bytes(bytes_, cap);
  }
  char* dst = arena.chunks.back().get() + arena.used;
  std::memcpy(dst, text.data(), text.size());
  arena.used += text.size();
  block[id % kEntriesPerBlock] = Entry{dst, static_cast<std::uint32_t>(text.size())};
  pool_metrics().labels.add(1);
  return id;
}

LabelId LabelTable::intern(std::string_view text) {
  std::int64_t bytes = 0;
  const detail::StripedIndex::Found found = index_.find_or_insert(
      hash_bytes(text.data(), text.size()),
      [&](std::uint32_t id) {
        const Entry& e = entry(id);
        return e.len == text.size() && std::memcmp(e.ptr, text.data(), e.len) == 0;
      },
      [&](std::size_t stripe) { return create(stripe, text); },
      [this](std::uint32_t id) {
        const Entry& e = entry(id);
        return hash_bytes(e.ptr, e.len);
      },
      bytes);
  account_bytes(bytes_, bytes);
  if (!found.fresh) pool_metrics().label_hits.inc();
  return found.value;
}

std::optional<LabelId> LabelTable::find(std::string_view text) const {
  return index_.find(hash_bytes(text.data(), text.size()), [&](std::uint32_t id) {
    const Entry& e = entry(id);
    return e.len == text.size() && std::memcmp(e.ptr, text.data(), e.len) == 0;
  });
}

// ------------------------------------------------------------------ NamePool

NamePool::~NamePool() {
  PoolMetrics& metrics = pool_metrics();
  metrics.bytes.add(-static_cast<std::int64_t>(bytes_.load(std::memory_order_relaxed)));
  metrics.names.add(-static_cast<std::int64_t>(dedup_.size()));
  for (auto& block : blocks_) {
    delete[] block.load(std::memory_order_relaxed);
  }
}

std::uint64_t NamePool::hash_ids(std::span<const LabelId> ids) {
  return hash_bytes(ids.data(), ids.size_bytes());
}

std::span<const LabelId> NamePool::ids(NameRef ref) const {
  if (ref.count == 0) return {};
  const LabelId* block = blocks_[ref.offset / kIdsPerBlock].load(std::memory_order_acquire);
  return {block + ref.offset % kIdsPerBlock, ref.count};
}

bool NamePool::ids_equal(std::uint32_t offset, std::span<const LabelId> wanted) const {
  const LabelId* block = blocks_[offset / kIdsPerBlock].load(std::memory_order_acquire);
  const std::size_t at = offset % kIdsPerBlock;
  if (block[at - 1] != wanted.size()) return false;
  return std::memcmp(block + at, wanted.data(), wanted.size_bytes()) == 0;
}

std::uint32_t NamePool::claim_run(std::size_t run) {
  std::lock_guard<std::mutex> lock(arena_mu_);
  std::size_t used = arena_used_;
  // A run never spans blocks; skip the block tail when it cannot fit.
  if (kIdsPerBlock - used % kIdsPerBlock < run) used += kIdsPerBlock - used % kIdsPerBlock;
  if (used / kIdsPerBlock >= kMaxBlocks || run > kIdsPerBlock) {
    throw std::length_error("NamePool: arena full");
  }
  if (blocks_[used / kIdsPerBlock].load(std::memory_order_relaxed) == nullptr) {
    blocks_[used / kIdsPerBlock].store(new LabelId[kIdsPerBlock], std::memory_order_release);
    account_bytes(bytes_, kIdsPerBlock * sizeof(LabelId));
  }
  arena_used_ = static_cast<std::uint32_t>(used + run);
  return static_cast<std::uint32_t>(used);
}

std::uint32_t NamePool::append_ids(std::size_t stripe, std::span<const LabelId> ids) {
  IdRun& run = runs_[stripe];
  const std::size_t need = ids.size() + 1;  // [count][ids...]
  if (run.end - run.next < need) {
    const std::size_t size = need > kRunIds ? need : kRunIds;
    run.next = claim_run(size);
    run.end = run.next + static_cast<std::uint32_t>(size);
  }
  LabelId* block = blocks_[run.next / kIdsPerBlock].load(std::memory_order_relaxed);
  const std::size_t at = run.next % kIdsPerBlock;
  block[at] = static_cast<LabelId>(ids.size());
  std::memcpy(block + at + 1, ids.data(), ids.size_bytes());
  const std::uint32_t offset = run.next + 1;
  run.next += static_cast<std::uint32_t>(need);
  return offset;
}

NamePool::Interned NamePool::intern_hashed(std::uint64_t hash, std::span<const LabelId> ids) {
  std::int64_t bytes = 0;
  const detail::StripedIndex::Found found = dedup_.find_or_insert(
      hash, [&](std::uint32_t offset) { return ids_equal(offset, ids); },
      [&](std::size_t stripe) { return append_ids(stripe, ids); },
      [this](std::uint32_t offset) {
        const LabelId* block = blocks_[offset / kIdsPerBlock].load(std::memory_order_relaxed);
        const std::size_t at = offset % kIdsPerBlock;
        return hash_bytes(block + at, block[at - 1] * sizeof(LabelId));
      },
      bytes);
  account_bytes(bytes_, bytes);
  return Interned{NameRef{found.value, static_cast<std::uint32_t>(ids.size())}, found.fresh};
}

NamePool::Interned NamePool::intern_ids(std::span<const LabelId> ids) {
  if (ids.empty()) return Interned{NameRef{0, 0}, false};
  const Interned out = intern_hashed(hash_ids(ids), ids);
  PoolMetrics& metrics = pool_metrics();
  if (out.fresh) {
    metrics.names.add(1);
    metrics.name_misses.inc();
  } else {
    metrics.name_hits.inc();
  }
  return out;
}

NamePool::Interned NamePool::intern_text(std::string_view dotted) {
  std::vector<LabelId> scratch;
  LabelId stack[64];
  std::size_t n = 0;
  std::size_t start = 0;
  auto push = [&](std::string_view piece) {
    const LabelId id = labels_.intern(piece);
    if (n < 64) {
      stack[n++] = id;
    } else {
      if (scratch.empty()) scratch.assign(stack, stack + n);
      scratch.push_back(id);
      ++n;
    }
  };
  if (!dotted.empty()) {
    for (std::size_t i = 0; i <= dotted.size(); ++i) {
      if (i == dotted.size() || dotted[i] == '.') {
        push(dotted.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  const std::span<const LabelId> ids =
      scratch.empty() ? std::span<const LabelId>(stack, n) : std::span<const LabelId>(scratch);
  return intern_ids(ids);
}

std::optional<NameRef> NamePool::find_ids(std::span<const LabelId> ids) const {
  if (ids.empty()) return NameRef{0, 0};
  const auto offset =
      dedup_.find(hash_ids(ids), [&](std::uint32_t stored) { return ids_equal(stored, ids); });
  if (!offset) return std::nullopt;
  return NameRef{*offset, static_cast<std::uint32_t>(ids.size())};
}

std::string NamePool::to_string(NameRef ref) const {
  std::string out;
  append_to(out, ref);
  return out;
}

void NamePool::append_to(std::string& out, NameRef ref) const {
  const std::span<const LabelId> sequence = ids(ref);
  std::size_t total = sequence.empty() ? 0 : sequence.size() - 1;
  for (const LabelId id : sequence) total += labels_.text(id).size();
  out.reserve(out.size() + total);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += labels_.text(sequence[i]);
  }
}

NameRef NamePool::parent(NameRef ref, std::size_t n) {
  if (n > ref.count) throw std::out_of_range("NamePool::parent: too many labels dropped");
  if (n == 0) return ref;
  return intern_ids(ids(ref).subspan(n)).ref;
}

std::uint64_t NamePool::with_prefix_batch(LabelId label, std::span<const NameRef> suffixes,
                                          std::vector<NameRef>& out) {
  std::uint64_t fresh = 0;
  std::uint64_t hits = 0;
  LabelId stack[64];
  std::vector<LabelId> heap;
  stack[0] = label;
  out.reserve(out.size() + suffixes.size());
  for (const NameRef suffix : suffixes) {
    const std::span<const LabelId> suffix_ids = ids(suffix);
    std::span<const LabelId> combined;
    if (suffix_ids.size() + 1 <= 64) {
      if (!suffix_ids.empty()) std::memcpy(stack + 1, suffix_ids.data(), suffix_ids.size_bytes());
      combined = std::span<const LabelId>(stack, suffix_ids.size() + 1);
    } else {
      heap.clear();
      heap.reserve(suffix_ids.size() + 1);
      heap.push_back(label);
      heap.insert(heap.end(), suffix_ids.begin(), suffix_ids.end());
      combined = heap;
    }
    const Interned comp = intern_hashed(hash_ids(combined), combined);
    out.push_back(comp.ref);
    if (comp.fresh) {
      ++fresh;
    } else {
      ++hits;
    }
  }
  PoolMetrics& metrics = pool_metrics();
  if (fresh > 0) {
    metrics.names.add(static_cast<std::int64_t>(fresh));
    metrics.name_misses.inc(fresh);
  }
  if (hits > 0) metrics.name_hits.inc(hits);
  return fresh;
}

NamePool::Interned NamePool::with_prefix(NameRef ref, LabelId label) {
  LabelId stack[64];
  std::vector<LabelId> heap;
  const std::span<const LabelId> suffix = ids(ref);
  std::span<const LabelId> combined;
  if (suffix.size() + 1 <= 64) {
    stack[0] = label;
    if (!suffix.empty()) std::memcpy(stack + 1, suffix.data(), suffix.size_bytes());
    combined = std::span<const LabelId>(stack, suffix.size() + 1);
  } else {
    heap.reserve(suffix.size() + 1);
    heap.push_back(label);
    heap.insert(heap.end(), suffix.begin(), suffix.end());
    combined = heap;
  }
  return intern_ids(combined);
}

bool NamePool::is_subdomain_of(NameRef name, NameRef ancestor) const {
  if (ancestor.count > name.count) return false;
  if (ancestor.count == 0) return true;
  const std::span<const LabelId> child = ids(name);
  const std::span<const LabelId> anc = ids(ancestor);
  return std::memcmp(child.data() + (child.size() - anc.size()), anc.data(),
                     anc.size_bytes()) == 0;
}

}  // namespace ctwatch::namepool
