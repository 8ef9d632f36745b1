// ctwatch::namepool — interned DNS-name storage for funnel-scale corpora.
//
// The §4/§5 analyses operate on hundreds of millions of FQDNs (210.7M
// candidates in the enumeration funnel alone); storing each name as a
// vector of heap strings makes allocation the hot path. This module keeps
// every distinct label exactly once in a string arena (LabelTable) and
// every distinct name exactly once as a contiguous run of LabelIds in a
// flat arena (NamePool). A NameRef is then an 8-byte value with O(1)
// hash/equality (the pool canonicalizes: equal names get the same ref),
// cheap parent()/is_subdomain_of() (integer compares, no strings), and
// lazy to_string().
//
// Concurrency model, designed for read-mostly analysis pipelines:
//  * interning is lock-free on a hit: intern/find/intern_ids/find_ids/
//    parent/with_prefix probe an open-addressed index published behind an
//    atomic pointer, and take a mutex only on a miss;
//  * writers serialize only on a miss, and only per stripe: each index is
//    split into 16 stripes by hash (detail::StripedIndex), each with its
//    own mutex, table and arena run, so concurrent misses on different
//    stripes do not wait for each other;
//  * an index slot is stored with release ordering only after the entry
//    it names is published, so a reader that sees the slot sees the
//    entry. Growth builds a bigger table and publishes it; a reader still
//    probing the old one at worst misses and re-checks under the lock.
//    Retired tables stay mapped until the pool is destroyed, so no reader
//    ever probes freed memory; their pages go back to the system, and a
//    reader still probing one reads empty slots (again, a stale miss);
//  * readers of already-published data — text(), ids(), to_string(),
//    is_subdomain_of() — are wait-free: arenas are chunked (addresses
//    never move) and every entry is written before the release store of
//    the index slot that names it.
// A ref obtained from any intern call may be used concurrently with
// further interning, which is exactly what the TSAN target exercises.
//
// Memory accounting is explicit: bytes_used() reports what the arenas,
// dedup tables and indexes actually hold, and every growth step is
// mirrored into the obs gauges namepool.bytes / namepool.labels /
// namepool.names (aggregated across pools via add/sub deltas).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ctwatch::namepool {

/// Index of an interned string in a LabelTable. Dense, starting at 0.
using LabelId = std::uint32_t;

namespace detail {

/// The dedup index behind LabelTable and NamePool: open-addressed hash
/// tables over 32-bit values (slot = value + 1, 0 empty), split into
/// kStripes stripes by hash. Lookups probe a stripe's published table
/// lock-free; only a miss takes that stripe's mutex, re-probes and
/// inserts, so concurrent misses on different stripes never wait for each
/// other. Values are never removed. A table past 70% load is replaced by
/// one twice its size, built in full before it is published. A retired
/// table stays mapped until the index is destroyed, so a reader still
/// probing one never touches freed memory, but its pages go back to the
/// system: such a reader reads empty slots, a stale miss that find() and
/// find_or_insert() re-check under the lock. Not a general container.
class StripedIndex {
 public:
  static constexpr std::size_t kStripes = 16;

  StripedIndex() = default;
  StripedIndex(const StripedIndex&) = delete;
  StripedIndex& operator=(const StripedIndex&) = delete;

  /// The stripe `hash` belongs to (tables use the hash's low bits).
  [[nodiscard]] static std::size_t stripe_of(std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> 32) % kStripes;
  }

  /// The value in `hash`'s probe sequence for which `match(value)` holds.
  /// Lock-free on a hit; a miss re-probes under the stripe's mutex, so
  /// nullopt means the value was absent when the call returned.
  template <typename Match>
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint64_t hash, Match&& match) const;

  struct Found {
    std::uint32_t value = 0;
    bool fresh = false;  ///< true when this call inserted the value
  };
  /// find(), inserting on a miss: under the stripe's mutex,
  /// `create(stripe)` publishes a new entry and returns its value, which
  /// is then indexed with a release store; `rehash(value)` recomputes a
  /// stored value's hash on growth. Adds the change in held bytes (a new
  /// table, less a retired one) to `bytes`.
  template <typename Match, typename Create, typename Rehash>
  Found find_or_insert(std::uint64_t hash, Match&& match, Create&& create, Rehash&& rehash,
                       std::int64_t& bytes);

  /// Values inserted so far.
  [[nodiscard]] std::size_t size() const;

 private:
  /// One table's slots, in a page mapping of their own.
  class Table {
   public:
    explicit Table(std::size_t size);  // all slots empty
    ~Table();
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;

    [[nodiscard]] std::size_t mask() const { return mask_; }
    [[nodiscard]] std::atomic<std::uint32_t>& slot(std::size_t i) const { return slots_[i]; }
    /// Bytes mapped (whole pages).
    [[nodiscard]] std::size_t bytes() const { return bytes_; }
    /// Hands the pages back; the mapping stays and reads as empty slots.
    void release();

   private:
    std::size_t mask_;
    std::size_t bytes_;
    std::atomic<std::uint32_t>* slots_;
  };
  /// One stripe; cache-line aligned so stripes locked by different
  /// threads do not share a line.
  struct alignas(64) Stripe {
    std::mutex mu;
    std::atomic<const Table*> current{nullptr};
    std::atomic<std::size_t> used{0};  // written under mu
    // Every table ever published, current last; written under mu.
    std::vector<std::unique_ptr<Table>> tables;
  };

  template <typename Match>
  [[nodiscard]] static std::optional<std::uint32_t> probe(const Stripe& stripe,
                                                          std::uint64_t hash, Match& match);

  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace detail

/// A table of unique strings. General-purpose: DNS labels in NamePool,
/// but also e.g. observed TLS server names in the passive monitor.
/// intern() and find() are lock-free on a hit and take one stripe's mutex
/// only on a miss; text()/size() are wait-free.
class LabelTable {
 public:
  LabelTable() = default;
  ~LabelTable();
  LabelTable(const LabelTable&) = delete;
  LabelTable& operator=(const LabelTable&) = delete;

  /// Returns the id of `text`, interning it on first sight.
  /// Throws std::length_error when the table is full.
  LabelId intern(std::string_view text);

  /// Lookup without interning.
  [[nodiscard]] std::optional<LabelId> find(std::string_view text) const;

  /// The interned string. `id` must come from intern()/find() (on any
  /// thread that handed it over), or be < size() once interning has
  /// quiesced. Wait-free; the view stays valid for the table's lifetime.
  [[nodiscard]] std::string_view text(LabelId id) const;

  /// Number of ids handed out so far. Wait-free.
  [[nodiscard]] std::size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Bytes held by the arena, the entry blocks and the dedup index.
  [[nodiscard]] std::size_t bytes_used() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    const char* ptr;
    std::uint32_t len;
  };
  static constexpr std::size_t kEntriesPerBlock = 1u << 12;
  static constexpr std::size_t kMaxBlocks = 1u << 12;  // up to ~16.7M strings
  // One stripe's text chunk: the stripes' first chunks add up to 64 KiB.
  static constexpr std::size_t kMinChunk = (1u << 16) / detail::StripedIndex::kStripes;

  [[nodiscard]] const Entry& entry(LabelId id) const {
    return blocks_[id / kEntriesPerBlock].load(std::memory_order_acquire)[id % kEntriesPerBlock];
  }
  /// Writes a new entry for `text` under stripe `stripe`'s mutex.
  LabelId create(std::size_t stripe, std::string_view text);

  /// A stripe's text arena, written only under that stripe's mutex.
  struct alignas(64) TextArena {
    std::vector<std::unique_ptr<char[]>> chunks;
    std::size_t used = 0;
    std::size_t cap = 0;
  };

  std::array<std::atomic<Entry*>, kMaxBlocks> blocks_{};
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::size_t> bytes_{0};
  detail::StripedIndex index_;  // value = id
  std::array<TextArena, detail::StripedIndex::kStripes> arenas_;
};

/// A name held by a NamePool: `count` labels starting at `offset` in the
/// pool's flat LabelId arena, leftmost (host) label first. Equal names in
/// the same pool always carry the same (offset, count), so hash and
/// equality are O(1) and never touch the arena. The empty (root) name is
/// {0, 0}. Refs are only meaningful against the pool that produced them.
struct NameRef {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  friend bool operator==(const NameRef&, const NameRef&) = default;
};

struct NameRefHash {
  std::size_t operator()(const NameRef& ref) const {
    std::uint64_t x = (static_cast<std::uint64_t>(ref.offset) << 32) | ref.count;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Arena-backed, deduplicating storage for label sequences.
class NamePool {
 public:
  NamePool() = default;
  ~NamePool();
  NamePool(const NamePool&) = delete;
  NamePool& operator=(const NamePool&) = delete;

  struct Interned {
    NameRef ref;
    bool fresh = false;  ///< true when this intern created the name
  };

  /// The label table backing this pool.
  [[nodiscard]] LabelTable& labels() { return labels_; }
  [[nodiscard]] const LabelTable& labels() const { return labels_; }

  /// Interns a label sequence (leftmost label first). Ids must come from
  /// labels(). O(count) hash + one table probe; allocation only when new.
  Interned intern_ids(std::span<const LabelId> ids);

  /// Splits `dotted` on '.' and interns every piece as a label. No DNS
  /// validation — dns::DnsName::parse_into() is the validated entry point.
  Interned intern_text(std::string_view dotted);

  /// Lookup without interning.
  [[nodiscard]] std::optional<NameRef> find_ids(std::span<const LabelId> ids) const;

  /// The label ids of `ref`, leftmost first. Wait-free; the span stays
  /// valid for the pool's lifetime.
  [[nodiscard]] std::span<const LabelId> ids(NameRef ref) const;

  /// Text of the i-th label of `ref` (0 = leftmost).
  [[nodiscard]] std::string_view label(NameRef ref, std::size_t i) const {
    return labels_.text(ids(ref)[i]);
  }

  /// Dotted textual form, no trailing dot; "" for the empty name.
  [[nodiscard]] std::string to_string(NameRef ref) const;
  /// Appends the dotted form to `out` (reusable buffer, no extra allocs).
  void append_to(std::string& out, NameRef ref) const;

  /// The name with the leftmost `n` labels dropped (n <= ref.count).
  /// Interns the suffix when it was never seen on its own — usually a
  /// pure table hit, never a string operation.
  NameRef parent(NameRef ref, std::size_t n = 1);

  /// Prepends one interned label — the §4 candidate composition
  /// (label × registrable domain) as pure integer work.
  Interned with_prefix(NameRef ref, LabelId label);

  /// Batched with_prefix over one label: composes label.suffix for every
  /// suffix in order, appending each resulting ref to `out`, with one
  /// metrics update for the whole batch (the funnel composes hundreds of
  /// thousands per plan entry). Returns how many compositions were new to
  /// the pool.
  std::uint64_t with_prefix_batch(LabelId label, std::span<const NameRef> suffixes,
                                  std::vector<NameRef>& out);

  /// True if `name` equals `ancestor` or sits below it. Wait-free.
  [[nodiscard]] bool is_subdomain_of(NameRef name, NameRef ancestor) const;

  /// Unique names interned.
  [[nodiscard]] std::uint64_t size() const { return dedup_.size(); }

  /// Bytes held by the label table, the id arena and the dedup table.
  [[nodiscard]] std::size_t bytes_used() const {
    return labels_.bytes_used() + bytes_.load(std::memory_order_relaxed);
  }

  /// Distinct for every pool ever constructed. Caches keyed by pool
  /// identity must use this, not the pool's address: a destroyed pool's
  /// storage can be reused for a fresh pool at the same address, and ids
  /// cached against the old pool are meaningless in the new one.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  static constexpr std::size_t kIdsPerBlock = 1u << 16;
  static constexpr std::size_t kMaxBlocks = 1u << 13;  // up to ~536M label slots
  // A stripe claims arena slots from the shared blocks this many at a time.
  static constexpr std::size_t kRunIds = 1u << 12;

  /// A stripe's current run of arena slots, written only under that
  /// stripe's mutex.
  struct alignas(64) IdRun {
    std::uint32_t next = 0;
    std::uint32_t end = 0;
  };

  [[nodiscard]] static std::uint64_t hash_ids(std::span<const LabelId> ids);
  [[nodiscard]] bool ids_equal(std::uint32_t offset, std::span<const LabelId> ids) const;
  /// The name's ref, interning it on a miss; no metrics.
  Interned intern_hashed(std::uint64_t hash, std::span<const LabelId> ids);
  /// Appends [count][ids...] to stripe `stripe`'s run; returns the offset.
  std::uint32_t append_ids(std::size_t stripe, std::span<const LabelId> ids);
  std::uint32_t claim_run(std::size_t run);  // takes arena_mu_

  LabelTable labels_;

  // Flat LabelId arena, chunked so published entries never move. Each
  // name occupies count+1 contiguous slots: [count][ids...]; a NameRef's
  // offset points at ids[0] so the dedup index can store bare offsets.
  std::array<std::atomic<LabelId*>, kMaxBlocks> blocks_{};
  std::atomic<std::size_t> bytes_{0};
  detail::StripedIndex dedup_;  // value = ids-offset; the count sits at offset - 1
  std::array<IdRun, detail::StripedIndex::kStripes> runs_;

  // Guards the arena's bump pointer; a stripe takes it once per run.
  std::mutex arena_mu_;
  std::uint32_t arena_used_ = 0;

  const std::uint64_t generation_ = next_generation();
  [[nodiscard]] static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

}  // namespace ctwatch::namepool
