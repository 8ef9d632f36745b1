#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "ctwatch/dns/name.hpp"
#include "ctwatch/namepool/namepool.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch::namepool {
namespace {

// ---------- LabelTable ----------

TEST(LabelTableTest, InternDeduplicates) {
  LabelTable table;
  const LabelId www = table.intern("www");
  const LabelId mail = table.intern("mail");
  EXPECT_NE(www, mail);
  EXPECT_EQ(table.intern("www"), www);
  EXPECT_EQ(table.intern("mail"), mail);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.text(www), "www");
  EXPECT_EQ(table.text(mail), "mail");
}

TEST(LabelTableTest, FindDoesNotIntern) {
  LabelTable table;
  EXPECT_FALSE(table.find("absent"));
  EXPECT_EQ(table.size(), 0u);
  const LabelId id = table.intern("present");
  const auto found = table.find("present");
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, id);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LabelTableTest, IdsAreDenseFromZero) {
  LabelTable table;
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.intern("label-" + std::to_string(i)), i);
  }
}

TEST(LabelTableTest, SurvivesIndexGrowth) {
  LabelTable table;
  std::vector<std::string_view> views;
  // Enough strings to force several rehashes and multiple arena chunks.
  for (int i = 0; i < 20000; ++i) {
    views.push_back(table.text(table.intern("the-" + std::to_string(i) + "-label")));
  }
  // Earlier views must still be valid (arena addresses never move).
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(views[static_cast<std::size_t>(i)], "the-" + std::to_string(i) + "-label");
  }
  EXPECT_EQ(table.size(), 20000u);
  EXPECT_GT(table.bytes_used(), 0u);
}

TEST(LabelTableTest, InternsEmptyAndLongStrings) {
  LabelTable table;
  const LabelId empty = table.intern("");
  EXPECT_EQ(table.text(empty), "");
  const std::string big(100000, 'x');  // larger than the minimum arena chunk
  const LabelId big_id = table.intern(big);
  EXPECT_EQ(table.text(big_id), big);
  EXPECT_EQ(table.intern(big), big_id);
}

// ---------- NamePool: interning semantics ----------

TEST(NamePoolTest, InternTextDeduplicates) {
  NamePool pool;
  const auto first = pool.intern_text("www.example.com");
  EXPECT_TRUE(first.fresh);
  const auto again = pool.intern_text("www.example.com");
  EXPECT_FALSE(again.fresh);
  EXPECT_EQ(first.ref, again.ref);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.to_string(first.ref), "www.example.com");
}

TEST(NamePoolTest, DistinctNamesGetDistinctRefs) {
  NamePool pool;
  const auto a = pool.intern_text("www.example.com");
  const auto b = pool.intern_text("mail.example.com");
  const auto c = pool.intern_text("example.com");
  EXPECT_NE(a.ref, b.ref);
  EXPECT_NE(a.ref, c.ref);
  EXPECT_NE(b.ref, c.ref);
  EXPECT_EQ(pool.size(), 3u);
  // Shared labels are stored once.
  EXPECT_EQ(pool.labels().size(), 4u);  // www, mail, example, com
}

TEST(NamePoolTest, EmptyNameIsTheNullRef) {
  NamePool pool;
  const auto empty = pool.intern_ids({});
  EXPECT_TRUE(empty.ref.empty());
  EXPECT_EQ(empty.ref, NameRef{});
  EXPECT_FALSE(empty.fresh);
  EXPECT_EQ(pool.to_string(empty.ref), "");
  EXPECT_EQ(pool.size(), 0u);
}

TEST(NamePoolTest, FindIdsDoesNotIntern) {
  NamePool pool;
  const LabelId a = pool.labels().intern("a");
  const LabelId b = pool.labels().intern("b");
  const LabelId ids[] = {a, b};
  EXPECT_FALSE(pool.find_ids(ids));
  EXPECT_EQ(pool.size(), 0u);
  const auto ref = pool.intern_ids(ids).ref;
  const auto found = pool.find_ids(ids);
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, ref);
}

TEST(NamePoolTest, IdsSpanAndLabelAccessors) {
  NamePool pool;
  const auto ref = pool.intern_text("a.b.c.example.org").ref;
  const auto ids = pool.ids(ref);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(pool.label(ref, 0), "a");
  EXPECT_EQ(pool.label(ref, 4), "org");
  std::string out = "prefix:";
  pool.append_to(out, ref);
  EXPECT_EQ(out, "prefix:a.b.c.example.org");
}

// ---------- NameRef hash/equality vs DnsName equality ----------

TEST(NamePoolTest, RefEqualityMatchesDnsNameEquality) {
  NamePool pool;
  const std::vector<std::string> corpus = {
      "www.example.com", "www.example.com.", "WWW.EXAMPLE.COM", "mail.example.com",
      "example.com",     "www.example.org",  "a.b.example.com",
  };
  for (const std::string& left : corpus) {
    for (const std::string& right : corpus) {
      const auto left_name = dns::DnsName::parse(left);
      const auto right_name = dns::DnsName::parse(right);
      ASSERT_TRUE(left_name && right_name);
      const auto left_ref = dns::DnsName::parse_into(pool, left);
      const auto right_ref = dns::DnsName::parse_into(pool, right);
      ASSERT_TRUE(left_ref && right_ref);
      EXPECT_EQ(*left_name == *right_name, *left_ref == *right_ref)
          << left << " vs " << right;
      if (*left_ref == *right_ref) {
        EXPECT_EQ(NameRefHash{}(*left_ref), NameRefHash{}(*right_ref));
      }
    }
  }
}

// ---------- parent / with_prefix / is_subdomain_of parity ----------

TEST(NamePoolTest, ParentParityWithDnsName) {
  NamePool pool;
  const dns::DnsName name = dns::DnsName::parse_or_throw("a.b.example.co.uk");
  const NameRef ref = name.intern_into(pool);
  for (std::size_t n = 0; n <= name.label_count(); ++n) {
    EXPECT_EQ(pool.to_string(pool.parent(ref, n)), name.parent(n).to_string()) << n;
  }
  // Dropping everything yields the empty ref.
  EXPECT_TRUE(pool.parent(ref, name.label_count()).empty());
}

TEST(NamePoolTest, WithPrefixParityWithDnsName) {
  NamePool pool;
  const dns::DnsName base = dns::DnsName::parse_or_throw("example.org");
  const NameRef base_ref = base.intern_into(pool);
  const LabelId www = pool.labels().intern("www");
  const auto composed = pool.with_prefix(base_ref, www);
  EXPECT_EQ(pool.to_string(composed.ref), base.with_prefix_label("www").to_string());
  // Composing again is a pure dedup hit.
  const auto again = pool.with_prefix(base_ref, www);
  EXPECT_FALSE(again.fresh);
  EXPECT_EQ(again.ref, composed.ref);
  // Matches interning the textual form.
  EXPECT_EQ(pool.intern_text("www.example.org").ref, composed.ref);
}

TEST(NamePoolTest, SubdomainParityWithDnsName) {
  NamePool pool;
  const std::vector<std::string> corpus = {
      "a.b.example.co.uk", "b.example.co.uk", "example.co.uk",
      "other.co.uk",       "co.uk",           "a.b.example.com",
  };
  for (const std::string& child : corpus) {
    for (const std::string& ancestor : corpus) {
      const dns::DnsName child_name = dns::DnsName::parse_or_throw(child);
      const dns::DnsName anc_name = dns::DnsName::parse_or_throw(ancestor);
      const NameRef child_ref = child_name.intern_into(pool);
      const NameRef anc_ref = anc_name.intern_into(pool);
      EXPECT_EQ(pool.is_subdomain_of(child_ref, anc_ref),
                child_name.is_subdomain_of(anc_name))
          << child << " under " << ancestor;
    }
  }
}

// ---------- property: parse -> ref -> to_string round trip ----------

TEST(NamePoolPropertyTest, RandomNamesRoundTrip) {
  NamePool pool;
  Rng rng(0x9e3779b97f4a7c15ull);
  for (int i = 0; i < 5000; ++i) {
    // Compose names from a small label alphabet so duplicates are common.
    std::string text;
    const int labels = 2 + static_cast<int>(rng.below(4));
    for (int l = 0; l < labels; ++l) {
      if (l > 0) text.push_back('.');
      switch (rng.below(3)) {
        case 0: text += "www"; break;
        case 1: text += rng.alnum_label(1 + rng.below(12)); break;
        default: text += "example"; break;
      }
    }
    text += ".com";
    const auto parsed = dns::DnsName::parse(text);
    const auto ref = dns::DnsName::parse_into(pool, text);
    ASSERT_EQ(parsed.has_value(), ref.has_value()) << text;
    if (!parsed) continue;
    EXPECT_EQ(pool.to_string(*ref), parsed->to_string());
    EXPECT_EQ(dns::DnsName::materialize(pool, *ref), *parsed);
    // Re-interning canonicalizes to the same ref.
    EXPECT_EQ(parsed->intern_into(pool), *ref);
  }
  // Dedup means far fewer stored names than inputs.
  EXPECT_LT(pool.size(), 5000u);
}

// ---------- growth & accounting ----------

TEST(NamePoolTest, BytesUsedGrowsAndIsReported) {
  NamePool pool;
  EXPECT_EQ(pool.bytes_used(), 0u);
  std::size_t last = 0;
  for (int i = 0; i < 10000; ++i) {
    pool.intern_text("host-" + std::to_string(i) + ".tier-" + std::to_string(i % 7) +
                     ".example.net");
    EXPECT_GE(pool.bytes_used(), last);
    last = pool.bytes_used();
  }
  EXPECT_EQ(pool.size(), 10000u);
  EXPECT_GT(pool.bytes_used(), 0u);
  // Interning duplicates must not grow the footprint.
  const std::size_t before = pool.bytes_used();
  for (int i = 0; i < 10000; ++i) {
    pool.intern_text("host-" + std::to_string(i) + ".tier-" + std::to_string(i % 7) +
                     ".example.net");
  }
  EXPECT_EQ(pool.bytes_used(), before);
  EXPECT_EQ(pool.size(), 10000u);
}

TEST(NamePoolTest, ObsGaugesTrackPoolLifetime) {
  auto& registry = obs::Registry::global();
  const std::int64_t bytes_before = registry.gauge("namepool.bytes").value();
  const std::int64_t names_before = registry.gauge("namepool.names").value();
  {
    NamePool pool;
    for (int i = 0; i < 1000; ++i) {
      pool.intern_text("gauge-" + std::to_string(i) + ".example.org");
    }
    EXPECT_GE(registry.gauge("namepool.bytes").value(),
              bytes_before + static_cast<std::int64_t>(pool.bytes_used()));
    EXPECT_EQ(registry.gauge("namepool.names").value(), names_before + 1000);
  }
  // Destruction returns the gauges to their prior level.
  EXPECT_EQ(registry.gauge("namepool.bytes").value(), bytes_before);
  EXPECT_EQ(registry.gauge("namepool.names").value(), names_before);
}

// ---------- concurrency (the TSAN target) ----------

// One writer keeps interning; readers consume published refs concurrently
// through the wait-free paths (ids/text/to_string/is_subdomain_of) and the
// mutex-guarded find_ids.
TEST(NamePoolConcurrencyTest, ReadMostlyLookupWhileInterning) {
  NamePool pool;
  constexpr int kNames = 20000;
  std::vector<NameRef> published(kNames);
  std::atomic<int> published_count{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (int i = 0; i < kNames; ++i) {
      const auto interned =
          pool.intern_text("w" + std::to_string(i % 512) + ".host-" + std::to_string(i) +
                           ".example.com");
      published[static_cast<std::size_t>(i)] = interned.ref;
      published_count.store(i + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> checks{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int count = published_count.load(std::memory_order_acquire);
        for (int i = 0; i < count; i += 97) {
          const NameRef ref = published[static_cast<std::size_t>(i)];
          const auto ids = pool.ids(ref);
          if (ids.empty()) continue;
          local += pool.labels().text(ids[0]).size();
          local += pool.to_string(ref).size();
          local += pool.is_subdomain_of(ref, pool.find_ids(ids.subspan(1)).value_or(NameRef{}))
                       ? 1
                       : 0;
        }
        if (count == kNames) break;
      }
      checks.fetch_add(local, std::memory_order_relaxed);
    });
  }

  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(pool.size(), static_cast<std::uint64_t>(kNames));
  EXPECT_GT(checks.load(), 0u);
}

// Four threads intern the same label and name sets in different orders,
// so every name is a miss on one thread and a hit on three, and hits race
// misses on every stripe while both indexes grow several times over (each
// stripe starts at 64 slots; ~190 labels and 750 names land per stripe).
// Afterwards every name must have one canonical ref, lookups and text
// must agree with it, and the sizes, gauges and counters must be exact.
TEST(NamePoolConcurrencyTest, ConcurrentInternIsCanonicalAcrossGrowth) {
  constexpr std::size_t kNames = 12000;
  constexpr std::size_t kHosts = 3000;
  constexpr std::size_t kThreads = 4;
  // Name i: h<i % 3000>.d<i / 3000>[.tld<i % 7>] — the (h, d) pair is
  // unique per i, every fifth name has no tld label.
  const auto name_labels = [](std::size_t i) {
    std::vector<std::string> labels = {"h" + std::to_string(i % kHosts),
                                       "d" + std::to_string(i / kHosts)};
    if (i % 5 != 0) labels.push_back("tld" + std::to_string(i % 7));
    return labels;
  };
  const std::size_t distinct_labels = kHosts + kNames / kHosts + 7;
  std::size_t label_calls = 0;
  for (std::size_t i = 0; i < kNames; ++i) label_calls += kThreads * name_labels(i).size();

  auto& registry = obs::Registry::global();
  const std::int64_t names_gauge = registry.gauge("namepool.names").value();
  const std::int64_t labels_gauge = registry.gauge("namepool.labels").value();
  const std::int64_t bytes_gauge = registry.gauge("namepool.bytes").value();
  const std::uint64_t label_hits = registry.counter("namepool.label_intern.hits").value();
  const std::uint64_t name_hits = registry.counter("namepool.name_intern.hits").value();
  const std::uint64_t name_misses = registry.counter("namepool.name_intern.misses").value();
  {
    NamePool pool;
    std::vector<std::vector<NameRef>> refs(kThreads, std::vector<NameRef>(kNames));
    std::atomic<std::size_t> lookup_mismatches{0};
    std::vector<std::thread> threads;
    constexpr std::size_t kStrides[kThreads] = {1, 7, 11, 13};  // coprime with kNames
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < kNames; ++k) {
          const std::size_t i = (k * kStrides[t] + t * 997) % kNames;
          const std::vector<std::string> labels = name_labels(i);
          std::vector<LabelId> ids;
          for (const std::string& label : labels) ids.push_back(pool.labels().intern(label));
          // Half the threads go through the text entry point, which
          // interns the same labels again on its own.
          NameRef ref;
          if (t % 2 == 0) {
            ref = pool.intern_ids(ids).ref;
          } else {
            std::string dotted = labels[0];
            for (std::size_t j = 1; j < labels.size(); ++j) dotted += "." + labels[j];
            ref = pool.intern_text(dotted).ref;
          }
          refs[t][i] = ref;
          if (pool.find_ids(ids) != ref || pool.labels().find(labels[0]) != ids[0]) {
            lookup_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    // intern_text threads interned every label twice.
    label_calls += (kThreads / 2) * (label_calls / kThreads);

    EXPECT_EQ(lookup_mismatches.load(), 0u);
    std::unordered_set<NameRef, NameRefHash> distinct;
    for (std::size_t i = 0; i < kNames; ++i) {
      for (std::size_t t = 1; t < kThreads; ++t) ASSERT_EQ(refs[t][i], refs[0][i]) << i;
      distinct.insert(refs[0][i]);
      const std::vector<std::string> labels = name_labels(i);
      std::string dotted = labels[0];
      for (std::size_t j = 1; j < labels.size(); ++j) dotted += "." + labels[j];
      ASSERT_EQ(pool.to_string(refs[0][i]), dotted);
      std::vector<LabelId> ids;
      for (const std::string& label : labels) {
        const auto id = pool.labels().find(label);
        ASSERT_TRUE(id);
        ASSERT_EQ(pool.labels().text(*id), label);
        ids.push_back(*id);
      }
      ASSERT_EQ(pool.find_ids(ids), refs[0][i]);
    }
    EXPECT_EQ(distinct.size(), kNames);
    EXPECT_EQ(pool.size(), kNames);
    EXPECT_EQ(pool.labels().size(), distinct_labels);
    for (LabelId id = 0; id < pool.labels().size(); ++id) {
      EXPECT_EQ(pool.labels().find(pool.labels().text(id)), id);
    }

    EXPECT_EQ(registry.gauge("namepool.names").value(),
              names_gauge + static_cast<std::int64_t>(kNames));
    EXPECT_EQ(registry.gauge("namepool.labels").value(),
              labels_gauge + static_cast<std::int64_t>(distinct_labels));
    EXPECT_EQ(registry.gauge("namepool.bytes").value(),
              bytes_gauge + static_cast<std::int64_t>(pool.bytes_used()));
    EXPECT_EQ(registry.counter("namepool.name_intern.misses").value(), name_misses + kNames);
    EXPECT_EQ(registry.counter("namepool.name_intern.hits").value(),
              name_hits + (kThreads - 1) * kNames);
    EXPECT_EQ(registry.counter("namepool.label_intern.hits").value(),
              label_hits + label_calls - distinct_labels);
  }
  EXPECT_EQ(registry.gauge("namepool.names").value(), names_gauge);
  EXPECT_EQ(registry.gauge("namepool.labels").value(), labels_gauge);
  EXPECT_EQ(registry.gauge("namepool.bytes").value(), bytes_gauge);
}

}  // namespace
}  // namespace ctwatch::namepool
