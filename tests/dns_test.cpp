#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/dns/name.hpp"
#include "ctwatch/dns/psl.hpp"
#include "ctwatch/dns/resolver.hpp"
#include "ctwatch/dns/zone.hpp"
#include "ctwatch/util/rng.hpp"
#include "dns_oracle.hpp"

namespace ctwatch::dns {
namespace {

// ---------- names ----------

TEST(DnsNameTest, ParsesAndNormalizes) {
  const auto name = DnsName::parse("WWW.Example.COM");
  ASSERT_TRUE(name);
  EXPECT_EQ(name->to_string(), "www.example.com");
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->first_label(), "www");
}

TEST(DnsNameTest, AcceptsTrailingDot) {
  const auto name = DnsName::parse("example.org.");
  ASSERT_TRUE(name);
  EXPECT_EQ(name->to_string(), "example.org");
}

TEST(DnsNameTest, RejectsInvalidInputs) {
  EXPECT_FALSE(DnsName::parse(""));                      // empty
  EXPECT_FALSE(DnsName::parse("singlelabel"));           // one label
  EXPECT_FALSE(DnsName::parse("a..b.com"));              // empty label
  EXPECT_FALSE(DnsName::parse("-lead.example.com"));     // leading hyphen
  EXPECT_FALSE(DnsName::parse("trail-.example.com"));    // trailing hyphen
  EXPECT_FALSE(DnsName::parse("under_score.example.com"));  // underscore (default)
  EXPECT_FALSE(DnsName::parse("1.2.3.4"));               // numeric TLD (IP)
  EXPECT_FALSE(DnsName::parse("bad char.example.com"));  // space
  EXPECT_FALSE(DnsName::parse(std::string(64, 'a') + ".example.com"));  // label > 63
  EXPECT_FALSE(DnsName::parse(std::string(250, 'a') + ".example.com")); // name > 253
}

TEST(DnsNameTest, OptionsEnableWildcardAndUnderscore) {
  EXPECT_FALSE(DnsName::parse("*.example.com"));
  ParseOptions wildcard;
  wildcard.allow_wildcard = true;
  const auto w = DnsName::parse("*.example.com", wildcard);
  ASSERT_TRUE(w);
  EXPECT_EQ(w->first_label(), "*");
  // Wildcard only allowed leftmost.
  EXPECT_FALSE(DnsName::parse("foo.*.example.com", wildcard));

  ParseOptions underscore;
  underscore.allow_underscore = true;
  EXPECT_TRUE(DnsName::parse("_dmarc.example.com", underscore));
}

TEST(DnsNameTest, ParentAndSubdomainRelations) {
  const DnsName name = DnsName::parse_or_throw("a.b.example.co.uk");
  EXPECT_EQ(name.parent().to_string(), "b.example.co.uk");
  EXPECT_EQ(name.parent(2).to_string(), "example.co.uk");
  EXPECT_TRUE(name.is_subdomain_of(DnsName::parse_or_throw("example.co.uk")));
  EXPECT_TRUE(name.is_subdomain_of(name));
  EXPECT_FALSE(DnsName::parse_or_throw("example.co.uk").is_subdomain_of(name));
  EXPECT_FALSE(name.is_subdomain_of(DnsName::parse_or_throw("other.co.uk")));
  EXPECT_THROW((void)name.parent(6), std::out_of_range);
}

TEST(DnsNameTest, WithPrefixLabel) {
  const DnsName base = DnsName::parse_or_throw("example.org");
  EXPECT_EQ(base.with_prefix_label("www").to_string(), "www.example.org");
  EXPECT_THROW((void)base.with_prefix_label("bad label"), std::invalid_argument);
}

TEST(DnsNameTest, WithPrefixLabelAcceptsStringView) {
  const DnsName base = DnsName::parse_or_throw("example.org");
  const std::string_view prefix = "api";
  EXPECT_EQ(base.with_prefix_label(prefix).to_string(), "api.example.org");
  EXPECT_EQ(base.with_prefix_label("*").first_label(), "*");
}

// Regression: first_label() on the empty (root) name used to read
// labels_.front() of an empty vector — undefined behavior. It must return
// an empty view.
TEST(DnsNameTest, FirstLabelOnEmptyNameIsSafe) {
  const DnsName root;
  EXPECT_TRUE(root.empty());
  EXPECT_EQ(root.first_label(), std::string_view{});
  EXPECT_TRUE(root.first_label().empty());
}

TEST(DnsNameTest, ParseIntoMatchesParse) {
  namepool::NamePool pool;
  const char* cases[] = {"WWW.Example.COM", "a.b.example.co.uk", "example.org.",
                         "xn--idn.example", "a-b.c-d.io"};
  for (const char* text : cases) {
    const auto parsed = DnsName::parse(text);
    const auto ref = DnsName::parse_into(pool, text);
    ASSERT_TRUE(parsed && ref) << text;
    EXPECT_EQ(pool.to_string(*ref), parsed->to_string());
    EXPECT_EQ(DnsName::materialize(pool, *ref), *parsed);
    EXPECT_EQ(parsed->intern_into(pool), *ref);  // canonical: same ref back
  }
  // Rejections agree too.
  const char* bad[] = {"", "nolabel", "a..b.com", "-x.example.com", "1.2.3.4"};
  for (const char* text : bad) {
    EXPECT_FALSE(DnsName::parse(text)) << text;
    EXPECT_FALSE(DnsName::parse_into(pool, text)) << text;
  }
}

TEST(DnsNameTest, ParseOrThrowThrows) {
  EXPECT_THROW(DnsName::parse_or_throw("no"), std::invalid_argument);
  EXPECT_NO_THROW(DnsName::parse_or_throw("ok.example"));
}

// ---------- PSL ----------

class PslTest : public ::testing::Test {
 protected:
  PublicSuffixList psl_ = PublicSuffixList::bundled();
};

TEST_F(PslTest, SimpleSuffixes) {
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("www.example.com")), "com");
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("www.example.co.uk")), "co.uk");
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("a.b.site.gov.uk")), "gov.uk");
}

TEST_F(PslTest, SplitComputesRegistrableAndSubdomain) {
  const auto split = psl_.split(DnsName::parse_or_throw("www.dev.example.co.uk"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->public_suffix, "co.uk");
  EXPECT_EQ(split->registrable_domain, "example.co.uk");
  ASSERT_EQ(split->subdomain_labels.size(), 2u);
  EXPECT_EQ(split->subdomain_labels[0], "www");
  EXPECT_EQ(split->subdomain_labels[1], "dev");
  EXPECT_EQ(split->subdomain(), "www.dev");
}

TEST_F(PslTest, NameThatIsItselfASuffixHasNoSplit) {
  EXPECT_FALSE(psl_.split(DnsName::parse_or_throw("co.uk")));
  EXPECT_FALSE(psl_.split(DnsName::parse_or_throw("gov.uk")));
}

TEST_F(PslTest, UnknownTldUsesPrevailingRule) {
  // "*" prevailing rule: one label of suffix.
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("foo.bar.unknowntld")), "unknowntld");
  const auto split = psl_.split(DnsName::parse_or_throw("foo.bar.unknowntld"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->registrable_domain, "bar.unknowntld");
}

TEST_F(PslTest, WildcardRule) {
  // "*.ck": every direct child of ck is a public suffix.
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("shop.foo.ck")), "foo.ck");
  const auto split = psl_.split(DnsName::parse_or_throw("www.shop.foo.ck"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->registrable_domain, "shop.foo.ck");
}

TEST_F(PslTest, ExceptionRule) {
  // "!www.ck" overrides the wildcard: www.ck is registrable.
  const auto split = psl_.split(DnsName::parse_or_throw("mail.www.ck"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->public_suffix, "ck");
  EXPECT_EQ(split->registrable_domain, "www.ck");
}

TEST_F(PslTest, StringOverloadFiltersInvalidNames) {
  EXPECT_FALSE(psl_.split("not_valid..name"));
  EXPECT_TRUE(psl_.split("www.example.de"));
}

// Regression: the pooled-split rule cache was keyed by the NamePool's
// address. A fresh pool reusing a destroyed pool's heap address hit the
// stale cache, whose compiled label ids mean nothing in the new pool, and
// every multi-label suffix silently degraded to its last label
// ("co.uk" -> "uk"). The cache is keyed by NamePool::generation() now;
// the create/destroy loop makes address reuse overwhelmingly likely.
TEST_F(PslTest, PooledSplitSurvivesPoolReincarnation) {
  for (int round = 0; round < 16; ++round) {
    auto pool = std::make_unique<namepool::NamePool>();
    // A different number of padding labels per round shifts every label id,
    // so stale cached rule ids can never line up by coincidence.
    for (int i = 0; i <= round; ++i) pool->labels().intern("pad" + std::to_string(i));
    const auto ref = DnsName::parse_into(*pool, "www.example.co.uk");
    ASSERT_TRUE(ref);
    const auto split = psl_.split(*pool, *ref);
    ASSERT_TRUE(split) << "round " << round;
    EXPECT_EQ(pool->to_string(split->public_suffix), "co.uk") << "round " << round;
    EXPECT_EQ(pool->to_string(split->registrable_domain), "example.co.uk");
    EXPECT_EQ(split->subdomain_label_count, 1u);
  }
}

// Splits read the compiled-rule snapshot without locking. Two pools split
// at once from four threads, so the published snapshot flips between the
// pools while readers hold the other one; every split must still be right.
TEST(PslConcurrencyTest, SplitsOnTwoPoolsShareTheCompiledCache) {
  const PublicSuffixList psl = PublicSuffixList::bundled();
  namepool::NamePool pools[2];
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      namepool::NamePool& pool = pools[t % 2];
      for (int i = 0; i < 2000; ++i) {
        const std::string name = "h" + std::to_string(i) + ".example" + std::to_string(t) +
                                 (i % 2 == 0 ? ".co.uk" : ".com");
        const auto ref = DnsName::parse_into(pool, name);
        const auto split = ref ? psl.split(pool, *ref) : std::nullopt;
        if (!split || pool.to_string(split->public_suffix) != (i % 2 == 0 ? "co.uk" : "com") ||
            split->subdomain_label_count != 1) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(PslRuleTest, AddRuleRejectsMalformed) {
  PublicSuffixList psl;
  EXPECT_THROW(psl.add_rule(""), std::invalid_argument);
  EXPECT_THROW(psl.add_rule("!"), std::invalid_argument);
  EXPECT_THROW(psl.add_rule("bad label"), std::invalid_argument);
}

TEST(PslRuleTest, RulesTextSkipsCommentsAndBlanks) {
  PublicSuffixList psl;
  psl.add_rules_text("// comment\n\ncom\n  \nco.uk\r\n");
  EXPECT_EQ(psl.rule_count(), 2u);
}

// ---------- zones ----------

class ZoneTest : public ::testing::Test {
 protected:
  ZoneTest() : zone_(DnsName::parse_or_throw("example.org")) {}
  Zone zone_;
};

TEST_F(ZoneTest, ExactMatchLookup) {
  zone_.add(ResourceRecord{DnsName::parse_or_throw("www.example.org"), RrType::A, 300,
                           net::IPv4(192, 0, 2, 1)});
  const auto answers = zone_.lookup(DnsName::parse_or_throw("www.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].a(), net::IPv4(192, 0, 2, 1));
  EXPECT_TRUE(zone_.lookup(DnsName::parse_or_throw("other.example.org"), RrType::A).empty());
}

TEST_F(ZoneTest, TypeFiltering) {
  const DnsName name = DnsName::parse_or_throw("www.example.org");
  zone_.add(ResourceRecord{name, RrType::A, 300, net::IPv4(192, 0, 2, 1)});
  zone_.add(ResourceRecord{name, RrType::AAAA, 300, *net::IPv6::parse("2001:db8::1")});
  EXPECT_EQ(zone_.lookup(name, RrType::A).size(), 1u);
  EXPECT_EQ(zone_.lookup(name, RrType::AAAA).size(), 1u);
  EXPECT_TRUE(zone_.lookup(name, RrType::MX).empty());
}

TEST_F(ZoneTest, CnamePrecedesOtherTypes) {
  const DnsName name = DnsName::parse_or_throw("alias.example.org");
  zone_.add(ResourceRecord{name, RrType::CNAME, 300, DnsName::parse_or_throw("real.example.org")});
  const auto answers = zone_.lookup(name, RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].type, RrType::CNAME);
}

TEST_F(ZoneTest, WildcardSynthesis) {
  zone_.add(ResourceRecord{DnsName::parse_or_throw("*.example.org", {true, false}), RrType::A,
                           300, net::IPv4(192, 0, 2, 9)});
  const auto answers = zone_.lookup(DnsName::parse_or_throw("anything.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].name.to_string(), "anything.example.org");  // owner synthesized
}

TEST_F(ZoneTest, ExactBeatsWildcard) {
  zone_.add(ResourceRecord{DnsName::parse_or_throw("*.example.org", {true, false}), RrType::A,
                           300, net::IPv4(192, 0, 2, 9)});
  zone_.add(ResourceRecord{DnsName::parse_or_throw("www.example.org"), RrType::A, 300,
                           net::IPv4(192, 0, 2, 1)});
  const auto answers = zone_.lookup(DnsName::parse_or_throw("www.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].a(), net::IPv4(192, 0, 2, 1));
}

TEST_F(ZoneTest, DefaultACatchAll) {
  zone_.set_default_a(net::IPv4(203, 0, 113, 5));
  const auto answers =
      zone_.lookup(DnsName::parse_or_throw("zz9placeholder.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].a(), net::IPv4(203, 0, 113, 5));
  // Catch-all only answers A queries.
  EXPECT_TRUE(zone_.lookup(DnsName::parse_or_throw("zz9.example.org"), RrType::AAAA).empty());
}

TEST_F(ZoneTest, RejectsOutOfZoneRecords) {
  EXPECT_THROW(zone_.add(ResourceRecord{DnsName::parse_or_throw("www.other.org"), RrType::A, 300,
                                        net::IPv4(1, 2, 3, 4)}),
               std::invalid_argument);
}

// ---------- resolver ----------

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest() {
    Zone& zone = server_.add_zone(DnsName::parse_or_throw("example.org"));
    zone.add(ResourceRecord{DnsName::parse_or_throw("www.example.org"), RrType::A, 300,
                            net::IPv4(192, 0, 2, 1)});
    zone.add(ResourceRecord{DnsName::parse_or_throw("mail.example.org"), RrType::MX, 300,
                            DnsName::parse_or_throw("mx.example.org")});
    // CNAME chain of depth 3.
    zone.add(ResourceRecord{DnsName::parse_or_throw("a.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("b.example.org")});
    zone.add(ResourceRecord{DnsName::parse_or_throw("b.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("c.example.org")});
    zone.add(ResourceRecord{DnsName::parse_or_throw("c.example.org"), RrType::A, 300,
                            net::IPv4(192, 0, 2, 3)});
    // CNAME loop.
    zone.add(ResourceRecord{DnsName::parse_or_throw("loop1.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("loop2.example.org")});
    zone.add(ResourceRecord{DnsName::parse_or_throw("loop2.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("loop1.example.org")});
    universe_.add_server(server_);
    identity_.address = net::IPv4(8, 8, 8, 8);
    identity_.asn = 15169;
    identity_.label = "test-resolver";
  }

  AuthoritativeServer server_;
  DnsUniverse universe_;
  RecursiveResolver::Identity identity_;
  SimTime now_ = SimTime::parse("2018-04-27");
};

TEST_F(ResolverTest, ResolvesARecord) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result = resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::ok);
  EXPECT_EQ(result.first_a(), net::IPv4(192, 0, 2, 1));
}

TEST_F(ResolverTest, NxdomainForMissingName) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("missing.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::nxdomain);
  EXPECT_FALSE(result.first_a());
}

TEST_F(ResolverTest, NxdomainForForeignZone) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("www.unknown-zone.net"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::nxdomain);
}

TEST_F(ResolverTest, NoDataWhenTypeMissing) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("mail.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::no_data);
}

TEST_F(ResolverTest, FollowsCnameChain) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result = resolver.resolve(DnsName::parse_or_throw("a.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::ok);
  EXPECT_EQ(result.cname_hops, 2);
  EXPECT_EQ(result.first_a(), net::IPv4(192, 0, 2, 3));
}

TEST_F(ResolverTest, CnameLoopHitsHopLimit) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("loop1.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::chain_too_long);
}

TEST_F(ResolverTest, HopBudgetIsConfigurable) {
  const RecursiveResolver resolver(universe_, identity_);
  // The a->b->c chain needs 2 hops; a budget of 1 is insufficient.
  const auto tight = resolver.resolve(DnsName::parse_or_throw("a.example.org"), RrType::A, now_,
                                      std::nullopt, 1);
  EXPECT_EQ(tight.status, ResolveStatus::chain_too_long);
}

TEST_F(ResolverTest, QueriesAreLoggedWithContext) {
  const RecursiveResolver resolver(universe_, identity_);
  (void)resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_);
  ASSERT_FALSE(server_.log().empty());
  const QueryLogEntry& entry = server_.log().back();
  EXPECT_EQ(entry.question.qname.to_string(), "www.example.org");
  EXPECT_EQ(entry.context.resolver_asn, 15169u);
  EXPECT_EQ(entry.context.resolver_label, "test-resolver");
  EXPECT_TRUE(entry.answered);
  EXPECT_FALSE(entry.context.client_subnet);  // no ECS without sends_ecs
}

TEST_F(ResolverTest, EcsAttachedWhenEnabled) {
  RecursiveResolver::Identity ecs = identity_;
  ecs.sends_ecs = true;
  const RecursiveResolver resolver(universe_, ecs);
  (void)resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_,
                         net::IPv4(88, 198, 7, 33));
  const QueryLogEntry& entry = server_.log().back();
  ASSERT_TRUE(entry.context.client_subnet);
  EXPECT_EQ(entry.context.client_subnet->to_string(), "88.198.7.0/24");
}

TEST_F(ResolverTest, LoggingCanBeDisabled) {
  server_.set_logging(false);
  const RecursiveResolver resolver(universe_, identity_);
  (void)resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_);
  EXPECT_TRUE(server_.log().empty());
}

TEST(AuthoritativeServerTest, LongestOriginWins) {
  AuthoritativeServer server;
  server.add_zone(DnsName::parse_or_throw("example.org"));
  Zone& sub = server.add_zone(DnsName::parse_or_throw("sub.example.org"));
  sub.add(ResourceRecord{DnsName::parse_or_throw("www.sub.example.org"), RrType::A, 300,
                         net::IPv4(10, 0, 0, 1)});
  const Zone* found = server.find_zone(DnsName::parse_or_throw("www.sub.example.org"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->origin().to_string(), "sub.example.org");
}

// ---------- differential: suffix-view lookups vs the string-keyed oracle ----------

constexpr std::array<RrType, 7> kAllTypes = {RrType::A,  RrType::AAAA, RrType::CNAME, RrType::MX,
                                             RrType::NS, RrType::SOA,  RrType::TXT};

/// Seeded random DNS: zones with multi-label and nested origins spread
/// over two servers (one origin on both), exact records of every type,
/// "*" wildcards at several depths, default-A catch-alls and CNAMEs
/// between random names (so chains, loops and dangling targets occur).
/// Every record goes into the real structures and the oracle alike.
class DnsDifferential {
 public:
  explicit DnsDifferential(std::uint64_t seed) : rng_(seed) {
    universe_.add_server(servers_[0]);
    universe_.add_server(servers_[1]);
    oracle_universe_.add_server(oracle_servers_[0]);
    oracle_universe_.add_server(oracle_servers_[1]);
    const std::vector<std::string> origins = {"example.com",   "a.example.com", "gov.uk",
                                              "service.gov.uk", "co.jp",        "shop.co.jp",
                                              "example.org"};
    for (std::size_t z = 0; z < origins.size(); ++z) {
      const DnsName origin = DnsName::parse_or_throw(origins[z]);
      // example.org lives on both servers: the later server must win.
      const std::vector<std::size_t> on = z + 1 == origins.size()
                                              ? std::vector<std::size_t>{0, 1}
                                              : std::vector<std::size_t>{rng_.below(2)};
      for (const std::size_t s : on) {
        Zone& zone = servers_[s].add_zone(origin);
        oracle::OracleZone& oracle_zone = oracle_servers_[s].add_zone(origin);
        if (rng_.chance(0.3)) {
          const net::IPv4 catch_all(10, 9, static_cast<std::uint8_t>(z), 1);
          zone.set_default_a(catch_all);
          oracle_zone.set_default_a(catch_all);
        }
        for (int r = 0; r < 14; ++r) {
          DnsName owner = below(origin, rng_.below(3));
          if (rng_.chance(0.3)) owner = owner.with_prefix_label("*");
          const ResourceRecord record = random_record(owner);
          zone.add(record);
          oracle_zone.add(record);
        }
      }
    }
  }

  /// A random query name: below an origin, above one (down to its TLD),
  /// or outside every zone; sometimes led by a literal "*".
  DnsName random_name() {
    static const std::vector<std::string> bases = {
        "example.com", "a.example.com", "gov.uk",      "service.gov.uk", "co.jp",
        "shop.co.jp",  "example.org",   "example.net", "other.org"};
    DnsName base = DnsName::parse_or_throw(bases[rng_.below(bases.size())]);
    if (rng_.chance(0.15)) base = base.parent(rng_.below(base.label_count()));
    DnsName name = below(base, rng_.below(4));
    if (rng_.chance(0.1)) name = name.with_prefix_label("*");
    return name;
  }

  Rng& rng() { return rng_; }
  const DnsUniverse& universe() const { return universe_; }
  const oracle::OracleUniverse& oracle_universe() const { return oracle_universe_; }
  const AuthoritativeServer& server(std::size_t s) const { return servers_[s]; }
  const oracle::OracleServer& oracle_server(std::size_t s) const { return oracle_servers_[s]; }

 private:
  DnsName below(DnsName name, std::uint64_t depth) {
    static const std::vector<std::string> labels = {"a", "b", "www", "mail", "x-1"};
    for (std::uint64_t i = 0; i < depth; ++i) {
      name = name.with_prefix_label(labels[rng_.below(labels.size())]);
    }
    return name;
  }

  ResourceRecord random_record(const DnsName& owner) {
    const RrType type = kAllTypes[rng_.below(kAllTypes.size())];
    const auto octet = [&] { return static_cast<std::uint8_t>(rng_.below(256)); };
    RData data;
    switch (type) {
      case RrType::A: data = net::IPv4(10, 0, octet(), octet()); break;
      case RrType::AAAA:
        data = net::IPv6::from_hextets({0x2001, 0xdb8, 0, 0, 0, 0, 0, octet()});
        break;
      case RrType::CNAME:
      case RrType::MX:
      case RrType::NS: data = random_name(); break;
      case RrType::SOA:
      case RrType::TXT: data = "text-" + std::to_string(octet()); break;
    }
    return ResourceRecord{owner, type, static_cast<std::uint32_t>(60 + rng_.below(600)), data};
  }

  Rng rng_;
  AuthoritativeServer servers_[2];
  oracle::OracleServer oracle_servers_[2];
  DnsUniverse universe_;
  oracle::OracleUniverse oracle_universe_;
};

void expect_same_records(const std::vector<ResourceRecord>& got,
                         const std::vector<ResourceRecord>& want, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << context;
    EXPECT_EQ(got[i].type, want[i].type) << context;
    EXPECT_EQ(got[i].ttl, want[i].ttl) << context;
    EXPECT_TRUE(got[i].data == want[i].data) << context;
  }
}

TEST(DnsDifferentialTest, ZoneLookupAndFindZoneMatchTheStringKeyedOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DnsDifferential dns(seed);
    for (int q = 0; q < 300; ++q) {
      const DnsName name = dns.random_name();
      for (std::size_t s = 0; s < 2; ++s) {
        const Zone* zone = dns.server(s).find_zone(name);
        const oracle::OracleZone* want = dns.oracle_server(s).find_zone(name);
        const std::string context = "seed " + std::to_string(seed) + " " + name.to_string();
        ASSERT_EQ(zone == nullptr, want == nullptr) << context;
        if (zone == nullptr) continue;
        ASSERT_EQ(zone->origin(), want->origin()) << context;
        for (const RrType type : kAllTypes) {
          expect_same_records(zone->lookup(name, type), want->lookup(name, type),
                              context + " " + to_string(type));
        }
      }
    }
  }
}

TEST(DnsDifferentialTest, ResolveMatchesTheStringKeyedOracle) {
  std::size_t by_status[6] = {};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DnsDifferential dns(seed);
    const RecursiveResolver resolver(dns.universe(),
                                     RecursiveResolver::Identity{net::IPv4(192, 0, 2, 1), 64500,
                                                                 "differential", false});
    for (int q = 0; q < 300; ++q) {
      const DnsName name = dns.random_name();
      const int hops = static_cast<int>(dns.rng().below(4));
      for (const RrType type : kAllTypes) {
        const ResolveResult got = resolver.resolve(name, type, SimTime{}, std::nullopt, hops);
        const ResolveResult want = oracle::oracle_resolve(dns.oracle_universe(), name, type, hops);
        const std::string context = "seed " + std::to_string(seed) + " " + name.to_string() +
                                    " " + to_string(type);
        ASSERT_EQ(got.status, want.status) << context;
        EXPECT_EQ(got.cname_hops, want.cname_hops) << context;
        expect_same_records(got.answers, want.answers, context);
        ++by_status[static_cast<std::size_t>(got.status)];
      }
    }
  }
  // The random DNS reaches every non-chaos outcome, each many times.
  for (const ResolveStatus status : {ResolveStatus::ok, ResolveStatus::nxdomain,
                                     ResolveStatus::no_data, ResolveStatus::chain_too_long}) {
    EXPECT_GT(by_status[static_cast<std::size_t>(status)], 100u);
  }
}

}  // namespace
}  // namespace ctwatch::dns
