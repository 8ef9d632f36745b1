#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ctwatch/honeypot/analysis.hpp"
#include "ctwatch/honeypot/attackers.hpp"

namespace ctwatch::honeypot {
namespace {

sim::EcosystemOptions eco_options() {
  sim::EcosystemOptions options;
  options.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  options.verify_submissions = false;
  options.store_bodies = true;
  options.seed = 2024;
  return options;
}

class HoneypotTest : public ::testing::Test {
 protected:
  HoneypotTest() : ecosystem_(eco_options()), honeypot_(ecosystem_) {}
  sim::Ecosystem ecosystem_;
  CtHoneypot honeypot_;
};

TEST_F(HoneypotTest, SubdomainCreationLeaksOnlyViaCt) {
  const SimTime now = SimTime::parse("2018-04-12 14:16:14");
  const HoneypotDomain& domain = honeypot_.create_subdomain(now);

  EXPECT_EQ(domain.label.size(), 12u);
  EXPECT_EQ(domain.fqdn, domain.label + ".hp-parent.net");
  EXPECT_EQ(domain.ct_logged - now, honeypot_.options().validation_lead);

  // DNS records are live on the honeypot's own authoritative server.
  const dns::Zone* zone =
      honeypot_.dns_server().find_zone(dns::DnsName::parse_or_throw(domain.fqdn));
  ASSERT_NE(zone, nullptr);
  EXPECT_FALSE(zone->lookup(dns::DnsName::parse_or_throw(domain.fqdn), dns::RrType::A).empty());
  EXPECT_FALSE(
      zone->lookup(dns::DnsName::parse_or_throw(domain.fqdn), dns::RrType::AAAA).empty());

  // The precertificate reached the configured logs.
  bool found = false;
  for (const auto& entry : ecosystem_.log("Google Icarus").entries()) {
    for (const std::string& name : ct::entry_tbs(entry.signed_entry)->tbs.dns_names()) {
      if (name == domain.fqdn) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HoneypotTest, UniqueAddressesPerSubdomain) {
  const SimTime now = SimTime::parse("2018-04-12 14:00:00");
  std::set<std::string> v6;
  std::set<std::string> labels;
  for (int i = 0; i < 5; ++i) {
    const HoneypotDomain& domain = honeypot_.create_subdomain(now + i * 90);
    v6.insert(domain.aaaa_record.to_string());
    labels.insert(domain.label);
  }
  EXPECT_EQ(v6.size(), 5u);
  EXPECT_EQ(labels.size(), 5u);
}

TEST_F(HoneypotTest, ValidationQueriesPrecedeLogging) {
  const SimTime now = SimTime::parse("2018-04-12 14:16:14");
  const HoneypotDomain& domain = honeypot_.create_subdomain(now);
  bool saw_validation = false;
  for (const auto& entry : honeypot_.dns_server().log()) {
    if (entry.question.qname.to_string() != domain.fqdn) continue;
    EXPECT_EQ(entry.context.resolver_label, CtHoneypot::kValidationLabel);
    EXPECT_LT(entry.context.time, domain.ct_logged);
    saw_validation = true;
  }
  EXPECT_TRUE(saw_validation);
}

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() : ecosystem_(eco_options()), honeypot_(ecosystem_) {
    for (int i = 0; i < 4; ++i) {
      honeypot_.create_subdomain(SimTime::parse("2018-04-30 13:00:00") + i * 600);
    }
    AttackerFleet fleet(honeypot_, standard_fleet(), Rng(17));
    stats_ = fleet.run();
    report_ = analyze(honeypot_);
  }
  sim::Ecosystem ecosystem_;
  CtHoneypot honeypot_;
  FleetStats stats_;
  HoneypotReport report_;
};

TEST_F(FleetTest, EveryDomainIsQueriedWithinMinutes) {
  ASSERT_EQ(report_.rows.size(), 4u);
  for (const DomainTimeline& row : report_.rows) {
    ASSERT_TRUE(row.first_dns) << row.tag;
    EXPECT_GE(row.dns_delta, 60) << row.tag;    // paper: fastest 73s
    EXPECT_LE(row.dns_delta, 300) << row.tag;   // paper: ~3 minutes
    EXPECT_GE(row.query_count, 10u);
    EXPECT_GE(row.asn_count, 5u);
  }
}

TEST_F(FleetTest, ValidationQueriesAreFiltered) {
  EXPECT_GT(report_.queries_filtered_as_validation, 0u);
  // And never leak into per-domain counters: first DNS is after logging.
  for (const DomainTimeline& row : report_.rows) {
    EXPECT_GT(*row.first_dns, row.ct_entry);
  }
}

TEST_F(FleetTest, EcsUnmasksStubNetworks) {
  EXPECT_GE(report_.ecs_subnets.size(), 2u);
  // The Hetzner stub is the heaviest ECS user.
  const auto hetzner = report_.ecs_subnets.find("88.198.7.0/24");
  ASSERT_NE(hetzner, report_.ecs_subnets.end());
  for (const auto& [subnet, count] : report_.ecs_subnets) {
    EXPECT_LE(count, hetzner->second) << subnet;
  }
  EXPECT_GE(report_.ecs_subnets_with_connections, 1u);
}

TEST_F(FleetTest, PortScannerDetectedAndAttributed) {
  ASSERT_EQ(report_.port_scanners.size(), 1u);
  const PortScanFinding& scanner = report_.port_scanners[0];
  EXPECT_GE(scanner.distinct_ports, 30u);
  const auto origin = honeypot_.as_registry().origin(scanner.source);
  ASSERT_TRUE(origin);
  EXPECT_EQ(*origin, 29073u);  // Quasi Networks
  ASSERT_TRUE(honeypot_.as_registry().lookup(*origin));
  EXPECT_FALSE(honeypot_.as_registry().lookup(*origin)->honors_abuse);
}

TEST_F(FleetTest, NoIpv6ContactBeyondValidator) {
  EXPECT_EQ(report_.ipv6_contacts, 0u);
}

TEST_F(FleetTest, HttpConnectionsTrailDns) {
  for (const DomainTimeline& row : report_.rows) {
    if (!row.first_http) continue;
    EXPECT_GT(*row.first_http, *row.first_dns) << row.tag;
    EXPECT_GE(row.http_delta, 3000) << row.tag;  // paper: ~1-2 hours
    EXPECT_FALSE(row.http_asns.empty());
  }
}

TEST_F(FleetTest, FirstAsesAreStreamingMonitors) {
  // The first responders come from the streaming set the paper names.
  const std::set<net::Asn> streaming = {15169, 8560, 54054, 16509, 36692, 44050};
  for (const DomainTimeline& row : report_.rows) {
    ASSERT_FALSE(row.first_asns.empty());
    EXPECT_TRUE(streaming.contains(row.first_asns[0]))
        << row.tag << " first AS " << row.first_asns[0];
  }
}

TEST_F(FleetTest, RenderedTableHasOneRowPerDomain) {
  const std::string table = render_table4(report_);
  // Header + 4 rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);
  EXPECT_NE(table.find("CT log entry"), std::string::npos);
}

TEST(FleetConfigTest, StandardFleetShape) {
  const auto fleet = standard_fleet();
  // 6 streaming + DO + Amazon-legacy + 2 named stubs + 10 small stubs + 76 batch.
  EXPECT_GE(fleet.size(), 90u);
  std::size_t batch = 0, ecs = 0, scanners = 0;
  for (const auto& actor : fleet) {
    if (actor.mode == MonitorActorSpec::Mode::batch) ++batch;
    if (actor.via_google_dns) ++ecs;
    if (actor.scan_ports > 0) ++scanners;
  }
  EXPECT_EQ(batch, 76u);  // "76 other ASes"
  EXPECT_EQ(scanners, 1u);
  EXPECT_GE(ecs, 12u - 2u);
}

}  // namespace
}  // namespace ctwatch::honeypot
