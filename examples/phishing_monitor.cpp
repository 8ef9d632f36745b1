// A brand-protection service built on CT (the §5 scenario, and what
// Facebook's/CertSpotter's notification tools do): follow the logs live via
// a log subscription (the CertStream primitive), check every new
// certificate's DNS names against brand rules, and alert on lookalikes —
// while never flagging the brand's real infrastructure.
//
// Build & run:  ./build/examples/phishing_monitor
#include <cstdio>

#include "ctwatch/phishing/detector.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/sim/phishing_gen.hpp"

using namespace ctwatch;

int main() {
  // A log and a CA issuing into it.
  ct::LogConfig config;
  config.name = "Watched Log";
  config.operator_name = "Example";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  ct::CtLog log(config);
  sim::CertificateAuthority ca("Budget CA", "Budget DV CA",
                               crypto::SignatureScheme::hmac_sha256_simulated);

  // The brand-protection backend: log subscription -> name extraction -> detector.
  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  phishing::PhishingDetector detector(psl, phishing::standard_rules());
  std::uint64_t alerts = 0;
  std::uint64_t seen = 0;

  log.subscribe([&](const ct::CtLog&, const ct::LogEntry& entry) {
    ++seen;
    const auto names = ct::entry_tbs(entry.signed_entry)->tbs.dns_names();
    const auto findings = detector.scan(names);
    for (const auto& finding : findings) {
      ++alerts;
      std::printf("ALERT [%s] lookalike certificate: %s (suffix .%s)\n",
                  finding.brand.c_str(), finding.fqdn.c_str(), finding.public_suffix.c_str());
    }
  });

  // Issuance mix: mostly benign, a few phish, plus legitimate brand certs
  // that must NOT alert.
  SimTime now = SimTime::parse("2018-04-20 09:00:00");
  auto issue = [&](const std::string& fqdn) {
    sim::IssuanceRequest request;
    request.subject_cn = fqdn;
    request.sans = {x509::SanEntry::dns(fqdn)};
    request.not_before = now;
    request.not_after = now + 90 * 86400;
    request.logs = {&log};
    ca.issue(request, now);
    now += 60;
  };

  issue("blog.cooking-club.org");
  issue("www.paypal.com");                         // legitimate: no alert
  issue("paypal.com-account-verify.1uok3bd2.ml");  // phish
  issue("shop.flower-store.de");
  issue("appleid.apple.com-signin.h77arq0x.gq");   // phish
  issue("login.live.com");                         // legitimate: no alert
  issue("www-hotmail-login.live");                 // phish
  issue("api.weather-widgets.io");

  std::printf("\nprocessed %llu new log entries, raised %llu alerts "
              "(expected 3; legitimate brand certs stayed quiet)\n",
              static_cast<unsigned long long>(seen), static_cast<unsigned long long>(alerts));
  return alerts == 3 ? 0 : 1;
}
