#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "design/builder.hpp"
#include "device/tiles.hpp"
#include "synth/ip_library.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace prpart::analysis {
namespace {

bool has_code(const std::vector<Diagnostic>& diagnostics,
              const std::string& code) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& find_code(const std::vector<Diagnostic>& diagnostics,
                            const std::string& code) {
  for (const Diagnostic& d : diagnostics)
    if (d.code == code) return d;
  throw std::runtime_error("diagnostic not found: " + code);
}

Design clean_design() {
  return DesignBuilder("clean")
      .static_base({90, 8, 0})
      .module("A", {{"A1", {100, 0, 0}}, {"A2", {200, 0, 4}}})
      .module("B", {{"B1", {300, 2, 0}}, {"B2", {50, 0, 0}}})
      .configuration({{"A", "A1"}, {"B", "B1"}})
      .configuration({{"A", "A2"}, {"B", "B2"}})
      .build();
}

TEST(AnalyzerTest, CleanDesignHasNoDiagnostics) {
  const AnalysisResult result = analyze_design(clean_design());
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_FALSE(result.proof.has_value());
  EXPECT_FALSE(result.has_errors());
}

TEST(AnalyzerTest, DetectsDeadMode) {
  const Design d = DesignBuilder("dead")
                       .module("A", {{"A1", {100, 0, 0}}, {"A2", {200, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}})
                       .configuration({{"A", "A1"}, {"B", "B1"}})
                       .configuration({{"A", "A1"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "dead-mode"));
  const Diagnostic& diag = find_code(result.diagnostics, "dead-mode");
  EXPECT_EQ(diag.severity, Severity::Warning);
  EXPECT_NE(diag.message.find("A2"), std::string::npos);
  EXPECT_FALSE(diag.fixit.empty());
}

TEST(AnalyzerTest, DetectsUnusedModule) {
  const Design d = DesignBuilder("unused")
                       .module("A", {{"A1", {100, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "unused-module"));
  EXPECT_NE(find_code(result.diagnostics, "unused-module").message.find("B"),
            std::string::npos);
  // Its modes are dead too.
  EXPECT_TRUE(has_code(result.diagnostics, "dead-mode"));
}

TEST(AnalyzerTest, DetectsAlwaysOnMode) {
  const Design d = DesignBuilder("always")
                       .module("A", {{"A1", {100, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}, {"B2", {60, 0, 0}}})
                       .configuration({{"A", "A1"}, {"B", "B1"}})
                       .configuration({{"A", "A1"}, {"B", "B2"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "always-on-mode"));
  const Diagnostic& diag = find_code(result.diagnostics, "always-on-mode");
  EXPECT_EQ(diag.severity, Severity::Info);
  EXPECT_NE(diag.fixit.find("<static>"), std::string::npos);
}

TEST(AnalyzerTest, ZeroAreaModeFlaggedUnlessNamedNone) {
  const Design flagged = DesignBuilder("zero")
                             .module("A", {{"Empty", {0, 0, 0}}})
                             .module("B", {{"B1", {50, 0, 0}}})
                             .configuration({{"A", "Empty"}, {"B", "B1"}})
                             .build();
  EXPECT_TRUE(has_code(analyze_design(flagged).diagnostics, "zero-area-mode"));

  const Design tolerated = DesignBuilder("zero")
                               .module("A", {{"Bypass", {0, 0, 0}}})
                               .module("B", {{"B1", {50, 0, 0}}})
                               .configuration({{"A", "Bypass"}, {"B", "B1"}})
                               .build();
  EXPECT_FALSE(
      has_code(analyze_design(tolerated).diagnostics, "zero-area-mode"));
}

TEST(AnalyzerTest, DetectsDuplicateModes) {
  const Design d = DesignBuilder("dup")
                       .module("A", {{"A1", {100, 4, 0}}, {"A2", {100, 4, 0}}})
                       .configuration({{"A", "A1"}})
                       .configuration({{"A", "A2"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "duplicate-modes"));
  EXPECT_EQ(find_code(result.diagnostics, "duplicate-modes").severity,
            Severity::Info);
}

TEST(AnalyzerTest, OversizedModeWarnsAgainstTheLibrary) {
  const Design d = DesignBuilder("huge")
                       .module("A", {{"A1", {100000, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "oversized-mode"));
  EXPECT_EQ(find_code(result.diagnostics, "oversized-mode").severity,
            Severity::Warning);
  // No device in the family can hold it, so the library-wide proof fires
  // with no fitting witness.
  ASSERT_TRUE(result.proof.has_value());
  EXPECT_TRUE(result.proof->smallest_fitting_device.empty());
  EXPECT_TRUE(has_code(result.diagnostics, "infeasible"));
}

TEST(AnalyzerTest, MixedFamilyLibraryChecksAgainstEveryPart) {
  // The bill (19060 CLBs, 280 BRAMs) fits XC5VFX130T but not the last
  // part of the extended library, XC7V585T (17920 CLBs, 224 BRAMs): the
  // library-wide checks must not mistake the last entry for the largest.
  const Design d =
      DesignBuilder("between")
          .module("A", {{"A1", {19000, 280, 0}}, {"A2", {100, 0, 0}}})
          .module("B", {{"B1", {50, 0, 0}}})
          .configuration({{"A", "A1"}, {"B", "B1"}})
          .configuration({{"A", "A2"}, {"B", "B1"}})
          .build();
  AnalysisOptions options;
  options.library = DeviceLibrary::extended();
  const AnalysisResult result = analyze_design(d, options);
  EXPECT_FALSE(result.proof.has_value());
  EXPECT_FALSE(has_code(result.diagnostics, "infeasible"));
  EXPECT_FALSE(has_code(result.diagnostics, "oversized-mode"));
  EXPECT_FALSE(result.has_errors());

  // Beyond every part the proof still fires, with no fitting witness.
  const Design huge = DesignBuilder("huge")
                          .module("A", {{"A1", {100000, 0, 0}}})
                          .configuration({{"A", "A1"}})
                          .build();
  const AnalysisResult beyond = analyze_design(huge, options);
  ASSERT_TRUE(beyond.proof.has_value());
  EXPECT_TRUE(beyond.proof->smallest_fitting_device.empty());
  EXPECT_TRUE(has_code(beyond.diagnostics, "oversized-mode"));
}

TEST(AnalyzerTest, OversizedModeIsAnErrorAgainstAnExplicitTarget) {
  const Design d = DesignBuilder("huge")
                       .module("A", {{"A1", {100000, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .build();
  AnalysisOptions options;
  options.budget = ResourceVec{4000, 32, 32};
  const AnalysisResult result = analyze_design(d, options);
  ASSERT_TRUE(has_code(result.diagnostics, "oversized-mode"));
  EXPECT_EQ(find_code(result.diagnostics, "oversized-mode").severity,
            Severity::Error);
  EXPECT_TRUE(result.has_errors());
}

TEST(AnalyzerTest, DeadOversizedModeDoesNotBlockAnExplicitTarget) {
  // The oversized mode never appears in a configuration, so the design is
  // still implementable: warn, do not error.
  const Design d = DesignBuilder("dead-huge")
                       .module("A", {{"A1", {100, 0, 0}}, {"A2", {100000, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}})
                       .configuration({{"A", "A1"}, {"B", "B1"}})
                       .build();
  AnalysisOptions options;
  options.budget = ResourceVec{4000, 32, 32};
  const AnalysisResult result = analyze_design(d, options);
  EXPECT_FALSE(result.has_errors());
  EXPECT_TRUE(has_code(result.diagnostics, "oversized-mode"));
  EXPECT_EQ(find_code(result.diagnostics, "oversized-mode").severity,
            Severity::Warning);
}

TEST(AnalyzerTest, DetectsSingleConfiguration) {
  const Design d = DesignBuilder("single")
                       .module("A", {{"A1", {100, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "single-config"));
  EXPECT_EQ(find_code(result.diagnostics, "single-config").severity,
            Severity::Info);
}

TEST(AnalyzerTest, DetectsSubsumedConfiguration) {
  const Design d = DesignBuilder("subsumed")
                       .module("A", {{"A1", {100, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}})
                       .configuration("Full", {{"A", "A1"}, {"B", "B1"}})
                       .configuration("Partial", {{"A", "A1"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "subsumed-config"));
  const Diagnostic& diag = find_code(result.diagnostics, "subsumed-config");
  EXPECT_EQ(diag.severity, Severity::Warning);
  EXPECT_NE(diag.message.find("'Partial'"), std::string::npos);
  EXPECT_NE(diag.message.find("'Full'"), std::string::npos);
}

TEST(AnalyzerTest, SuggestsMergingModulesThatNeverCoOccur) {
  const Design d = DesignBuilder("merge")
                       .module("A", {{"A1", {100, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .configuration({{"B", "B1"}})
                       .build();
  const AnalysisResult result = analyze_design(d);
  ASSERT_TRUE(has_code(result.diagnostics, "merge-candidate"));
  const Diagnostic& diag = find_code(result.diagnostics, "merge-candidate");
  EXPECT_EQ(diag.severity, Severity::Info);
  EXPECT_NE(diag.message.find("'A'"), std::string::npos);
  EXPECT_NE(diag.message.find("'B'"), std::string::npos);
}

TEST(AnalyzerTest, MergeSuggestionNotEmittedWhenModulesCoOccur) {
  EXPECT_FALSE(
      has_code(analyze_design(clean_design()).diagnostics, "merge-candidate"));
}

TEST(AnalyzerTest, InfeasibilityProofCarriesTheWitness) {
  const Design d = clean_design();
  AnalysisOptions options;
  options.budget = ResourceVec{100, 1, 1};
  const AnalysisResult result = analyze_design(d, options);

  ASSERT_TRUE(result.proof.has_value());
  const InfeasibilityProof& proof = *result.proof;
  EXPECT_EQ(proof.target, "budget");
  EXPECT_EQ(proof.raw_lower_bound, d.largest_configuration_area());
  EXPECT_EQ(proof.lower_bound,
            tiles_for(d.largest_configuration_area()).resources() +
                d.static_base());
  EXPECT_EQ(proof.capacity, (ResourceVec{100, 1, 1}));
  EXPECT_EQ(proof.binding, "clbs");
  EXPECT_EQ(proof.required, proof.lower_bound.clbs);
  EXPECT_EQ(proof.available, 100u);
  // The clean design fits comfortably on the smallest Virtex-5 part.
  EXPECT_EQ(proof.smallest_fitting_device, "XC5VLX20T");

  ASSERT_TRUE(has_code(result.diagnostics, "infeasible"));
  const Diagnostic& diag = find_code(result.diagnostics, "infeasible");
  EXPECT_EQ(diag.severity, Severity::Error);
  EXPECT_NE(diag.fixit.find("XC5VLX20T"), std::string::npos);
  // Errors sort first.
  EXPECT_EQ(result.diagnostics.front().severity, Severity::Error);
}

TEST(AnalyzerTest, FeasibleDesignAgainstNamedDeviceHasNoProof) {
  AnalysisOptions options;
  options.device = "XC5VFX200T";
  const AnalysisResult result = analyze_design(clean_design(), options);
  EXPECT_FALSE(result.proof.has_value());
  EXPECT_FALSE(has_code(result.diagnostics, "infeasible"));
}

TEST(AnalyzerTest, UnknownDeviceThrowsAUsageError) {
  AnalysisOptions options;
  options.device = "XC7NOPE";
  EXPECT_THROW(analyze_design(clean_design(), options), DeviceError);
}

TEST(AnalyzerTest, CaseStudyFlagsOnlyTheDeadRecoveryMode) {
  const Design receiver = synth::wireless_receiver_design();
  const AnalysisResult result = analyze_design(receiver);
  EXPECT_FALSE(result.has_errors());
  std::size_t dead = 0;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.severity != Severity::Warning) continue;
    EXPECT_EQ(d.code, "dead-mode") << d.message;
    ++dead;
  }
  EXPECT_EQ(dead, 1u);
  EXPECT_NE(find_code(result.diagnostics, "dead-mode").message.find("R4"),
            std::string::npos);
}

TEST(AnalyzerTest, RenderIncludesSeverityAndCode) {
  const AnalysisResult result =
      analyze_design(synth::wireless_receiver_design());
  const std::string text = render_text(result.diagnostics);
  EXPECT_NE(text.find("warning[dead-mode]"), std::string::npos);
}

TEST(AnalyzerTest, JsonReportsFeasibleTrueOnACleanDesign) {
  const json::Value v = analysis_json(analyze_design(clean_design()));
  EXPECT_TRUE(v.at("feasible").as_bool());
  EXPECT_EQ(v.at("errors").as_u64(), 0u);
  EXPECT_TRUE(v.at("diagnostics").items().empty());
}

TEST(AnalyzerTest, JsonCarriesTheProofWhenInfeasible) {
  AnalysisOptions options;
  // Every mode fits this budget individually, so the only error is the
  // lower-bound proof (the bound is {490, 12, 8}).
  options.budget = ResourceVec{450, 12, 8};
  const json::Value v =
      analysis_json(analyze_design(clean_design(), options));
  EXPECT_FALSE(v.at("feasible").as_bool());
  EXPECT_GE(v.at("errors").as_u64(), 1u);
  const json::Value& proof = v.at("proof");
  EXPECT_EQ(proof.at("target").as_string(), "budget");
  EXPECT_EQ(proof.at("binding").as_string(), "clbs");
  EXPECT_EQ(proof.at("smallest_fitting_device").as_string(), "XC5VLX20T");
  const json::Value& first = v.at("diagnostics").items().front();
  EXPECT_EQ(first.at("severity").as_string(), "error");
  EXPECT_EQ(first.at("code").as_string(), "infeasible");
}

}  // namespace
}  // namespace prpart::analysis
