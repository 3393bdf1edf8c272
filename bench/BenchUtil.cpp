//===- bench/BenchUtil.cpp - Shared experiment-harness helpers ------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Format.h"
#include <algorithm>
#include <cstdio>

using namespace icb;
using namespace icb::benchutil;

void icb::benchutil::printHeader(const std::string &Title,
                                 const std::string &Subtitle) {
  std::string Bar(72, '=');
  std::printf("\n%s\n  %s\n", Bar.c_str(), Title.c_str());
  if (!Subtitle.empty())
    std::printf("  %s\n", Subtitle.c_str());
  std::printf("%s\n", Bar.c_str());
}

void icb::benchutil::printTable(
    const std::vector<std::string> &Headers,
    const std::vector<std::vector<std::string>> &Rows) {
  std::vector<size_t> Widths(Headers.size());
  for (size_t I = 0; I != Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I != Row.size() && I != Widths.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  auto PrintRow = [&](const std::vector<std::string> &Cells) {
    std::string Line = " ";
    for (size_t I = 0; I != Widths.size(); ++I) {
      std::string Cell = I < Cells.size() ? Cells[I] : "";
      Line += " " + padRight(Cell, Widths[I]) + " ";
    }
    std::printf("%s\n", Line.c_str());
  };
  PrintRow(Headers);
  std::string Rule = " ";
  for (size_t W : Widths)
    Rule += " " + std::string(W, '-') + " ";
  std::printf("%s\n", Rule.c_str());
  for (const auto &Row : Rows)
    PrintRow(Row);
}

void icb::benchutil::printCsv(const std::string &Name,
                              const std::vector<std::string> &Headers,
                              const std::vector<std::vector<std::string>> &Rows) {
  std::printf("\n--- BEGIN CSV %s ---\n", Name.c_str());
  for (size_t I = 0; I != Headers.size(); ++I)
    std::printf("%s%s", I ? "," : "", Headers[I].c_str());
  std::printf("\n");
  for (const auto &Row : Rows) {
    for (size_t I = 0; I != Row.size(); ++I)
      std::printf("%s%s", I ? "," : "", Row[I].c_str());
    std::printf("\n");
  }
  std::printf("--- END CSV %s ---\n", Name.c_str());
}

void icb::benchutil::printJsonBlock(const std::string &Name,
                                    const session::JsonValue &Root) {
  std::string Text = session::jsonWrite(Root);
  while (!Text.empty() && Text.back() == '\n')
    Text.pop_back();
  std::printf("\nBEGIN JSON %s\n%s\nEND JSON %s\n", Name.c_str(), Text.c_str(),
              Name.c_str());
}

std::vector<rt::CoveragePoint>
icb::benchutil::sampleCurve(const std::vector<rt::CoveragePoint> &Curve,
                            size_t MaxPoints) {
  if (Curve.size() <= MaxPoints)
    return Curve;
  std::vector<rt::CoveragePoint> Sampled;
  Sampled.reserve(MaxPoints);
  double Stride =
      static_cast<double>(Curve.size()) / static_cast<double>(MaxPoints);
  for (size_t I = 0; I != MaxPoints; ++I) {
    size_t Index = static_cast<size_t>(static_cast<double>(I) * Stride);
    Sampled.push_back(Curve[std::min(Index, Curve.size() - 1)]);
  }
  Sampled.back() = Curve.back();
  return Sampled;
}

namespace {

/// States reached by a curve at (or before) a given execution count.
uint64_t statesAt(const std::vector<rt::CoveragePoint> &Curve,
                  uint64_t Executions) {
  uint64_t Best = 0;
  for (const rt::CoveragePoint &P : Curve) {
    if (P.Executions > Executions)
      break;
    Best = P.States;
  }
  return Best;
}

} // namespace

void icb::benchutil::printGrowthFigure(const std::string &FigureName,
                                       const std::vector<NamedCurve> &Curves,
                                       uint64_t MaxExecutions) {
  // Milestones: roughly logarithmic, like reading points off the paper's
  // log-scale plots.
  std::vector<uint64_t> Milestones;
  for (uint64_t M : {100ull, 500ull, 1000ull, 5000ull, 10000ull, 25000ull,
                     50000ull, 100000ull})
    if (M <= MaxExecutions)
      Milestones.push_back(M);
  if (Milestones.empty() || Milestones.back() != MaxExecutions)
    Milestones.push_back(MaxExecutions);

  std::vector<std::string> Headers{"strategy"};
  for (uint64_t M : Milestones)
    Headers.push_back(strFormat("@%llu", static_cast<unsigned long long>(M)));
  std::vector<std::vector<std::string>> Rows;
  for (const NamedCurve &Curve : Curves) {
    std::vector<std::string> Row{Curve.Name};
    for (uint64_t M : Milestones)
      Row.push_back(withCommas(statesAt(Curve.Points, M)));
    Rows.push_back(std::move(Row));
  }
  std::printf("\nDistinct states covered after N executions:\n");
  printTable(Headers, Rows);

  std::vector<std::vector<std::string>> CsvRows;
  for (const NamedCurve &Curve : Curves)
    for (const rt::CoveragePoint &P : sampleCurve(Curve.Points, 200))
      CsvRows.push_back(
          {Curve.Name,
           strFormat("%llu", static_cast<unsigned long long>(P.Executions)),
           strFormat("%llu", static_cast<unsigned long long>(P.States))});
  printCsv(FigureName, {"strategy", "executions", "states"}, CsvRows);
}

void icb::benchutil::printComparison(const std::string &What,
                                     const std::string &Paper,
                                     const std::string &Measured) {
  std::printf("  %-46s paper: %-18s measured: %s\n", What.c_str(),
              Paper.c_str(), Measured.c_str());
}
