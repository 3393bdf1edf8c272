//===- bench/BenchUtil.h - Shared experiment-harness helpers ----*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: aligned table printing,
/// coverage-curve CSV emission, and paper-vs-measured comparison lines.
/// Every harness prints (a) a human-readable table shaped like the paper's
/// and (b) a machine-readable CSV block for regenerating the plots.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_BENCH_BENCHUTIL_H
#define ICB_BENCH_BENCHUTIL_H

#include "rt/Explore.h"
#include "search/SearchTypes.h"
#include "session/Json.h"
#include <string>
#include <vector>

namespace icb::benchutil {

/// Prints a boxed section header to stdout.
void printHeader(const std::string &Title, const std::string &Subtitle = "");

/// Prints an aligned text table to stdout.
void printTable(const std::vector<std::string> &Headers,
                const std::vector<std::vector<std::string>> &Rows);

/// Prints a CSV block (between BEGIN/END markers) to stdout.
void printCsv(const std::string &Name,
              const std::vector<std::string> &Headers,
              const std::vector<std::vector<std::string>> &Rows);

/// Prints a machine-readable JSON block (between "BEGIN JSON <name>" /
/// "END JSON <name>" markers) to stdout, rendered through the session
/// JSON writer so harness output and session artifacts share one format.
/// Session JSON numbers are unsigned integers only.
void printJsonBlock(const std::string &Name, const session::JsonValue &Root);

/// Downsamples a states-vs-executions curve to at most \p MaxPoints
/// samples (always keeping the last point).
std::vector<rt::CoveragePoint>
sampleCurve(const std::vector<rt::CoveragePoint> &Curve, size_t MaxPoints);

/// One named curve for a growth figure.
struct NamedCurve {
  std::string Name;
  std::vector<rt::CoveragePoint> Points;
};

/// Prints a growth figure: a compact table of states at execution
/// milestones per strategy, plus the full CSV.
void printGrowthFigure(const std::string &FigureName,
                       const std::vector<NamedCurve> &Curves,
                       uint64_t MaxExecutions);

/// Prints one "paper vs measured" comparison line.
void printComparison(const std::string &What, const std::string &Paper,
                     const std::string &Measured);

} // namespace icb::benchutil

#endif // ICB_BENCH_BENCHUTIL_H
