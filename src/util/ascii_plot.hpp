// Terminal rendering of experiment output: aligned tables for the paper's
// Table 1 and multi-series line plots for its figures, so every bench binary
// shows the reproduced shape directly in the console (CSV files carry the
// full-precision data).
#pragma once

#include <string>
#include <vector>

namespace groupfel::util {

/// A named series of (x, y) points.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Renders series as an ASCII line chart (one glyph per series).
[[nodiscard]] std::string ascii_plot(const std::vector<Series>& series,
                                     const std::string& title,
                                     const std::string& x_label,
                                     const std::string& y_label,
                                     int width = 72, int height = 20);

/// Renders rows as an aligned text table. `rows` are pre-formatted strings.
[[nodiscard]] std::string ascii_table(
    const std::string& title, const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace groupfel::util
