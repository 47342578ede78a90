#include "util/ascii_plot.hpp"

#include <algorithm>
#include <cmath>

#include "util/format.hpp"
#include <limits>

namespace groupfel::util {

namespace {
constexpr char kGlyphs[] = {'*', '+', 'o', 'x', '#', '@', '%', '&', '$', '~'};
}

std::string ascii_plot(const std::vector<Series>& series,
                       const std::string& title, const std::string& x_label,
                       const std::string& y_label, int width, int height) {
  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = xmin, ymax = -xmin;
  bool any = false;
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      xmin = std::min(xmin, s.x[i]);
      xmax = std::max(xmax, s.x[i]);
      ymin = std::min(ymin, s.y[i]);
      ymax = std::max(ymax, s.y[i]);
      any = true;
    }
  }
  std::string out = "== " + title + " ==\n";
  if (!any) return out + "(no data)\n";
  if (xmax == xmin) xmax = xmin + 1;
  if (ymax == ymin) ymax = ymin + 1;

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    const auto& s = series[si];
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const int cx = static_cast<int>(std::lround(
          (s.x[i] - xmin) / (xmax - xmin) * (width - 1)));
      const int cy = static_cast<int>(std::lround(
          (s.y[i] - ymin) / (ymax - ymin) * (height - 1)));
      grid[static_cast<std::size_t>(height - 1 - cy)]
          [static_cast<std::size_t>(std::clamp(cx, 0, width - 1))] = glyph;
    }
  }

  out += y_label + " (top=" + num(ymax, 4) + ", bottom=" + num(ymin, 4) + ")\n";
  for (const auto& line : grid) out += "|" + line + "\n";
  out += "+" + std::string(static_cast<std::size_t>(width), '-') + "\n";
  out += x_label + ": [" + num(xmin, 4) + ", " + num(xmax, 4) + "]   legend: ";
  for (std::size_t si = 0; si < series.size(); ++si) {
    if (si) out += "  ";
    out += std::string(1, kGlyphs[si % sizeof(kGlyphs)]) + "=" + series[si].name;
  }
  out += "\n";
  return out;
}

std::string ascii_table(const std::string& title,
                        const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& r : rows)
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto emit_row = [&](const std::vector<std::string>& r) {
    std::string line = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string{};
      line += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string sep = "+";
  for (auto w : widths) sep += std::string(w + 2, '-') + "+";
  sep += "\n";

  std::string out = "== " + title + " ==\n" + sep + emit_row(header) + sep;
  for (const auto& r : rows) out += emit_row(r);
  out += sep;
  return out;
}

}  // namespace groupfel::util
