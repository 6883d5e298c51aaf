/**
 * @file
 * Plain-text table printer used by the benchmark harnesses to render the
 * paper's tables and figure series in a stable, diffable format.
 */

#ifndef EHDL_COMMON_TABLE_HPP_
#define EHDL_COMMON_TABLE_HPP_

#include <string>
#include <vector>

namespace ehdl {

/** Accumulates rows of strings and renders an aligned ASCII table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Render with column alignment. */
    std::string render() const;

    const std::vector<std::string> &header() const { return header_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimal places. */
std::string fmtF(double v, int digits = 2);

/** Format a double as a percentage with @p digits decimals. */
std::string fmtPct(double v, int digits = 2);

}  // namespace ehdl

#endif  // EHDL_COMMON_TABLE_HPP_
