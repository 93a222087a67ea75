// Locale-independent text for doubles.
//
// write_exact_double prints a round-trip-exact C99 hexadecimal float
// literal ("%a", e.g. 0x1.8p+3) for the human-readable model export
// (core::write_model / lut::write_table). printf uses the process
// LC_NUMERIC radix character, so the writer normalizes it to '.': an
// embedding application that calls setlocale(LC_NUMERIC, "de_DE...")
// still writes the same text as under the C locale.
//
// parse_double_token reads decimal network/CLI input with std::from_chars,
// which never consults the locale.
#ifndef MCSM_COMMON_FP_TEXT_H
#define MCSM_COMMON_FP_TEXT_H

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace mcsm {

// Writes v as a hexadecimal float literal that denotes v bit-exactly for
// every finite double, including subnormals and -0.0.
inline void write_exact_double(std::ostream& os, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    if (std::isfinite(v)) {
        // The only non-[0-9a-fA-FxXpP+-] character %a can emit for a
        // finite value is the locale radix; normalize it to '.'.
        for (char* p = buf; *p != '\0'; ++p) {
            const unsigned char c = static_cast<unsigned char>(*p);
            if (!std::isxdigit(c) && *p != 'x' && *p != 'X' && *p != 'p' &&
                *p != 'P' && *p != '+' && *p != '-')
                *p = '.';
        }
    }
    os << buf;
}

// Parses a whole token as a decimal (or scientific) double, LOCALE-
// INDEPENDENTLY: std::from_chars always uses the '.' radix and never
// consults LC_NUMERIC, so a wire protocol parsed through here reads
// "2.5e-12" identically whether the embedding process runs under "C" or a
// comma-radix locale like de_DE (strtod/std::stod would stop at the '.'
// and silently drop the fraction). Returns false for empty tokens,
// trailing garbage, or non-finite results -- a network peer cannot smuggle
// "inf"/"nan" into a query. This is the parser for NETWORK/CLI input.
inline bool parse_double_token(std::string_view token, double& out) {
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc() || end != token.data() + token.size() ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

}  // namespace mcsm

#endif  // MCSM_COMMON_FP_TEXT_H
