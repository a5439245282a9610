//===-- cad/Sexp.h - S-expression serialization -----------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// S-expression serialization of CAD terms. The paper serializes models as
/// s-expressions (via Janestreet `@deriving`); this module provides the
/// equivalent reader/printer pair, plus the paper-style pretty printer used
/// in figures ("Translate (1, 2, 3, Unit)").
///
/// Syntax:
///   term  ::= atom | '(' head term* ')'
///   atom  ::= number            -- Float if it contains '.' 'e' 'E', else Int
///           | opname            -- a zero-arity operator (Unit, Nil, ...)
///           | boolop            -- Union/Diff/Inter as an OpRef value
///           | '?'ident          -- a pattern variable (rewrite patterns only)
///   head  ::= opname | 'Var' | 'External'
///
/// Examples:
///   (Union (Translate (Vec3 1.0 2.0 3.0) Unit) (Sphere))
///   (Fold Union Empty (Mapi (Fun (Var i) (Var c) ...) (Repeat Unit 5)))
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_CAD_SEXP_H
#define SHRINKRAY_CAD_SEXP_H

#include "cad/Term.h"

#include <optional>
#include <string>
#include <string_view>

namespace shrinkray {

/// Result of parsing: a term or a diagnostic.
struct ParseResult {
  TermPtr Value;      ///< non-null on success
  std::string Error;  ///< diagnostic on failure ("line:col: message" style)

  explicit operator bool() const { return Value != nullptr; }
};

/// Nesting bound of the model parsers (parseSexp, scad::parseScad). Both
/// are recursive descent, so an input nested deeper than this is rejected
/// with a diagnostic rather than overflowing the stack. The deepest
/// Table 1 input nests 65 levels.
constexpr size_t kMaxParseDepth = 1024;

/// One level of model-parser recursion, held for the lifetime of a
/// recursive parse call on the parser's \p Depth counter.
struct ParseNesting {
  size_t &Depth;
  explicit ParseNesting(size_t &D) : Depth(D) { ++Depth; }
  ~ParseNesting() { --Depth; }
  bool tooDeep() const { return Depth > kMaxParseDepth; }
};

/// Parses a single term from \p Text. Trailing whitespace is allowed;
/// trailing non-whitespace is an error, and so is nesting deeper than
/// kMaxParseDepth.
ParseResult parseSexp(std::string_view Text);

/// Prints \p T as a canonical single-line s-expression. Round-trips through
/// parseSexp (bit-exact for Int; shortest round-trip form for Float).
std::string printSexp(const TermPtr &T);

/// Pretty-prints \p T in the paper's OCaml-like style with indentation:
///   Translate (1, 2, 3, Unit)
///   Fold (Union, Empty, Mapi (Fun (i, c) -> ..., Repeat (Tooth, 60)))
std::string prettyPrint(const TermPtr &T);

/// Formats a double in its shortest form that round-trips, with a trailing
/// ".0" added to distinguish Float literals from Int in the s-expr syntax.
std::string formatFloat(double Value);

} // namespace shrinkray

#endif // SHRINKRAY_CAD_SEXP_H
